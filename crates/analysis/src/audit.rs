//! Running the audit: read and scan the workspace once, run the requested
//! passes over the scanned files, and count the Fig. 10 table from the
//! same texts. Every run audits every file in full: with the per-file
//! identifier tables built at scan time the four passes cost well under a
//! millisecond, so there is nothing for a verdict cache to save.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::report::{component_rows, AuditReport};
use crate::source::{read_file, scan_text, workspace_sources, ScannedFile};
use crate::staleness::{self, StaleEntry};
use crate::{coverage, crosscheck, tcb};
use tt_contracts::span::SourceIndex;

/// Locates the workspace root from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

/// `path` as given when absolute, else anchored at the workspace root,
/// so a bin finds its committed files from any working directory.
pub fn in_workspace(path: impl AsRef<Path>) -> PathBuf {
    let path = path.as_ref();
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        workspace_root().join(path)
    }
}

/// The default allowlist location, relative to the workspace root.
pub const DEFAULT_CONFIG: &str = "ci/tcb_allowlist.toml";

/// Reads the audited source set under `root` as `(workspace-relative
/// path, text)` pairs.
pub fn read_workspace(root: &Path) -> Vec<(String, String)> {
    workspace_sources(root)
        .iter()
        .filter_map(|p| read_file(root, p))
        .collect()
}

/// Loads and scans the audited source set under `root`.
pub fn load_workspace(root: &Path) -> Vec<ScannedFile> {
    scan_all(&read_workspace(root))
}

/// Scans each `(workspace-relative path, text)` pair, in order.
fn scan_all(sources: &[(String, String)]) -> Vec<ScannedFile> {
    sources
        .iter()
        .map(|(rel, text)| scan_text(rel, text))
        .collect()
}

/// Milliseconds since `t0`.
fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1000.0
}

/// Runs the selected passes over pre-scanned files.
pub fn run_passes(files: &[ScannedFile], config: &AuditConfig, passes: &[Pass]) -> Vec<Finding> {
    let mut findings = run_timed_passes(files, config, passes, &mut Vec::new());
    if passes.contains(&Pass::Staleness) {
        findings.extend(staleness::audit(files, config));
    }
    findings
}

/// Runs the full audit rooted at `root` and assembles the report: each
/// file is read once, scanned once for the passes, and counted once for
/// the Fig. 10 table.
pub fn run(root: &Path, config: &AuditConfig, passes: &[Pass]) -> AuditReport {
    let sources = read_workspace(root);
    let files = scan_all(&sources);
    let mut pass_ms = Vec::new();
    let mut findings = run_timed_passes(&files, config, passes, &mut pass_ms);
    let stale_entries = if passes.contains(&Pass::Staleness) {
        let pass_start = Instant::now();
        let entries = staleness::stale_entries(&files, config);
        pass_ms.push((Pass::Staleness, ms_since(pass_start)));
        findings.extend(entries.iter().map(StaleEntry::to_finding));
        entries
    } else {
        Vec::new()
    };

    let (rows, total, total_trusted_loc) = component_rows(root, &sources, &files, config);
    AuditReport {
        rows,
        total,
        total_trusted_loc,
        findings,
        stale_entries,
        pass_ms,
        cold: None,
    }
}

/// The TCB, coverage and cross-check passes, each timed into `pass_ms`
/// (the staleness pass runs apart: [`run`] keeps its structured entries).
fn run_timed_passes(
    files: &[ScannedFile],
    config: &AuditConfig,
    passes: &[Pass],
    pass_ms: &mut Vec<(Pass, f64)>,
) -> Vec<Finding> {
    type PassFn = fn(&[ScannedFile], &AuditConfig) -> Vec<Finding>;
    let timed: [(Pass, PassFn); 3] = [
        (Pass::Tcb, tcb::audit),
        (Pass::Coverage, coverage::audit),
        (Pass::Crosscheck, crosscheck::audit),
    ];
    let mut findings = Vec::new();
    for (pass, audit) in timed {
        if passes.contains(&pass) {
            let t0 = Instant::now();
            findings.extend(audit(files, config));
            pass_ms.push((pass, ms_since(t0)));
        }
    }
    findings
}

/// The walls a `tt-audit --cold` run reports, in milliseconds, each the
/// minimum of several repeats (min of K, as perfbench times its ops, so
/// a noisy neighbour slows only the repeats it touches).
#[derive(Debug, Clone, Copy)]
pub struct ColdWalls {
    /// [`run_passes`] with the requested passes on the scanned
    /// tree: the gated audit cost.
    pub passes_ms: f64,
    /// [`scan_text`] of every audited file: where the per-file facts
    /// (hashes, identifier tables) are derived.
    pub scan_ms: f64,
    /// One in-memory edit of the largest file: [`scan_text`] of the
    /// edited text, [`SourceIndex::from_files`] and [`run_passes`] with
    /// all four passes — the edit loop minus discharge. Gated.
    pub edit_ms: f64,
}

/// Minimum wall, in milliseconds, of `k` calls of `f`.
fn min_ms(k: usize, mut f: impl FnMut()) -> f64 {
    (0..k)
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms_since(t0)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the [`ColdWalls`] of the tree under `root`, `k` repeats each.
pub fn cold_walls(root: &Path, config: &AuditConfig, passes: &[Pass], k: usize) -> ColdWalls {
    let sources = read_workspace(root);
    let mut files = scan_all(&sources);
    let passes_ms = min_ms(k, || {
        std::hint::black_box(run_passes(&files, config, passes));
    });
    let scan_ms = min_ms(k, || {
        for (rel, text) in &sources {
            std::hint::black_box(scan_text(rel, text));
        }
    });
    // The edit: a comment appended to the largest file's middle line.
    let largest = (0..sources.len()).max_by_key(|&i| sources[i].1.len());
    let edit_ms = largest.map_or(0.0, |i| {
        let (rel, text) = &sources[i];
        let middle = text.lines().count() / 2;
        let edited: String = text
            .lines()
            .enumerate()
            .map(|(n, line)| match n == middle {
                true => format!("{line} // edit\n"),
                false => format!("{line}\n"),
            })
            .collect();
        min_ms(k, || {
            files[i] = scan_text(rel, &edited);
            std::hint::black_box(SourceIndex::from_files(&files));
            std::hint::black_box(run_passes(&files, config, &Pass::ALL));
        })
    });
    ColdWalls {
        passes_ms,
        scan_ms,
        edit_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_PASSES: &[Pass] = &Pass::ALL;

    #[test]
    fn workspace_root_contains_crates_dir() {
        assert!(workspace_root().join("crates").is_dir());
    }

    #[test]
    fn load_workspace_scans_the_kernel_sources() {
        let files = load_workspace(&workspace_root());
        assert!(files.len() > 20, "only {} files", files.len());
        assert!(files
            .iter()
            .any(|f| f.rel_path == "crates/core/src/breaks.rs"));
        // Shims and test dirs stay out of the audited set.
        assert!(files.iter().all(|f| !f.rel_path.starts_with("shims/")));
    }

    #[test]
    fn full_audit_on_the_real_tree_is_clean() {
        // The tree ships with a valid allowlist; the audit must gate green
        // — including the staleness lint over the allowlist itself.
        let root = workspace_root();
        let config = AuditConfig::load(&root.join(DEFAULT_CONFIG)).expect("allowlist parses");
        let report = run(&root, &config, ALL_PASSES);
        assert!(
            report.clean(),
            "audit findings on the shipped tree:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.stale_entries.is_empty());
        assert_eq!(report.rows.len(), 5);
        assert!(report.total_trusted_loc > 0, "no trusted LOC accounted");
    }

    #[test]
    fn the_real_tree_has_the_papers_effort_shape() {
        let root = workspace_root();
        let config = AuditConfig::load(&root.join(DEFAULT_CONFIG)).expect("allowlist parses");
        let report = run(&root, &config, ALL_PASSES);
        for row in &report.rows {
            assert!(
                row.counts.source_loc > 100,
                "{}: {:?}",
                row.name,
                row.counts
            );
            assert!(row.counts.fns > 5, "{}: {:?}", row.name, row.counts);
        }
        // A modest annotation overhead: the paper has 3.6 KLOC of specs
        // for 22 KLOC of source, ~16%; ours stays well under 1:1.
        let total = &report.total;
        assert!(total.spec_loc * 2 < total.source_loc, "{total:?}");
        assert!(total.spec_loc > 100, "specs too sparse: {total:?}");
        // The declared TCB is small relative to the verified surface.
        assert!(report.total_trusted_loc * 4 < total.source_loc);
        let table = crate::report::render_table(&report);
        for name in [
            "Kernel",
            "ARM MPU",
            "Risc-V MPU",
            "Flux-Std",
            "FluxArm",
            "Total",
            "TrustedLOC",
        ] {
            assert!(table.contains(name), "missing {name} in\n{table}");
        }
        let metrics = crate::report::metrics(&report);
        let trusted = metrics.get("Total.trusted_loc").expect("emitted");
        assert_eq!(trusted.value, report.total_trusted_loc as f64);
    }
}
