//! The audit driver: scan once, run the requested passes, build the report.
//!
//! Two entry points: [`run`] audits from scratch; [`run_cached`] routes
//! the three cacheable passes through a [`VerdictCache`]
//! (`ci/audit_cache.bin`), skipping files whose content, allowlist and
//! registry hashes are unchanged since the last clean audit. The TCB and
//! coverage passes cache one verdict per file (their findings are purely
//! file-local); the cross-check diffs global sets, so it caches a single
//! whole-workspace verdict. The staleness pass is never cached — it is
//! the guard on the allowlist the other passes' domain hashes derive
//! from, and it must see the real tree every run. Only *clean* results
//! are stored: a file with findings is re-audited until it is fixed, so
//! findings can never be masked by a cache hit.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::report::{component_rows, AuditReport, CacheStats};
use crate::source::{read_file, scan_text, workspace_sources, ScannedFile};
use crate::staleness::{self, StaleEntry};
use crate::{coverage, crosscheck, tcb};
use tt_contracts::obligation::Registry;
use tt_contracts::span::{Fnv, SourceIndex};
use tt_contracts::vcache::{verdict_key, LoadOutcome, Verdict, VerdictCache};

/// Cache kind tag for per-file TCB-audit verdicts (the `verify_all`
/// verdicts use tag 0 and the `ContractKind` ordinals stay below 5).
pub const TAG_TCB: u8 = 5;
/// Cache kind tag for per-file invariant-coverage verdicts.
pub const TAG_COVERAGE: u8 = 6;
/// Cache kind tag for the whole-workspace cross-check verdict.
pub const TAG_CROSSCHECK: u8 = 7;

/// Default on-disk location of the audit verdict cache (workspace-
/// relative, gitignored).
pub const DEFAULT_AUDIT_CACHE: &str = "ci/audit_cache.bin";

/// The audit cache schema generation; bump to force a cold audit when
/// the meaning of a cached verdict changes.
const SCHEMA: u64 = 1;

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
    read_workspace(root)
        .iter()
        .map(|(rel, text)| scan_text(rel, text))
        .collect()
}

/// The audit's toolchain/config hash: tool version, build profile and
/// cache schema. A mismatch makes every cached audit verdict unreachable.
pub fn audit_config_hash() -> u64 {
    let mut h = Fnv::new();
    h.mix_u64(SCHEMA);
    h.mix_u64(tt_contracts::vcache::VERSION as u64);
    h.mix_str(env!("CARGO_PKG_VERSION"));
    h.mix_u64(cfg!(debug_assertions) as u64);
    h.finish()
}

/// Hash of the parsed allowlist — the obligation-domain leg of every
/// audit verdict. Any entry added, removed or edited in any section
/// changes this hash and invalidates all cached audit verdicts.
fn allowlist_domain(config: &AuditConfig) -> u64 {
    let mut h = Fnv::new();
    for (i, list) in [
        &config.trusted,
        &config.coverage_files,
        &config.allow_unregistered,
        &config.allow_dead,
    ]
    .iter()
    .enumerate()
    {
        h.mix_u64(i as u64);
        h.mix_u64(list.len() as u64);
        for s in list.iter() {
            h.mix_str(s);
        }
    }
    h.finish()
}

/// Identity hash of a registry's obligation set (names, kinds, trusted
/// flags): a registration added or changed re-runs the cross-check.
fn registry_signature(registry: &Registry) -> u64 {
    let mut h = Fnv::new();
    h.mix_u64(registry.obligations().len() as u64);
    for o in registry.obligations() {
        h.mix_str(o.component);
        h.mix_str(&o.function);
        h.mix_u64(o.kind as u64);
        h.mix_u64(o.trusted as u64);
    }
    h.finish()
}

/// Milliseconds since `t0`.
fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1000.0
}

/// Runs the selected passes over pre-scanned files (no caching).
pub fn run_passes(files: &[ScannedFile], config: &AuditConfig, passes: &[Pass]) -> Vec<Finding> {
    let mut findings = run_cacheable_passes(files, config, passes, &mut Vec::new());
    if passes.contains(&Pass::Staleness) {
        findings.extend(staleness::audit(files, config));
    }
    findings
}

/// Runs the full audit rooted at `root` and assembles the report.
pub fn run(root: &Path, config: &AuditConfig, passes: &[Pass]) -> AuditReport {
    run_inner(root, config, passes, None)
}

/// Runs the audit with the verdict cache at `cache_file`: unchanged files
/// (TCB, coverage) and an unchanged workspace (cross-check) are skipped.
/// `force_cold` discards any existing cache first. A missing, corrupt or
/// config-mismatched cache degrades to exactly the cold audit — never
/// partial reuse.
pub fn run_cached(
    root: &Path,
    config: &AuditConfig,
    passes: &[Pass],
    cache_file: &Path,
    force_cold: bool,
) -> AuditReport {
    run_inner(root, config, passes, Some((cache_file, force_cold)))
}

fn run_inner(
    root: &Path,
    config: &AuditConfig,
    passes: &[Pass],
    cache: Option<(&Path, bool)>,
) -> AuditReport {
    let start = Instant::now();
    let files = load_workspace(root);
    let mut pass_ms = Vec::new();

    let (mut findings, cache_stats) = match cache {
        None => (
            run_cacheable_passes(&files, config, passes, &mut pass_ms),
            None,
        ),
        Some((path, force_cold)) => {
            let cfg_hash = audit_config_hash();
            let (mut vc, outcome) = if force_cold {
                let _ = std::fs::remove_file(path);
                (VerdictCache::new(cfg_hash), LoadOutcome::NoFile)
            } else {
                VerdictCache::load_or_cold(path, cfg_hash)
            };
            let domain = allowlist_domain(config);
            let mut findings = Vec::new();
            let mut skipped = [0usize; 3];

            // Per-file passes: one verdict per (pass, file).
            type FilePass = fn(&ScannedFile, &AuditConfig) -> Vec<Finding>;
            let per_file: [(Pass, u8, FilePass); 2] = [
                (Pass::Tcb, TAG_TCB, tcb::audit_file),
                (Pass::Coverage, TAG_COVERAGE, coverage::audit_file),
            ];
            for (i, (pass, tag, pass_fn)) in per_file.into_iter().enumerate() {
                if !passes.contains(&pass) {
                    continue;
                }
                let pass_start = Instant::now();
                for file in &files {
                    let key = verdict_key(tag, pass.name(), &file.rel_path);
                    let fnh = file.content_hash();
                    if vc.lookup(key, fnh, domain).is_some() {
                        skipped[i] += 1;
                        continue;
                    }
                    let t0 = Instant::now();
                    let fs = pass_fn(file, config);
                    if fs.is_empty() {
                        vc.store(Verdict {
                            key_hash: key,
                            fn_hash: fnh,
                            domain_hash: domain,
                            cases: 1,
                            duration_ns: t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                            trusted: false,
                            kind: tag,
                        });
                    }
                    findings.extend(fs);
                }
                pass_ms.push((pass, ms_since(pass_start)));
            }

            // Cross-check: global set diff, one whole-workspace verdict.
            if passes.contains(&Pass::Crosscheck) {
                let pass_start = Instant::now();
                let registry = crosscheck::workspace_registry();
                let mut wh = Fnv::new();
                wh.mix_u64(files.len() as u64);
                for f in &files {
                    wh.mix_str(&f.rel_path);
                    wh.mix_u64(f.content_hash());
                }
                let ws_hash = wh.finish();
                let mut dh = Fnv::new();
                dh.mix_u64(domain);
                dh.mix_u64(registry_signature(&registry));
                let xdomain = dh.finish();
                let key = verdict_key(TAG_CROSSCHECK, "crosscheck", "workspace");
                if vc.lookup(key, ws_hash, xdomain).is_some() {
                    skipped[2] = 1;
                } else {
                    let t0 = Instant::now();
                    let fs = crosscheck::audit_against(&files, &registry, config);
                    if fs.is_empty() {
                        vc.store(Verdict {
                            key_hash: key,
                            fn_hash: ws_hash,
                            domain_hash: xdomain,
                            cases: 1,
                            duration_ns: t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                            trusted: false,
                            kind: TAG_CROSSCHECK,
                        });
                    }
                    findings.extend(fs);
                }
                pass_ms.push((Pass::Crosscheck, ms_since(pass_start)));
            }

            let wall = start.elapsed();
            if !outcome.is_warm() {
                vc.set_cold_wall_ns(wall.as_nanos().min(u64::MAX as u128) as u64);
            }
            if let Err(e) = vc.save(path) {
                eprintln!(
                    "warning: could not save audit cache {}: {e}",
                    path.display()
                );
            }
            let stats = CacheStats {
                warm: outcome.is_warm(),
                hit_rate: vc.hit_rate(),
                wall_ms: wall.as_secs_f64() * 1000.0,
                cold_wall_ms: vc.cold_wall_ns() as f64 / 1e6,
                skipped_tcb: skipped[0],
                skipped_coverage: skipped[1],
                skipped_crosscheck: skipped[2],
                corrupt: match &outcome {
                    LoadOutcome::Corrupt(e) => Some(e.to_string()),
                    _ => None,
                },
            };
            (findings, Some(stats))
        }
    };

    // The staleness lint runs on every audit, cached or not: it guards
    // the allowlist that every cached verdict's domain hash derives from.
    let stale_entries = if passes.contains(&Pass::Staleness) {
        let pass_start = Instant::now();
        let entries = staleness::stale_entries(&files, config);
        pass_ms.push((Pass::Staleness, ms_since(pass_start)));
        findings.extend(entries.iter().map(StaleEntry::to_finding));
        entries
    } else {
        Vec::new()
    };

    let (rows, total, total_trusted_loc) = component_rows(root, &files, config);
    AuditReport {
        rows,
        total,
        total_trusted_loc,
        findings,
        stale_entries,
        cache: cache_stats,
        pass_ms,
        cold: None,
    }
}

/// The three cacheable passes, uncached (the [`run`] path), each timed
/// into `pass_ms`.
fn run_cacheable_passes(
    files: &[ScannedFile],
    config: &AuditConfig,
    passes: &[Pass],
    pass_ms: &mut Vec<(Pass, f64)>,
) -> Vec<Finding> {
    type PassFn = fn(&[ScannedFile], &AuditConfig) -> Vec<Finding>;
    let cacheable: [(Pass, PassFn); 3] = [
        (Pass::Tcb, tcb::audit),
        (Pass::Coverage, coverage::audit),
        (Pass::Crosscheck, crosscheck::audit),
    ];
    let mut findings = Vec::new();
    for (pass, audit) in cacheable {
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
    /// Uncached [`run_passes`] with the requested passes on the scanned
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
    let mut files: Vec<ScannedFile> = sources
        .iter()
        .map(|(rel, text)| scan_text(rel, text))
        .collect();
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

    fn temp_cache(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ttac-{tag}-{}.bin", std::process::id()))
    }

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
    fn cached_audit_cold_then_warm_skips_everything() {
        let root = workspace_root();
        let config = AuditConfig::load(&root.join(DEFAULT_CONFIG)).expect("allowlist parses");
        let path = temp_cache("warm");
        let _ = std::fs::remove_file(&path);

        let cold = run_cached(&root, &config, ALL_PASSES, &path, true);
        assert!(cold.clean());
        let cs = cold.cache.as_ref().expect("cache stats");
        assert!(!cs.warm);
        assert_eq!(cs.hit_rate, 0.0);
        assert_eq!(
            cs.skipped_tcb + cs.skipped_coverage + cs.skipped_crosscheck,
            0
        );

        let warm = run_cached(&root, &config, ALL_PASSES, &path, false);
        assert!(warm.clean());
        let ws = warm.cache.as_ref().expect("cache stats");
        assert!(ws.warm);
        let n_files = load_workspace(&root).len();
        assert_eq!(ws.skipped_tcb, n_files, "every file served from cache");
        assert_eq!(ws.skipped_coverage, n_files);
        assert_eq!(ws.skipped_crosscheck, 1);
        assert!(ws.hit_rate >= 0.95, "hit rate {:.4}", ws.hit_rate);
        // Findings are identical either way.
        assert_eq!(warm.findings.len(), cold.findings.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn changed_allowlist_invalidates_every_audit_verdict() {
        let root = workspace_root();
        let config = AuditConfig::load(&root.join(DEFAULT_CONFIG)).expect("allowlist parses");
        let path = temp_cache("inval");
        let _ = std::fs::remove_file(&path);
        let _ = run_cached(&root, &config, &[Pass::Tcb], &path, true);

        // An edited allowlist entry must never reuse a cached verdict.
        let mut edited = config.clone();
        edited.trusted.push("crates/hw/src/cortexm".into());
        let rerun = run_cached(&root, &edited, &[Pass::Tcb], &path, false);
        let cs = rerun.cache.as_ref().expect("cache stats");
        assert_eq!(cs.skipped_tcb, 0, "allowlist change must miss everywhere");
        assert_eq!(cs.hit_rate, 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_audit_cache_degrades_to_a_cold_run() {
        let root = workspace_root();
        let config = AuditConfig::load(&root.join(DEFAULT_CONFIG)).expect("allowlist parses");
        let path = temp_cache("corrupt");
        let _ = run_cached(&root, &config, &[Pass::Coverage], &path, true);

        // Flip one bit in the middle of the cache file.
        let mut bytes = std::fs::read(&path).expect("cache written");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");

        let rerun = run_cached(&root, &config, &[Pass::Coverage], &path, false);
        let cs = rerun.cache.as_ref().expect("cache stats");
        assert!(!cs.warm, "corrupt cache must not count as warm");
        assert!(cs.corrupt.is_some(), "corruption must be surfaced");
        assert_eq!(
            cs.skipped_coverage, 0,
            "no partial reuse from a corrupt cache"
        );
        // The rewritten (valid) cache warms the next run again.
        let warm = run_cached(&root, &config, &[Pass::Coverage], &path, false);
        assert!(warm.cache.as_ref().unwrap().warm);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_registries_have_different_signatures() {
        use tt_contracts::obligation::CheckResult;
        use tt_contracts::ContractKind;
        let mut a = Registry::new();
        a.add_fn("k", "f", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        let mut b = Registry::new();
        b.add_fn("k", "g", ContractKind::Post, || CheckResult::Verified {
            cases: 1,
        });
        assert_ne!(registry_signature(&a), registry_signature(&b));
        assert_ne!(registry_signature(&a), registry_signature(&Registry::new()));
    }

    #[test]
    fn allowlist_domain_sections_do_not_collide() {
        // The same string in different sections must hash differently.
        let a = AuditConfig {
            trusted: vec!["x".into()],
            ..Default::default()
        };
        let b = AuditConfig {
            allow_dead: vec!["x".into()],
            ..Default::default()
        };
        assert_ne!(allowlist_domain(&a), allowlist_domain(&b));
    }
}
