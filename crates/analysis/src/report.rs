//! The Fig.-10-style audit report.
//!
//! The paper's Figure 10 counts, per component, source LOC, functions
//! (trusted subset) and spec LOC (trusted subset). Earlier PRs computed
//! those with `tt_contracts::effort`; this module adds the number the
//! audit is really about — **trusted LOC**, the lines inside the declared
//! TCB (allowlisted files/functions plus `// TRUSTED:`-marked functions) —
//! and reports the whole table as the `fig10` metrics ([`metrics`],
//! written as `BENCH_fig10.json`), so the benchmark figures are
//! *generated from the audit* rather than hand-maintained.

use std::path::Path;

use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::metrics::{Kind, Report, WALL};
use crate::source::ScannedFile;
use crate::staleness::StaleEntry;
use tt_contracts::effort::{default_components, scan_path, EffortCounts};

/// Incremental-cache statistics for one cached audit run
/// ([`crate::audit::run_cached`]); serialized into `BENCH_fig10.json`.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Whether the verdict cache loaded warm (valid file, matching
    /// toolchain/config hash).
    pub warm: bool,
    /// Cache lookup hit rate for this run.
    pub hit_rate: f64,
    /// Wall-clock of scan + passes for this run, in milliseconds.
    pub wall_ms: f64,
    /// The cold-run wall recorded in the cache header, in milliseconds.
    pub cold_wall_ms: f64,
    /// Files served from cache in the TCB pass.
    pub skipped_tcb: usize,
    /// Files served from cache in the coverage pass.
    pub skipped_coverage: usize,
    /// 1 if the whole-workspace cross-check verdict hit, else 0.
    pub skipped_crosscheck: usize,
    /// Set when a cache file existed but failed validation (the run then
    /// degraded to cold — never partial reuse).
    pub corrupt: Option<String>,
}

/// One component row: the classic Fig. 10 counters plus TCB accounting.
#[derive(Debug, Clone)]
pub struct ComponentRow {
    /// Component name (`"Kernel"`, `"ARM MPU"`, ...).
    pub name: &'static str,
    /// The Fig. 10 counters, computed by `tt_contracts::effort`.
    pub counts: EffortCounts,
    /// Lines inside the declared TCB: whole allowlisted files, plus
    /// allowlisted or `// TRUSTED:`-marked functions elsewhere.
    pub trusted_loc: usize,
}

/// The complete audit report: table rows plus the pass results.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-component rows.
    pub rows: Vec<ComponentRow>,
    /// Workspace totals of the Fig. 10 counters.
    pub total: EffortCounts,
    /// Workspace total trusted LOC.
    pub total_trusted_loc: usize,
    /// All findings from the executed passes.
    pub findings: Vec<Finding>,
    /// Stale allowlist entries from the staleness pass (duplicated as
    /// findings; kept structured for the `--fix`-style removal listing).
    pub stale_entries: Vec<StaleEntry>,
    /// Verdict-cache statistics when the audit ran incrementally.
    pub cache: Option<CacheStats>,
    /// Wall milliseconds of each pass that ran, in run order (cache
    /// lookups included on a cached run).
    pub pass_ms: Vec<(Pass, f64)>,
    /// The minimum wall, in milliseconds, of several uncached
    /// [`crate::run_passes`] calls on the already-scanned tree: the gated
    /// audit cost. `tt-audit --cold` measures it; other runs leave it
    /// `None`.
    pub passes_ms: Option<f64>,
}

impl AuditReport {
    /// Whether the audit is clean (gates CI with `--check`).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings from one pass.
    pub fn count(&self, pass: Pass) -> usize {
        self.findings.iter().filter(|f| f.pass == pass).count()
    }
}

/// Trusted LOC contributed by one scanned file under the allowlist.
fn trusted_loc_of(file: &ScannedFile, config: &AuditConfig) -> usize {
    if config.is_trusted_file(&file.rel_path) {
        // Whole file in the TCB: count its non-blank lines.
        return file.raw.iter().filter(|l| !l.trim().is_empty()).count();
    }
    file.fns
        .iter()
        .filter(|f| f.trusted || config.is_trusted(&file.rel_path, Some(&f.name)))
        .map(|f| f.loc)
        .sum()
}

/// Computes the component rows: Fig. 10 counters via `tt_contracts::effort`
/// (so the numbers stay comparable with earlier PRs) plus trusted LOC from
/// the scanned files and the allowlist.
pub fn component_rows(
    root: &Path,
    files: &[ScannedFile],
    config: &AuditConfig,
) -> (Vec<ComponentRow>, EffortCounts, usize) {
    let mut rows = Vec::new();
    let mut total = EffortCounts::default();
    let mut total_trusted = 0usize;
    for spec in default_components(root) {
        let mut counts = EffortCounts::default();
        let mut trusted_loc = 0usize;
        for p in &spec.paths {
            counts = {
                let mut c = counts;
                let scanned = scan_path(p);
                c.source_loc += scanned.source_loc;
                c.fns += scanned.fns;
                c.trusted_fns += scanned.trusted_fns;
                c.spec_loc += scanned.spec_loc;
                c.trusted_spec_loc += scanned.trusted_spec_loc;
                c
            };
            // Workspace-relative prefix of this component path.
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            for file in files {
                let in_component = file.rel_path == rel
                    || file
                        .rel_path
                        .starts_with(&format!("{}/", rel.trim_end_matches('/')));
                if in_component {
                    trusted_loc += trusted_loc_of(file, config);
                }
            }
        }
        total.source_loc += counts.source_loc;
        total.fns += counts.fns;
        total.trusted_fns += counts.trusted_fns;
        total.spec_loc += counts.spec_loc;
        total.trusted_spec_loc += counts.trusted_spec_loc;
        total_trusted += trusted_loc;
        rows.push(ComponentRow {
            name: spec.name,
            counts,
            trusted_loc,
        });
    }
    (rows, total, total_trusted)
}

/// The `fig10` metrics report: the Fig. 10 counters and trusted LOC per
/// component and in total, findings and wall per pass, the gated
/// uncached audit wall of a `--cold` run, and the cache statistics of a
/// cached run. Every finding is a failure.
pub fn metrics(report: &AuditReport) -> Report {
    let mut r = Report::new("fig10");
    let rows = report
        .rows
        .iter()
        .map(|row| (row.name, &row.counts, row.trusted_loc));
    for (name, c, trusted) in rows.chain([("Total", &report.total, report.total_trusted_loc)]) {
        let loc = [
            ("source_loc", c.source_loc as f64),
            ("spec_loc", c.spec_loc as f64),
            ("trusted_spec_loc", c.trusted_spec_loc as f64),
            ("trusted_loc", trusted as f64),
        ];
        let fns = [("fns", c.fns as f64), ("trusted_fns", c.trusted_fns as f64)];
        r.infos(name, "effort", "loc", &loc);
        r.infos(name, "effort", "count", &fns);
    }
    let passes = [Pass::Tcb, Pass::Coverage, Pass::Crosscheck, Pass::Staleness];
    let findings = passes.map(|p| (p.name(), report.count(p) as f64));
    r.infos("findings", "audit", "count", &findings);
    for &(pass, ms) in &report.pass_ms {
        r.info(format!("audit.{}_ms", pass.name()), WALL, "ms", ms);
    }
    match report.passes_ms {
        Some(ms) => r.add(Kind::Ceiling, "audit.passes_ms", WALL, "ms", ms),
        None => r.skip("audit.passes_ms", "measured by `tt-audit --cold` only"),
    }
    if let Some(c) = &report.cache {
        let counts = [
            ("warm", f64::from(u8::from(c.warm))),
            ("skipped_tcb", c.skipped_tcb as f64),
            ("skipped_coverage", c.skipped_coverage as f64),
            ("skipped_crosscheck", c.skipped_crosscheck as f64),
        ];
        r.infos("cache", "vcache", "count", &counts);
        r.infos("cache", "vcache", "share", &[("hit_rate", c.hit_rate)]);
        let walls = [("wall_ms", c.wall_ms), ("cold_wall_ms", c.cold_wall_ms)];
        r.infos("cache", WALL, "ms", &walls);
    }
    r.failures = report.findings.iter().map(ToString::to_string).collect();
    r
}

/// Renders the report as a human-readable table (the `tt-audit` default).
pub fn render_table(report: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>8} {:>14} {:>16} {:>12}\n",
        "Component", "Source", "Fns(Trusted)", "Specs(Trusted)", "TrustedLOC"
    ));
    let fmt_row = |name: &str, c: &EffortCounts, t: usize| {
        format!(
            "{:<12} {:>8} {:>9} ({:>2}) {:>11} ({:>2}) {:>12}\n",
            name, c.source_loc, c.fns, c.trusted_fns, c.spec_loc, c.trusted_spec_loc, t
        )
    };
    for row in &report.rows {
        out.push_str(&fmt_row(row.name, &row.counts, row.trusted_loc));
    }
    out.push_str(&fmt_row("Total", &report.total, report.total_trusted_loc));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan_text;

    fn sample_report() -> AuditReport {
        AuditReport {
            rows: vec![ComponentRow {
                name: "Kernel",
                counts: EffortCounts {
                    source_loc: 100,
                    fns: 10,
                    trusted_fns: 1,
                    spec_loc: 20,
                    trusted_spec_loc: 2,
                },
                trusted_loc: 15,
            }],
            total: EffortCounts {
                source_loc: 100,
                fns: 10,
                trusted_fns: 1,
                spec_loc: 20,
                trusted_spec_loc: 2,
            },
            total_trusted_loc: 15,
            findings: Vec::new(),
            stale_entries: Vec::new(),
            cache: None,
            pass_ms: vec![(Pass::Tcb, 3.0), (Pass::Staleness, 2.0)],
            passes_ms: None,
        }
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.get(name)
            .unwrap_or_else(|| panic!("no {name} in {r:?}"))
            .value
    }

    #[test]
    fn metrics_have_component_rows_and_per_pass_findings() {
        let r = metrics(&sample_report());
        assert_eq!(r.experiment, "fig10");
        assert_eq!(value(&r, "Kernel.trusted_loc"), 15.0);
        assert_eq!(value(&r, "Total.source_loc"), 100.0);
        assert_eq!(value(&r, "findings.staleness"), 0.0);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn pass_walls_are_info_and_the_cold_audit_wall_is_gated() {
        let mut r = sample_report();
        let m = metrics(&r);
        assert_eq!(value(&m, "audit.tcb_ms"), 3.0);
        assert_eq!(value(&m, "audit.staleness_ms"), 2.0);
        assert!(m.get("audit.coverage_ms").is_none(), "coverage did not run");
        assert!(m.get("audit.passes_ms").is_none());
        assert_eq!(m.skipped.len(), 1, "{:?}", m.skipped);
        r.passes_ms = Some(9.5);
        let m = metrics(&r);
        let gated = m.get("audit.passes_ms").expect("emitted");
        assert_eq!((gated.kind, gated.value), (Kind::Ceiling, 9.5));
        assert!(m.skipped.is_empty());
        assert!(m.without_wall().get("audit.tcb_ms").is_none());
    }

    #[test]
    fn findings_flip_the_clean_flag_and_become_failures() {
        let mut r = sample_report();
        r.findings.push(Finding {
            pass: Pass::Tcb,
            span: None,
            message: "x".into(),
        });
        assert!(!r.clean());
        assert_eq!(r.count(Pass::Tcb), 1);
        let m = metrics(&r);
        assert_eq!(value(&m, "findings.tcb"), 1.0);
        assert_eq!(m.failures, vec![r.findings[0].to_string()]);
    }

    #[test]
    fn trusted_loc_counts_files_and_marked_fns() {
        let src = "pub fn a() {\n    work();\n}\n\n// TRUSTED: commit path.\npub fn b() {\n    raw();\n}\n";
        let file = scan_text("crates/x/src/lib.rs", src);
        // Marker only: just fn b (3 non-blank lines incl. signature+brace).
        let cfg = AuditConfig::default();
        assert_eq!(trusted_loc_of(&file, &cfg), 3);
        // Whole file allowlisted: every non-blank line (marker line too).
        let cfg = AuditConfig {
            trusted: vec!["crates/x/src/lib.rs".into()],
            ..Default::default()
        };
        assert_eq!(trusted_loc_of(&file, &cfg), 7);
        // Fn-level allowlist adds fn a.
        let cfg = AuditConfig {
            trusted: vec!["crates/x/src/lib.rs::a".into()],
            ..Default::default()
        };
        assert_eq!(trusted_loc_of(&file, &cfg), 6);
    }

    #[test]
    fn cache_metrics_appear_only_for_cached_runs() {
        let mut r = sample_report();
        assert!(metrics(&r).get("cache.hit_rate").is_none());
        r.cache = Some(CacheStats {
            warm: true,
            hit_rate: 1.0,
            wall_ms: 12.5,
            cold_wall_ms: 250.0,
            skipped_tcb: 40,
            skipped_coverage: 40,
            skipped_crosscheck: 1,
            corrupt: None,
        });
        let m = metrics(&r);
        assert_eq!(value(&m, "cache.warm"), 1.0);
        assert_eq!(value(&m, "cache.hit_rate"), 1.0);
        assert_eq!(value(&m, "cache.skipped_tcb"), 40.0);
        assert_eq!(value(&m, "cache.skipped_crosscheck"), 1.0);
        // Wall clock is host-dependent: it lives in the wall layer.
        let det = m.without_wall();
        assert!(det.get("cache.wall_ms").is_none() && det.get("cache.cold_wall_ms").is_none());
    }

    #[test]
    fn table_lists_trusted_loc_column() {
        let t = render_table(&sample_report());
        assert!(t.contains("TrustedLOC"));
        assert!(t.contains("Total"));
    }
}
