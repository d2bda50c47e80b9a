//! The Fig.-10-style audit report.
//!
//! The paper's Figure 10 counts, per component, source LOC, functions
//! (trusted subset) and spec LOC (trusted subset), which
//! `tt_contracts::effort::scan_source` counts over the texts the audit
//! read. This module adds the number the audit is really about —
//! **trusted LOC**, the lines inside the declared TCB (allowlisted
//! files/functions plus `// TRUSTED:`-marked functions) — and reports
//! the whole table as the `fig10` metrics ([`metrics`], written as
//! `BENCH_fig10.json`), so the benchmark figures are *generated from the
//! audit* rather than hand-maintained.

use std::path::Path;

use crate::audit::ColdWalls;
use crate::config::AuditConfig;
use crate::findings::{Finding, Pass};
use crate::metrics::{Kind, Report, WALL};
use crate::source::ScannedFile;
use crate::staleness::StaleEntry;
use tt_contracts::effort::{default_components, scan_source, EffortCounts};

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
    /// Wall milliseconds of each pass that ran, in run order.
    pub pass_ms: Vec<(Pass, f64)>,
    /// The gated scan, audit and edit walls. `tt-audit --cold` measures
    /// them; other runs leave them `None`.
    pub cold: Option<ColdWalls>,
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
        return file.raw().iter().filter(|l| !l.trim().is_empty()).count();
    }
    file.fns
        .iter()
        .filter(|f| f.trusted || config.is_trusted(&file.rel_path, Some(&f.name)))
        .map(|f| f.loc)
        .sum()
}

/// Computes the component rows: the Fig. 10 counters of
/// [`scan_source`] over each component's texts plus trusted LOC from the
/// scanned files and the allowlist. `sources` are the texts `files` were
/// scanned from, in the same order.
pub fn component_rows(
    root: &Path,
    sources: &[(String, String)],
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
            // Workspace-relative prefix of this component path.
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let dir = format!("{}/", rel.trim_end_matches('/'));
            for ((path, text), file) in sources.iter().zip(files) {
                if *path == rel || path.starts_with(&dir) {
                    counts.add(scan_source(text));
                    trusted_loc += trusted_loc_of(file, config);
                }
            }
        }
        total.add(counts);
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
/// component and in total, findings and wall per pass, the gated audit
/// and edit walls and the scan wall of a `--cold` run. Every finding is
/// a failure.
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
    match report.cold {
        Some(c) => {
            r.add(Kind::Ceiling, "audit.passes_ms", WALL, "ms", c.passes_ms);
            r.info("audit.scan_ms", WALL, "ms", c.scan_ms);
            r.add(Kind::Ceiling, "audit.edit_ms", WALL, "ms", c.edit_ms);
        }
        None => {
            for gated in ["audit.passes_ms", "audit.edit_ms"] {
                r.skip(gated, "measured by `tt-audit --cold` only");
            }
        }
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
            pass_ms: vec![(Pass::Tcb, 3.0), (Pass::Staleness, 2.0)],
            cold: None,
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
        assert_eq!(m.skipped.len(), 2, "{:?}", m.skipped);
        r.cold = Some(ColdWalls {
            passes_ms: 9.5,
            scan_ms: 20.0,
            edit_ms: 4.0,
        });
        let m = metrics(&r);
        let gated = m.get("audit.passes_ms").expect("emitted");
        assert_eq!((gated.kind, gated.value), (Kind::Ceiling, 9.5));
        let gated = m.get("audit.edit_ms").expect("emitted");
        assert_eq!((gated.kind, gated.value), (Kind::Ceiling, 4.0));
        assert_eq!(m.get("audit.scan_ms").expect("emitted").kind, Kind::Info);
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
    fn table_lists_trusted_loc_column() {
        let t = render_table(&sample_report());
        assert!(t.contains("TrustedLOC"));
        assert!(t.contains("Total"));
    }
}
