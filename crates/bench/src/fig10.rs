//! Figure 10: the proof-effort table, generated by the static auditor.
//!
//! Earlier PRs computed this table directly with `tt_contracts::effort`;
//! it is now produced by `tt-analysis` (the `tt-audit` tool), which adds
//! the trusted-LOC column from the declared TCB in `ci/tcb_allowlist.toml`
//! and runs the audit passes alongside — so the numbers in
//! `BENCH_fig10.json` are the *audited* ones, not hand-maintained counts.

use tt_analysis::{workspace_root, AuditConfig, AuditReport, Pass};

/// Runs the full audit over the workspace and returns the report (the
/// Fig. 10 rows plus any findings).
pub fn run() -> AuditReport {
    let root = workspace_root();
    let config = AuditConfig::load(&root.join(tt_analysis::DEFAULT_CONFIG))
        .expect("ci/tcb_allowlist.toml parses");
    tt_analysis::run(
        &root,
        &config,
        &[Pass::Tcb, Pass::Coverage, Pass::Crosscheck, Pass::Staleness],
    )
}

/// Renders the table.
pub fn render(report: &AuditReport) -> String {
    tt_analysis::report::render_table(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_crates_dir() {
        assert!(workspace_root().join("crates").is_dir());
    }

    #[test]
    fn every_component_has_substance_and_the_audit_is_clean() {
        let report = run();
        assert_eq!(report.rows.len(), 5);
        for row in &report.rows {
            assert!(
                row.counts.source_loc > 100,
                "{} too small: {:?}",
                row.name,
                row.counts
            );
            assert!(row.counts.fns > 5, "{}: {:?}", row.name, row.counts);
        }
        // The headline ratio: a modest annotation overhead (the paper has
        // 3.6 KLOC of specs for 22 KLOC of source, ~16%; ours should be in
        // the same regime, well under 1:1).
        let total = &report.total;
        assert!(total.spec_loc * 2 < total.source_loc);
        assert!(total.spec_loc > 100, "specs too sparse: {total:?}");
        // The declared TCB is small relative to the verified surface.
        assert!(report.total_trusted_loc > 0);
        assert!(report.total_trusted_loc * 4 < total.source_loc);
        // And the shipped tree audits clean (same gate as `tt-audit
        // --check` in CI).
        assert!(
            report.clean(),
            "findings: {:?}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn rendered_table_lists_components_and_total() {
        let report = run();
        let table = render(&report);
        for name in [
            "Kernel",
            "ARM MPU",
            "Risc-V MPU",
            "Flux-Std",
            "FluxArm",
            "Total",
            "TrustedLOC",
        ] {
            assert!(table.contains(name), "missing {name}");
        }
    }

    #[test]
    fn metrics_report_is_audit_generated() {
        let report = run();
        let r = tt_analysis::report::metrics(&report);
        assert_eq!(r.experiment, "fig10");
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(
            r.get("Total.trusted_loc").unwrap().value,
            report.total_trusted_loc as f64
        );
    }
}
