//! Metrics reports for the campaign and differential bins.
//!
//! The `e_fault_campaign` and `e61_differential` bins and the throughput
//! engine build the same reports: the bins to write and gate them, the
//! engine to *assert* that a parallel run's reports are byte-identical
//! to a serial run's. Wall-clock time is the one legitimately
//! nondeterministic number, so it sits in the [`WALL`] layer that
//! determinism checks drop.

use tt_analysis::metrics::{Report, WALL};
use tt_hw::platform::ChipProfile;
use tt_kernel::campaign::ChipReport;
use tt_kernel::differential::DiffResult;

/// Appends one chip's campaign counters (`<chip>.runs`, `.fired`,
/// `.recoveries`, `.restarts`, `.killed`).
pub fn chip_counters(r: &mut Report, c: &ChipReport) {
    r.infos(
        c.chip,
        "campaign",
        "count",
        &[
            ("runs", (c.runs * 2) as f64),
            ("fired", c.fired as f64),
            ("recoveries", c.recoveries as f64),
            ("restarts", c.restarts as f64),
            ("killed", c.killed as f64),
        ],
    );
}

/// The `fault` report for a campaign run: per-chip counters and
/// recovery latency, with every oracle failure line.
pub fn campaign_metrics(reports: &[ChipReport], seeds: u64, wall_ms: f64) -> Report {
    let mut r = Report::new("fault");
    let runs: u64 = reports.iter().map(|c| c.runs * 2).sum();
    r.infos(
        "",
        "campaign",
        "count",
        &[
            ("seeds_per_chip", seeds as f64),
            ("injected_runs", runs as f64),
        ],
    );
    r.info("wall_ms", WALL, "ms", wall_ms);
    for c in reports {
        chip_counters(&mut r, c);
        let means = [
            ("recovery_cycles_warm_mean", c.warm_mean()),
            ("recovery_cycles_cold_mean", c.cold_mean()),
        ];
        r.infos(c.chip, "recovery", "cycles", &means);
        r.failures.extend(c.failures.iter().cloned());
    }
    r
}

/// The `e61` report for an all-chips differential run: the per-chip
/// 21/5 shape, with every UNEXPECTED verdict as a `chip:test` failure.
pub fn e61_metrics(per_chip: &[(&ChipProfile, Vec<DiffResult>)], wall_ms: f64) -> Report {
    let mut r = Report::new("e61");
    r.info("wall_ms", WALL, "ms", wall_ms);
    for (chip, results) in per_chip {
        let unexpected = |d: &&DiffResult| d.matches() == d.expect_differs;
        let count = |f: fn(&&DiffResult) -> bool| results.iter().filter(f).count() as f64;
        // matches() requires observable-trace equivalence, so
        // observable_divergences counts only expected console diffs.
        let counts = [
            ("tests", results.len() as f64),
            ("differing", count(|d| !d.matches())),
            ("unexpected", count(unexpected)),
            (
                "observable_divergences",
                count(|d| d.trace_divergence.is_some()),
            ),
        ];
        r.infos(chip.name, "differential", "count", &counts);
        let lines = results.iter().filter(unexpected);
        r.failures
            .extend(lines.map(|d| format!("unexpected §6.1 verdict: {}:{}", chip.name, d.name)));
    }
    r
}
