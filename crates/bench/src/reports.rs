//! The `e61` metrics report for the §6.1 differential suite.
//!
//! The `e61_differential` bin builds it to write and gate it, and the
//! determinism tests build it to assert that a parallel run's report is
//! byte-identical to a serial run's. Wall-clock time is the one
//! legitimately nondeterministic number, so it sits in the [`WALL`]
//! layer that determinism checks drop.

use tt_analysis::metrics::{Report, WALL};
use tt_hw::platform::ChipProfile;
use tt_kernel::differential::DiffResult;

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
