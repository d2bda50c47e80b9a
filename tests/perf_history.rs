//! The committed perf history (`ci/perf_history.jsonl`) stays readable:
//! every line reads back through the metrics reader as a `perf` report
//! with a `change.` side, one line per PR in PR order.

use tt_analysis::audit::in_workspace;
use tt_analysis::metrics::read_report;

#[test]
fn every_perf_history_line_parses() {
    let path = in_workspace("ci/perf_history.jsonl");
    let text = std::fs::read_to_string(path).expect("perf history exists");
    let mut last_pr = 0.0;
    for (i, line) in text.lines().enumerate() {
        let (experiment, records) =
            read_report(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(experiment, "perf", "line {}", i + 1);
        let pr = records.iter().find(|r| r.name == "pr").map(|r| r.value);
        let pr = pr.unwrap_or_else(|| panic!("line {}: no `pr`", i + 1));
        assert!(pr > last_pr, "line {}: PR {pr} after PR {last_pr}", i + 1);
        assert!(
            records.iter().any(|r| r.name.starts_with("change.")),
            "line {}: PR {pr} has no change side",
            i + 1
        );
        last_pr = pr;
    }
    assert!(last_pr >= 15.0, "the seed lines are missing");
}
