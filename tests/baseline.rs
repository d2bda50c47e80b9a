//! Baseline staleness: the committed `ci/bench_baseline.json` and the
//! experiments' metrics reports must agree. Every entry must belong to
//! an experiment, and each report must pass the gate's structural half
//! ([`coverage`]) — an entry nothing emits or skips fails every
//! `--check` run of its experiment. Each report is built at the smallest
//! size its experiment's own tests use.

use tt_analysis::audit::in_workspace;
use tt_analysis::metrics::{coverage, read_baseline, Report, DEFAULT_BASELINE};
use tt_bench::fig12::Effort;
use tt_bench::{e62, explore, fig10, fig11, fleet, incremental, reports, switch};
use tt_hw::platform::{ALL_CHIPS, NRF52840DK};
use tt_kernel::differential::run_release_suite;

fn all_reports() -> Vec<Report> {
    let sweep = explore::run_explore_fleet(&ALL_CHIPS[..1], 0, None, 1, None);
    // A 1-rung ladder: the serial rung is also the top rung.
    let fleet_run = fleet::run_fleet(14, 1, &[]);
    let (tock, ticktock, padded) = e62::run();
    // The warm fig12 figures need a cold pass first.
    let cache = std::env::temp_dir().join(format!("tt-baseline-vcache-{}.bin", std::process::id()));
    incremental::run(Effort::QUICK, &cache, true);
    let warm = incremental::run(Effort::QUICK, &cache, false);
    let _ = std::fs::remove_file(&cache);
    vec![
        reports::e61_metrics(&run_release_suite(&[NRF52840DK], 1), 0.0),
        e62::metrics(&tock, &ticktock, &padded, 0.0),
        tt_analysis::report::metrics(&fig10::run()),
        fig11::metrics(&fig11::run(1), &switch::measure_all(), 0.0),
        incremental::metrics(&warm, true),
        fleet::metrics(
            &fleet_run,
            &fleet::measure_reset_cost(3),
            &fleet::profile(&fleet_run),
            &[],
            1,
        ),
        explore::metrics(&sweep, &explore::planted_demo(&NRF52840DK, 3), &[]),
    ]
}

#[test]
fn baseline_and_reports_agree() {
    let baseline = read_baseline(&in_workspace(DEFAULT_BASELINE)).expect("baseline parses");
    let reports = all_reports();
    let orphans: Vec<&str> = baseline
        .iter()
        .map(|b| b.metric.as_str())
        .filter(|m| {
            !reports.iter().any(|r| {
                m.strip_prefix(r.experiment)
                    .is_some_and(|rest| rest.starts_with('.'))
            })
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "baseline entries for no experiment: {orphans:?}"
    );
    let disagreements: Vec<String> = reports
        .iter()
        .flat_map(|r| coverage(r, &baseline))
        .collect();
    assert!(disagreements.is_empty(), "{disagreements:#?}");
}
