//! The throughput engine's determinism contract, end to end: every
//! artifact the parallel runners produce — campaign text report,
//! `BENCH_fault.json`, `BENCH_e61.json` — must be byte-identical to the
//! serial runner's, at any worker count and across repeated invocations
//! of the same seeds.
//!
//! This is the property that makes the work-stealing pool safe to gate
//! CI on: scheduling order may vary freely, observable output may not.
//! Each report carries its measured wall clock in the `wall` layer, which
//! the comparison drops, so it covers simulation results only.

use std::time::Instant;

use proptest::prelude::*;
use tt_bench::reports;
use tt_bench::throughput::measure;
use tt_hw::platform::{ChipProfile, ALL_CHIPS, HIFIVE1, NRF52840DK};
use tt_kernel::campaign::{render_report as render_campaign, run_campaign_profiled, ChipReport};
use tt_kernel::differential::{render_report as render_diff, run_release_suite};

/// The campaign's per-chip reports at `threads` workers, and the `fault`
/// report JSON with its wall layer dropped.
fn campaign(chips: &[ChipProfile], seeds: u64, threads: usize) -> (Vec<ChipReport>, String) {
    let t0 = Instant::now();
    let reports = run_campaign_profiled(chips, seeds, threads, &[]).reports;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let doc = reports::campaign_metrics(&reports, seeds, wall_ms)
        .without_wall()
        .to_json();
    (reports, doc)
}

/// The all-chips `e61` report JSON at `threads` workers, wall dropped.
fn e61_doc(threads: usize) -> String {
    let t0 = Instant::now();
    let per_chip = run_release_suite(&ALL_CHIPS, threads);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    reports::e61_metrics(&per_chip, wall_ms)
        .without_wall()
        .to_json()
}

#[test]
fn campaign_artifacts_are_byte_identical_serial_vs_parallel() {
    let chips = [NRF52840DK, HIFIVE1];
    let (serial, serial_json) = campaign(&chips, 3, 1);
    let serial_text = render_campaign(&serial, 3);
    for threads in [2, 8] {
        let (parallel, parallel_json) = campaign(&chips, 3, threads);
        assert_eq!(
            serial_text,
            render_campaign(&parallel, 3),
            "threads = {threads}"
        );
        assert_eq!(serial_json, parallel_json, "threads = {threads}");
    }
}

#[test]
fn e61_artifacts_are_byte_identical_serial_vs_parallel() {
    let nrf_report = |threads| render_diff(&run_release_suite(&[NRF52840DK], threads)[0].1);
    assert_eq!(nrf_report(1), nrf_report(8));
    assert_eq!(e61_doc(1), e61_doc(8));
}

#[test]
fn same_seed_invocations_are_byte_identical() {
    // Two full measurements of the same workload at a parallel worker
    // count: scheduling differs between invocations, artifacts may not.
    let a = measure(2, 4);
    let b = measure(2, 4);
    assert_eq!(a.campaign_artifact, b.campaign_artifact);
    assert_eq!(a.diff_artifact, b.diff_artifact);
    assert_eq!(a.sample.campaign_runs, b.sample.campaign_runs);
    assert_eq!(a.sample.diff_runs, b.sample.diff_runs);
}

proptest! {
    // Shrunk case count: each case boots dozens of simulated kernels.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn campaign_json_is_thread_count_invariant(
        seeds in 1u64..4,
        threads in 2usize..10,
    ) {
        let chips = [NRF52840DK];
        let (_, serial) = campaign(&chips, seeds, 1);
        let (_, parallel) = campaign(&chips, seeds, threads);
        prop_assert_eq!(serial, parallel);
    }
}
