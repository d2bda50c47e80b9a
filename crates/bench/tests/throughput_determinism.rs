//! The work-stealing pool's determinism contract, end to end: every
//! artifact the parallel runners produce — a fleet rung's campaign
//! table plus its `fleet` report per-chip section, and `BENCH_e61.json`
//! — must be byte-identical to the serial runner's, at any worker count
//! and across repeated invocations of the same seeds.
//!
//! This is the property that makes the work-stealing pool safe to gate
//! CI on: scheduling order may vary freely, observable output may not.
//! `e_fleet --check` gates it on every rung of its thread ladder; the
//! §6.1 suite's half is gated here. Each report carries its measured
//! wall clock in the `wall` layer, which the comparison drops, so it
//! covers simulation results only.

use std::time::Instant;

use proptest::prelude::*;
use tt_bench::{fleet, reports};
use tt_hw::platform::{ChipProfile, ALL_CHIPS, HIFIVE1, NRF52840DK};
use tt_kernel::campaign::run_campaign_profiled;
use tt_kernel::differential::{render_report as render_diff, run_release_suite};

/// The campaign's rung artifact at `threads` workers.
fn campaign(chips: &[ChipProfile], seeds: u64, threads: usize) -> String {
    let reports = run_campaign_profiled(chips, seeds, threads, &[]).reports;
    fleet::artifact(&reports, seeds)
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
    let serial = campaign(&chips, 3, 1);
    for threads in [2, 8] {
        assert_eq!(serial, campaign(&chips, 3, threads), "threads = {threads}");
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
    // Two full fleet ladders of the same workload topping out at 4
    // workers: scheduling differs between invocations, artifacts may
    // not — neither across invocations nor across rungs.
    let (a, b) = (fleet::run_fleet(28, 4, &[]), fleet::run_fleet(28, 4, &[]));
    assert_eq!(a.ladder.len(), 3);
    for (x, y) in a.ladder.iter().zip(&b.ladder) {
        assert_eq!(x.threads, y.threads);
        assert_eq!(x.runs, y.runs);
        assert_eq!(x.artifact, y.artifact, "threads = {}", x.threads);
        assert_eq!(x.artifact, a.serial().artifact, "threads = {}", x.threads);
    }
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
        prop_assert_eq!(campaign(&chips, seeds, 1), campaign(&chips, seeds, threads));
    }
}
