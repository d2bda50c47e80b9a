//! Workspace-level Figure 12 shape test (FIG12 in DESIGN.md §3): the
//! verification-time ordering across the three components, with all crates
//! in scope.

use std::time::Duration;

use ticktock_repro::contracts::obligation::Registry;
use ticktock_repro::contracts::verifier::{VerificationReport, Verifier};
use ticktock_repro::legacy::BugVariant;

const MONOLITHIC: &str = "TickTock (Monolithic)";
const GRANULAR: &str = "TickTock (Granular)";
const INTERRUPTS: &str = "Interrupts";

/// Verifier runs behind each wall-clock figure the ordering tests
/// compare. Interference on a shared host only ever slows a discharge,
/// so a figure is its minimum over this many runs of the same registry.
const RUNS: usize = 5;

fn full_registry() -> Registry {
    let mut registry = Registry::new();
    ticktock_repro::legacy::obligations::register_obligations(&mut registry, BugVariant::Fixed, 2);
    ticktock_repro::ticktock::obligations::register_obligations(&mut registry, 2);
    ticktock_repro::fluxarm::contracts::register_obligations(&mut registry, 4);
    registry
}

/// [`RUNS`] verifier runs of the full registry.
fn runs() -> Vec<VerificationReport> {
    let registry = full_registry();
    (0..RUNS)
        .map(|_| Verifier::new().verify(&registry))
        .collect()
}

/// The minimum of `wall` over `reports`.
fn fastest(
    reports: &[VerificationReport],
    wall: impl Fn(&VerificationReport) -> Duration,
) -> Duration {
    reports.iter().map(wall).min().expect("at least one run")
}

/// `function`'s discharge time in `report`.
fn duration(report: &VerificationReport, function: &str) -> Duration {
    report
        .functions
        .iter()
        .find(|f| f.function == function)
        .expect("obligation present")
        .duration
}

#[test]
fn monolithic_dominates_granular_at_equal_density() {
    let reports = runs();
    assert!(reports.iter().all(VerificationReport::all_verified));
    let total = |component| fastest(&reports, |r| r.component_stats(component).total);
    let (mono, gran) = (total(MONOLITHIC), total(GRANULAR));
    // The paper's 5m19s vs 36s — an order-of-magnitude-ish gap. We require
    // at least 3x to stay robust across machines.
    assert!(
        mono.as_secs_f64() > gran.as_secs_f64() * 3.0,
        "monolithic {mono:?} vs granular {gran:?} (fastest of {RUNS} runs)"
    );
}

#[test]
fn one_function_dominates_monolithic_verification() {
    // "Over 90% of the time verifying the original Tock code was spent
    // checking allocate_app_mem_region" (§6.3).
    const ALLOC: &str = "CortexM::allocate_app_mem_region";
    let reports = runs();
    let slowest = reports[0]
        .functions
        .iter()
        .filter(|f| f.component == MONOLITHIC)
        .max_by_key(|f| fastest(&reports, |r| duration(r, &f.function)))
        .expect("monolithic functions");
    assert_eq!(slowest.function, ALLOC);
    let alloc = fastest(&reports, |r| duration(r, ALLOC));
    let total = fastest(&reports, |r| r.component_stats(MONOLITHIC).total);
    assert!(
        alloc.as_secs_f64() >= total.as_secs_f64() * 0.5,
        "{ALLOC} {alloc:?} of {total:?} (fastest of {RUNS} runs)"
    );
}

#[test]
fn interrupts_have_fewer_functions_but_higher_mean() {
    let reports = runs();
    let gran = reports[0].component_stats(GRANULAR);
    let intr = reports[0].component_stats(INTERRUPTS);
    assert!(
        intr.fns < gran.fns,
        "intr {} vs gran {}",
        intr.fns,
        gran.fns
    );
    let mean = |component| fastest(&reports, |r| r.component_stats(component).mean);
    let (intr, gran) = (mean(INTERRUPTS), mean(GRANULAR));
    assert!(
        intr.as_secs_f64() > gran.as_secs_f64(),
        "interrupt mean {intr:?} vs granular mean {gran:?} (fastest of {RUNS} runs)"
    );
}

#[test]
fn function_counts_are_in_a_realistic_regime() {
    let registry = full_registry();
    // The paper reports 660/791/95 functions; the reproduction's inventory
    // is smaller but must be non-trivial in every component.
    assert!(registry.function_count(MONOLITHIC) >= 30);
    assert!(registry.function_count(GRANULAR) >= 70);
    assert!(registry.function_count(INTERRUPTS) >= 50);
    // Trusted subsets exist, as in Fig. 10.
    assert!(registry.trusted_function_count(GRANULAR) >= 5);
    assert!(registry.trusted_function_count(INTERRUPTS) >= 5);
}

#[test]
fn rendered_table_matches_paper_layout() {
    let report = Verifier::new().verify(&full_registry());
    let table = report.render_fig12();
    let mut lines = table.lines();
    let header = lines.next().unwrap();
    for column in ["Component", "Fns.", "Total", "Max", "Mean", "StdDev."] {
        assert!(header.contains(column), "missing column {column}");
    }
    assert_eq!(lines.count(), 3, "three component rows");
}
