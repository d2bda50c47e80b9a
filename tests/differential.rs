//! Workspace-level §6.1 differential test (E61 in DESIGN.md §3): the 21
//! release tests, run on both kernels, with exactly the paper's 5 expected
//! differences and correct faulting behaviour.

use ticktock_repro::hw::platform::NRF52840DK;
use ticktock_repro::kernel::apps::release_tests;
use ticktock_repro::kernel::differential::{
    render_report, run_one_on, run_release_suite, DiffResult,
};
use ticktock_repro::kernel::pool::default_threads;
use ticktock_repro::kernel::process::Flavor;
use ticktock_repro::kernel::ProcessState;
use ticktock_repro::legacy::BugVariant;

/// The release suite on the NRF52840dk at the default worker count.
fn nrf_suite() -> Vec<DiffResult> {
    run_release_suite(&[NRF52840DK], default_threads())
        .remove(0)
        .1
}

#[test]
fn twenty_one_tests_five_expected_diffs() {
    let results = nrf_suite();
    assert_eq!(results.len(), 21);
    let differing: Vec<&str> = results
        .iter()
        .filter(|r| !r.matches())
        .map(|r| r.name)
        .collect();
    assert_eq!(differing.len(), 5, "differing: {differing:?}");
    // Every difference is in the layout/sensor category the paper names.
    for name in &differing {
        assert!(
            [
                "mpu_walk_region",
                "mpu_stack_growth",
                "stack_growth",
                "sensors",
                "adc"
            ]
            .contains(name),
            "unexpected difference in {name}"
        );
    }
    let report = render_report(&results);
    assert!(report.contains("(0 unexpected)"));
}

#[test]
fn differential_runs_are_deterministic() {
    let a = nrf_suite();
    let b = nrf_suite();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.tock.console, y.tock.console, "{}", x.name);
        assert_eq!(x.ticktock.console, y.ticktock.console, "{}", x.name);
    }
}

#[test]
fn buggy_kernel_changes_outcomes_where_fixed_does_not() {
    // Running the suite against the BUGGY legacy kernel is how §6.1-style
    // testing catches regressions: at least the brk-heavy tests behave
    // differently (the unvalidated path lets bad breaks through).
    let tests = release_tests();
    let walk = tests
        .iter()
        .find(|t| t.spec.name == "mpu_walk_region")
        .unwrap();
    let fixed = run_one_on(walk, Flavor::Legacy(BugVariant::Fixed), &NRF52840DK);
    let granular = run_one_on(walk, Flavor::Granular, &NRF52840DK);
    assert_eq!(fixed.state, ProcessState::Exited);
    assert_eq!(granular.state, ProcessState::Exited);
    assert_ne!(fixed.console, granular.console);
}

#[test]
fn faulting_tests_fault_for_mpu_reasons() {
    let results = nrf_suite();
    for name in ["stack_growth", "mpu_stack_growth"] {
        let r = results.iter().find(|r| r.name == name).unwrap();
        for outcome in [&r.tock, &r.ticktock] {
            match &outcome.state {
                ProcessState::Faulted(reason) => {
                    assert!(
                        reason.contains("bus fault"),
                        "{name}: unexpected fault reason {reason:?}"
                    );
                }
                other => panic!("{name}: expected fault, got {other:?}"),
            }
        }
    }
}
