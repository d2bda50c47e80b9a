//! The verification workflow: the §6.3 development loop, end to end.
//!
//! Shows what a TickTock developer's day looks like in this reproduction:
//! a cold full verification, a warm (cached) re-verification after an
//! unrelated edit, a contract change invalidating exactly one function,
//! and a refutation with counterexamples when a bug is introduced.
//!
//! ```sh
//! cargo run --example verification_workflow
//! ```

use std::time::Instant;
use ticktock_repro::contracts::obligation::Registry;
use ticktock_repro::contracts::span::SourceIndex;
use ticktock_repro::contracts::vcache::VerdictCache;
use ticktock_repro::contracts::verifier::{fmt_duration, Verifier};
use ticktock_repro::contracts::ContractKind;
use ticktock_repro::legacy::BugVariant;

fn build(granular_density: usize, interrupt_depth: usize) -> Registry {
    let mut registry = Registry::new();
    ticktock_repro::ticktock::obligations::register_obligations(&mut registry, granular_density);
    ticktock_repro::fluxarm::contracts::register_obligations(&mut registry, interrupt_depth);
    registry
}

fn main() {
    let verifier = Verifier::new();
    // The verdict cache `verify_all` persists, kept in memory here. With
    // no source index every verdict keys on its function's spec alone.
    let mut cache = VerdictCache::new(0);
    let index = SourceIndex::default();

    // 1. Cold run: everything checked.
    let registry = build(2, 4);
    let t = Instant::now();
    let cold = verifier.verify_incremental(&registry, &mut cache, &index);
    println!(
        "cold verification: {} functions in {} (all verified: {})",
        cold.functions.len(),
        fmt_duration(t.elapsed()),
        cold.all_verified()
    );

    // 2. Warm run: nothing changed, everything served from the cache —
    //    "incremental and interactive verification during development".
    let t = Instant::now();
    let warm = verifier.verify_incremental(&registry, &mut cache, &index);
    let cached = warm.functions.iter().filter(|f| f.cached).count();
    println!(
        "warm verification: {cached}/{} functions cached, {}",
        warm.functions.len(),
        fmt_duration(t.elapsed())
    );

    // 3. A spec change on one function invalidates exactly that entry.
    let mut edited = build(2, 4);
    edited.add_fn(
        ticktock_repro::ticktock::obligations::COMPONENT,
        "AppBreaks::invariant",
        ContractKind::Pre,
        || ticktock_repro::contracts::obligation::CheckResult::Verified { cases: 1 },
    );
    let third = verifier.verify_incremental(&edited, &mut cache, &index);
    let rechecked: Vec<&str> = third
        .functions
        .iter()
        .filter(|f| !f.cached)
        .map(|f| f.function.as_str())
        .collect();
    println!("after editing one contract, re-checked: {rechecked:?}");
    assert_eq!(rechecked, vec!["AppBreaks::invariant"]);

    // 4. Introduce the historical bugs: refutations with counterexamples.
    let mut buggy = Registry::new();
    ticktock_repro::legacy::obligations::register_obligations(&mut buggy, BugVariant::Buggy, 1);
    ticktock_repro::fluxarm::contracts::register_buggy_obligations(&mut buggy);
    let report = verifier.verify(&buggy);
    println!("\nintroducing the §2.2 bugs:");
    for f in report.refuted() {
        println!("  REFUTED {}", f.function);
        if let Some(ce) = f.refutations.first() {
            println!("    {ce}");
        }
    }
    assert!(!report.all_verified());
    println!("\nworkflow complete: verify, iterate from cache, catch bugs on edit.");
}
