//! Allocation gate for the fleet's restore path and its runs.
//!
//! `Checkpoint::restore` writes a rung back into the live machine
//! element by element: processes through `Process::clone_from` (image
//! name, console, grants and backend reused), capsules and scheduler
//! state through `clone_from`, programs through `App::restore_from`.
//! A restore to a rung whose process table already has the live shape
//! therefore allocates nothing, and these tests keep it that way: a
//! counting global allocator counts the allocations (`alloc`,
//! `alloc_zeroed`, `realloc`) made on the test's own thread while a
//! closure runs, so tests running in parallel do not disturb each other.
//!
//! The per-run bounds are the exact counts measured when the gate was
//! written; the counts are deterministic (same runs, same growth
//! pattern of every buffer), so a bound only moves when the code does.
//! Lower them when a change saves allocations; raising one needs a
//! reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tt_hw::commit_cache;
use tt_hw::platform::{ChipProfile, ALL_CHIPS, EARLGREY, NRF52840DK};
use tt_kernel::campaign::{replay, FleetRunner};
use tt_kernel::corpus::CorpusRecord;
use tt_kernel::explore::explore;

struct Counting;

thread_local! {
    /// Allocations counted on this thread; `None` while not counting.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).expect("counting");
    (out, n)
}

/// `f` on a runner of `chip` booted and run in the given cache mode, as
/// the campaign's slots do.
fn with_runner<R>(chip: &ChipProfile, cold: bool, f: impl FnOnce(&mut FleetRunner) -> R) -> R {
    let run = || f(&mut FleetRunner::new(chip));
    match cold {
        true => commit_cache::with_disabled(run),
        false => run(),
    }
}

#[test]
fn restore_to_a_rung_of_the_live_shape_allocates_nothing() {
    for chip in [NRF52840DK, EARLGREY] {
        for cold in [false, true] {
            let counts = with_runner(&chip, cold, |runner| {
                // Warm-up: the first restores size the live table, the
                // programs and the trace ring's drain buffer.
                for _ in 0..3 {
                    runner.midrun_probe();
                }
                (0..5)
                    .map(|_| allocations(|| runner.midrun_probe()).1)
                    .collect::<Vec<_>>()
            });
            assert_eq!(
                counts,
                [0; 5],
                "{} {}: allocations per tick-1 restore",
                chip.name,
                if cold { "cold" } else { "warm" }
            );
        }
    }
}

/// Allocations over 20 seeded campaign runs on every chip, warm and
/// cold (280 runs), after two warm-up runs per runner: 7.65 per run
/// (9.33 when each fault report built its reason, layout and log line
/// as separate strings, 10.33 when arming the injection engine cloned
/// the rung's progress, 32.17 when restore rebuilt the process table and
/// the programs).
const FLEET_RUNS_BOUND: u64 = 2_141;

/// Allocations over `explore` of the clean baseline and seeds 0 and 1
/// on the nRF52840 and the Earl Grey, each after one warm-up `explore`
/// of its own unit on the same runner: 6.14 per representative over
/// 1 025 (6.27 before the fault report was built in one buffer, 10.68 when arming the engines allocated the schedule, its
/// one-shot flags, the plan and the rung's progress afresh per run,
/// 27.14 when restore rebuilt the process table and the programs).
const EXPLORE_BOUND: u64 = 6_295;

#[test]
fn allocations_per_fleet_run_stay_within_the_measured_count() {
    let (mut total, mut runs) = (0, 0u64);
    for (c, chip) in ALL_CHIPS.iter().enumerate() {
        for cold in [false, true] {
            let record = |seed| CorpusRecord {
                chip: c as u8,
                cold,
                seed,
                ..CorpusRecord::default()
            };
            total += with_runner(chip, cold, |runner| {
                for seed in 0..2 {
                    assert!(replay(runner, &record(seed)).is_empty());
                }
                (100..120)
                    .map(|seed| {
                        let (failures, n) = allocations(|| replay(runner, &record(seed)));
                        assert!(failures.is_empty(), "{failures:?}");
                        n
                    })
                    .sum::<u64>()
            });
            runs += 20;
        }
    }
    println!(
        "{total} allocations over {runs} fleet runs ({:.2} per run)",
        total as f64 / runs as f64
    );
    assert!(
        total <= FLEET_RUNS_BOUND,
        "{total} allocations over {runs} fleet runs, bound {FLEET_RUNS_BOUND}"
    );
}

#[test]
fn allocations_per_explorer_representative_stay_within_the_measured_count() {
    let (mut total, mut explored) = (0, 0);
    for chip in [NRF52840DK, EARLGREY] {
        for seed in [None, Some(0), Some(1)] {
            let (n, out) = with_runner(&chip, false, |runner| {
                explore(runner, seed, None);
                let (out, n) = allocations(|| explore(runner, seed, None));
                (n, out)
            });
            assert!(out.findings.is_empty(), "{}: {:?}", chip.name, out.findings);
            total += n;
            explored += out.explored;
        }
    }
    println!(
        "{total} allocations over {explored} representatives ({:.2} per representative)",
        total as f64 / explored as f64
    );
    assert!(
        total <= EXPLORE_BOUND,
        "{total} allocations over {explored} representatives, bound {EXPLORE_BOUND}"
    );
}
