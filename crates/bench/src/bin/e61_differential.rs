//! Regenerates the §6.1 differential-testing result: 21 release tests run
//! on both kernels, 5 expected output differences.
//!
//! Exits non-zero if any test's verdict is UNEXPECTED (a difference where
//! §6.1 expects none, or vice versa) — this is the CI gate.
//!
//! With `--trace`, additionally prints the first observable trace
//! divergence for every differing test (not just the console diff), using
//! the trace-equivalence oracle in `tt_kernel::trace`.
//!
//! With `--json [path]`, runs the suite on all seven chip profiles —
//! every `(chip, test)` diff is one unit of work on the work-stealing
//! pool (`TT_BENCH_THREADS` sets the worker count) — and writes
//! `BENCH_e61.json` with the per-chip 21/5 shape and the suite
//! wall-clock.

use std::process::ExitCode;

use tt_bench::reports;
use tt_hw::platform::{ALL_CHIPS, NRF52840DK};
use tt_kernel::differential::{render_report, run_release_suite};
use tt_kernel::pool;
use tt_kernel::trace::render_divergence;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_mode = args.iter().any(|a| a == "--trace");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|p| !p.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_e61.json".into())
    });

    println!("Section 6.1: Differential testing (Tock vs TickTock, 21 release tests)");
    let (_, results) = run_release_suite(&[NRF52840DK], pool::default_threads()).remove(0);
    println!("{}", render_report(&results));
    for r in &results {
        if !r.matches() {
            println!("--- {} ---", r.name);
            println!("  tock:     {:?}", r.tock.console);
            println!("  ticktock: {:?}", r.ticktock.console);
            if trace_mode {
                match &r.trace_divergence {
                    Some(d) => print!("  {}", render_divergence(d, "tock", "ticktock")),
                    None => println!("  (traces observably equivalent; console-only diff)"),
                }
            }
        }
    }
    println!("(paper: 21 tests, 5 differing — all layout- or sensor-dependent)");
    let mut unexpected: Vec<String> = results
        .iter()
        .filter(|r| r.matches() == r.expect_differs)
        .map(|r| r.name.to_string())
        .collect();

    if let Some(path) = json_path {
        let started = std::time::Instant::now();
        let per_chip = run_release_suite(&ALL_CHIPS, pool::default_threads());
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        unexpected.extend(reports::e61_unexpected(&per_chip));
        let doc = reports::e61_json(&per_chip, wall_ms);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} ({} chips, {:.0} ms)", per_chip.len(), wall_ms);
    }

    if !unexpected.is_empty() {
        eprintln!("UNEXPECTED differential results: {unexpected:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
