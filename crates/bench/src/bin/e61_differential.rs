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
//! pool (`TT_BENCH_THREADS` sets the worker count) — and writes the
//! `e61` report (`BENCH_e61.json`, DESIGN §17): the per-chip 21/5 shape
//! and the suite wall-clock, with every unexpected verdict as a failure.
//! The report has no gated metric, so `--check` is refused; unexpected
//! verdicts fail the bin on their own.

use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_bench::reports;
use tt_hw::platform::{ALL_CHIPS, NRF52840DK};
use tt_kernel::differential::{render_report, run_release_suite};
use tt_kernel::pool;
use tt_kernel::trace::render_divergence;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("e61", &mut args);
    if cli.check.is_some() {
        eprintln!("e61_differential: --check is not accepted: the report has no gated metric");
        return ExitCode::from(2);
    }
    let trace_mode = args.iter().any(|a| a == "--trace");

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
    let unexpected: Vec<&str> = results
        .iter()
        .filter(|r| r.matches() == r.expect_differs)
        .map(|r| r.name)
        .collect();
    let mut ok = true;
    if cli.wanted() {
        let started = std::time::Instant::now();
        let per_chip = run_release_suite(&ALL_CHIPS, pool::default_threads());
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        println!("all chips: {} chips, {:.0} ms", per_chip.len(), wall_ms);
        // Unexpected verdicts fail the bin on every chip, gated or not.
        let report = reports::e61_metrics(&per_chip, wall_ms);
        ok = cli.finish(&report) && report.failures.is_empty();
    }

    if !unexpected.is_empty() {
        eprintln!("UNEXPECTED differential results: {unexpected:?}");
        ok = false;
    }
    exit_code(ok)
}
