//! The fault-injection campaign gate: isolation under fire, on the
//! snapshot/restore fleet path, at every rung of the thread ladder.
//!
//! Runs a `--runs N` (default 1000) campaign across all seven chips —
//! `N / 14` seeds per chip, each seed warm (commit cache enabled) and
//! cold (disabled) — once per rung of the thread ladder (1, N/2 and N
//! workers, N = `TT_BENCH_THREADS` or the host core count). Each worker
//! boots and captures the clean checkpoint ladder once per
//! `(chip, cache-mode)`, then resumes each seed from the latest clean
//! rung before its plan's first injection. Every run must satisfy the
//! three-part oracle (`crates/kernel/src/oracle.rs`):
//!
//! 1. bystander processes' observable traces are byte-identical to an
//!    uninjected reference run, the clean run of the runner that made
//!    the run (isolation holds under injected faults);
//! 2. no contract obligation is violated at any recovery step;
//! 3. recovery converges — bystanders exit, the victim ends `Exited` or
//!    (restart cap) `Killed`, never a livelock.
//!
//! Prints the campaign table (per-chip tallies and warm/cold mean
//! recovery cycles), the ladder's runs/sec and speedups, the measured
//! reset costs and the per-phase (restore/run/collect/validate)
//! p50/p99/mean profile. Only the top rung's campaign feeds the corpus,
//! the shrinker, the profile and the budget; the lower rungs keep their
//! wall time and their artifact.
//!
//! The failure corpus (`<--corpus>/failures.bin`, shared with
//! `e_explore`) is replayed before each rung's units, so known-bad
//! inputs report in the opening seconds of a million-run job; a record
//! that still fails is a `corpus replay:` failure.
//!
//! With `--json [path]`, writes the `fleet` report (`BENCH_fleet.json`).
//! With `--check [baseline]`, gates it (DESIGN §17): exits non-zero if
//! any restored run is not byte-identical to its fresh-boot twin, if any
//! rung's campaign artifact differs from the serial rung's, if any
//! campaign run fails the oracle, or if a measured figure misses its
//! `fleet.*` bound in `ci/bench_baseline.json` (the serial throughput
//! floor only for campaigns of 50k+ runs, the parallel speedup floor
//! only on a multi-core host and below its 0.75 × cores cap;
//! `resimulated_share` is an exact work count under a ceiling).
//! With `--budget-ms N`, exits non-zero if the top rung's wall-clock
//! exceeded `N` milliseconds — the CI knob that keeps raising `--runs`
//! toward 10^6 honest.
//!
//! When anything failed, the corpus under `--corpus` (default
//! `ci/corpus/`) is rewritten: the replayed records that still fail,
//! then the campaign's failing runs as 32-byte records. The first few
//! failing seeds are shrunk to 1-minimal injection schedules for the
//! report.

use std::path::Path;
use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_bench::fleet::{
    equivalence_failures, failing_records, host_cores, measure_reset_cost, metrics, profile,
    render, render_profile, run_fleet, shrink_failures, thread_ladder,
};
use tt_bench::{flag_value, settle_corpus};
use tt_kernel::corpus::read_corpus;
use tt_kernel::pool;

/// Reset-cost probe iterations per chip.
const RESET_COST_ITERS: u32 = 50;
/// Maximum failing seeds shrunk for the report.
const SHRINK_LIMIT: usize = 10;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("fleet", &mut args);
    let runs: u64 = flag_value(&args, "--runs").unwrap_or(1000);
    let corpus_dir: String = flag_value(&args, "--corpus").unwrap_or_else(|| "ci/corpus".into());
    let budget_ms: Option<f64> = flag_value(&args, "--budget-ms");
    let path = Path::new(&corpus_dir).join("failures.bin");
    let corpus = match read_corpus(&path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("corrupt corpus {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };

    let threads = pool::default_threads();
    let cores = host_cores();
    println!(
        "Fleet campaign: --runs {runs}, thread ladder {:?} ({cores} core(s))",
        thread_ladder(threads)
    );

    println!("restore-equivalence gate: replaying fresh-boot vs restored runs...");
    let equivalence = equivalence_failures();
    for f in &equivalence {
        eprintln!("EQUIVALENCE FAILED: {f}");
    }

    let result = run_fleet(runs, threads, &corpus);
    let cost = measure_reset_cost(RESET_COST_ITERS);
    let prof = profile(&result);
    print!("{}", render(&result, &cost));
    print!("{}", render_profile(&result, &prof));

    let failing = failing_records(&result.outcomes);
    settle_corpus(&path, &corpus, &result.replayed, &failing);
    for line in shrink_failures(&result.outcomes, SHRINK_LIMIT) {
        println!("shrunk: {line}");
    }

    let mut report = metrics(&result, &cost, &prof, &equivalence, cores);
    let mut over_budget = false;
    let wall_ms = result.top().wall_ms;
    if let Some(budget) = budget_ms {
        if wall_ms > budget {
            over_budget = true;
            let line = format!("campaign took {wall_ms:.0} ms, over the {budget:.0} ms budget");
            eprintln!("FLEET GATE FAILED: {line}");
            report.failures.push(line);
        } else {
            println!("check: wall-clock {wall_ms:.0} ms within the {budget:.0} ms budget");
        }
    }

    exit_code(cli.finish(&report) && equivalence.is_empty() && !over_budget)
}
