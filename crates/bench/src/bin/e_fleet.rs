//! Fleet campaign gate: snapshot/restore mass fault injection.
//!
//! Runs a `--runs N` (default 1000) fleet campaign across all chips on
//! the snapshot/restore path — boot once per `(chip, cache-mode)` per
//! worker, dirty-page restore per seed, mid-run (post-first-tick)
//! resume for every plan that doesn't fire inside tick 1 — with the
//! bystander oracle and contract checks enabled on every run, and
//! prints per-chip tallies, runs/sec and the measured reset costs.
//!
//! Seeds recorded in the failure corpus (`<--corpus>/failures.bin`)
//! from a previous campaign are scheduled *first*, so known-bad inputs
//! report in the opening seconds of a million-run job.
//!
//! With `--profile`, prints the per-phase (restore/run/collect/
//! validate) p50/p99/mean table and capture amortization. The same
//! breakdown always lands in the `--json` document.
//!
//! With `--json [path]`, writes the `fleet` report (`BENCH_fleet.json`:
//! `runs_per_sec`, `restore_speedup`, `midrun_restore_speedup`, the
//! per-phase percentiles, per-chip tallies). With `--check [baseline]`,
//! gates it (DESIGN §17): exits non-zero if any restored run is not
//! byte-identical to its fresh-boot twin, if any campaign run fails the
//! oracle, or if a measured figure misses its `fleet.*` floor in
//! `ci/bench_baseline.json` (the serial throughput floor only for serial
//! campaigns of 50k+ runs).
//! With `--budget-ms N`, exits non-zero if the campaign wall-clock
//! exceeded `N` milliseconds — the CI knob that keeps raising `--runs`
//! toward 10^6 honest.
//!
//! Failing runs persist as 32-byte corpus records under `--corpus`
//! (default `ci/corpus/`), and the first few failing seeds are shrunk to
//! 1-minimal injection schedules for the report.

use std::path::Path;
use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_bench::flag_value;
use tt_bench::fleet::{
    equivalence_failures, failing_records, measure_reset_cost, metrics, priority_from_corpus,
    profile, render, render_profile, run_fleet_prioritized, shrink_failures,
};
use tt_bench::throughput::host_cores;
use tt_kernel::corpus::write_corpus;
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
    let want_profile = args.iter().any(|a| a == "--profile");
    let budget_ms: Option<f64> = flag_value(&args, "--budget-ms");

    let threads = pool::default_threads();
    let cores = host_cores();
    println!("Fleet campaign: --runs {runs} on {threads} worker(s) ({cores} core(s))");

    println!("restore-equivalence gate: replaying fresh-boot vs restored runs...");
    let equivalence = equivalence_failures();
    for f in &equivalence {
        eprintln!("EQUIVALENCE FAILED: {f}");
    }

    // Corpus-guided scheduling: front the units a previous campaign
    // recorded as failing.
    let failures_path = Path::new(&corpus_dir).join("failures.bin");
    let priority = match priority_from_corpus(&failures_path) {
        Ok(units) => {
            if !units.is_empty() {
                println!(
                    "corpus-guided scheduling: {} previously failing unit(s) run first",
                    units.len()
                );
            }
            units
        }
        Err(e) => {
            eprintln!("corrupt corpus {}: {e}", failures_path.display());
            return ExitCode::FAILURE;
        }
    };

    let result = run_fleet_prioritized(runs, threads, &priority);
    let cost = measure_reset_cost(RESET_COST_ITERS);
    let prof = profile(&result);
    print!("{}", render(&result, &cost));
    if want_profile {
        print!("{}", render_profile(&result, &prof));
    }

    let failing = failing_records(&result.outcomes);
    if !failing.is_empty() {
        match write_corpus(&failures_path, &failing) {
            Ok(()) => println!(
                "wrote {} failing record(s) to {}",
                failing.len(),
                failures_path.display()
            ),
            Err(e) => eprintln!("failed to write corpus {}: {e}", failures_path.display()),
        }
        for line in shrink_failures(&result.outcomes, SHRINK_LIMIT) {
            println!("shrunk: {line}");
        }
    }

    let mut report = metrics(&result, &cost, &prof, &equivalence, cores);
    let mut over_budget = false;
    if let Some(budget) = budget_ms {
        if result.wall_ms > budget {
            over_budget = true;
            let line = format!(
                "campaign took {:.0} ms, over the {budget:.0} ms budget",
                result.wall_ms
            );
            eprintln!("FLEET GATE FAILED: {line}");
            report.failures.push(line);
        } else {
            println!(
                "check: wall-clock {:.0} ms within the {budget:.0} ms budget",
                result.wall_ms
            );
        }
    }

    exit_code(cli.finish(&report) && equivalence.is_empty() && !over_budget)
}
