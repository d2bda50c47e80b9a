//! CI entry point: verify the whole project, exactly as §6.3 envisions
//! ("it takes around three minutes to verify the entire project, making
//! verification feasible as part of a CI pipeline").
//!
//! Runs every registered obligation — monolithic (fixed), granular, and
//! interrupts — plus the trusted-lemma exhaustive discharge, prints the
//! Fig. 12 table (this is the figure's one bin), and exits non-zero if
//! anything is refuted.
//!
//! Incremental mode (the default) persists per-function verdicts in
//! `ci/verify_cache.bin`: a warm re-run on an unchanged tree skips every
//! discharge and finishes sub-second. Flags:
//!
//! * `--quick`            — reduced effort densities (tier-1 CI)
//! * `--cold`             — discard any existing cache first (records the
//!   cold wall the warm speedup gate divides against)
//! * `--no-cache`         — a full run with no cache I/O: every function
//!   discharged, so the Fig. 12 table times all of them
//! * `--cache <path>`     — cache file location (default `ci/verify_cache.bin`)
//! * `--json [path]`      — write the `fig12` report (`BENCH_fig12.json`)
//! * `--check [baseline]` — gate it (DESIGN §17) against the warm-run
//!   bounds in `ci/bench_baseline.json` (hit rate, wall ceiling,
//!   speedup); a cold run emits no warm figures and so fails

use std::process::ExitCode;
use tt_analysis::metrics::Cli;
use tt_bench::fig12::{build_registry, Effort};
use tt_bench::{flag_value, incremental};
use tt_contracts::vcache::LoadOutcome;
use tt_contracts::verifier::{fmt_duration, Verifier};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("fig12", &mut args);
    let quick = args.iter().any(|a| a == "--quick");
    let cold = args.iter().any(|a| a == "--cold");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let cache_arg: Option<String> = flag_value(&args, "--cache");
    let effort = if quick { Effort::QUICK } else { Effort::FULL };

    // The Lean stand-in: exhaustive structural discharge of the lemmas.
    // Lemmas are axioms of everything else, so they are re-discharged on
    // every run, warm or cold — they are cheap and must never go stale.
    let lemma_cases = tt_contracts::lemmas::discharge_all_exhaustively();
    println!("lemmas: {lemma_cases} cases discharged exhaustively");

    let (report, run) = if no_cache {
        let registry = build_registry(effort);
        (Verifier::new().verify(&registry), None)
    } else {
        let path = incremental::cache_path(cache_arg.as_deref());
        let run = incremental::run(effort, &path, cold);
        if let LoadOutcome::Corrupt(e) = &run.outcome {
            eprintln!(
                "warning: verdict cache {} is corrupt ({e}); falling back to a full cold run",
                path.display()
            );
        }
        (run.report.clone(), Some(run))
    };

    println!("Figure 12: Time taken to verify TickTock ({effort:?})");
    print!("{}", report.render_fig12());
    println!(
        "(paper: Monolithic 660 fns / 5m19s; Granular 791 fns / 36s; Interrupts 95 fns / 2m34s)"
    );
    for (component, stats) in report.by_component() {
        println!(
            "{component}: {} fns in {} ({} refuted, {} cached)",
            stats.fns,
            fmt_duration(stats.total),
            stats.refuted_fns,
            stats.cached_fns
        );
    }
    if let Some(run) = &run {
        let mode = if run.outcome.is_warm() {
            "warm"
        } else {
            "cold"
        };
        println!(
            "incremental: {mode} run, hit rate {:.1}%, wall {} (cold {}), speedup {:.1}x",
            run.hit_rate * 100.0,
            fmt_duration(run.wall),
            fmt_duration(run.cold_wall),
            run.speedup()
        );
        if !cli.finish(&incremental::metrics(run, quick)) {
            return ExitCode::FAILURE;
        }
    } else if cli.wanted() {
        eprintln!("error: --json/--check require the incremental cache (drop --no-cache)");
        return ExitCode::FAILURE;
    }

    if report.all_verified() {
        println!("VERIFIED: the entire project checks");
        ExitCode::SUCCESS
    } else {
        println!("REFUTED:");
        for f in report.refuted() {
            println!("  {} :: {}", f.component, f.function);
            for r in &f.refutations {
                println!("    {r}");
            }
        }
        ExitCode::FAILURE
    }
}
