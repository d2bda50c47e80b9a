//! The fault-injection campaign gate: isolation under fire.
//!
//! Runs `--seeds N` (default 75) seeded injection campaigns per chip,
//! each seed twice — commit cache enabled (warm) and disabled (cold) —
//! across all seven chip profiles: 75 × 2 × 7 = 1050 injected runs. Every
//! run must satisfy the three-part oracle in `tt_kernel::campaign`:
//!
//! 1. bystander processes' observable traces are byte-identical to an
//!    uninjected reference run (isolation holds under injected faults);
//! 2. no contract obligation is violated at any recovery step;
//! 3. recovery converges — bystanders exit, the victim ends `Exited` or
//!    (restart cap) `Killed`, never a livelock.
//!
//! With `--check`, gates the `fault` report (DESIGN §17) and so exits
//! non-zero on any oracle failure (the CI gate); the report has no
//! baseline entries, so `--check` takes no baseline. With
//! `--json [path]`, writes it as `BENCH_fault.json`: per-chip recovery
//! latency (warm vs cold commit cache) and campaign counters. With
//! `--explore`, the interrupt-interleaving explorer rides along: every
//! chip's clean and first two seeded baselines are swept for
//! schedule-sensitive oracle failures (one representative per DPOR
//! commuting class), the planted commit-window demonstration runs, and
//! both fold their failures into the report.

use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_bench::explore::{self, planted_demo, render as render_explore, run_explore_fleet};
use tt_bench::{flag_value, reports};
use tt_hw::platform::{ALL_CHIPS, NRF52840DK};
use tt_kernel::campaign::{render_report, run_campaign_profiled};
use tt_kernel::pool;

/// Injected baselines per chip the folded explorer sweeps (the
/// standalone `e_explore` bin takes `--seeds` for wider sweeps).
const EXPLORE_SEEDS: u64 = 2;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("fault", &mut args);
    if let Err(e) = cli.bare_check() {
        eprintln!("e_fault_campaign: {e}");
        return ExitCode::from(2);
    }
    let explore = args.iter().any(|a| a == "--explore");
    let seeds: u64 = flag_value(&args, "--seeds").unwrap_or(75);

    println!("Fault-injection campaign (seeded, deterministic; victim pid 0, 2 bystanders)");
    let started = std::time::Instant::now();
    let reports = run_campaign_profiled(&ALL_CHIPS, seeds, pool::default_threads(), &[]).reports;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    print!("{}", render_report(&reports, seeds));
    println!("wall clock: {wall_ms:.0} ms");

    let mut report = reports::campaign_metrics(&reports, seeds, wall_ms);

    if explore {
        let fleet = run_explore_fleet(
            &ALL_CHIPS,
            EXPLORE_SEEDS,
            None,
            pool::default_threads(),
            None,
        );
        let demo = planted_demo(&NRF52840DK, seeds.min(25));
        print!("{}", render_explore(&fleet, &demo));
        // Detector power is part of the folded gate: losing the planted
        // bug (or tripping the control kernel) is a failure even though
        // the campaign itself stayed green.
        report
            .failures
            .extend(explore::metrics(&fleet, &demo, &[]).failures);
    }

    exit_code(cli.finish(&report))
}
