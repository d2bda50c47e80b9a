//! The schedule-exploration gate: systematic interrupt interleaving
//! with DPOR-style pruning.
//!
//! Explores every interrupt-arrival commuting class of the campaign
//! scenario — all seven chips, the clean baseline plus `--seeds`
//! injected ones each — executing one representative per class through
//! the fleet's snapshot/restore machinery and oracle-checking it.
//! The failure corpus (`<--corpus>/failures.bin`, shared with `e_fleet`)
//! replays first, through the campaign's replay; when anything failed it
//! is rewritten with the records that still fail, then the new findings
//! as version-2 records (the 64-bit schedule ID is the whole repro).
//!
//! Alongside the sweep, the planted commit-window bug demonstration
//! proves detector power: `--planted-seeds` seeded runs on the buggy
//! kernel must stay green, exploration must find the bug, and the
//! minimized schedule must be harmless on the correct kernel.
//!
//! With `--check [baseline]`, gates the `explore` report (DESIGN §17):
//! exits non-zero on any finding, a replayed schedule still failing, a
//! pruning ratio under the `explore.prune_ratio` floor in
//! `ci/bench_baseline.json`, or lost detector power. With
//! `--json [path]`, writes `BENCH_explore.json`. `--budget-ms N` bounds
//! fleet wall clock (late units report truncated, and the gate refuses
//! to pass on truncation alone).

use std::path::Path;
use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_bench::explore::{explore_records, metrics, planted_demo, render, run_explore_fleet};
use tt_bench::{flag_value, settle_corpus};
use tt_hw::platform::{ALL_CHIPS, NRF52840DK};
use tt_kernel::campaign::run_campaign_profiled;
use tt_kernel::corpus::read_corpus;
use tt_kernel::pool;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("explore", &mut args);
    let seeds: u64 = flag_value(&args, "--seeds").unwrap_or(2);
    let planted_seeds: u64 = flag_value(&args, "--planted-seeds").unwrap_or(25);
    let cap: Option<usize> = flag_value(&args, "--cap");
    let budget_ms: Option<f64> = flag_value(&args, "--budget-ms");
    let threads: usize = flag_value(&args, "--threads").unwrap_or_else(pool::default_threads);
    let corpus_dir: String = flag_value(&args, "--corpus").unwrap_or_else(|| "ci/corpus".into());

    // Replay the corpus first — a previously-failing input reporting
    // in the opening seconds beats rediscovering it.
    let path = Path::new(&corpus_dir).join("failures.bin");
    let corpus = match read_corpus(&path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("corrupt corpus {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let replayed = run_campaign_profiled(&ALL_CHIPS, 0, threads, &corpus).replayed;

    let fleet = run_explore_fleet(&ALL_CHIPS, seeds, cap, threads, budget_ms);
    let demo = planted_demo(&NRF52840DK, planted_seeds);
    print!("{}", render(&fleet, &demo));
    println!("wall clock: {:.0} ms", fleet.wall_ms);

    // The planted demo is a self-check, not a campaign result: its
    // schedules stay out of the corpus.
    settle_corpus(&path, &corpus, &replayed, &explore_records(&fleet.outcomes));

    exit_code(cli.finish(&metrics(&fleet, &demo, &replayed)))
}
