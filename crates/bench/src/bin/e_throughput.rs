//! Simulation throughput gate: runs/sec across the worker-count ladder.
//!
//! Runs the fault-injection campaign (`--seeds N` per chip, default 10)
//! and the §6.1 differential suite across all chips at 1, N/2 and N
//! workers (N = `TT_BENCH_THREADS` or the host core count) and prints
//! runs-per-second for each rung.
//!
//! With `--json [path]`, writes the `throughput` report
//! (`BENCH_throughput.json`); with `--check [baseline]`, gates it
//! (DESIGN §17): any rung whose campaign or differential artifact is not
//! byte-identical to the serial rung's fails, and — on multi-core hosts
//! — so does a best campaign speedup under the baseline's
//! `throughput.parallel_speedup` floor. This is the CI gate for the
//! work-stealing pool: determinism is checked everywhere, the speedup
//! floor only where the hardware can express one.

use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_bench::flag_value;
use tt_bench::throughput::{host_cap, host_cores, metrics, render, run_ladder};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("throughput", &mut args);
    let seeds: u64 = flag_value(&args, "--seeds").unwrap_or(10);

    let cores = host_cores();
    println!(
        "Simulation throughput (campaign --seeds {seeds} + differential suite, {cores} core(s))"
    );
    let entries = run_ladder(seeds);
    print!("{}", render(&entries));
    if cores > 1 {
        println!(
            "speedup floor: the baseline's, skipped at or above the host cap of \
             0.75 x {cores} cores = {:.2}x",
            host_cap(cores)
        );
    }

    exit_code(cli.finish(&metrics(&entries, seeds, cores)))
}
