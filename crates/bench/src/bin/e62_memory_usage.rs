//! Regenerates the §6.2 memory-usage microbenchmark: grow by 1 byte until
//! failure; report total/app/grant/unused for Tock, TickTock, and padded
//! TickTock.
//!
//! `--json [path]` additionally writes the `e62` report
//! (`BENCH_e62.json`, DESIGN §17) with the three configurations'
//! measurements and the run's wall-clock. The report has no gated
//! metric, so `--check` is refused.

use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("e62", &mut args);
    if cli.check.is_some() {
        eprintln!("e62_memory_usage: --check is not accepted: the report has no gated metric");
        return ExitCode::from(2);
    }

    println!("Section 6.2: Memory usage (grow-by-1-byte-until-failure)");
    let started = std::time::Instant::now();
    let (tock, ticktock, padded) = tt_bench::e62::run();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    println!("{}", tt_bench::e62::render(&tock, &ticktock, &padded));
    println!("(paper: Tock 8,192 total / 6,656 app / 1,284 grant / 252 unused (3.08%);");
    println!("        TickTock 7,780 / 6,144 / 1,200 / 436 (5.60%); padded TickTock unused 336)");

    exit_code(cli.finish(&tt_bench::e62::metrics(&tock, &ticktock, &padded, wall_ms)))
}
