//! Regenerates Figure 11: average CPU cycles for process tasks.
//!
//! Runs the 21 release tests plus the memory-stress workload on both
//! kernels, three times each (as in §6.2), under cycle instrumentation.
//!
//! `--json [path]` additionally writes the `fig11` report
//! (`BENCH_fig11.json`: per-method cycles plus the commit-cache context-switch
//! hit/miss/baseline split per chip). `--check [baseline]` gates it
//! (DESIGN §17): a cache-hit context switch more than 10% above its
//! baseline ceiling, or a TickTock per-method cycle mean more than 10%
//! off its pin, fails — the CI gate for the commit cache and the cycle
//! accounting.

use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_bench::fig11::{metrics, render, run};
use tt_bench::pct_diff;
use tt_bench::switch::measure_all;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("fig11", &mut args);

    let started = std::time::Instant::now();
    let rows = run(3);
    let switches = measure_all();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    println!("Figure 11: Average CPU cycles for process tasks (3 runs, 21 tests + stress)");
    println!("{}", render(&rows));
    println!("(paper: allocate_grant -50%, brk -22%, build_ro -20%, build_rw -34%, create +0.7%, setup_mpu +8%)");
    println!();
    println!("Context switch-in (PR 2 commit cache), cycles per switch:");
    for s in &switches {
        println!(
            "  {:<12} {:<5} hit {:>4}  miss {:>4}  baseline {:>4}  ({} vs baseline)",
            s.chip,
            s.arch,
            s.hit,
            s.miss,
            s.baseline,
            pct_diff(s.hit as f64, s.baseline as f64)
        );
    }

    exit_code(cli.finish(&metrics(&rows, &switches, wall_ms)))
}
