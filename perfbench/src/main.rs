//! The benchmark's command line.
//!
//! ```text
//! cargo run --offline --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|explore|verify --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints a human-readable report on
//! standard error and, as the last line of standard output, one JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Spans from a traced run go to
//! `perfbench/out/spans-<workload>-<seed>.tsv`. Exits non-zero, printing
//! no result, when the determinism guard or the set-up fails.

use std::process::ExitCode;

use perfbench::spans::Spans;
use perfbench::{render_json, run, Config};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    let outcome = match run(&cfg, &mut spans) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        eprintln!("{line}");
    }
    for (name, value) in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        eprintln!("  {name:<40} {value:.4}");
    }
    if cfg.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("spans-{}-{}.tsv", cfg.workload, cfg.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {}", path.display());
    }
    println!("{}", render_json(&outcome, cfg.trace));
    ExitCode::SUCCESS
}
