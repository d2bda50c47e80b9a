//! Prints one PR's line for the committed perf history
//! (`ci/perf_history.jsonl`), rendered by the metrics writer as a
//! compact `perf` report; append it with `>> ci/perf_history.jsonl`:
//!
//! ```text
//! perf_history <pr> <side>=<fleet>,<explore>,<verify>/<fleet>,<explore>,<verify> ...
//! ```
//!
//! Each side (`parent` or `change`) gives perfbench's `ops_per_s`
//! medians, then its `sim_kcycles_per_op`, per workload. The line holds
//! `pr`, then `<side>.<workload>.ops_per_s` and
//! `<side>.<workload>.sim_kcycles_per_op` for each side, in argument
//! order.

use std::process::ExitCode;

use tt_analysis::metrics::{Report, WALL};

/// perfbench's workloads, in the order a side lists them.
const WORKLOADS: [&str; 3] = ["fleet", "explore", "verify"];

/// Adds one `<side>=<ops>/<kcycles>` argument's metrics to `r`.
fn side(r: &mut Report, arg: &str) -> Option<()> {
    let (name, values) = arg.split_once('=')?;
    let name = ["parent", "change"].into_iter().find(|n| *n == name)?;
    let (ops, kcycles) = values.split_once('/')?;
    let three = |s: &str| -> Option<[f64; 3]> {
        let v: Vec<f64> = s
            .split(',')
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        v.try_into().ok()
    };
    let (ops, kcycles) = (three(ops)?, three(kcycles)?);
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let metric = format!("{name}.{workload}");
        r.info(format!("{metric}.ops_per_s"), WALL, "1/s", ops[w]);
        r.info(
            format!("{metric}.sim_kcycles_per_op"),
            "cycles",
            "kcycles",
            kcycles[w],
        );
    }
    Some(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut r = Report::new("perf");
    let pr = args.first().and_then(|a| a.parse::<u32>().ok());
    if let Some(pr) = pr {
        r.info("pr", "history", "count", f64::from(pr));
    }
    let sides: Option<Vec<()>> = args.iter().skip(1).map(|a| side(&mut r, a)).collect();
    if pr.is_none() || sides.is_none_or(|s| s.is_empty()) {
        eprintln!("usage: perf_history <pr> <side>=<f>,<e>,<v>/<f>,<e>,<v> ...");
        eprintln!("  side: parent or change; ops_per_s medians, then sim_kcycles_per_op");
        return ExitCode::from(2);
    }
    println!("{}", r.to_json_line());
    ExitCode::SUCCESS
}
