//! Regenerates Figure 10: the proof-effort table, via the static auditor.
//!
//! Usage: `fig10_proof_effort [--json [PATH]]` — the shared report flag
//! (DESIGN §17) for the `fig10` report. Exits nonzero if the audit is not
//! clean (same gate as `tt-audit --check`), so it takes no `--check`.

use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::take("fig10", &mut args);
    let refused = cli.check.as_ref().map(|_| "--check");
    if let Some(other) = refused.or(args.first().map(String::as_str)) {
        eprintln!("unknown argument: {other}");
        eprintln!("usage: fig10_proof_effort [--json [PATH]]");
        return ExitCode::from(2);
    }

    let report = tt_bench::fig10::run();
    for finding in &report.findings {
        eprintln!("{finding}");
    }
    println!("Figure 10: Proof Effort (generated by tt-audit)");
    println!("{}", tt_bench::fig10::render(&report));
    println!("(paper: 22,131 source LOC, 2,581 fns (125 trusted), 3,603 spec LOC (186 trusted))");

    let written = cli.finish(&tt_analysis::report::metrics(&report));
    if !report.clean() {
        eprintln!(
            "audit not clean: {} finding(s); the table above is suspect",
            report.findings.len()
        );
    }
    exit_code(written && report.clean())
}
