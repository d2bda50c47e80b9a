//! `tt-audit` — the workspace static isolation auditor.
//!
//! ```text
//! tt-audit [--check] [--json [FILE]] [--root DIR] [--config FILE]
//!          [--pass tcb,coverage,crosscheck,staleness] [--cold]
//! ```
//!
//! Runs the TCB audit, the invariant-coverage lint, the obligation
//! cross-check and the allowlist staleness lint over the workspace
//! sources and prints the Fig. 10 table: this is the figure's one bin.
//! `--json` and `--check` are the shared report flags (DESIGN §17):
//! `--json` writes the `fig10` report (`BENCH_fig10.json`), and `--check`
//! gates it against `ci/bench_baseline.json` (it takes no baseline path):
//! the process exits nonzero if any pass produced findings or a `--cold`
//! run's `audit.passes_ms` or `audit.edit_ms` is over its ceiling — the
//! CI gate.
//!
//! Every run audits every file in full and prints and reports each
//! pass's wall. `--cold` also takes the minimum of five repeats of three
//! walls: `run_passes` on the scanned tree (gated `audit.passes_ms`), a
//! scan of every file (`audit.scan_ms`, reported only) and an in-memory
//! edit of the largest file — rescan, re-index, all four passes (gated
//! `audit.edit_ms`); runs without it leave both gates skipped. Stale
//! allowlist entries are printed as a ready-to-apply removal listing.

use std::path::PathBuf;
use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_analysis::{AuditConfig, Pass};

/// Repeats behind each of `--cold`'s walls.
const COLD_REPEATS: usize = 5;

struct Args {
    report: Cli,
    root: PathBuf,
    config: PathBuf,
    passes: Vec<Pass>,
    cold: bool,
}

fn parse_passes(spec: &str) -> Result<Vec<Pass>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s {
            "tcb" => Ok(Pass::Tcb),
            "coverage" => Ok(Pass::Coverage),
            "crosscheck" => Ok(Pass::Crosscheck),
            "staleness" => Ok(Pass::Staleness),
            other => Err(format!(
                "unknown pass `{other}` (expected tcb, coverage, crosscheck, staleness)"
            )),
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let root = tt_analysis::workspace_root();
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    let report = Cli::take("fig10", &mut rest);
    report.bare_check()?;
    let mut args = Args {
        report,
        config: root.join(tt_analysis::DEFAULT_CONFIG),
        root,
        passes: Pass::ALL.to_vec(),
        cold: false,
    };
    let mut config_overridden = false;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(value("--root")?);
                if !config_overridden {
                    args.config = args.root.join(tt_analysis::DEFAULT_CONFIG);
                }
            }
            "--config" => {
                args.config = PathBuf::from(value("--config")?);
                config_overridden = true;
            }
            "--pass" => args.passes = parse_passes(&value("--pass")?)?,
            "--cold" => args.cold = true,
            "--help" | "-h" => {
                println!(
                    "tt-audit [--check] [--json [FILE]] [--root DIR] [--config FILE] \
                     [--pass tcb,coverage,crosscheck,staleness] [--cold]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tt-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let config = match AuditConfig::load(&args.config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tt-audit: {}: {e}", args.config.display());
            return ExitCode::from(2);
        }
    };

    let mut report = tt_analysis::run(&args.root, &config, &args.passes);
    if args.cold {
        report.cold = Some(tt_analysis::audit::cold_walls(
            &args.root,
            &config,
            &args.passes,
            COLD_REPEATS,
        ));
    }

    for finding in &report.findings {
        eprintln!("{finding}");
    }
    if !report.stale_entries.is_empty() {
        eprintln!(
            "fix: remove these stale entries from {}:",
            args.config.display()
        );
        for e in &report.stale_entries {
            eprintln!("  - \"{}\"   # {}: {}", e.entry, e.section, e.reason);
        }
    }
    println!("Figure 10: Proof Effort (generated by tt-audit)");
    print!("{}", tt_analysis::report::render_table(&report));
    println!("(paper: 22,131 source LOC, 2,581 fns (125 trusted), 3,603 spec LOC (186 trusted))");
    println!(
        "audit: {} finding(s) (tcb {}, coverage {}, crosscheck {}, staleness {})",
        report.findings.len(),
        report.count(Pass::Tcb),
        report.count(Pass::Coverage),
        report.count(Pass::Crosscheck),
        report.count(Pass::Staleness),
    );
    let walls: Vec<String> = report
        .pass_ms
        .iter()
        .map(|(pass, ms)| format!("{} {ms:.1} ms", pass.name()))
        .collect();
    println!("passes: {}", walls.join(", "));
    if let Some(c) = report.cold {
        println!(
            "passes: run_passes {:.1} ms, scan {:.1} ms, edit {:.1} ms (min of {COLD_REPEATS})",
            c.passes_ms, c.scan_ms, c.edit_ms
        );
    }

    exit_code(args.report.finish(&tt_analysis::report::metrics(&report)))
}
