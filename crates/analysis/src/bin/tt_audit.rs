//! `tt-audit` — the workspace static isolation auditor.
//!
//! ```text
//! tt-audit [--check] [--json [FILE]] [--root DIR] [--config FILE]
//!          [--pass tcb,coverage,crosscheck,staleness]
//!          [--cold] [--no-cache] [--cache FILE]
//! ```
//!
//! Runs the TCB audit, the invariant-coverage lint, the obligation
//! cross-check and the allowlist staleness lint over the workspace
//! sources and prints the Fig. 10 table. `--json` and `--check` are the
//! shared report flags (DESIGN §17): `--json` writes the `fig10` report
//! (`BENCH_fig10.json`), and `--check` gates it against
//! `ci/bench_baseline.json` (it takes no baseline path): the process
//! exits nonzero if any pass produced findings or a `--cold` run's
//! `audit.passes_ms` is over its ceiling — the CI gate.
//!
//! By default the cacheable passes run incrementally against
//! `ci/audit_cache.bin`: a warm re-run on an unchanged tree skips every
//! per-file verdict. `--cold` discards the cache first and also times
//! five uncached `run_passes` calls on the scanned tree, reporting their
//! minimum as the gated `audit.passes_ms`; `--no-cache` disables caching
//! entirely. Every run prints and reports each pass's wall. Stale
//! allowlist entries are printed as a ready-to-apply removal listing.

use std::path::PathBuf;
use std::process::ExitCode;

use tt_analysis::metrics::{exit_code, Cli};
use tt_analysis::{AuditConfig, Pass};

/// Uncached `run_passes` calls behind `--cold`'s gated audit wall.
const COLD_REPEATS: usize = 5;

struct Args {
    report: Cli,
    root: PathBuf,
    config: PathBuf,
    passes: Vec<Pass>,
    cold: bool,
    no_cache: bool,
    cache: Option<PathBuf>,
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
        passes: vec![Pass::Tcb, Pass::Coverage, Pass::Crosscheck, Pass::Staleness],
        cold: false,
        no_cache: false,
        cache: None,
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
            "--no-cache" => args.no_cache = true,
            "--cache" => args.cache = Some(PathBuf::from(value("--cache")?)),
            "--help" | "-h" => {
                println!(
                    "tt-audit [--check] [--json [FILE]] [--root DIR] [--config FILE] \
                     [--pass tcb,coverage,crosscheck,staleness] \
                     [--cold] [--no-cache] [--cache FILE]"
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

    let mut report = if args.no_cache {
        tt_analysis::run(&args.root, &config, &args.passes)
    } else {
        let cache = args
            .cache
            .clone()
            .unwrap_or_else(|| args.root.join(tt_analysis::DEFAULT_AUDIT_CACHE));
        let cache = if cache.is_absolute() {
            cache
        } else {
            args.root.join(cache)
        };
        tt_analysis::run_cached(&args.root, &config, &args.passes, &cache, args.cold)
    };

    if args.cold {
        let files = tt_analysis::load_workspace(&args.root);
        report.passes_ms = Some(tt_analysis::audit::min_passes_ms(
            &files,
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
    print!("{}", tt_analysis::report::render_table(&report));
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
    if let Some(ms) = report.passes_ms {
        println!("passes: uncached run_passes {ms:.1} ms (min of {COLD_REPEATS})");
    }
    if let Some(c) = &report.cache {
        if let Some(err) = &c.corrupt {
            eprintln!("warning: audit cache was corrupt ({err}); ran cold, never partial reuse");
        }
        println!(
            "cache: {} run, hit rate {:.1}%, wall {:.1} ms (cold {:.1} ms), \
             skipped tcb {}, coverage {}, crosscheck {}",
            if c.warm { "warm" } else { "cold" },
            c.hit_rate * 100.0,
            c.wall_ms,
            c.cold_wall_ms,
            c.skipped_tcb,
            c.skipped_coverage,
            c.skipped_crosscheck,
        );
    }

    exit_code(args.report.finish(&tt_analysis::report::metrics(&report)))
}
