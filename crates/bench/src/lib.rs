//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§5, §6).
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 10 proof effort | [`tt_analysis::report`] | `tt-audit` (in `tt-analysis`) |
//! | Fig. 11 CPU cycles | [`fig11`] | `fig11_cycles` |
//! | Fig. 12 verification time | [`fig12`] | `verify_all` |
//! | §6.1 differential testing | `tt_kernel::differential` | `e61_differential` |
//! | §6.2 memory usage | [`e62`] | `e62_memory_usage` |
//!
//! Absolute numbers are not expected to match the paper (the substrate is
//! a simulator, not an NRF52840dk + Flux/z3); the *shape* — who wins, by
//! roughly what factor, where the crossovers fall — is the reproduction
//! target, recorded in `EXPERIMENTS.md`.
//!
//! Every bin reduces its run to one [`tt_analysis::metrics::Report`]
//! through its module's `metrics` function, and shares the `--json` /
//! `--check` handling and the one baseline gate (DESIGN §17).

pub mod e62;
pub mod explore;
pub mod fig11;
pub mod fig12;
pub mod fleet;
pub mod incremental;
pub mod reports;
pub mod switch;

use std::path::Path;

use tt_kernel::corpus::{next_corpus, write_corpus, CorpusRecord};

/// Formats a `±x.xx%` difference the way Fig. 11 prints it.
pub fn pct_diff(ticktock: f64, tock: f64) -> String {
    if tock == 0.0 {
        return "n/a".into();
    }
    let diff = (ticktock - tock) / tock * 100.0;
    format!("{diff:+.2}%")
}

/// The value after `flag` in a bin's arguments, parsed: `None` when the
/// flag is absent, has no value (the next argument is a flag), or the
/// value does not parse.
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)
        .filter(|v| !v.starts_with("--"))?
        .parse()
        .ok()
}

/// A corpus replay's still-failing lines as report failures, each
/// `corpus replay: <line>`.
pub fn replay_failures(replayed: &[Vec<String>]) -> impl Iterator<Item = String> + '_ {
    replayed
        .iter()
        .flatten()
        .map(|f| format!("corpus replay: {f}"))
}

/// The corpus step both gates end with: prints `corpus: N replayed, M
/// still failing` when there was a corpus, then rewrites `path` by the
/// one writer rule ([`next_corpus`]) when the replay or the run (its
/// failing records in `found`) saw any failure.
pub fn settle_corpus(
    path: &Path,
    corpus: &[CorpusRecord],
    replayed: &[Vec<String>],
    found: &[CorpusRecord],
) {
    if !corpus.is_empty() {
        let failing = replayed.iter().filter(|l| !l.is_empty()).count();
        println!("corpus: {} replayed, {failing} still failing", corpus.len());
    }
    let Some(next) = next_corpus(corpus, replayed, found) else {
        return;
    };
    match write_corpus(path, &next) {
        Ok(()) => println!("wrote {} record(s) to {}", next.len(), path.display()),
        Err(e) => eprintln!("failed to write corpus {}: {e}", path.display()),
    }
}

/// Gates `report` on a baseline given as text (written to a per-test
/// temp file, since the gate reads its baseline from disk).
#[cfg(test)]
pub(crate) fn gate_text(
    report: &tt_analysis::metrics::Report,
    tag: &str,
    baseline: &str,
) -> tt_analysis::metrics::Verdict {
    let path = std::env::temp_dir().join(format!("tt-bench-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, baseline).unwrap();
    let verdict = tt_analysis::metrics::gate(report, &path);
    let _ = std::fs::remove_file(&path);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_diff_formats_both_signs() {
        assert_eq!(pct_diff(50.0, 100.0), "-50.00%");
        assert_eq!(pct_diff(108.0, 100.0), "+8.00%");
        assert_eq!(pct_diff(1.0, 0.0), "n/a");
    }

    #[test]
    fn flag_value_parses_the_next_argument_unless_it_is_a_flag() {
        let args = ["--seeds", "7", "--corpus", "--json", "--runs", "x"].map(String::from);
        assert_eq!(flag_value::<u64>(&args, "--seeds"), Some(7));
        assert_eq!(flag_value::<String>(&args, "--corpus"), None);
        assert_eq!(flag_value::<u64>(&args, "--runs"), None);
        assert_eq!(flag_value::<u64>(&args, "--cap"), None);
    }
}
