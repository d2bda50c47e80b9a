//! Simulation throughput: runs/sec for the two heavy workloads at a
//! ladder of worker counts.
//!
//! The throughput engine drives the same code paths CI gates on — the
//! fault-injection campaign and the §6.1 differential suite — through
//! [`tt_kernel::pool`] at 1, N/2 and N workers (N =
//! [`pool::default_threads`]) and reports kernel runs per second at each
//! rung. Because every run's mutable state is thread-local, the reports
//! produced at any rung must be byte-identical to the serial ones;
//! [`check`] asserts exactly that, making the parallelism itself a gated
//! artifact rather than a trusted optimisation.
//!
//! The speedup floor in `ci/bench_baseline.json`
//! (`min_parallel_speedup`) only applies when the host actually has
//! cores to scale onto: on a 1-core container the ladder still runs (the
//! determinism half of the gate is host-independent) but the floor is
//! skipped, and on small hosts it is capped below the core count.

use std::time::Instant;

use crate::{json, reports};
use tt_hw::platform::ALL_CHIPS;
use tt_kernel::campaign::{render_report, run_campaign_profiled};
use tt_kernel::differential::run_release_suite;
use tt_kernel::pool;

/// One rung of the thread ladder: wall-clock and run counts for both
/// workloads at a fixed worker count.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Worker count this rung ran with.
    pub threads: usize,
    /// Injected campaign runs executed (seeds × 2 cache modes × chips).
    pub campaign_runs: u64,
    /// Campaign wall-clock, milliseconds.
    pub campaign_ms: f64,
    /// Differential kernel boots executed (tests × 2 kernels × chips).
    pub diff_runs: u64,
    /// Differential suite wall-clock, milliseconds.
    pub diff_ms: f64,
}

impl Sample {
    /// Campaign throughput in injected runs per second.
    pub fn campaign_runs_per_sec(&self) -> f64 {
        self.campaign_runs as f64 / (self.campaign_ms / 1e3)
    }

    /// Differential throughput in kernel boots per second.
    pub fn diff_runs_per_sec(&self) -> f64 {
        self.diff_runs as f64 / (self.diff_ms / 1e3)
    }
}

/// A measured rung plus the rendered artifacts it produced, kept for the
/// byte-identity check. Wall-clock fields inside the artifacts are
/// pinned to 0 so the bytes only reflect simulation results.
#[derive(Debug, Clone)]
pub struct LadderEntry {
    /// Timing for this rung.
    pub sample: Sample,
    /// Campaign text report + JSON document (wall pinned).
    pub campaign_artifact: String,
    /// Differential all-chips JSON document (wall pinned).
    pub diff_artifact: String,
}

/// The worker counts to measure: 1, N/2 and N, deduplicated and sorted
/// (so a 1-core host measures just `[1]`).
pub fn thread_ladder(max_threads: usize) -> Vec<usize> {
    let mut ladder = vec![1, max_threads / 2, max_threads];
    ladder.retain(|&t| t >= 1);
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// Measures one rung: campaign at `seeds` seeds per chip and the
/// differential suite, both across all chips at `threads` workers.
pub fn measure(seeds: u64, threads: usize) -> LadderEntry {
    let t0 = Instant::now();
    let campaign = run_campaign_profiled(&ALL_CHIPS, seeds, threads, &[]).reports;
    let campaign_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let per_chip = run_release_suite(&ALL_CHIPS, threads);
    let diff_ms = t1.elapsed().as_secs_f64() * 1e3;

    let campaign_runs = campaign.iter().map(|r| r.runs * 2).sum::<u64>();
    let diff_runs = per_chip
        .iter()
        .map(|(_, results)| results.len() as u64 * 2)
        .sum::<u64>();

    let mut campaign_artifact = render_report(&campaign, seeds);
    campaign_artifact.push_str(&reports::campaign_json(&campaign, seeds, 0.0));
    let diff_artifact = reports::e61_json(&per_chip, 0.0);

    LadderEntry {
        sample: Sample {
            threads,
            campaign_runs,
            campaign_ms,
            diff_runs,
            diff_ms,
        },
        campaign_artifact,
        diff_artifact,
    }
}

/// Runs the full ladder for [`pool::default_threads`] workers.
pub fn run_ladder(seeds: u64) -> Vec<LadderEntry> {
    thread_ladder(pool::default_threads())
        .into_iter()
        .map(|threads| measure(seeds, threads))
        .collect()
}

/// Renders the human-readable throughput table.
pub fn render(entries: &[LadderEntry]) -> String {
    let base = &entries[0].sample;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>16} {:>9} {:>16} {:>9}\n",
        "threads", "campaign runs/s", "speedup", "diff runs/s", "speedup"
    ));
    for e in entries {
        let s = &e.sample;
        out.push_str(&format!(
            "{:<8} {:>16.1} {:>8.2}x {:>16.1} {:>8.2}x\n",
            s.threads,
            s.campaign_runs_per_sec(),
            s.campaign_runs_per_sec() / base.campaign_runs_per_sec(),
            s.diff_runs_per_sec(),
            s.diff_runs_per_sec() / base.diff_runs_per_sec(),
        ));
    }
    out
}

/// Renders the `BENCH_throughput.json` document.
pub fn render_json(entries: &[LadderEntry], seeds: u64, cores: usize) -> String {
    let deterministic = entries.iter().all(|e| artifacts_match(e, &entries[0]));
    let base = &entries[0].sample;
    let mut doc = String::new();
    doc.push_str("{\n  \"experiment\": \"e_throughput\",\n");
    doc.push_str(&format!("  \"seeds_per_chip\": {seeds},\n"));
    doc.push_str(&format!("  \"cores\": {cores},\n"));
    doc.push_str(&format!(
        "  \"max_threads\": {},\n",
        entries.last().map(|e| e.sample.threads).unwrap_or(1)
    ));
    doc.push_str(&format!("  \"deterministic\": {deterministic},\n"));
    doc.push_str("  \"points\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let s = &e.sample;
        doc.push_str(&format!(
            "    {{\"threads\": {}, \"campaign_runs\": {}, \"campaign_ms\": {}, \
             \"campaign_runs_per_sec\": {}, \"campaign_speedup\": {}, \
             \"diff_runs\": {}, \"diff_ms\": {}, \"diff_runs_per_sec\": {}, \
             \"diff_speedup\": {}}}{}\n",
            s.threads,
            s.campaign_runs,
            json::num(s.campaign_ms),
            json::num(s.campaign_runs_per_sec()),
            json::num(s.campaign_runs_per_sec() / base.campaign_runs_per_sec()),
            s.diff_runs,
            json::num(s.diff_ms),
            json::num(s.diff_runs_per_sec()),
            json::num(s.diff_runs_per_sec() / base.diff_runs_per_sec()),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    doc.push_str("  ]\n}\n");
    doc
}

fn artifacts_match(a: &LadderEntry, b: &LadderEntry) -> bool {
    a.campaign_artifact == b.campaign_artifact && a.diff_artifact == b.diff_artifact
}

/// The CI gate: every rung's artifacts must be byte-identical to the
/// serial rung's, and — when the host has cores to use — the fastest
/// rung must clear the baseline's `min_parallel_speedup` (capped at
/// 0.75 × cores so small CI hosts are not asked for speedups their
/// hardware cannot produce). Returns the list of failures.
pub fn check(
    entries: &[LadderEntry],
    baseline: &str,
    cores: usize,
) -> Result<Vec<String>, Vec<String>> {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let serial = &entries[0];
    for e in &entries[1..] {
        if e.campaign_artifact != serial.campaign_artifact {
            failures.push(format!(
                "campaign report at {} threads differs from serial ({} vs {} bytes)",
                e.sample.threads,
                e.campaign_artifact.len(),
                serial.campaign_artifact.len()
            ));
        }
        if e.diff_artifact != serial.diff_artifact {
            failures.push(format!(
                "differential report at {} threads differs from serial ({} vs {} bytes)",
                e.sample.threads,
                e.diff_artifact.len(),
                serial.diff_artifact.len()
            ));
        }
    }
    notes.push(format!(
        "determinism: {} rung(s) byte-identical to serial",
        entries.len() - 1
    ));

    let floor = json::read_number(baseline, "min_parallel_speedup");
    let max_threads = entries.last().map(|e| e.sample.threads).unwrap_or(1);
    match floor {
        Some(floor) if cores > 1 && max_threads > 1 => {
            let effective = floor.min(cores as f64 * 0.75);
            let best = entries
                .iter()
                .map(|e| e.sample.campaign_runs_per_sec())
                .fold(f64::NEG_INFINITY, f64::max);
            let speedup = best / serial.sample.campaign_runs_per_sec();
            if speedup < effective {
                failures.push(format!(
                    "campaign parallel speedup {speedup:.2}x below floor {effective:.2}x \
                     (baseline {floor:.2}x, {cores} cores)"
                ));
            } else {
                notes.push(format!(
                    "speedup: campaign {speedup:.2}x >= floor {effective:.2}x"
                ));
            }
        }
        Some(_) => notes.push(format!(
            "speedup floor skipped ({cores} core(s), max {max_threads} thread(s))"
        )),
        None => notes.push("baseline has no min_parallel_speedup; floor skipped".into()),
    }

    if failures.is_empty() {
        Ok(notes)
    } else {
        Err(failures)
    }
}

/// Host core count as reported by the OS (1 when undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ladder_dedups_and_sorts() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(8), vec![1, 4, 8]);
    }

    fn fake_entry(threads: usize, campaign_ms: f64, artifact: &str) -> LadderEntry {
        LadderEntry {
            sample: Sample {
                threads,
                campaign_runs: 100,
                campaign_ms,
                diff_runs: 100,
                diff_ms: campaign_ms,
            },
            campaign_artifact: artifact.into(),
            diff_artifact: artifact.into(),
        }
    }

    #[test]
    fn check_fails_on_artifact_mismatch() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 20.0, "b")];
        let failures = check(&entries, "{}", 8).unwrap_err();
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn check_enforces_speedup_floor_only_with_cores() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 90.0, "a")];
        let baseline = "{\"min_parallel_speedup\": 3.0}";
        // 8 cores: 1.11x speedup misses the 3x floor.
        assert!(check(&entries, baseline, 8).is_err());
        // 1 core: floor is skipped, determinism still checked.
        assert!(check(&entries, baseline, 1).is_ok());
        // 2 cores: floor capped at 1.5x, still missed at 1.11x.
        assert!(check(&entries, baseline, 2).is_err());
    }

    #[test]
    fn check_passes_a_clean_ladder() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 25.0, "a")];
        let baseline = "{\"min_parallel_speedup\": 3.0}";
        let notes = check(&entries, baseline, 8).unwrap();
        assert!(notes.iter().any(|n| n.contains("speedup")), "{notes:?}");
    }

    #[test]
    fn render_json_is_readable_back() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 25.0, "a")];
        let doc = render_json(&entries, 5, 8);
        assert_eq!(json::read_number(&doc, "seeds_per_chip"), Some(5.0));
        assert_eq!(json::read_number(&doc, "cores"), Some(8.0));
        assert_eq!(json::read_number(&doc, "max_threads"), Some(8.0));
        assert!(doc.contains("\"deterministic\": true"));
    }

    #[test]
    fn measure_produces_consistent_counts() {
        let e = measure(1, 1);
        // 7 chips × 1 seed × 2 cache modes.
        assert_eq!(e.sample.campaign_runs, 14);
        // 7 chips × 21 tests × 2 kernels.
        assert_eq!(e.sample.diff_runs, 294);
        assert!(e.campaign_artifact.contains("e_fault_campaign"));
        assert!(e.diff_artifact.contains("e61_differential"));
    }
}
