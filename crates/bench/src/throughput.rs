//! Simulation throughput: runs/sec for the two heavy workloads at a
//! ladder of worker counts.
//!
//! The throughput engine drives the same code paths CI gates on — the
//! fault-injection campaign and the §6.1 differential suite — through
//! [`tt_kernel::pool`] at 1, N/2 and N workers (N =
//! [`pool::default_threads`]) and reports kernel runs per second at each
//! rung. Because every run's mutable state is thread-local, the reports
//! produced at any rung must be byte-identical to the serial ones;
//! [`metrics`] reports every mismatch as a failure, making the
//! parallelism itself a gated artifact rather than a trusted
//! optimisation.
//!
//! The speedup floor in `ci/bench_baseline.json`
//! (`throughput.parallel_speedup`) only applies when the host actually
//! has cores to scale onto: on a 1-core container the ladder still runs
//! (the determinism half of the gate is host-independent) but the floor
//! is skipped, and on small hosts a speedup of 0.75 × the core count
//! already satisfies it.

use std::time::Instant;

use crate::reports;
use tt_analysis::metrics::{Kind, Report, WALL};
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
/// byte-identity check. The artifacts drop the wall layer, so the bytes
/// only reflect simulation results.
#[derive(Debug, Clone)]
pub struct LadderEntry {
    /// Timing for this rung.
    pub sample: Sample,
    /// Campaign text report + `fault` report JSON (wall dropped).
    pub campaign_artifact: String,
    /// Differential all-chips `e61` report JSON (wall dropped).
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
    campaign_artifact.push_str(
        &reports::campaign_metrics(&campaign, seeds, campaign_ms)
            .without_wall()
            .to_json(),
    );
    let diff_artifact = reports::e61_metrics(&per_chip, diff_ms)
        .without_wall()
        .to_json();

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

/// The `throughput` report: per-rung rates and speedups, every rung
/// whose artifacts differ from the serial rung's as a failure, and the
/// campaign's best parallel speedup as the `parallel_speedup` floor.
///
/// The floor is skipped on a host with one core or one thread, and when
/// the speedup already reaches [`host_cap`] — the most a small host can
/// show, so the baseline floor is not asked of it. The cap is reported
/// as `host_cap`, since below a floor it is the bound that applies.
pub fn metrics(entries: &[LadderEntry], seeds: u64, cores: usize) -> Report {
    let mut r = Report::new("throughput");
    let serial = &entries[0];
    let max_threads = entries.last().map_or(1, |e| e.sample.threads);
    let (base, seeds) = (&serial.sample, seeds as f64);
    r.infos(
        "",
        "campaign",
        "count",
        &[
            ("seeds_per_chip", seeds),
            ("campaign_runs", base.campaign_runs as f64),
        ],
    );
    r.info("diff_runs", "differential", "count", base.diff_runs as f64);
    let host = [("cores", cores as f64), ("max_threads", max_threads as f64)];
    r.infos("", WALL, "count", &host);
    for e in entries {
        let (s, t) = (&e.sample, e.sample.threads);
        let rung = format!("t{t}");
        let (campaign_rate, diff_rate) = (s.campaign_runs_per_sec(), s.diff_runs_per_sec());
        let walls = [("campaign_ms", s.campaign_ms), ("diff_ms", s.diff_ms)];
        r.infos(&rung, WALL, "ms", &walls);
        let rates = [
            ("campaign_runs_per_sec", campaign_rate),
            ("diff_runs_per_sec", diff_rate),
        ];
        r.infos(&rung, WALL, "1/s", &rates);
        let speedups = [
            (
                "campaign_speedup",
                campaign_rate / base.campaign_runs_per_sec(),
            ),
            ("diff_speedup", diff_rate / base.diff_runs_per_sec()),
        ];
        r.infos(&rung, WALL, "x", &speedups);
        for (what, a, b) in [
            ("campaign", &e.campaign_artifact, &serial.campaign_artifact),
            ("differential", &e.diff_artifact, &serial.diff_artifact),
        ] {
            if a != b {
                r.failures.push(format!(
                    "{what} report at {t} threads differs from serial ({} vs {} bytes)",
                    a.len(),
                    b.len()
                ));
            }
        }
    }
    let best = entries
        .iter()
        .map(|e| e.sample.campaign_runs_per_sec())
        .fold(f64::NEG_INFINITY, f64::max);
    let speedup = best / serial.sample.campaign_runs_per_sec();
    r.add(Kind::Floor, "parallel_speedup", WALL, "x", speedup);
    let cap = host_cap(cores);
    r.info("host_cap", WALL, "x", cap);
    if cores <= 1 || max_threads <= 1 {
        r.skip(
            "parallel_speedup",
            format!("{cores} core(s), max {max_threads} thread(s)"),
        );
    } else if speedup >= cap {
        let reason =
            format!("{speedup:.2}x reaches the host cap of 0.75 x {cores} cores = {cap:.2}x");
        r.skip("parallel_speedup", reason);
    }
    r
}

/// The largest campaign speedup asked of a `cores`-core host: 0.75 ×
/// the core count. A speedup reaching it skips the baseline floor.
pub fn host_cap(cores: usize) -> f64 {
    cores as f64 * 0.75
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
    use crate::gate_text;

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

    const FLOOR: &str = r#"[{"metric": "throughput.parallel_speedup", "kind": "floor", "bound": 3.0, "why": "pool"}]"#;

    #[test]
    fn check_fails_on_artifact_mismatch() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 20.0, "b")];
        let report = metrics(&entries, 5, 8);
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        let v = gate_text(&report, "tp-mismatch", FLOOR);
        assert_eq!(v.violations.len(), 2, "{v:?}");
    }

    #[test]
    fn check_enforces_speedup_floor_only_with_cores() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 90.0, "a")];
        // 8 cores: 1.11x speedup misses the 3x floor.
        assert!(!gate_text(&metrics(&entries, 5, 8), "tp-8", FLOOR).passed());
        // 1 core: floor is skipped, determinism still checked.
        let v = gate_text(&metrics(&entries, 5, 1), "tp-1", FLOOR);
        assert!(v.passed(), "{v:?}");
        assert!(v.notes[0].contains("skipped: 1 core(s)"), "{v:?}");
        // 2 cores: floor capped at 1.5x, still missed at 1.11x; the
        // report carries the cap that applies.
        let two = metrics(&entries, 5, 2);
        assert_eq!(two.get("host_cap").unwrap().value, 1.5);
        assert!(!gate_text(&two, "tp-2", FLOOR).passed());
        // 2 cores at 1.6x: the host cap is reached, the floor is not
        // asked of the host.
        let capped = vec![fake_entry(1, 100.0, "a"), fake_entry(2, 62.5, "a")];
        let v = gate_text(&metrics(&capped, 5, 2), "tp-cap", FLOOR);
        assert!(v.passed(), "{v:?}");
        assert!(v.notes[0].contains("host cap"), "{v:?}");
    }

    #[test]
    fn check_passes_a_clean_ladder() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 25.0, "a")];
        let v = gate_text(&metrics(&entries, 5, 8), "tp-clean", FLOOR);
        assert!(v.passed(), "{v:?}");
        assert!(
            v.notes[0].contains("parallel_speedup [wall]: 4.00 vs floor 3.00"),
            "{v:?}"
        );
    }

    #[test]
    fn metrics_report_the_ladder() {
        let entries = vec![fake_entry(1, 100.0, "a"), fake_entry(8, 25.0, "a")];
        let r = metrics(&entries, 5, 8);
        let value = |name: &str| r.get(name).unwrap().value;
        assert_eq!(value("seeds_per_chip"), 5.0);
        assert_eq!(value("cores"), 8.0);
        assert_eq!(value("max_threads"), 8.0);
        assert_eq!(value("host_cap"), 6.0);
        assert_eq!(value("t8.campaign_speedup"), 4.0);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn measure_produces_consistent_counts() {
        let e = measure(1, 1);
        // 7 chips × 1 seed × 2 cache modes.
        assert_eq!(e.sample.campaign_runs, 14);
        // 7 chips × 21 tests × 2 kernels.
        assert_eq!(e.sample.diff_runs, 294);
        assert!(e.campaign_artifact.contains("\"experiment\": \"fault\""));
        assert!(e.diff_artifact.contains("\"experiment\": \"e61\""));
        assert!(!e.campaign_artifact.contains("wall_ms"));
    }
}
