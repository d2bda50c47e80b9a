//! Fleet campaigns: snapshot/restore-driven mass fault injection.
//!
//! PR 5's throughput engine parallelised the campaign but kept its unit
//! cost: every `(chip, seed, cache-mode)` run paid a full `Kernel::boot`
//! plus three flash/load cycles just to reach the state the previous run
//! started from. The fleet path boots each `(chip, cache-mode)` once per
//! worker, captures a [`tt_kernel::snapshot::Checkpoint`], and
//! resets with a dirty-page restore instead — the per-run reset drops
//! from a boot to a few copied pages, which is what makes 10^5-run
//! campaigns a CI job rather than an overnight batch.
//!
//! The speedup is only admissible because it is *gated*:
//! [`equivalence_failures`] demands that restored-machine runs are
//! byte-identical to fresh-boot runs in every record field (Full-scope
//! trace, violations, terminal states, fired counts, recovery and
//! commit-cache tallies) on every chip in both cache modes, and
//! [`metrics`] reports that gate's failures next to the restore-vs-boot
//! speedup floor (`fleet.restore_speedup` in `ci/bench_baseline.json`).
//! Failing runs
//! persist as fixed-width [`CorpusRecord`]s under `ci/corpus/` and their
//! seeds shrink to 1-minimal schedules for the report.

use std::path::Path;
use std::time::Instant;

use crate::reports::chip_counters;
use tt_analysis::metrics::{Kind, Report, WALL};
use tt_hw::platform::ALL_CHIPS;
use tt_kernel::campaign::{
    boot_probe, record_difference, run_campaign_profiled, run_one, shrink_failing_seed, ChipReport,
    FleetRunner, Unit, UnitOutcome,
};
use tt_kernel::corpus::{read_corpus, CorpusRecord};

/// Seeds the equivalence gate replays per `(chip, cache-mode)`:
/// one uninjected run plus two injected ones.
const EQUIVALENCE_SEEDS: [Option<u64>; 3] = [None, Some(1), Some(5)];

/// Minimum campaign size for the fleet throughput floor to engage.
/// Below this, fixed per-campaign costs (snapshot capture, reference
/// construction) dominate the measured rate, which then says nothing
/// about the steady-state figure `fleet.runs_per_sec` pins — that
/// reference was measured at 10^5 runs.
const FLEET_FLOOR_MIN_RUNS: u64 = 50_000;

/// The restore-equivalence gate: for every chip, both cache modes and
/// the `EQUIVALENCE_SEEDS`, a restored-machine run must reproduce the
/// fresh-boot run byte-for-byte, field by field
/// ([`record_difference`]). Returns the rendered failures (empty = gate
/// holds).
pub fn equivalence_failures() -> Vec<String> {
    let mut failures = Vec::new();
    for chip in &ALL_CHIPS {
        for cold in [false, true] {
            for seed in EQUIVALENCE_SEEDS {
                let pair = || (run_one(chip, seed), FleetRunner::new(chip).run_seed(seed));
                let (fresh, restored) = if cold {
                    tt_hw::commit_cache::with_disabled(pair)
                } else {
                    pair()
                };
                if let Some(what) = record_difference(&fresh, &restored) {
                    let mode = if cold { "cold" } else { "warm" };
                    failures.push(format!("{} seed {seed:?} {mode}: {what}", chip.name));
                }
                tt_hw::trace::recycle(fresh.trace);
                tt_hw::trace::recycle(restored.trace);
            }
        }
    }
    failures
}

/// Mean per-run reset cost of the campaign's reset paths, measured on
/// the calling thread across all chips.
#[derive(Debug, Clone, Copy)]
pub struct ResetCost {
    /// Mean cost of a fresh campaign boot (flash + load included), µs.
    pub boot_us: f64,
    /// Mean cost of a snapshot restore (boot-trace replay included), µs.
    pub restore_us: f64,
    /// Mean cost of a restore of the clean ladder's tick-1 rung, µs.
    pub midrun_us: f64,
    /// Mean cost of what the tick-1 restore replaces: a post-boot
    /// restore plus a live first scheduler tick, µs.
    pub first_tick_us: f64,
}

impl ResetCost {
    /// How many restores fit in one boot.
    pub fn speedup(&self) -> f64 {
        self.boot_us / self.restore_us.max(1e-9)
    }

    /// How many mid-run restores fit in the restore-plus-first-tick they
    /// replace — the `fleet.midrun_restore_speedup` floor's measurement.
    pub fn midrun_speedup(&self) -> f64 {
        self.first_tick_us / self.midrun_us.max(1e-9)
    }
}

/// Measures [`ResetCost`] with `iters` samples per path per chip (the
/// first boot per chip also serves as the snapshot source and is not
/// timed).
pub fn measure_reset_cost(iters: u32) -> ResetCost {
    let mut boot_total = 0.0;
    let mut restore_total = 0.0;
    let mut midrun_total = 0.0;
    let mut first_tick_total = 0.0;
    let mut samples = 0u64;
    for chip in &ALL_CHIPS {
        let mut runner = FleetRunner::new(chip);
        // Warm every path once so none pays first-touch allocation.
        boot_probe(chip);
        runner.restore_probe();
        runner.midrun_probe();
        runner.first_tick_probe();
        let t0 = Instant::now();
        for _ in 0..iters {
            boot_probe(chip);
        }
        boot_total += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for _ in 0..iters {
            runner.restore_probe();
        }
        restore_total += t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        for _ in 0..iters {
            runner.midrun_probe();
        }
        midrun_total += t2.elapsed().as_secs_f64();
        let t3 = Instant::now();
        for _ in 0..iters {
            runner.first_tick_probe();
        }
        first_tick_total += t3.elapsed().as_secs_f64();
        samples += u64::from(iters);
    }
    let mean_us = |total: f64| total * 1e6 / samples as f64;
    ResetCost {
        boot_us: mean_us(boot_total),
        restore_us: mean_us(restore_total),
        midrun_us: mean_us(midrun_total),
        first_tick_us: mean_us(first_tick_total),
    }
}

/// Distribution summary of one wall-clock phase across a campaign's
/// runs, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Median per-run cost.
    pub p50_us: f64,
    /// 99th-percentile per-run cost.
    pub p99_us: f64,
    /// Mean per-run cost.
    pub mean_us: f64,
}

fn phase_stats(samples_ns: &mut [u64]) -> PhaseStats {
    if samples_ns.is_empty() {
        return PhaseStats::default();
    }
    samples_ns.sort_unstable();
    let pick = |p: usize| samples_ns[(samples_ns.len() * p / 100).min(samples_ns.len() - 1)];
    let sum: u64 = samples_ns.iter().sum();
    PhaseStats {
        p50_us: pick(50) as f64 / 1e3,
        p99_us: pick(99) as f64 / 1e3,
        mean_us: (sum as f64 / samples_ns.len() as f64) / 1e3,
    }
}

/// Per-phase breakdown of where a fleet campaign's wall-clock went:
/// restore / run / collect / validate percentiles, plus the
/// snapshot-capture amortization, the mid-run hit rate and the share of
/// post-boot work the runs re-simulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetProfile {
    /// Snapshot restore + plan arming.
    pub restore: PhaseStats,
    /// Run-body execution.
    pub run: PhaseStats,
    /// Sink draining into the record.
    pub collect: PhaseStats,
    /// Oracle validation against the reference.
    pub validate: PhaseStats,
    /// Runs that resumed past boot, from a clean-ladder rung.
    pub midrun_runs: u64,
    /// Post-boot events the runs re-simulated, as a share of their
    /// post-boot events, over all runs: an exact work count. 1.0 means
    /// every run started at boot.
    pub resimulated_share: f64,
    /// [`FleetProfile::resimulated_share`] over the warm runs only.
    pub warm_resimulated_share: f64,
    /// [`FleetProfile::resimulated_share`] over the cold runs only.
    pub cold_resimulated_share: f64,
    /// Fresh runner boots across all workers.
    pub boots: u64,
    /// Mean snapshot-capture cost amortized over every run, µs.
    pub capture_amortized_us: f64,
}

/// Post-boot events re-simulated over post-boot events, summed over
/// `outcomes`: each run re-simulates its trace after the resumed rung's
/// prefix, out of its trace after boot.
fn resimulated_share<'a>(outcomes: impl Iterator<Item = &'a UnitOutcome>) -> f64 {
    let (resimulated, post_boot) = outcomes.fold((0, 0), |(r, p), o| {
        (
            r + o.trace_len - o.resumed_events,
            p + o.trace_len - o.boot_events,
        )
    });
    resimulated as f64 / post_boot.max(1) as f64
}

/// Computes the [`FleetProfile`] from a campaign's outcomes.
pub fn profile(result: &FleetResult) -> FleetProfile {
    let collect =
        |f: fn(&UnitOutcome) -> u64| -> Vec<u64> { result.outcomes.iter().map(f).collect() };
    let mut restore = collect(|o| o.restore_ns);
    let mut run = collect(|o| o.run_ns);
    let mut collect_ns = collect(|o| o.collect_ns);
    let mut validate = collect(|o| o.validate_ns);
    FleetProfile {
        restore: phase_stats(&mut restore),
        run: phase_stats(&mut run),
        collect: phase_stats(&mut collect_ns),
        validate: phase_stats(&mut validate),
        midrun_runs: result.outcomes.iter().filter(|o| o.midrun).count() as u64,
        resimulated_share: resimulated_share(result.outcomes.iter()),
        warm_resimulated_share: resimulated_share(result.outcomes.iter().filter(|o| !o.cold)),
        cold_resimulated_share: resimulated_share(result.outcomes.iter().filter(|o| o.cold)),
        boots: result.boots,
        capture_amortized_us: result.capture_ns as f64
            / 1e3
            / (result.outcomes.len().max(1)) as f64,
    }
}

/// One measured fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Seeds per chip the requested run budget decomposed into.
    pub seeds_per_chip: u64,
    /// Worker count.
    pub threads: usize,
    /// Injected runs actually executed (chips × seeds × 2 cache modes).
    pub total_runs: u64,
    /// Campaign wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Per-chip campaign reports (oracle results included).
    pub reports: Vec<ChipReport>,
    /// Per-run outcomes in schedule order.
    pub outcomes: Vec<UnitOutcome>,
    /// Fresh runner boots across all workers.
    pub boots: u64,
    /// Total nanoseconds workers spent booting + capturing snapshots.
    pub capture_ns: u64,
    /// Units fronted by corpus-guided scheduling.
    pub prioritized: usize,
}

impl FleetResult {
    /// Campaign throughput in injected runs per second.
    pub fn runs_per_sec(&self) -> f64 {
        self.total_runs as f64 / (self.wall_ms / 1e3)
    }

    /// All oracle failures across chips, in report order.
    pub fn failures(&self) -> Vec<&String> {
        self.reports.iter().flat_map(|r| &r.failures).collect()
    }
}

/// Runs a fleet campaign sized to roughly `total_runs` injected runs
/// (rounded down to whole seeds per chip, minimum one).
pub fn run_fleet(total_runs: u64, threads: usize) -> FleetResult {
    run_fleet_prioritized(total_runs, threads, &[])
}

/// [`run_fleet`] with corpus-guided scheduling: `priority` units
/// (typically [`priority_from_corpus`]) run before the default
/// chip-major order, so previously failing seeds report in the opening
/// seconds of a million-run campaign.
pub fn run_fleet_prioritized(total_runs: u64, threads: usize, priority: &[Unit]) -> FleetResult {
    let per_chip_runs = ALL_CHIPS.len() as u64 * 2;
    let seeds = (total_runs / per_chip_runs).max(1);
    let t0 = Instant::now();
    let campaign = run_campaign_profiled(&ALL_CHIPS, seeds, threads, priority);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    FleetResult {
        seeds_per_chip: seeds,
        threads,
        total_runs: campaign.outcomes.len() as u64,
        wall_ms,
        reports: campaign.reports,
        outcomes: campaign.outcomes,
        boots: campaign.boots,
        capture_ns: campaign.capture_ns,
        prioritized: priority.len(),
    }
}

/// Decodes a persisted failure corpus (`ci/corpus/failures.bin`) into
/// priority units for [`run_fleet_prioritized`]. A missing file is an
/// empty priority list (first campaign, or the previous one was clean);
/// a malformed one is a real error — a corrupt corpus should fail the
/// job, not silently drop the seeds it was supposed to front.
pub fn priority_from_corpus(path: &Path) -> std::io::Result<Vec<Unit>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    Ok(read_corpus(path)?
        .iter()
        .map(|r| (r.chip as usize, r.seed, r.cold))
        .collect())
}

/// Reduces one [`UnitOutcome`] to its fixed-width corpus record.
pub fn corpus_record(outcome: &UnitOutcome) -> CorpusRecord {
    CorpusRecord {
        chip: outcome.chip.min(u8::MAX as usize) as u8,
        cold: outcome.cold,
        killed: outcome.killed,
        clean: false,
        seed: outcome.seed,
        schedule: 0,
        fired: outcome.fired.min(u64::from(u16::MAX)) as u16,
        restarts: outcome.restarts.min(u32::from(u16::MAX)) as u16,
        recoveries: outcome.recoveries.min(u32::from(u16::MAX)) as u16,
        failures: outcome.failures.len().min(u16::MAX as usize) as u16,
        trace_len: outcome.trace_len.min(u32::MAX as usize) as u32,
        recovery_cycles: outcome.recovery_cycles,
    }
}

/// The corpus of *failing* runs (empty when the oracle held everywhere).
pub fn failing_records(outcomes: &[UnitOutcome]) -> Vec<CorpusRecord> {
    outcomes
        .iter()
        .filter(|o| !o.failures.is_empty())
        .map(corpus_record)
        .collect()
}

/// Shrinks the first `limit` failing outcomes to 1-minimal schedules,
/// rendering one line per seed.
pub fn shrink_failures(outcomes: &[UnitOutcome], limit: usize) -> Vec<String> {
    outcomes
        .iter()
        .filter(|o| !o.failures.is_empty())
        .take(limit)
        .map(|o| {
            let plan = shrink_failing_seed(&ALL_CHIPS[o.chip], o.seed, o.cold);
            format!(
                "{} seed {} {}: minimized to {} injection(s): {:?}",
                ALL_CHIPS[o.chip].name,
                o.seed,
                if o.cold { "cold" } else { "warm" },
                plan.injections.len(),
                plan.injections
            )
        })
        .collect()
}

/// Renders the human-readable fleet table: per-chip runs and tallies,
/// then the throughput and reset-cost lines.
pub fn render(result: &FleetResult, cost: &ResetCost) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fleet campaign: {} runs ({} seeds x {} chips x 2 cache modes) on {} worker(s)\n",
        result.total_runs,
        result.seeds_per_chip,
        result.reports.len(),
        result.threads,
    ));
    out.push_str(&format!(
        "{:<14} {:>8} {:>8} {:>9} {:>8} {:>7}\n",
        "chip", "runs", "fired", "recovers", "restarts", "killed"
    ));
    for r in &result.reports {
        out.push_str(&format!(
            "{:<14} {:>8} {:>8} {:>9} {:>8} {:>7}\n",
            r.chip,
            r.runs * 2,
            r.fired,
            r.recoveries,
            r.restarts,
            r.killed,
        ));
    }
    out.push_str(&format!(
        "throughput: {:.0} runs/sec ({:.1} ms wall)\n",
        result.runs_per_sec(),
        result.wall_ms,
    ));
    out.push_str(&format!(
        "reset cost: boot {:.1} us/run, restore {:.1} us/run ({:.1}x)\n",
        cost.boot_us,
        cost.restore_us,
        cost.speedup(),
    ));
    out.push_str(&format!(
        "midrun: restore {:.2} us vs restore+tick {:.2} us ({:.1}x)\n",
        cost.midrun_us,
        cost.first_tick_us,
        cost.midrun_speedup(),
    ));
    let failures = result.failures();
    if failures.is_empty() {
        out.push_str("all runs: bystander traces identical, zero violations, converged\n");
    } else {
        out.push_str(&format!("{} FAILURES:\n", failures.len()));
        for f in failures {
            out.push_str(&format!("  {f}\n"));
        }
    }
    out
}

/// Renders the human-readable per-phase profile table (`--profile`).
pub fn render_profile(result: &FleetResult, prof: &FleetProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "phase profile over {} runs ({} mid-run resumes, {} fresh boots",
        result.outcomes.len(),
        prof.midrun_runs,
        prof.boots,
    ));
    if result.prioritized > 0 {
        out.push_str(&format!(", {} corpus-prioritized", result.prioritized));
    }
    out.push_str(")\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10}\n",
        "phase", "p50 us", "p99 us", "mean us"
    ));
    for (name, s) in [
        ("restore", &prof.restore),
        ("run", &prof.run),
        ("collect", &prof.collect),
        ("validate", &prof.validate),
    ] {
        out.push_str(&format!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2}\n",
            name, s.p50_us, s.p99_us, s.mean_us
        ));
    }
    out.push_str(&format!(
        "capture amortization: {:.2} us/run\n",
        prof.capture_amortized_us
    ));
    out.push_str(&format!(
        "resimulated share: {:.3} of post-boot events (warm {:.3}, cold {:.3})\n",
        prof.resimulated_share, prof.warm_resimulated_share, prof.cold_resimulated_share
    ));
    out
}

/// The `fleet` report: campaign counters, reset costs, the per-phase
/// profile, the three floors (`runs_per_sec`, `restore_speedup`,
/// `midrun_restore_speedup`) and the `resimulated_share` ceiling, with
/// every restore-equivalence and oracle failure.
///
/// The serial throughput floor is skipped unless the campaign ran on one
/// thread — the configuration its reference figure was measured in — and
/// reached 50k runs, where startup costs amortize.
pub fn metrics(
    result: &FleetResult,
    cost: &ResetCost,
    prof: &FleetProfile,
    equivalence: &[String],
    cores: usize,
) -> Report {
    let mut r = Report::new("fleet");
    let campaign = [
        ("total_runs", result.total_runs as f64),
        ("seeds_per_chip", result.seeds_per_chip as f64),
        ("prioritized_units", result.prioritized as f64),
    ];
    r.infos("", "campaign", "count", &campaign);
    let snapshot = [
        ("midrun_runs", prof.midrun_runs as f64),
        ("fresh_boots", prof.boots as f64),
    ];
    r.infos("", "snapshot", "count", &snapshot);
    let share = prof.resimulated_share;
    r.add(Kind::Ceiling, "resimulated_share", "ladder", "share", share);
    let shares = [
        ("warm.resimulated_share", prof.warm_resimulated_share),
        ("cold.resimulated_share", prof.cold_resimulated_share),
    ];
    r.infos("", "ladder", "share", &shares);
    let host = [("threads", result.threads as f64), ("cores", cores as f64)];
    r.infos("", WALL, "count", &host);
    r.info("wall_ms", WALL, "ms", result.wall_ms);
    let (rps, midrun) = (result.runs_per_sec(), cost.midrun_speedup());
    r.add(Kind::Floor, "runs_per_sec", WALL, "1/s", rps);
    r.add(Kind::Floor, "restore_speedup", WALL, "x", cost.speedup());
    r.add(Kind::Floor, "midrun_restore_speedup", WALL, "x", midrun);
    let costs = [
        ("boot_us", cost.boot_us),
        ("restore_us", cost.restore_us),
        ("midrun_us", cost.midrun_us),
        ("first_tick_us", cost.first_tick_us),
        ("capture_amortized_us", prof.capture_amortized_us),
    ];
    r.infos("", WALL, "us", &costs);
    for (phase, s) in [
        ("restore", &prof.restore),
        ("run", &prof.run),
        ("collect", &prof.collect),
        ("validate", &prof.validate),
    ] {
        let stats = [
            ("p50_us", s.p50_us),
            ("p99_us", s.p99_us),
            ("mean_us", s.mean_us),
        ];
        r.infos(phase, WALL, "us", &stats);
    }
    for c in &result.reports {
        chip_counters(&mut r, c);
    }
    let threads = result.threads;
    if threads != 1 {
        r.skip(
            "runs_per_sec",
            format!("measured with {threads} threads, reference is serial"),
        );
    } else if result.total_runs < FLEET_FLOOR_MIN_RUNS {
        r.skip(
            "runs_per_sec",
            format!(
                "{} runs too few to amortize startup (floor engages at {FLEET_FLOOR_MIN_RUNS}+)",
                result.total_runs
            ),
        );
    }
    let equivalence = equivalence
        .iter()
        .map(|f| format!("restore equivalence: {f}"));
    let oracle = result
        .failures()
        .into_iter()
        .map(|f| format!("campaign oracle: {f}"));
    r.failures.extend(equivalence.chain(oracle));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_text;
    use tt_analysis::metrics::Verdict;

    #[test]
    fn small_fleet_runs_clean_and_counts_add_up() {
        let result = run_fleet(28, 1);
        // 28 requested / (7 chips * 2 modes) = 2 seeds per chip.
        assert_eq!(result.seeds_per_chip, 2);
        assert_eq!(result.total_runs, 28);
        assert_eq!(result.outcomes.len(), 28);
        assert!(result.failures().is_empty(), "{:#?}", result.failures());
        assert!(failing_records(&result.outcomes).is_empty());
        // Every outcome reduces to a decodable corpus record.
        for o in &result.outcomes {
            let rec = corpus_record(o);
            assert_eq!(CorpusRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    /// A plausible measured cost for gate tests: restore 50x cheaper
    /// than boot, midrun restore 3x cheaper than restore+tick.
    fn sample_cost() -> ResetCost {
        ResetCost {
            boot_us: 1000.0,
            restore_us: 20.0,
            midrun_us: 10.0,
            first_tick_us: 30.0,
        }
    }

    #[test]
    fn reset_cost_shows_restore_cheaper_than_boot() {
        let cost = measure_reset_cost(3);
        assert!(cost.boot_us > 0.0);
        assert!(cost.restore_us > 0.0);
        assert!(
            cost.speedup() > 1.0,
            "restore ({:.1} us) not cheaper than boot ({:.1} us)",
            cost.restore_us,
            cost.boot_us
        );
        assert!(
            cost.midrun_speedup() > 1.0,
            "midrun restore ({:.2} us) not cheaper than restore+tick ({:.2} us)",
            cost.midrun_us,
            cost.first_tick_us
        );
    }

    const FLOORS: &str = r#"[
  {"metric": "fleet.restore_speedup", "kind": "floor", "bound": 20.0, "why": "restore"},
  {"metric": "fleet.midrun_restore_speedup", "kind": "floor", "bound": 1.5, "why": "midrun"},
  {"metric": "fleet.resimulated_share", "kind": "ceiling", "bound": 0.75, "why": "ladder"},
  {"metric": "fleet.runs_per_sec", "kind": "floor", "bound": 1e15, "why": "unreachable"}
]"#;

    fn gate_fleet(
        result: &FleetResult,
        cost: &ResetCost,
        eq: &[String],
        baseline: &str,
    ) -> Verdict {
        gate_text(
            &metrics(result, cost, &profile(result), eq, 1),
            "fleet",
            baseline,
        )
    }

    #[test]
    fn check_gates_each_dimension() {
        let result = run_fleet(14, 1);
        let cost = sample_cost();
        let v = gate_fleet(&result, &cost, &[], FLOORS);
        assert!(v.passed(), "{v:?}");
        assert!(v
            .notes
            .iter()
            .any(|n| n.contains("fleet restore_speedup [wall]")));
        assert!(v
            .notes
            .iter()
            .any(|n| n.contains("fleet midrun_restore_speedup [wall]")));
        // Equivalence failure fails the gate.
        let eq = vec!["chip X diverged".to_string()];
        let v = gate_fleet(&result, &cost, &eq, FLOORS);
        assert_eq!(
            v.violations,
            vec!["fleet: restore equivalence: chip X diverged"]
        );
        // Restore speedup below the floor fails the gate.
        let slow = ResetCost {
            boot_us: 100.0,
            ..sample_cost()
        };
        let v = gate_fleet(&result, &slow, &[], FLOORS);
        assert_eq!(
            v.violations,
            vec!["fleet restore_speedup [wall]: 5.00 vs floor 20.00 (-15.00)"]
        );
        // Midrun speedup below its floor fails the gate.
        let slow_midrun = ResetCost {
            midrun_us: 29.0,
            ..sample_cost()
        };
        assert!(!gate_fleet(&result, &slow_midrun, &[], FLOORS).passed());
        // Bounds missing from the baseline fail: a gated metric needs one.
        let v = gate_fleet(&result, &slow, &[], "[]");
        assert_eq!(v.violations.len(), 4, "{v:?}");
    }

    #[test]
    fn check_gates_fleet_throughput_against_previous_figure() {
        let mut result = run_fleet(14, 1);
        // Pretend the campaign was large enough to amortize startup —
        // the floor compares runs_per_sec(), which we pin via wall_ms.
        let rate = result.runs_per_sec();
        result.total_runs = FLEET_FLOOR_MIN_RUNS;
        result.wall_ms = FLEET_FLOOR_MIN_RUNS as f64 / rate * 1e3;
        let cost = sample_cost();
        let with_prev = |prev: &str| FLOORS.replace("1e15", prev);
        // An absurdly low previous figure (0.001 x 1.5): any real
        // campaign clears it.
        let v = gate_fleet(&result, &cost, &[], &with_prev("0.0015"));
        assert!(v.passed(), "{v:?}");
        assert!(v
            .notes
            .iter()
            .any(|n| n.contains("fleet runs_per_sec [wall]")));
        // An unreachable previous figure fails the gate.
        let fail = with_prev("1.5e15");
        let v = gate_fleet(&result, &cost, &[], &fail);
        assert!(
            v.violations
                .iter()
                .any(|f| f.contains("runs_per_sec [wall]")
                    && f.contains("vs floor 1500000000000000.00")),
            "{v:?}"
        );
        // A small campaign skips the floor: startup costs are not
        // amortized, so the measured rate is not comparable.
        let small = run_fleet(14, 1);
        let v = gate_fleet(&small, &cost, &[], &fail);
        assert!(v.passed(), "{v:?}");
        assert!(
            v.notes.iter().any(|n| n.contains("too few to amortize")),
            "{v:?}"
        );
        // A parallel campaign skips the (serial) throughput floor.
        let mut parallel = run_fleet(14, 2);
        parallel.total_runs = FLEET_FLOOR_MIN_RUNS;
        let v = gate_fleet(&parallel, &cost, &[], &fail);
        assert!(v.passed(), "{v:?}");
        assert!(
            v.notes.iter().any(|n| n.contains("reference is serial")),
            "{v:?}"
        );
    }

    #[test]
    fn profile_summarizes_phases_and_midrun_hits() {
        let result = run_fleet(14, 1);
        let prof = profile(&result);
        // Every run has a nonzero body; percentiles are ordered.
        assert!(prof.run.p50_us > 0.0);
        assert!(prof.run.p99_us >= prof.run.p50_us);
        assert!(prof.restore.p99_us >= prof.restore.p50_us);
        // Uninjected-prefix-safe seeds exist, so some runs resume midrun,
        // and each (chip, mode) slot boots exactly once on one worker.
        assert!(prof.midrun_runs > 0);
        assert_eq!(prof.boots, ALL_CHIPS.len() as u64 * 2);
        assert!(prof.capture_amortized_us > 0.0);
        let table = render_profile(&result, &prof);
        assert!(table.contains("restore"), "{table}");
        assert!(table.contains("mid-run resumes"), "{table}");
        // Runs resume past boot, so they re-simulate only part of the
        // post-boot work, warm and cold alike.
        for share in [
            prof.resimulated_share,
            prof.warm_resimulated_share,
            prof.cold_resimulated_share,
        ] {
            assert!(share > 0.0 && share < 1.0, "{share}");
        }
        assert!(table.contains("resimulated share"), "{table}");
    }

    #[test]
    fn priority_from_corpus_round_trips_failing_units() {
        let dir = std::env::temp_dir().join(format!("tt-fleet-prio-{}", std::process::id()));
        let missing = dir.join("absent.bin");
        assert_eq!(priority_from_corpus(&missing).unwrap(), Vec::<Unit>::new());
        let records = vec![
            CorpusRecord {
                chip: 1,
                cold: true,
                killed: false,
                clean: false,
                seed: 42,
                schedule: 0,
                fired: 1,
                restarts: 0,
                recoveries: 0,
                failures: 2,
                trace_len: 10,
                recovery_cycles: 0,
            },
            CorpusRecord {
                chip: 0,
                cold: false,
                killed: true,
                clean: false,
                seed: 7,
                schedule: 0,
                fired: 3,
                restarts: 5,
                recoveries: 5,
                failures: 1,
                trace_len: 20,
                recovery_cycles: 9,
            },
        ];
        let path = dir.join("failures.bin");
        tt_kernel::corpus::write_corpus(&path, &records).unwrap();
        assert_eq!(
            priority_from_corpus(&path).unwrap(),
            vec![(1, 42, true), (0, 7, false)]
        );
        // The prioritized units run first and the campaign stays clean.
        let result = run_fleet_prioritized(7 * 2 * 50, 1, &[(3, 5, true), (0, 0, false)]);
        assert_eq!(result.prioritized, 2);
        let head: Vec<Unit> = result.outcomes[..2]
            .iter()
            .map(|o| (o.chip, o.seed, o.cold))
            .collect();
        assert_eq!(head, vec![(3, 5, true), (0, 0, false)]);
        assert!(result.failures().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_carry_the_key_fields() {
        let result = run_fleet(14, 1);
        let prof = profile(&result);
        let cost = ResetCost {
            boot_us: 500.0,
            ..sample_cost()
        };
        let r = metrics(&result, &cost, &prof, &[], 4);
        let value = |name: &str| r.get(name).unwrap().value;
        assert_eq!(r.experiment, "fleet");
        assert_eq!(value("total_runs"), 14.0);
        assert_eq!(value("restore_speedup"), 25.0);
        assert_eq!(value("midrun_restore_speedup"), 3.0);
        assert_eq!(value("midrun_runs"), prof.midrun_runs as f64);
        assert_eq!(value("resimulated_share"), prof.resimulated_share);
        assert!(r.failures.is_empty());
        assert!(r.get("runs_per_sec").is_some());
        assert!(r.get("run.p99_us").is_some());
        let doc = r.to_json();
        assert!(doc.contains("\"experiment\": \"fleet\""));
        assert!(doc.contains("\"name\": \"validate.p50_us\""));
    }

    #[test]
    fn shrink_failures_is_empty_on_a_clean_fleet() {
        let result = run_fleet(14, 1);
        assert!(shrink_failures(&result.outcomes, 10).is_empty());
    }
}
