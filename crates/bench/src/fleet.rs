//! Fleet campaigns: snapshot/restore-driven mass fault injection.
//!
//! PR 5's throughput engine parallelised the campaign but kept its unit
//! cost: every `(chip, seed, cache-mode)` run paid a full `Kernel::boot`
//! plus three flash/load cycles just to reach the state the previous run
//! started from. The fleet path boots each `(chip, cache-mode)` once per
//! worker, captures a [`tt_kernel::snapshot::MachineSnapshot`], and
//! resets with a dirty-page restore instead — the per-run reset drops
//! from a boot to a few copied pages, which is what makes 10^5-run
//! campaigns a CI job rather than an overnight batch.
//!
//! The speedup is only admissible because it is *gated*:
//! [`equivalence_failures`] demands that restored-machine runs are
//! byte-identical to fresh-boot runs in every record field (Full-scope
//! trace, violations, terminal states, fired counts, recovery and
//! commit-cache tallies) on every chip in both cache modes, and
//! [`check`] enforces both that gate and a restore-vs-boot speedup floor
//! (`min_restore_speedup` in `ci/bench_baseline.json`). Failing runs
//! persist as fixed-width [`CorpusRecord`]s under `ci/corpus/` and their
//! seeds shrink to 1-minimal schedules for the report.

use std::path::Path;
use std::time::Instant;

use crate::json;
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
/// about the steady-state figure `fleet_runs_per_sec_prev` pins —
/// that reference was measured at 10^5 runs.
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
    /// Mean cost of a mid-run (post-first-tick) snapshot restore, µs.
    pub midrun_us: f64,
    /// Mean cost of what the mid-run restore replaces: a post-boot
    /// restore plus a live first scheduler tick, µs.
    pub first_tick_us: f64,
}

impl ResetCost {
    /// How many restores fit in one boot.
    pub fn speedup(&self) -> f64 {
        self.boot_us / self.restore_us.max(1e-9)
    }

    /// How many mid-run restores fit in the restore-plus-first-tick they
    /// replace — the `min_midrun_restore_speedup` gate's measurement.
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
/// snapshot-capture amortization and the mid-run hit rate.
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
    /// Runs that resumed from the mid-run snapshot.
    pub midrun_runs: u64,
    /// Fresh runner boots across all workers.
    pub boots: u64,
    /// Mean snapshot-capture cost amortized over every run, µs.
    pub capture_amortized_us: f64,
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
    out
}

/// Renders the `BENCH_throughput.json` document for the fleet job,
/// including the per-phase profile.
pub fn render_json(
    result: &FleetResult,
    cost: &ResetCost,
    prof: &FleetProfile,
    equivalence: &[String],
    cores: usize,
) -> String {
    let mut doc = String::new();
    doc.push_str("{\n  \"experiment\": \"e_fleet\",\n");
    doc.push_str(&format!("  \"total_runs\": {},\n", result.total_runs));
    doc.push_str(&format!(
        "  \"seeds_per_chip\": {},\n",
        result.seeds_per_chip
    ));
    doc.push_str(&format!("  \"threads\": {},\n", result.threads));
    doc.push_str(&format!("  \"cores\": {cores},\n"));
    doc.push_str(&format!("  \"wall_ms\": {},\n", json::num(result.wall_ms)));
    doc.push_str(&format!(
        "  \"fleet_runs_per_sec\": {},\n",
        json::num(result.runs_per_sec())
    ));
    doc.push_str(&format!(
        "  \"boot_us_per_run\": {},\n",
        json::num(cost.boot_us)
    ));
    doc.push_str(&format!(
        "  \"restore_us_per_run\": {},\n",
        json::num(cost.restore_us)
    ));
    doc.push_str(&format!(
        "  \"restore_speedup\": {},\n",
        json::num(cost.speedup())
    ));
    doc.push_str(&format!(
        "  \"midrun_us_per_run\": {},\n",
        json::num(cost.midrun_us)
    ));
    doc.push_str(&format!(
        "  \"first_tick_us_per_run\": {},\n",
        json::num(cost.first_tick_us)
    ));
    doc.push_str(&format!(
        "  \"midrun_restore_speedup\": {},\n",
        json::num(cost.midrun_speedup())
    ));
    doc.push_str(&format!("  \"midrun_runs\": {},\n", prof.midrun_runs));
    doc.push_str(&format!("  \"fresh_boots\": {},\n", prof.boots));
    doc.push_str(&format!(
        "  \"capture_amortized_us\": {},\n",
        json::num(prof.capture_amortized_us)
    ));
    doc.push_str(&format!(
        "  \"prioritized_units\": {},\n",
        result.prioritized
    ));
    doc.push_str("  \"phases\": {\n");
    let phases = [
        ("restore", &prof.restore),
        ("run", &prof.run),
        ("collect", &prof.collect),
        ("validate", &prof.validate),
    ];
    for (i, (name, s)) in phases.iter().enumerate() {
        doc.push_str(&format!(
            "    \"{name}\": {{\"p50_us\": {}, \"p99_us\": {}, \"mean_us\": {}}}{}\n",
            json::num(s.p50_us),
            json::num(s.p99_us),
            json::num(s.mean_us),
            if i + 1 < phases.len() { "," } else { "" }
        ));
    }
    doc.push_str("  },\n");
    doc.push_str(&format!(
        "  \"restore_equivalent\": {},\n",
        equivalence.is_empty()
    ));
    doc.push_str(&format!("  \"failures\": {},\n", result.failures().len()));
    doc.push_str("  \"chips\": [\n");
    for (i, r) in result.reports.iter().enumerate() {
        doc.push_str(&format!(
            "    {{\"chip\": \"{}\", \"runs\": {}, \"fired\": {}, \"recoveries\": {}, \
             \"restarts\": {}, \"killed\": {}}}{}\n",
            r.chip,
            r.runs * 2,
            r.fired,
            r.recoveries,
            r.restarts,
            r.killed,
            if i + 1 < result.reports.len() {
                ","
            } else {
                ""
            }
        ));
    }
    doc.push_str("  ]\n}\n");
    doc
}

/// The CI gate: restore equivalence must hold on every chip, the
/// campaign oracle must hold on every run, and — when the baseline pins
/// a `min_restore_speedup` — the measured restore-vs-boot speedup must
/// clear it. Returns notes on success, failures otherwise.
pub fn check(
    result: &FleetResult,
    cost: &ResetCost,
    equivalence: &[String],
    baseline: &str,
) -> Result<Vec<String>, Vec<String>> {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    for f in equivalence {
        failures.push(format!("restore equivalence: {f}"));
    }
    if equivalence.is_empty() {
        notes.push(format!(
            "restore equivalence: {} chips x 2 cache modes x {} seeds byte-identical",
            ALL_CHIPS.len(),
            EQUIVALENCE_SEEDS.len(),
        ));
    }
    for f in result.failures() {
        failures.push(format!("campaign oracle: {f}"));
    }
    if result.failures().is_empty() {
        notes.push(format!("campaign oracle: {} runs clean", result.total_runs));
    }
    match json::read_number(baseline, "min_restore_speedup") {
        Some(floor) => {
            let speedup = cost.speedup();
            if speedup < floor {
                failures.push(format!(
                    "restore speedup {speedup:.1}x below floor {floor:.1}x \
                     (boot {:.1} us vs restore {:.1} us)",
                    cost.boot_us, cost.restore_us
                ));
            } else {
                notes.push(format!(
                    "restore speedup: {speedup:.1}x >= floor {floor:.1}x"
                ));
            }
        }
        None => notes.push("baseline has no min_restore_speedup; floor skipped".into()),
    }
    match json::read_number(baseline, "min_midrun_restore_speedup") {
        Some(floor) => {
            let speedup = cost.midrun_speedup();
            if speedup < floor {
                failures.push(format!(
                    "midrun restore speedup {speedup:.2}x below floor {floor:.2}x \
                     (restore+tick {:.2} us vs midrun restore {:.2} us)",
                    cost.first_tick_us, cost.midrun_us
                ));
            } else {
                notes.push(format!(
                    "midrun restore speedup: {speedup:.2}x >= floor {floor:.2}x"
                ));
            }
        }
        None => notes.push("baseline has no min_midrun_restore_speedup; floor skipped".into()),
    }
    // Fleet throughput floor: the measured campaign must beat the pinned
    // previous-generation figure (`fleet_runs_per_sec_prev`, measured
    // serially on the CI host class) by `min_fleet_speedup`. Thread
    // counts scale throughput, so the gate only engages for serial
    // campaigns — the configuration the reference figure was measured
    // in — and only at [`FLEET_FLOOR_MIN_RUNS`]+ runs, where fixed
    // startup costs are amortized away.
    match (
        json::read_number(baseline, "fleet_runs_per_sec_prev"),
        json::read_number(baseline, "min_fleet_speedup"),
    ) {
        (Some(prev), Some(floor))
            if result.threads == 1 && result.total_runs >= FLEET_FLOOR_MIN_RUNS =>
        {
            let ratio = result.runs_per_sec() / prev.max(1e-9);
            if ratio < floor {
                failures.push(format!(
                    "fleet throughput {:.0} runs/s is {ratio:.2}x the previous {prev:.0} \
                     runs/s, below the {floor:.2}x floor",
                    result.runs_per_sec()
                ));
            } else {
                notes.push(format!(
                    "fleet throughput: {:.0} runs/s = {ratio:.2}x previous ({prev:.0}), \
                     floor {floor:.2}x",
                    result.runs_per_sec()
                ));
            }
        }
        (Some(_), Some(_)) if result.threads != 1 => notes.push(format!(
            "fleet throughput floor skipped: measured with {} threads, reference is serial",
            result.threads
        )),
        (Some(_), Some(_)) => notes.push(format!(
            "fleet throughput floor skipped: {} runs too few to amortize startup \
             (floor engages at {FLEET_FLOOR_MIN_RUNS}+)",
            result.total_runs
        )),
        _ => notes.push("baseline has no fleet throughput floor; skipped".into()),
    }
    if failures.is_empty() {
        Ok(notes)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn check_gates_each_dimension() {
        let result = run_fleet(14, 1);
        let cost = sample_cost();
        let baseline = "{\"min_restore_speedup\": 20.0, \"min_midrun_restore_speedup\": 1.5}";
        let notes = check(&result, &cost, &[], baseline).unwrap();
        assert!(notes.iter().any(|n| n.contains("restore speedup")));
        assert!(notes.iter().any(|n| n.contains("midrun restore speedup")));
        // Equivalence failure fails the gate.
        let eq = vec!["chip X diverged".to_string()];
        assert!(check(&result, &cost, &eq, baseline).is_err());
        // Restore speedup below the floor fails the gate.
        let slow = ResetCost {
            boot_us: 100.0,
            ..sample_cost()
        };
        assert!(check(&result, &slow, &[], baseline).is_err());
        // Midrun speedup below its floor fails the gate.
        let slow_midrun = ResetCost {
            midrun_us: 29.0,
            ..sample_cost()
        };
        assert!(check(&result, &slow_midrun, &[], baseline).is_err());
        // No floors in the baseline: skipped with notes.
        let notes = check(&result, &slow, &[], "{}").unwrap();
        assert!(notes.iter().any(|n| n.contains("skipped")), "{notes:?}");
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
        // An absurdly low previous figure: any real campaign clears 1.5x.
        let pass = "{\"fleet_runs_per_sec_prev\": 0.001, \"min_fleet_speedup\": 1.5}";
        let notes = check(&result, &cost, &[], pass).unwrap();
        assert!(notes.iter().any(|n| n.contains("fleet throughput")));
        // An unreachable previous figure fails the gate.
        let fail = "{\"fleet_runs_per_sec_prev\": 1e15, \"min_fleet_speedup\": 1.5}";
        let failures = check(&result, &cost, &[], fail).unwrap_err();
        assert!(failures.iter().any(|f| f.contains("below the 1.50x floor")));
        // A small campaign skips the floor: startup costs are not
        // amortized, so the measured rate is not comparable.
        let small = run_fleet(14, 1);
        let notes = check(&small, &cost, &[], fail).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("too few to amortize")),
            "{notes:?}"
        );
        // A parallel campaign skips the (serial) throughput floor.
        let mut parallel = run_fleet(14, 2);
        parallel.total_runs = FLEET_FLOOR_MIN_RUNS;
        let notes = check(&parallel, &cost, &[], fail).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("reference is serial")),
            "{notes:?}"
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
    fn render_json_round_trips_key_fields() {
        let result = run_fleet(14, 1);
        let prof = profile(&result);
        let cost = ResetCost {
            boot_us: 500.0,
            ..sample_cost()
        };
        let doc = render_json(&result, &cost, &prof, &[], 4);
        assert!(doc.contains("\"experiment\": \"e_fleet\""));
        assert_eq!(json::read_number(&doc, "total_runs"), Some(14.0));
        assert_eq!(json::read_number(&doc, "restore_speedup"), Some(25.0));
        assert_eq!(json::read_number(&doc, "midrun_restore_speedup"), Some(3.0));
        assert_eq!(json::read_number(&doc, "failures"), Some(0.0));
        assert_eq!(
            json::read_number(&doc, "midrun_runs"),
            Some(prof.midrun_runs as f64)
        );
        assert!(doc.contains("\"restore_equivalent\": true"));
        assert!(doc.contains("\"fleet_runs_per_sec\""));
        assert!(doc.contains("\"phases\""));
        assert!(doc.contains("\"p99_us\""));
    }

    #[test]
    fn shrink_failures_is_empty_on_a_clean_fleet() {
        let result = run_fleet(14, 1);
        assert!(shrink_failures(&result.outcomes, 10).is_empty());
    }
}
