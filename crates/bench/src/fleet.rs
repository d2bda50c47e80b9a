//! Fleet campaigns: snapshot/restore-driven mass fault injection, and
//! the one binary that runs the fault campaign (`e_fleet`).
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
//!
//! The campaign runs once per rung of the [`thread_ladder`] (1, N/2 and
//! N workers). Every rung's [`artifact`] must be byte-identical to the
//! serial rung's, the serial rung is what the `fleet.runs_per_sec` floor
//! reads, and the best rung over the serial one is the
//! `fleet.parallel_speedup` floor. Every rung replays the failure corpus
//! before its units; only the top rung's outcomes and replay are kept:
//! failing runs persist as fixed-width [`CorpusRecord`]s under
//! `ci/corpus/` and their seeds shrink to 1-minimal schedules for the
//! report.

use std::time::Instant;

use tt_analysis::metrics::{Kind, Report, WALL};
use tt_hw::platform::ALL_CHIPS;
use tt_kernel::campaign::{
    boot_probe, record_difference, render_report, run_campaign_profiled, run_one,
    shrink_failing_seed, CampaignResult, ChipReport, FleetRunner, UnitOutcome,
};
use tt_kernel::corpus::CorpusRecord;

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
    /// Hooks that reached the injection engine, per run: occurrences at
    /// which an injection was due, an exact count. Every other hook in
    /// the victim's context returns in the inline fast lane.
    pub engine_entries_per_run: f64,
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
        engine_entries_per_run: result
            .outcomes
            .iter()
            .map(|o| o.engine_entries)
            .sum::<u64>() as f64
            / result.outcomes.len().max(1) as f64,
        boots: result.boots,
        capture_amortized_us: result.capture_ns as f64
            / 1e3
            / (result.outcomes.len().max(1)) as f64,
    }
}

/// One rung of the thread ladder: the whole campaign at one worker
/// count, reduced to its wall time and its artifact.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Worker count.
    pub threads: usize,
    /// Injected runs executed (chips × seeds × 2 cache modes).
    pub runs: u64,
    /// Campaign wall-clock, milliseconds.
    pub wall_ms: f64,
    /// The campaign's [`artifact`].
    pub artifact: String,
}

impl Rung {
    /// Campaign throughput in injected runs per second.
    pub fn runs_per_sec(&self) -> f64 {
        self.runs as f64 / (self.wall_ms / 1e3)
    }
}

/// One measured fleet campaign.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Seeds per chip the requested run budget decomposed into.
    pub seeds_per_chip: u64,
    /// The thread ladder in ascending worker count: the serial rung
    /// first, the top rung — the campaign the other fields describe —
    /// last.
    pub ladder: Vec<Rung>,
    /// Per-chip campaign reports (oracle results included).
    pub reports: Vec<ChipReport>,
    /// Per-run outcomes in schedule order.
    pub outcomes: Vec<UnitOutcome>,
    /// Fresh runner boots across all workers.
    pub boots: u64,
    /// Total nanoseconds workers spent booting + capturing snapshots.
    pub capture_ns: u64,
    /// Each corpus record's replay lines, in corpus order (empty = the
    /// record no longer fails).
    pub replayed: Vec<Vec<String>>,
}

impl FleetResult {
    /// The serial rung, which the `runs_per_sec` floor reads.
    pub fn serial(&self) -> &Rung {
        &self.ladder[0]
    }

    /// The top rung: the campaign that feeds the corpus, the shrinker,
    /// the profile and the budget, and whose replay is reported.
    pub fn top(&self) -> &Rung {
        self.ladder.last().expect("a ladder has a serial rung")
    }
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

/// A rung's artifact: the campaign table and the `fleet` report's
/// per-chip section, neither of which holds a wall-clock figure. Every
/// rung's must equal the serial rung's byte for byte.
pub fn artifact(reports: &[ChipReport], seeds: u64) -> String {
    let mut section = Report::new("fleet");
    chip_section(&mut section, reports);
    render_report(reports, seeds) + &section.to_json()
}

/// Runs the campaign once at `threads` workers, `corpus` replayed first.
fn run_rung(seeds: u64, threads: usize, corpus: &[CorpusRecord]) -> (Rung, CampaignResult) {
    let t0 = Instant::now();
    let campaign = run_campaign_profiled(&ALL_CHIPS, seeds, threads, corpus);
    let rung = Rung {
        threads,
        runs: campaign.outcomes.len() as u64,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        artifact: artifact(&campaign.reports, seeds),
    };
    (rung, campaign)
}

/// Runs a fleet campaign sized to roughly `total_runs` injected runs
/// (rounded down to whole seeds per chip, minimum one) on every rung of
/// `thread_ladder(max_threads)`, each rung replaying `corpus` first. A
/// lower rung's outcomes are dropped before the next rung starts.
pub fn run_fleet(total_runs: u64, max_threads: usize, corpus: &[CorpusRecord]) -> FleetResult {
    let per_chip_runs = ALL_CHIPS.len() as u64 * 2;
    let seeds = (total_runs / per_chip_runs).max(1);
    let threads = thread_ladder(max_threads);
    let (&top, lower) = threads.split_last().expect("a ladder has a serial rung");
    let mut ladder: Vec<Rung> = lower
        .iter()
        .map(|&t| run_rung(seeds, t, corpus).0)
        .collect();
    let (rung, campaign) = run_rung(seeds, top, corpus);
    ladder.push(rung);
    FleetResult {
        seeds_per_chip: seeds,
        ladder,
        reports: campaign.reports,
        outcomes: campaign.outcomes,
        boots: campaign.boots,
        capture_ns: campaign.capture_ns,
        replayed: campaign.replayed,
    }
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

/// Renders the human-readable fleet output: the campaign table, the
/// thread ladder, then the reset-cost lines.
pub fn render(result: &FleetResult, cost: &ResetCost) -> String {
    let mut out = render_report(&result.reports, result.seeds_per_chip);
    out.push_str(&format!(
        "{:<8} {:>12} {:>9} {:>10}\n",
        "threads", "runs/s", "speedup", "wall ms"
    ));
    let serial = result.serial().runs_per_sec();
    for g in &result.ladder {
        let rate = g.runs_per_sec();
        out.push_str(&format!(
            "{:<8} {:>12.0} {:>8.2}x {:>10.1}\n",
            g.threads,
            rate,
            rate / serial,
            g.wall_ms
        ));
    }
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
    out
}

/// Renders the human-readable per-phase profile table.
pub fn render_profile(result: &FleetResult, prof: &FleetProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "phase profile over {} runs ({} mid-run resumes, {} fresh boots)\n",
        result.outcomes.len(),
        prof.midrun_runs,
        prof.boots,
    ));
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
    out.push_str(&format!(
        "injection engine entries: {:.3} per run\n",
        prof.engine_entries_per_run
    ));
    out
}

/// The `fleet` report: campaign counters, reset costs, the per-phase
/// profile, the thread ladder, the four floors (`runs_per_sec`,
/// `parallel_speedup`, `restore_speedup`, `midrun_restore_speedup`) and
/// the `resimulated_share` and `injection.engine_entries_per_run`
/// ceilings, then the per-chip section, with
/// every restore-equivalence, rung byte-identity, oracle and
/// still-failing corpus replay failure.
pub fn metrics(
    result: &FleetResult,
    cost: &ResetCost,
    prof: &FleetProfile,
    equivalence: &[String],
    cores: usize,
) -> Report {
    let top = result.top();
    let mut r = Report::new("fleet");
    let campaign = [
        ("total_runs", top.runs as f64),
        ("seeds_per_chip", result.seeds_per_chip as f64),
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
    let entries = prof.engine_entries_per_run;
    let name = "injection.engine_entries_per_run";
    r.add(Kind::Ceiling, name, "injection", "count", entries);
    let host = [("threads", top.threads as f64), ("cores", cores as f64)];
    r.infos("", WALL, "count", &host);
    r.info("wall_ms", WALL, "ms", top.wall_ms);
    r.add(Kind::Floor, "restore_speedup", WALL, "x", cost.speedup());
    let midrun = cost.midrun_speedup();
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
    let equivalence = equivalence
        .iter()
        .map(|f| format!("restore equivalence: {f}"));
    r.failures.extend(equivalence);
    ladder_metrics(&mut r, &result.ladder, cores);
    chip_section(&mut r, &result.reports);
    r.failures.extend(crate::replay_failures(&result.replayed));
    r
}

/// The thread ladder's part of the `fleet` report: per-rung walls,
/// rates and speedups, every rung whose artifact differs from the
/// serial rung's as a failure, and the two floors. `runs_per_sec` reads
/// the serial rung and is skipped below 50k runs, where startup costs
/// do not amortize. `parallel_speedup` is the best rung over the serial
/// rung; it is skipped on a 1-core host or a 1-thread ladder, and once
/// it reaches [`host_cap`] — the most a small host can show, so the
/// baseline floor is not asked of it. The cap is reported as
/// `host_cap`, since below a floor it is the bound that applies.
fn ladder_metrics(r: &mut Report, ladder: &[Rung], cores: usize) {
    let serial = &ladder[0];
    let base = serial.runs_per_sec();
    r.add(Kind::Floor, "runs_per_sec", WALL, "1/s", base);
    if serial.runs < FLEET_FLOOR_MIN_RUNS {
        let reason = format!(
            "{} runs too few to amortize startup (floor engages at {FLEET_FLOOR_MIN_RUNS}+)",
            serial.runs
        );
        r.skip("runs_per_sec", reason);
    }
    for g in ladder {
        let (t, rate) = (g.threads, g.runs_per_sec());
        let rung = format!("t{t}");
        r.infos(&rung, WALL, "ms", &[("wall_ms", g.wall_ms)]);
        r.infos(&rung, WALL, "1/s", &[("runs_per_sec", rate)]);
        r.infos(&rung, WALL, "x", &[("speedup", rate / base)]);
        if g.artifact != serial.artifact {
            r.failures.push(format!(
                "campaign report at {t} threads differs from serial ({} vs {} bytes)",
                g.artifact.len(),
                serial.artifact.len()
            ));
        }
    }
    let best = ladder.iter().map(Rung::runs_per_sec).fold(base, f64::max);
    let speedup = best / base;
    r.add(Kind::Floor, "parallel_speedup", WALL, "x", speedup);
    let cap = host_cap(cores);
    r.info("host_cap", WALL, "x", cap);
    let max_threads = ladder.last().map_or(1, |g| g.threads);
    if cores <= 1 || max_threads <= 1 {
        let reason = format!("{cores} core(s), max {max_threads} thread(s)");
        r.skip("parallel_speedup", reason);
    } else if speedup >= cap {
        let reason =
            format!("{speedup:.2}x reaches the host cap of 0.75 x {cores} cores = {cap:.2}x");
        r.skip("parallel_speedup", reason);
    }
}

/// Appends each chip's campaign counters (`<chip>.runs`, `.fired`,
/// `.recoveries`, `.restarts`, `.killed`) and recovery-cycle means
/// (`.recovery_cycles_warm_mean`, `.recovery_cycles_cold_mean`), and
/// every oracle failure line.
fn chip_section(r: &mut Report, reports: &[ChipReport]) {
    for c in reports {
        let counters = [
            ("runs", (c.runs * 2) as f64),
            ("fired", c.fired as f64),
            ("recoveries", c.recoveries as f64),
            ("restarts", c.restarts as f64),
            ("killed", c.killed as f64),
        ];
        r.infos(c.chip, "campaign", "count", &counters);
        let means = [
            ("recovery_cycles_warm_mean", c.warm_mean()),
            ("recovery_cycles_cold_mean", c.cold_mean()),
        ];
        r.infos(c.chip, "recovery", "cycles", &means);
    }
    let oracle = reports.iter().flat_map(|c| &c.failures);
    r.failures
        .extend(oracle.map(|f| format!("campaign oracle: {f}")));
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
    use tt_analysis::metrics::Verdict;

    #[test]
    fn small_fleet_runs_clean_and_counts_add_up() {
        let result = run_fleet(28, 1, &[]);
        // 28 requested / (7 chips * 2 modes) = 2 seeds per chip.
        assert_eq!(result.seeds_per_chip, 2);
        assert_eq!(result.ladder.len(), 1);
        assert_eq!(result.top().runs, 28);
        assert_eq!(result.outcomes.len(), 28);
        // The rung's artifact is the campaign table plus the per-chip
        // section, with no wall-clock figure in it.
        let doc = &result.top().artifact;
        assert!(
            doc.starts_with("fault campaign: 2 seeds x 7 chips"),
            "{doc}"
        );
        assert!(doc.contains("\"name\": \"hifive1.recovery_cycles_cold_mean\""));
        assert!(!doc.contains("wall"), "{doc}");
        assert!(
            result.reports.iter().all(|r| r.failures.is_empty()),
            "{:#?}",
            result.reports
        );
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
  {"metric": "fleet.injection.engine_entries_per_run", "kind": "ceiling", "bound": 1.9, "why": "engine"},
  {"metric": "fleet.parallel_speedup", "kind": "floor", "bound": 3.0, "why": "pool"},
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
        let result = run_fleet(14, 1, &[]);
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
        assert!(v
            .notes
            .iter()
            .any(|n| n.contains("fleet injection.engine_entries_per_run [injection]")));
        // Hooks entering the injection engine past its ceiling fail.
        let busy = FLOORS.replace("\"bound\": 1.9", "\"bound\": 0.5");
        let v = gate_fleet(&result, &cost, &[], &busy);
        assert!(
            v.violations
                .iter()
                .any(|f| f.contains("injection.engine_entries_per_run")),
            "{v:?}"
        );
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
        assert_eq!(v.violations.len(), 6, "{v:?}");
    }

    #[test]
    fn check_gates_fleet_throughput_against_previous_figure() {
        let mut result = run_fleet(14, 1, &[]);
        // Pretend the campaign was large enough to amortize startup —
        // the floor compares runs_per_sec(), which we pin via wall_ms.
        let amortized = |rung: &mut Rung| {
            let rate = rung.runs_per_sec();
            rung.runs = FLEET_FLOOR_MIN_RUNS;
            rung.wall_ms = FLEET_FLOOR_MIN_RUNS as f64 / rate * 1e3;
        };
        amortized(&mut result.ladder[0]);
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
        let small = run_fleet(14, 1, &[]);
        let v = gate_fleet(&small, &cost, &[], &fail);
        assert!(v.passed(), "{v:?}");
        assert!(
            v.notes.iter().any(|n| n.contains("too few to amortize")),
            "{v:?}"
        );
        // The serial rung gates the floor even when the top rung, the
        // campaign the rest of the report describes, is parallel.
        let mut parallel = run_fleet(14, 2, &[]);
        assert_eq!(parallel.ladder.len(), 2);
        assert_eq!(parallel.top().threads, 2);
        parallel.ladder.iter_mut().for_each(amortized);
        let v = gate_fleet(&parallel, &cost, &[], &fail);
        assert!(
            v.violations
                .iter()
                .any(|f| f.contains("fleet runs_per_sec [wall]")),
            "{v:?}"
        );
        let v = gate_fleet(&parallel, &cost, &[], &with_prev("0.0015"));
        assert!(v.passed(), "{v:?}");
    }

    #[test]
    fn profile_summarizes_phases_and_midrun_hits() {
        let result = run_fleet(14, 1, &[]);
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
    fn metrics_carry_the_key_fields() {
        let result = run_fleet(14, 1, &[]);
        let prof = profile(&result);
        let cost = ResetCost {
            boot_us: 500.0,
            ..sample_cost()
        };
        let r = metrics(&result, &cost, &prof, &[], 4);
        let value = |name: &str| r.get(name).unwrap().value;
        assert_eq!(r.experiment, "fleet");
        assert_eq!(value("total_runs"), 14.0);
        assert_eq!(value("t1.speedup"), 1.0);
        assert_eq!(value("parallel_speedup"), 1.0);
        assert!(value("nrf52840dk.recovery_cycles_warm_mean") > 0.0);
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
        // A corpus record whose replay still fails is a report failure.
        let replayed = FleetResult {
            replayed: vec![vec![], vec!["chip X seed 3: boom".into()]],
            ..result
        };
        let r = metrics(&replayed, &cost, &prof, &[], 4);
        assert_eq!(r.failures, ["corpus replay: chip X seed 3: boom"]);
    }

    #[test]
    fn thread_ladder_dedups_and_sorts() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(8), vec![1, 4, 8]);
    }

    /// A rung of 100 runs (too few for the `runs_per_sec` floor).
    fn fake_rung(threads: usize, wall_ms: f64, artifact: &str) -> Rung {
        Rung {
            threads,
            runs: 100,
            wall_ms,
            artifact: artifact.into(),
        }
    }

    /// The ladder's part of a `fleet` report on `cores` cores.
    fn ladder_report(ladder: &[Rung], cores: usize) -> Report {
        let mut r = Report::new("fleet");
        ladder_metrics(&mut r, ladder, cores);
        r
    }

    const LADDER: &str = r#"[
  {"metric": "fleet.parallel_speedup", "kind": "floor", "bound": 3.0, "why": "pool"},
  {"metric": "fleet.runs_per_sec", "kind": "floor", "bound": 1e15, "why": "unreachable"}
]"#;

    #[test]
    fn check_fails_on_artifact_mismatch() {
        let ladder = [
            fake_rung(1, 100.0, "a"),
            fake_rung(4, 40.0, "b"),
            fake_rung(8, 20.0, "c"),
        ];
        let report = ladder_report(&ladder, 8);
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert!(report.failures[0].contains("at 4 threads"), "{report:?}");
        assert!(report.failures[1].contains("at 8 threads"), "{report:?}");
        let v = gate_text(&report, "ladder-mismatch", LADDER);
        assert_eq!(v.violations.len(), 2, "{v:?}");
    }

    #[test]
    fn check_enforces_speedup_floor_only_with_cores() {
        let ladder = [fake_rung(1, 100.0, "a"), fake_rung(8, 90.0, "a")];
        // 8 cores: 1.11x speedup misses the 3x floor.
        assert!(!gate_text(&ladder_report(&ladder, 8), "ladder-8", LADDER).passed());
        // 1 core: floor is skipped, determinism still checked.
        let v = gate_text(&ladder_report(&ladder, 1), "ladder-1", LADDER);
        assert!(v.passed(), "{v:?}");
        assert!(
            v.notes.iter().any(|n| n.contains("skipped: 1 core(s)")),
            "{v:?}"
        );
        // 2 cores: floor capped at 1.5x, still missed at 1.11x; the
        // report carries the cap that applies.
        let two = ladder_report(&ladder, 2);
        assert_eq!(two.get("host_cap").unwrap().value, 1.5);
        assert!(!gate_text(&two, "ladder-2", LADDER).passed());
        // 2 cores at 1.6x: the host cap is reached, the floor is not
        // asked of the host.
        let capped = [fake_rung(1, 100.0, "a"), fake_rung(2, 62.5, "a")];
        let v = gate_text(&ladder_report(&capped, 2), "ladder-cap", LADDER);
        assert!(v.passed(), "{v:?}");
        assert!(v.notes.iter().any(|n| n.contains("host cap")), "{v:?}");
    }

    #[test]
    fn check_passes_a_clean_ladder() {
        let ladder = [fake_rung(1, 100.0, "a"), fake_rung(8, 25.0, "a")];
        let v = gate_text(&ladder_report(&ladder, 8), "ladder-clean", LADDER);
        assert!(v.passed(), "{v:?}");
        assert!(
            v.notes
                .iter()
                .any(|n| n.contains("parallel_speedup [wall]: 4.00 vs floor 3.00")),
            "{v:?}"
        );
    }

    #[test]
    fn metrics_report_the_ladder() {
        let ladder = [fake_rung(1, 100.0, "a"), fake_rung(8, 25.0, "a")];
        let r = ladder_report(&ladder, 8);
        let value = |name: &str| r.get(name).unwrap().value;
        assert_eq!(value("runs_per_sec"), 1000.0);
        assert_eq!(value("host_cap"), 6.0);
        assert_eq!(value("t1.speedup"), 1.0);
        assert_eq!(value("t8.speedup"), 4.0);
        assert_eq!(value("t8.runs_per_sec"), 4000.0);
        assert_eq!(value("t8.wall_ms"), 25.0);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn shrink_failures_is_empty_on_a_clean_fleet() {
        let result = run_fleet(14, 1, &[]);
        assert!(shrink_failures(&result.outcomes, 10).is_empty());
    }
}
