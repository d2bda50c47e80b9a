//! Fleet-scale schedule exploration: the `e_explore` engine and gate.
//!
//! Wraps `tt_kernel::explore` in the same shape as the fault-campaign
//! machinery: pool workers keep the campaign's [`RunnerSlots`] cache of
//! thread-affine runners, walk every `(chip, baseline)` unit — the clean
//! baseline plus `--seeds` injected ones per chip — and explore one
//! interrupt-arrival representative per commuting class. The gate
//! demands a schedule-clean campaign, a DPOR pruning ratio above the
//! `explore.prune_ratio` floor in `ci/bench_baseline.json`, and
//! detector power: the planted commit-window bug
//! ([`tt_kernel::explore::planted`]) must be invisible to a seed sweep,
//! found by exploration, and absent on the control kernel when its
//! minimized schedule is replayed.
//!
//! Findings persist as version-2 [`CorpusRecord`]s (`ci/corpus/
//! schedules.bin`): the 64-bit schedule ID plus baseline seed (or the
//! `clean` flag) are the whole input, so a later run replays them first.

use std::path::Path;
use std::time::Instant;

use tt_analysis::metrics::{Kind, Report, WALL};
use tt_hw::injection::InjectionPlan;
use tt_hw::platform::{ChipProfile, ALL_CHIPS};
use tt_hw::sched::InterruptSchedule;
use tt_kernel::campaign::{CaptureStats, RunnerSlots, VICTIM};
use tt_kernel::corpus::{read_corpus, CorpusRecord};
use tt_kernel::explore::{
    bystander_reference, explore, planted, validate_scheduled, ExploreOutcome, Finding,
};
use tt_kernel::pool;

/// One fleet-scale exploration: every chip, clean + seeded baselines.
#[derive(Debug)]
pub struct ExploreFleet {
    /// Injected baselines explored per chip (the clean one rides free).
    pub seeds_per_chip: u64,
    /// Worker count.
    pub threads: usize,
    /// Wall clock, milliseconds.
    pub wall_ms: f64,
    /// Per-unit outcomes in `(chip, baseline)` order.
    pub outcomes: Vec<ExploreOutcome>,
}

impl ExploreFleet {
    /// Candidate arrivals enumerated across all units.
    pub fn candidates(&self) -> usize {
        self.outcomes.iter().map(|o| o.candidates).sum()
    }

    /// Representatives actually executed.
    pub fn explored(&self) -> usize {
        self.outcomes.iter().map(|o| o.explored).sum()
    }

    /// Candidates pruned as commuting with an executed representative.
    pub fn pruned(&self) -> usize {
        self.outcomes.iter().map(|o| o.pruned).sum()
    }

    /// Units a wall-clock budget or cap stopped early.
    pub fn truncated_units(&self) -> usize {
        self.outcomes.iter().filter(|o| o.truncated).count()
    }

    /// All findings across units.
    pub fn findings(&self) -> Vec<&Finding> {
        self.outcomes.iter().flat_map(|o| &o.findings).collect()
    }

    /// Rendered oracle failures across all findings.
    pub fn failures(&self) -> Vec<&String> {
        self.outcomes
            .iter()
            .flat_map(|o| &o.findings)
            .flat_map(|f| &f.failures)
            .collect()
    }

    /// Aggregate candidates-per-executed-run over *complete* units only.
    /// Truncated units would inflate the ratio (their candidates count
    /// but their runs were cut short), so they are excluded — the CI
    /// floor gates honest pruning, not budget exhaustion.
    pub fn prune_ratio(&self) -> f64 {
        let (cand, expl) = self
            .outcomes
            .iter()
            .filter(|o| !o.truncated)
            .fold((0usize, 0usize), |(c, e), o| {
                (c + o.candidates, e + o.explored)
            });
        if expl == 0 {
            0.0
        } else {
            cand as f64 / expl as f64
        }
    }
}

/// Explores every `(chip, baseline)` unit on a work-stealing pool.
///
/// Baselines per chip: clean (`None`) plus seeds `0..seeds`. Each worker
/// keeps one warm runner per chip it touches in its [`RunnerSlots`]
/// (runners are thread-affine), so outcomes are a pure function of the
/// unit — byte-identical across thread counts. `cap` bounds representatives per
/// unit; `budget_ms` is a fleet-wide wall-clock budget — units starting
/// past it report `truncated` with zero work instead of running (the one
/// deliberately nondeterministic knob, for CI).
pub fn run_explore_fleet(
    chips: &[ChipProfile],
    seeds: u64,
    cap: Option<usize>,
    threads: usize,
    budget_ms: Option<f64>,
) -> ExploreFleet {
    let t0 = Instant::now();
    let units: Vec<(usize, Option<u64>)> = (0..chips.len())
        .flat_map(|c| std::iter::once((c, None)).chain((0..seeds).map(move |s| (c, Some(s)))))
        .collect();
    let stats = CaptureStats::default();
    let outcomes = pool::run_indexed_ctx(
        &units,
        threads,
        || RunnerSlots::new(chips, &stats),
        |slots, _, &(c, seed)| {
            if budget_ms.is_some_and(|ms| t0.elapsed().as_secs_f64() * 1e3 >= ms) {
                return ExploreOutcome {
                    chip: chips[c].name.to_string(),
                    seed,
                    candidates: 0,
                    classes: 0,
                    explored: 0,
                    pruned: 0,
                    truncated: true,
                    findings: Vec::new(),
                };
            }
            slots.with(c, false, |runner| explore(runner, seed, cap))
        },
    );
    ExploreFleet {
        seeds_per_chip: seeds,
        threads,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        outcomes,
    }
}

/// The detector-power demonstration on one chip: the planted
/// commit-window bug must slip past a seed sweep and fall to the
/// explorer, whose minimized schedule must be harmless on the control
/// kernel.
#[derive(Debug)]
pub struct PlantedDemo {
    /// Chip the demonstration ran on.
    pub chip: String,
    /// Seeded (uninterrupted) campaign runs swept on the buggy kernel.
    pub campaign_seeds: u64,
    /// Seeds whose run failed the oracle — expected 0 (the bug only
    /// bites when an interrupt lands inside the commit window).
    pub seed_failures: usize,
    /// Exploration of the buggy kernel's clean baseline — expected to
    /// carry at least one finding.
    pub outcome: ExploreOutcome,
    /// Oracle failures when each finding's minimized schedule replays on
    /// the *correct* kernel — expected 0 (the schedule exposes the bug,
    /// not a broken oracle).
    pub control_failures: usize,
}

/// Runs the planted-bug demonstration: `campaign_seeds` seeded runs on
/// the buggy kernel (all expected green), one full exploration (expected
/// to find the bug), and a control replay of every minimized schedule.
pub fn planted_demo(chip: &ChipProfile, campaign_seeds: u64) -> PlantedDemo {
    let mut runner = planted::runner(chip);
    let reference = bystander_reference(&runner.run_plan(None));
    let mut seed_failures = 0;
    for s in 0..campaign_seeds {
        let run = runner.run_seed(Some(s));
        seed_failures += usize::from(!validate_scheduled(chip, &run, 0, &reference).is_empty());
    }
    let outcome = explore(&mut runner, None, None);
    let mut control = planted::control_runner(chip);
    let control_reference = bystander_reference(&control.run_plan(None));
    let mut control_failures = 0;
    for f in &outcome.findings {
        let schedule = InterruptSchedule::from_id(f.minimized);
        let run = control.run_scheduled(None, &schedule);
        control_failures += validate_scheduled(chip, &run, f.minimized, &control_reference).len();
    }
    PlantedDemo {
        chip: chip.name.to_string(),
        campaign_seeds,
        seed_failures,
        outcome,
        control_failures,
    }
}

/// Reduces a fleet's findings to version-2 corpus records: the minimized
/// schedule ID plus its baseline (seed, or the `clean` flag) re-drive
/// the failing run exactly.
pub fn explore_records(outcomes: &[ExploreOutcome]) -> Vec<CorpusRecord> {
    outcomes
        .iter()
        .flat_map(|o| {
            let chip = ALL_CHIPS
                .iter()
                .position(|c| c.name == o.chip)
                .unwrap_or(u8::MAX as usize) as u8;
            o.findings.iter().map(move |f| CorpusRecord {
                chip,
                cold: false,
                killed: false,
                clean: o.seed.is_none(),
                seed: o.seed.unwrap_or(0),
                schedule: f.minimized,
                fired: f.irq_fired.min(u64::from(u16::MAX)) as u16,
                restarts: 0,
                recoveries: 0,
                failures: f.failures.len().min(u16::MAX as usize) as u16,
                trace_len: 0,
                recovery_cycles: 0,
            })
        })
        .collect()
}

/// Replays persisted schedule records against the standard campaign
/// scenario, serially, returning every oracle failure that still
/// reproduces (a previously-found schedule that now passes contributes
/// nothing). Each record is checked against its runner's clean run.
pub fn replay_schedule_records(records: &[CorpusRecord]) -> Vec<String> {
    let records: Vec<&CorpusRecord> = records.iter().filter(|r| r.schedule != 0).collect();
    let stats = CaptureStats::default();
    pool::run_indexed_ctx(
        &records,
        1,
        || RunnerSlots::new(&ALL_CHIPS, &stats),
        |slots, _, r| {
            if usize::from(r.chip) >= ALL_CHIPS.len() {
                return vec![format!("corpus chip index {} out of range", r.chip)];
            }
            let plan = (!r.clean).then(|| InjectionPlan::from_seed(r.seed, VICTIM as u32));
            slots.with(usize::from(r.chip), false, |runner| {
                let reference = bystander_reference(&runner.run_plan(None));
                let run = runner.run_scheduled(plan, &InterruptSchedule::from_id(r.schedule));
                validate_scheduled(runner.chip(), &run, r.schedule, &reference)
            })
        },
    )
    .concat()
}

/// Reads `<dir>/schedules.bin` into replayable records. A missing file
/// is an empty corpus; a malformed one is a real error.
pub fn schedule_corpus(dir: &Path) -> std::io::Result<Vec<CorpusRecord>> {
    let path = dir.join("schedules.bin");
    if !path.exists() {
        return Ok(Vec::new());
    }
    read_corpus(&path)
}

/// The per-chip sums [`chip_sums`] reports, in order.
const CHIP_SUMS: [&str; 7] = [
    "units",
    "candidates",
    "classes",
    "explored",
    "pruned",
    "findings",
    "truncated",
];

/// Per-chip sums over a fleet's units ([`CHIP_SUMS`]), in chip order,
/// for the chips the fleet explored.
fn chip_sums(fleet: &ExploreFleet) -> Vec<(&'static str, [usize; 7])> {
    ALL_CHIPS
        .iter()
        .filter_map(|chip| {
            let rows: Vec<&ExploreOutcome> = fleet
                .outcomes
                .iter()
                .filter(|o| o.chip == chip.name)
                .collect();
            let sum = |f: fn(&ExploreOutcome) -> usize| rows.iter().map(|o| f(o)).sum();
            let sums = [
                rows.len(),
                sum(|o| o.candidates),
                sum(|o| o.classes),
                sum(|o| o.explored),
                sum(|o| o.pruned),
                sum(|o| o.findings.len()),
                sum(|o| usize::from(o.truncated)),
            ];
            (!rows.is_empty()).then_some((chip.name, sums))
        })
        .collect()
}

/// Renders the per-chip exploration table plus the planted-bug summary.
pub fn render(fleet: &ExploreFleet, demo: &PlantedDemo) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "schedule exploration: {} chips x (1 clean + {} seeded) baselines, {} threads\n",
        fleet.outcomes.len() / (fleet.seeds_per_chip as usize + 1).max(1),
        fleet.seeds_per_chip,
        fleet.threads,
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>10} {:>8} {:>9} {:>8} {:>7} {:>9} {:>6}\n",
        "chip",
        "units",
        "candidates",
        "classes",
        "explored",
        "pruned",
        "ratio",
        "findings",
        "trunc"
    ));
    for (chip, [units, cand, classes, explored, pruned, findings, trunc]) in chip_sums(fleet) {
        let ratio = match explored {
            0 => "-".to_string(),
            _ => format!("{:.2}x", cand as f64 / explored as f64),
        };
        out.push_str(&format!(
            "{chip:<14} {units:>6} {cand:>10} {classes:>8} {explored:>9} {pruned:>8} {ratio:>7} \
             {findings:>9} {trunc:>6}\n"
        ));
    }
    out.push_str(&format!(
        "total: {} candidates -> {} executed ({} pruned, {:.2}x), {} finding(s)\n",
        fleet.candidates(),
        fleet.explored(),
        fleet.pruned(),
        fleet.prune_ratio(),
        fleet.findings().len(),
    ));
    for f in fleet.failures() {
        out.push_str(&format!("  FINDING {f}\n"));
    }
    out.push_str(&format!(
        "planted commit-window bug ({}): {} seeds -> {} failure(s); explorer: {} \
         finding(s) in {} runs; control replay failures: {}\n",
        demo.chip,
        demo.campaign_seeds,
        demo.seed_failures,
        demo.outcome.findings.len(),
        demo.outcome.explored,
        demo.control_failures,
    ));
    for f in &demo.outcome.findings {
        out.push_str(&format!(
            "  planted repro: schedule {:#x} -> minimized {:#x} ({} arrival(s) fired)\n",
            f.schedule, f.minimized, f.irq_fired
        ));
    }
    out
}

/// The `explore` report: sweep totals and per-chip rows, the planted
/// demonstration, and the `prune_ratio` floor (complete units only;
/// skipped when every unit was truncated, which is itself a failure).
/// Failures: schedule findings on the real campaign scenario, replayed
/// corpus schedules that still fail (`replayed`), and a planted-bug
/// demonstration that lost detector power.
pub fn metrics(fleet: &ExploreFleet, demo: &PlantedDemo, replayed: &[String]) -> Report {
    let mut r = Report::new("explore");
    let totals = [
        ("seeds_per_chip", fleet.seeds_per_chip as f64),
        ("candidates", fleet.candidates() as f64),
        ("explored", fleet.explored() as f64),
        ("pruned", fleet.pruned() as f64),
        ("findings", fleet.findings().len() as f64),
        ("truncated_units", fleet.truncated_units() as f64),
    ];
    r.infos("", "dpor", "count", &totals);
    r.add(Kind::Floor, "prune_ratio", "dpor", "x", fleet.prune_ratio());
    r.info("threads", WALL, "count", fleet.threads as f64);
    r.info("wall_ms", WALL, "ms", fleet.wall_ms);
    for (chip, sums) in chip_sums(fleet) {
        let counts: Vec<(&str, f64)> = CHIP_SUMS.into_iter().zip(sums.map(|v| v as f64)).collect();
        r.infos(chip, "dpor", "count", &counts);
        if sums[3] > 0 {
            let ratio = counts[1].1 / counts[3].1;
            r.info(format!("{chip}.prune_ratio"), "dpor", "x", ratio);
        }
    }
    let planted = [
        ("campaign_seeds", demo.campaign_seeds as f64),
        ("seed_failures", demo.seed_failures as f64),
        ("explorer_findings", demo.outcome.findings.len() as f64),
        ("explorer_runs", demo.outcome.explored as f64),
        ("control_failures", demo.control_failures as f64),
    ];
    r.infos("planted", "planted", "count", &planted);
    for f in &demo.outcome.findings {
        let name = format!(
            "planted.repro.{:#x}.minimized.{:#x}.fired",
            f.schedule, f.minimized
        );
        r.info(name, "planted", "count", f.irq_fired as f64);
    }

    let schedules = fleet
        .failures()
        .into_iter()
        .map(|f| format!("campaign schedule: {f}"));
    let replayed = replayed.iter().map(|f| format!("corpus replay: {f}"));
    r.failures.extend(schedules.chain(replayed));
    if fleet.outcomes.iter().all(|o| o.truncated) {
        r.failures
            .push("every exploration unit was truncated; raise the budget".into());
        r.skip("prune_ratio", "no exploration unit completed");
    }
    if demo.seed_failures > 0 {
        r.failures.push(format!(
            "planted bug: {} of {} seeded runs failed — the bug is not \
             schedule-only, the demonstration is broken",
            demo.seed_failures, demo.campaign_seeds
        ));
    }
    if demo.outcome.findings.is_empty() {
        r.failures
            .push("planted bug: the explorer found nothing — detector power lost".into());
    }
    if demo.control_failures > 0 {
        r.failures.push(format!(
            "planted bug: minimized schedule fails {} check(s) on the correct \
             kernel — the oracle, not the bug, is tripping",
            demo.control_failures
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_text;
    use tt_hw::platform::NRF52840DK;
    use tt_hw::sched::ArrivalPoint;

    const FLOOR: &str =
        r#"[{"metric": "explore.prune_ratio", "kind": "floor", "bound": 2.0, "why": "dpor"}]"#;

    #[test]
    fn fleet_is_deterministic_across_thread_counts() {
        let serial = run_explore_fleet(&ALL_CHIPS[..1], 1, Some(6), 1, None);
        let pooled = run_explore_fleet(&ALL_CHIPS[..1], 1, Some(6), 3, None);
        let demo = planted_demo(&NRF52840DK, 3);
        let doc = |fleet: &ExploreFleet| metrics(fleet, &demo, &[]).without_wall().to_json();
        assert_eq!(
            doc(&serial),
            doc(&pooled),
            "exploration must not depend on the thread count"
        );
        let r = metrics(&serial, &demo, &[]);
        assert_eq!(r.get("seeds_per_chip").unwrap().value, 1.0);
        assert_eq!(r.get("explored").unwrap().value, serial.explored() as f64);
        assert!(r.get("prune_ratio").is_some());
        // Both units ran under the cap: 6 representatives each, max.
        assert!(serial.explored() <= 12);
        assert_eq!(serial.truncated_units(), 2);
    }

    #[test]
    fn gate_passes_clean_runs_and_fails_weak_pruning_or_lost_detector_power() {
        let fleet = run_explore_fleet(&ALL_CHIPS[..1], 0, None, 1, None);
        let demo = planted_demo(&NRF52840DK, 3);
        assert!(fleet.failures().is_empty());
        let v = gate_text(&metrics(&fleet, &demo, &[]), "explore-clean", FLOOR);
        assert!(v.passed(), "{v:?}");
        assert!(v
            .notes
            .iter()
            .any(|n| n.contains("explore prune_ratio [dpor]")));
        // An absurd floor fails the gate.
        let v = gate_text(
            &metrics(&fleet, &demo, &[]),
            "explore-absurd",
            &FLOOR.replace("2.0", "999.0"),
        );
        assert!(
            v.violations.iter().any(|f| f.contains("vs floor 999.00")),
            "{v:?}"
        );
        // A baseline without the floor fails the gate.
        assert!(!gate_text(&metrics(&fleet, &demo, &[]), "explore-none", "[]").passed());
        // A still-reproducing corpus replay fails the gate.
        let replayed = ["chip X schedule 0x123: boom".to_string()];
        let v = gate_text(&metrics(&fleet, &demo, &replayed), "explore-replay", FLOOR);
        assert!(
            v.violations.iter().any(|f| f.contains("corpus replay")),
            "{v:?}"
        );
        // A demo whose explorer found nothing fails the gate.
        let blind = PlantedDemo {
            chip: demo.chip.clone(),
            campaign_seeds: demo.campaign_seeds,
            seed_failures: 0,
            outcome: ExploreOutcome {
                findings: Vec::new(),
                ..demo.outcome.clone()
            },
            control_failures: 0,
        };
        let v = gate_text(&metrics(&fleet, &blind, &[]), "explore-blind", FLOOR);
        assert!(
            v.violations.iter().any(|f| f.contains("detector power")),
            "{v:?}"
        );
    }

    #[test]
    fn planted_demo_has_detector_power() {
        let demo = planted_demo(&NRF52840DK, 5);
        assert_eq!(demo.seed_failures, 0, "seeds must miss the planted bug");
        assert!(
            !demo.outcome.findings.is_empty(),
            "the explorer must find the planted bug"
        );
        assert_eq!(demo.control_failures, 0, "control kernel must survive");
    }

    #[test]
    fn findings_round_trip_through_the_schedule_corpus() {
        let demo = planted_demo(&NRF52840DK, 0);
        let records = explore_records(std::slice::from_ref(&demo.outcome));
        assert_eq!(records.len(), demo.outcome.findings.len());
        assert!(records.iter().all(|r| r.schedule != 0 && r.clean));
        let dir = std::env::temp_dir().join(format!("tt-explore-corpus-{}", std::process::id()));
        tt_kernel::corpus::write_corpus(&dir.join("schedules.bin"), &records).unwrap();
        assert_eq!(schedule_corpus(&dir).unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
        // Replaying a schedule the standard campaign survives yields no
        // failures; an out-of-range chip index is a loud error.
        let survivor = CorpusRecord {
            chip: 0,
            schedule: InterruptSchedule::single(ArrivalPoint::SyscallEnter, 1).id(),
            clean: true,
            ..records[0]
        };
        assert!(replay_schedule_records(&[survivor]).is_empty());
        let bogus = CorpusRecord {
            chip: u8::MAX,
            ..survivor
        };
        assert_eq!(replay_schedule_records(&[bogus]).len(), 1);
    }
}
