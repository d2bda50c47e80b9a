//! `explore`: the DPOR interrupt-schedule sweep.
//!
//! An op is one `tt_kernel::explore::explore(runner, baseline, None)`
//! call on one `(chip, baseline)` unit: the clean baseline plus a fixed
//! range of injected baselines per chip, in a seed-shuffled order. On top
//! of the kernel, hardware and trace layers the fleet reaches, it runs candidate
//! enumeration and commuting-class pruning, and it reaches those layers
//! through other paths: `run_scheduled` with a full trace drain, the
//! allocating `validate_scheduled` oracle, and post-boot fallbacks when a
//! schedule fires in the first tick.
//!
//! The traced passes rebuild `explore` from its public parts, with a span
//! around each; the rebuild must reproduce `explore`'s counts exactly.

use std::time::Instant;

use tt_hw::injection::InjectionPlan;
use tt_hw::platform::ALL_CHIPS;
use tt_kernel::campaign::{FleetRunner, VICTIM};
use tt_kernel::explore::{
    bystander_reference, commuting_classes, enumerate_candidates, explore, validate_scheduled,
};

use crate::harness::{self, shuffle, Op, Plan};
use crate::spans::{Spans, Tracer};
use crate::{mean, Config, WorkloadResult};

/// Injected baselines per chip (the clean one rides along).
const SEEDS_PER_CHIP: u64 = 14;

/// Indices into an op's exact counts.
const CANDIDATES: usize = 0;
const EXECUTED: usize = 2;

/// `explore` rebuilt from its public parts, with a span around each
/// part. Returns the op's counts, in `explore`'s terms, and the simulated
/// cycles summed over its runs.
fn rebuild(runner: &mut FleetRunner, seed: Option<u64>, tracer: &mut Tracer) -> (Vec<u64>, u64) {
    let chip = *runner.chip();
    let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
    let id = tracer.enter("explore.baseline");
    let baseline = runner.run_plan(plan.clone());
    let mut cycles = tt_hw::cycles::now();
    let reference = if seed.is_some() {
        let clean = runner.run_plan(None);
        cycles += tt_hw::cycles::now();
        bystander_reference(&clean)
    } else {
        bystander_reference(&baseline)
    };
    tracer.exit(id);
    let id = tracer.enter("explore.enumerate");
    let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
    tracer.exit(id);
    let id = tracer.enter("explore.classes");
    let classes = commuting_classes(&baseline.trace.events, &candidates);
    tracer.exit(id);
    let (mut explored, mut pruned, mut findings) = (0u64, 0u64, 0u64);
    for class in &classes {
        explored += 1;
        pruned += class.len() as u64 - 1;
        let schedule = class[0].schedule();
        let id = tracer.enter("explore.sched_run");
        let run = runner.run_scheduled(plan.clone(), &schedule);
        cycles += tt_hw::cycles::now();
        tracer.exit(id);
        let id = tracer.enter("explore.oracle");
        let failures = validate_scheduled(&chip, &run, schedule.id(), &reference);
        tracer.exit(id);
        findings += u64::from(!failures.is_empty());
    }
    let counts = vec![
        candidates.len() as u64,
        classes.len() as u64,
        explored,
        pruned,
        findings,
    ];
    (counts, cycles)
}

/// Runs the workload.
pub fn run(cfg: &Config, spans: &mut Spans) -> Result<WorkloadResult, String> {
    let (per_chip, plan) = if cfg.smoke {
        (
            1,
            Plan {
                passes: 2,
                setups: 1,
                seconds: 0.0,
                trace: cfg.trace,
            },
        )
    } else {
        let plan = Plan {
            passes: 25,
            setups: 10,
            seconds: cfg.seconds,
            trace: cfg.trace,
        };
        (SEEDS_PER_CHIP, plan)
    };
    // A fixed set of units, as `e_explore` sweeps them; the input seed
    // shuffles their order. (Seed-picked baselines would vary the work
    // itself: a unit's candidate count has a long tail.)
    let mut units: Vec<(usize, Option<u64>)> = (0..ALL_CHIPS.len())
        .flat_map(|c| std::iter::once((c, None)).chain((0..per_chip).map(move |s| (c, Some(s)))))
        .collect();
    shuffle(&mut harness::rng(cfg.seed, 0xe791), &mut units);

    let setup = || Ok(ALL_CHIPS.iter().map(FleetRunner::new).collect::<Vec<_>>());
    let (measured, mut runners) = harness::measure(&plan, spans, setup, |runners, sp| {
        let mut ops = Vec::with_capacity(units.len());
        match sp {
            None => {
                for &(c, seed) in &units {
                    let t0 = Instant::now();
                    let out = explore(&mut runners[c], seed, None);
                    let ns = t0.elapsed().as_nanos() as u64;
                    ops.push(Op {
                        ns,
                        counts: vec![
                            out.candidates as u64,
                            out.classes as u64,
                            out.explored as u64,
                            out.pruned as u64,
                            out.findings.len() as u64,
                        ],
                        layers: Vec::new(),
                        parts: Vec::new(),
                        failed: !out.findings.is_empty(),
                    });
                }
            }
            Some(spans) => {
                for (i, &(c, seed)) in units.iter().enumerate() {
                    spans.set_op(i);
                    let mark = spans.mark();
                    let root = spans.enter("explore.op");
                    let (counts, _) =
                        rebuild(&mut runners[c], seed, &mut Tracer(Some(&mut *spans)));
                    spans.exit(root);
                    ops.push(Op {
                        ns: spans.duration(root),
                        failed: counts[4] > 0,
                        counts,
                        layers: spans.self_times(mark),
                        parts: Vec::new(),
                    });
                }
            }
        }
        Ok(ops)
    })?;

    // The counting pass: one untraced rebuild per unit for the simulated
    // cycles; its counts must match `explore`'s.
    let t = &measured.untraced;
    let mut kcycles = Vec::with_capacity(units.len());
    for (i, &(c, seed)) in units.iter().enumerate() {
        let (counts, cycles) = rebuild(&mut runners[c], seed, &mut Tracer(None));
        if counts != t.counts[i] {
            return Err(format!(
                "determinism guard: rebuilt explore of unit {i} counted {counts:?}, explore counted {:?}",
                t.counts[i]
            ));
        }
        kcycles.push(cycles as f64 / 1e3);
    }

    let layers = measured.traced.as_ref();
    let layer = |name: &str| layers.map_or(0.0, |l| l.layer_mean_us(name));
    let candidates = t.count_sum(CANDIDATES) as f64;
    let executed = t.count_sum(EXECUTED) as f64;
    let n = t.ops().max(1) as f64;
    let per_layer = vec![
        ("explore.baseline_us", layer("explore.baseline")),
        ("explore.enumerate_us", layer("explore.enumerate")),
        ("explore.classes_us", layer("explore.classes")),
        ("explore.sched_run_us", layer("explore.sched_run")),
        ("explore.oracle_us", layer("explore.oracle")),
        ("explore.candidates_per_unit", candidates / n),
        ("explore.executed_per_unit", executed / n),
        ("explore.prune_ratio", candidates / executed.max(1.0)),
    ];
    let notes = vec![format!(
        "explore: {} ops ({} chips x (clean + seeds 0..{per_chip}), order from the seed), K = {} passes, \
         {candidates} candidates -> {executed} executed",
        t.ops(),
        ALL_CHIPS.len(),
        t.passes
    )];
    Ok(WorkloadResult {
        sim_kcycles_per_op: mean(kcycles),
        measured,
        per_layer,
        problems: Vec::new(),
        notes,
    })
}
