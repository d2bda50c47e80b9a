//! `fleet`: the serial fault-injection campaign exactly as `e_fleet` runs
//! it — `run_campaign_profiled(&ALL_CHIPS, seeds, 1, &[])`, every seed on
//! all seven chips with the commit cache warm and cold.
//!
//! An op is one `(chip, seed, cache mode)` run. Its latency is the sum of
//! the four phase clocks (restore, run, collect, validate) the program
//! itself reports in each `UnitOutcome`; the benchmark cannot put spans
//! inside the campaign call, so the fleet's layer times are the program's
//! clocks, not the benchmark's. Almost all the work is snapshot restore,
//! the kernel run loop, the MPU/PMP and memory model, the commit cache,
//! the trace ring and the streaming oracle; the explorer's analysis and
//! the verifier do no work here.

use std::time::Instant;

use tt_hw::commit_cache;
use tt_hw::platform::ALL_CHIPS;
use tt_kernel::campaign::{run_campaign_profiled, run_one, FleetRunner, UnitOutcome};
use tt_kernel::trace::TraceEvent;

use crate::harness::{self, median, Op, Plan};
use crate::spans::{Spans, Tracer};
use crate::{mean, Config, WorkloadResult};

/// Campaign seeds at the smallest; the input seed adds `0..SEED_SPREAD`.
const SEEDS: u64 = 1000;
const SEED_SPREAD: u64 = 64;

/// Indices into an op's exact counts.
const TRACE_LEN: usize = 0;
const FIRED: usize = 1;
const MIDRUN: usize = 3;
const RESTARTS: usize = 4;

fn op_of(o: &UnitOutcome, traced: bool) -> Op {
    let layers = if traced {
        vec![
            ("snapshot.restore", o.restore_ns),
            ("kernel.run", o.run_ns),
            ("campaign.collect", o.collect_ns),
            ("campaign.validate", o.validate_ns),
        ]
    } else {
        Vec::new()
    };
    Op {
        ns: o.restore_ns + o.run_ns + o.collect_ns + o.validate_ns,
        counts: vec![
            o.trace_len as u64,
            o.fired,
            o.failures.len() as u64,
            u64::from(o.midrun),
            u64::from(o.restarts),
            u64::from(o.recoveries),
        ],
        layers,
        parts: Vec::new(),
        failed: !o.failures.is_empty(),
    }
}

/// Event-kind tallies from one drained run.
#[derive(Default)]
struct Kinds {
    syscalls: u64,
    switches: u64,
    mpu_commits: u64,
    reg_writes: u64,
    bus_faults: u64,
}

impl Kinds {
    fn add(&mut self, events: &[TraceEvent]) {
        for e in events {
            match e {
                TraceEvent::SyscallEnter { .. } => self.syscalls += 1,
                TraceEvent::ContextSwitch { .. } => self.switches += 1,
                TraceEvent::MpuCommit { .. } => self.mpu_commits += 1,
                TraceEvent::RegWrite { .. } => self.reg_writes += 1,
                TraceEvent::BusFault { .. } => self.bus_faults += 1,
                _ => {}
            }
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, spans: &mut Spans) -> Result<WorkloadResult, String> {
    let (seeds, plan) = if cfg.smoke {
        (
            2,
            Plan {
                passes: 2,
                setups: 1,
                seconds: 0.0,
                trace: cfg.trace,
            },
        )
    } else {
        let plan = Plan {
            passes: 20,
            setups: 10,
            seconds: cfg.seconds,
            trace: cfg.trace,
        };
        (SEEDS + cfg.seed % SEED_SPREAD, plan)
    };

    // Set-up: the seven fresh-boot references and the fourteen runner
    // boots with their snapshot captures, all through public calls. (The
    // campaign call repeats this work inside each pass, outside the op
    // clocks; the set-up's runners serve the counting pass.)
    let mut reference_ms = Vec::new();
    let setup = || {
        let t0 = Instant::now();
        for chip in &ALL_CHIPS {
            tt_hw::trace::recycle(run_one(chip, None).trace);
        }
        reference_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let runners: Vec<FleetRunner> = ALL_CHIPS
            .iter()
            .flat_map(|chip| {
                [
                    FleetRunner::new(chip),
                    commit_cache::with_disabled(|| FleetRunner::new(chip)),
                ]
            })
            .collect();
        Ok(runners)
    };

    let mut capture_ms = Vec::new();
    let mut units = Vec::new();
    let mut problems = Vec::new();
    let (measured, mut runners) = harness::measure(&plan, spans, setup, |_, sp| {
        let traced = sp.is_some();
        let mut tracer = Tracer(sp);
        let id = tracer.enter("fleet.campaign");
        let result = run_campaign_profiled(&ALL_CHIPS, seeds, 1, &[]);
        tracer.exit(id);
        capture_ms.push(result.capture_ns as f64 / 1e6);
        let unit_failures: usize = result.outcomes.iter().map(|o| o.failures.len()).sum();
        let report_failures: usize = result.reports.iter().map(|r| r.failures.len()).sum();
        if report_failures != unit_failures && problems.is_empty() {
            problems.push(format!(
                "campaign references failed the oracle: {:?}",
                result
                    .reports
                    .iter()
                    .flat_map(|r| &r.failures)
                    .take(3)
                    .collect::<Vec<_>>()
            ));
        }
        units = result
            .outcomes
            .iter()
            .map(|o| (o.chip, o.seed, o.cold))
            .collect();
        Ok(result.outcomes.iter().map(|o| op_of(o, traced)).collect())
    })?;

    // The counting pass: one drained `run_seed` per unit, on the runners
    // the set-up booted. It must reproduce each op's trace length and
    // fired count exactly; it yields the simulated cycles and the event
    // kinds the campaign's in-place oracle never materializes.
    let t = &measured.untraced;
    let mut kinds = Kinds::default();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut kcycles = Vec::with_capacity(units.len());
    for (i, &(chip, seed, cold)) in units.iter().enumerate() {
        spans.set_op(i);
        let id = if cfg.trace {
            spans.enter("fleet.count_run")
        } else {
            0
        };
        let runner = &mut runners[chip * 2 + usize::from(cold)];
        let record = if cold {
            commit_cache::with_disabled(|| runner.run_seed(Some(seed)))
        } else {
            runner.run_seed(Some(seed))
        };
        kcycles.push(tt_hw::cycles::now() as f64 / 1e3);
        if cfg.trace {
            spans.exit(id);
        }
        let len = record.trace.events.len() as u64;
        if record.trace.dropped != 0
            || len != t.counts[i][TRACE_LEN]
            || record.fired != t.counts[i][FIRED]
        {
            return Err(format!(
                "determinism guard: unit {chip}/{seed}/{} drained {len} events ({} dropped, {} fired), the campaign op counted {:?}",
                if cold { "cold" } else { "warm" },
                record.trace.dropped,
                record.fired,
                t.counts[i]
            ));
        }
        kinds.add(&record.trace.events);
        if !cold {
            hits += record.cache_hits;
            misses += record.cache_misses;
        }
        tt_hw::trace::recycle(record.trace);
    }

    let n = t.ops().max(1) as f64;
    let layers = measured.traced.as_ref();
    let layer = |name: &str| layers.map_or(0.0, |l| l.layer_mean_us(name));
    let per_layer = vec![
        ("snapshot.restore_us", layer("snapshot.restore")),
        ("kernel.run_us", layer("kernel.run")),
        ("campaign.collect_us", layer("campaign.collect")),
        ("campaign.validate_us", layer("campaign.validate")),
        ("snapshot.midrun_share", t.count_mean(MIDRUN)),
        ("trace.events_per_run", t.count_mean(TRACE_LEN)),
        ("kernel.syscalls_per_run", kinds.syscalls as f64 / n),
        ("kernel.switches_per_run", kinds.switches as f64 / n),
        ("kernel.mpu_commits_per_run", kinds.mpu_commits as f64 / n),
        ("hw.reg_writes_per_run", kinds.reg_writes as f64 / n),
        ("hw.bus_faults_per_run", kinds.bus_faults as f64 / n),
        (
            "commit_cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("setup.reference_ms", median(&reference_ms)),
        ("setup.capture_ms", median(&capture_ms)),
        ("injection.fired_per_run", t.count_mean(FIRED)),
        ("recovery.restarts_per_run", t.count_mean(RESTARTS)),
    ];
    let notes = vec![format!(
        "fleet: {} ops ({seeds} seeds x {} chips x warm/cold), K = {} passes; op latency = \
         restore+run+collect+validate phase clocks reported by the program",
        t.ops(),
        ALL_CHIPS.len(),
        t.passes
    )];
    Ok(WorkloadResult {
        sim_kcycles_per_op: mean(kcycles),
        measured,
        per_layer,
        problems,
        notes,
    })
}
