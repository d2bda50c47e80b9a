//! Systematic interrupt-interleaving exploration with DPOR-style
//! pruning.
//!
//! The fault campaign perturbs *what* the kernel computes (seeded
//! bit-flips and forced faults); this module perturbs *when* the timer
//! interrupt arrives. A baseline run's trace identifies every kernel
//! boundary the simulated SysTick could cut — syscall entry and exit,
//! the MPU stage→commit window, the scheduler's post-commit decision
//! point — and each candidate arrival becomes a replayable
//! [`InterruptSchedule`] executed deterministically from the
//! [`FleetRunner`]'s snapshots. Every surviving schedule is checked by
//! the campaign's own oracle ([`validate_scheduled`]): zero contract
//! violations, bystander [`TraceScope::Observable`] streams
//! byte-identical to the uninterrupted reference, convergence within the
//! restart cap, and — for a run in which nothing fired — an exact replay
//! of the reference.
//!
//! # Candidate enumeration
//!
//! The arrival-point engine ([`tt_hw::sched`]) counts *occurrences* of
//! each [`ArrivalPoint`] as the kernel passes its hooks. Enumeration
//! recovers those occurrence numbers from the baseline trace, which
//! works because each hook maps 1:1 onto a trace event in run-path code
//! (verified by the campaign's fresh-vs-restored equivalence tests):
//!
//! - `SyscallEnter` hooks fire right *after* their event is recorded —
//!   the k-th post-boot `SyscallEnter` event is occurrence k, and an
//!   ISR there would insert its events at the next index.
//! - `SyscallExit` hooks fire right *before* their event — occurrence k
//!   inserts at the k-th `SyscallExit` event's own index.
//! - The `MpuCommit` hook fires inside `Kernel::commit_mpu`, before
//!   the commit records its event; `setup_mpu` and `rearm_mpu` are the
//!   only run-path emitters of `MpuCommit` events and both sit behind
//!   `commit_mpu`, so events and hook occurrences stay 1:1 even across
//!   restarts (the ISR's own `restore_mpu_after_irq` is deliberately
//!   event-silent).
//! - The `SchedulerDecision` hook fires once per context-switch-in,
//!   after the slice's commit; its insertion point is past the
//!   `MpuCommit`/`RegWrite`/`AllocatorCommit` burst that follows the
//!   `ContextSwitch{In}` event.
//!
//! Boot passes no hooks, so occurrence 0 of every point starts at trace
//! index [`FleetRunner::boot_events`]. Enumeration requires the drained
//! trace to be complete (the campaign ring holds 65 536 events against
//! typical runs of a few thousand; a wrapped ring would misnumber
//! occurrences).
//!
//! # DPOR-style pruning
//!
//! Exploring every candidate reruns the machine once per boundary. Most
//! neighbouring boundaries are *independent*: firing the ISR at either
//! side of a bystander's `print` cannot produce different oracle
//! verdicts, because nothing the ISR reads or writes overlaps with what
//! happened in between. Candidates are therefore grouped into *commuting
//! classes* — maximal consecutive runs in which each adjacent pair
//! commutes — and only the first member of each class is executed.
//!
//! Two adjacent candidates commute when, conservatively, all of:
//!
//! 1. every baseline event between their insertion points is a
//!    `SyscallEnter`/`SyscallExit` (context switches, MPU/allocator
//!    commits, register writes, faults, restarts, upcalls and recovery
//!    steps are barriers);
//! 2. no event in that segment belongs to a pid whose syscalls share
//!    state with the ISR ([`isr_pids`]: processes with live alarm
//!    interest — the scheduled run replays the baseline exactly until
//!    its single arrival, so the baseline bounds the ISR's footprint;
//!    fault/restart pids need no mask because every event that opens or
//!    closes a pending respawn, and every tick boundary, is already a
//!    rule-1 barrier, making the ISR's restart decision
//!    position-invariant inside a commutable segment);
//! 3. neither anchoring syscall is alarm-related (`command`/`subscribe`
//!    on the alarm driver re-arms state the ISR's `fire_due_alarms`
//!    reads), and neither candidate is an `MpuCommit` arrival:
//!    the definition of that point is that the ISR skips its MPU-restore
//!    epilogue because an unconditional commit follows, so its effect
//!    overlaps the commit boundary's own staged/hardware MPU state and
//!    it commutes with nothing. Every `MpuCommit` candidate is explored.
//!
//! Conditions 1–2 compose across a class (adjacent segments union to the
//! representative-to-member segment), so a member's run differs from its
//! representative's only by sliding the ISR across events whose pids the
//! ISR provably does not touch — per-pid observable streams, contract
//! verdicts and terminal states are identical (property-tested in this
//! module). Pruned counts are reported, never silently dropped.

use crate::campaign::{
    boot_campaign_kernel, check_run, FleetRunner, Label, Reference, RunRecord, BYSTANDERS, VICTIM,
};
use crate::capsules::driver;
use crate::kernel::{App, Kernel, Step};
use crate::shrink::shrink_schedule;
use crate::trace::{event_pid, normalize_for_pid, SwitchDir, SyscallKind, TraceEvent, TraceScope};
use tt_contracts::obligation::{CheckResult, Registry};
use tt_contracts::ContractKind;
use tt_hw::injection::InjectionPlan;
use tt_hw::platform::ChipProfile;
use tt_hw::sched::{ArrivalPoint, InterruptSchedule};

/// One place the simulated timer interrupt could arrive in a baseline
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The kernel boundary.
    pub point: ArrivalPoint,
    /// The boundary's occurrence number — what
    /// [`InterruptSchedule::single`] takes.
    pub occurrence: u32,
    /// Baseline trace index where the ISR's events would insert.
    pub pos: usize,
    /// Whether the anchoring syscall re-arms alarm state (commute
    /// barrier — the ISR reads it).
    alarm_anchor: bool,
}

impl Candidate {
    /// The single-arrival schedule that fires the ISR here.
    pub fn schedule(&self) -> InterruptSchedule {
        InterruptSchedule::single(self.point, self.occurrence)
    }
}

/// Pids whose *ordinary syscalls* share state with the ISR, as a
/// bitmask: processes with alarm interest. Their `command`/`subscribe`
/// calls read and re-arm the due-time state the ISR's alarm delivery
/// consumes, so sliding the ISR across one can change a return value.
///
/// Fault/restart pids deliberately do **not** appear here. The ISR does
/// touch them — it front-runs due restarts and delivers kills — but only
/// while a respawn is *pending*, and a pending respawn can neither begin
/// nor end inside a commutable segment: every event that opens or closes
/// one (`BusFault`, `FaultInjected`, `ProcessFault`, `ProcessRestart`,
/// `ProcessKill`, `Recovery`) is already a barrier under the
/// segment-content rule, as is every tick boundary (context switches and
/// commits). Within a barrier-free span the pending-respawn state and
/// the tick count are constant, so the ISR's restart decision is
/// position-invariant there — a process making ordinary syscalls in the
/// span is alive, not awaiting restart.
///
/// Alarm interest shortcut: alarm delivery requires a subscription, so a
/// baseline with no `subscribe(ALARM)` makes the delivery half of the
/// ISR provably inert — the mask is empty. Otherwise every pid that
/// commands *or* subscribes the alarm driver is included.
pub fn isr_pids(events: &[TraceEvent]) -> u32 {
    let mut alarm = 0u32;
    let mut subscribed = false;
    for ev in events {
        if let TraceEvent::SyscallEnter {
            pid, call, arg0, ..
        } = *ev
        {
            if matches!(call, SyscallKind::Command | SyscallKind::Subscribe)
                && arg0 as usize == driver::ALARM
            {
                alarm |= 1 << pid.min(31);
                subscribed |= call == SyscallKind::Subscribe;
            }
        }
    }
    if subscribed {
        alarm
    } else {
        0
    }
}

/// Enumerates every candidate arrival in `events[start..]`, in execution
/// order of the hooks. `start` is the boot prefix length
/// ([`FleetRunner::boot_events`]) — boot passes no hooks.
pub fn enumerate_candidates(events: &[TraceEvent], start: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut occ = [0u32; 4];
    let mut counted = |slot: usize| {
        let o = occ[slot];
        occ[slot] += 1;
        o
    };
    // Last un-exited syscall per pid, for exit anchors' alarm check
    // (syscalls never nest per pid).
    let mut pending_alarm = [false; 32];
    for (idx, ev) in events.iter().enumerate().skip(start) {
        match *ev {
            TraceEvent::SyscallEnter {
                pid, call, arg0, ..
            } => {
                let alarm = matches!(call, SyscallKind::Command | SyscallKind::Subscribe)
                    && arg0 as usize == driver::ALARM;
                pending_alarm[pid.min(31) as usize] = alarm;
                out.push(Candidate {
                    point: ArrivalPoint::SyscallEnter,
                    occurrence: counted(0),
                    // The hook fires after the event is recorded.
                    pos: idx + 1,
                    alarm_anchor: alarm,
                });
            }
            TraceEvent::SyscallExit { pid, .. } => out.push(Candidate {
                point: ArrivalPoint::SyscallExit,
                occurrence: counted(1),
                // The hook fires before the event is recorded.
                pos: idx,
                alarm_anchor: pending_alarm[pid.min(31) as usize],
            }),
            TraceEvent::MpuCommit { .. } => out.push(Candidate {
                point: ArrivalPoint::MpuCommit,
                occurrence: counted(2),
                // The hook fires inside the commit window, before the
                // commit records its event.
                pos: idx,
                alarm_anchor: false,
            }),
            TraceEvent::ContextSwitch {
                dir: SwitchDir::In, ..
            } => {
                // The hook fires after the slice's commit burst.
                let mut pos = idx + 1;
                while matches!(
                    events.get(pos),
                    Some(
                        TraceEvent::MpuCommit { .. }
                            | TraceEvent::RegWrite { .. }
                            | TraceEvent::AllocatorCommit { .. }
                    )
                ) {
                    pos += 1;
                }
                out.push(Candidate {
                    point: ArrivalPoint::SchedulerDecision,
                    occurrence: counted(3),
                    pos,
                    alarm_anchor: false,
                });
            }
            _ => {}
        }
    }
    out
}

/// Whether the segment `events[from..to)` is a pure syscall-event run
/// touching no ISR-footprint pid — commute conditions 1 and 2.
fn segment_commutes(events: &[TraceEvent], from: usize, to: usize, isr: u32) -> bool {
    events[from..to].iter().all(|ev| {
        matches!(
            ev,
            TraceEvent::SyscallEnter { .. } | TraceEvent::SyscallExit { .. }
        ) && event_pid(ev).is_none_or(|pid| isr & (1 << pid.min(31)) == 0)
    })
}

/// Whether `next` extends the commuting class whose last member is
/// `last`.
fn can_merge(events: &[TraceEvent], isr: u32, last: &Candidate, next: &Candidate) -> bool {
    last.point != ArrivalPoint::MpuCommit
        && next.point != ArrivalPoint::MpuCommit
        && !last.alarm_anchor
        && !next.alarm_anchor
        && last.pos <= next.pos
        && segment_commutes(events, last.pos, next.pos, isr)
}

/// Groups candidates (in execution order) into maximal commuting
/// classes. Each class's first member is the representative the
/// explorer runs; the rest are pruned.
pub fn commuting_classes(events: &[TraceEvent], candidates: &[Candidate]) -> Vec<Vec<Candidate>> {
    let isr = isr_pids(events);
    let mut classes: Vec<Vec<Candidate>> = Vec::new();
    for c in candidates {
        match classes.last_mut() {
            Some(class) if can_merge(events, isr, class.last().expect("non-empty class"), c) => {
                class.push(*c);
            }
            _ => classes.push(vec![*c]),
        }
    }
    classes
}

/// One schedule the oracle rejected.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The representative schedule that first exposed the failure.
    pub schedule: u64,
    /// Its 1-minimal shrink ([`shrink_schedule`]) — the one-line repro.
    pub minimized: u64,
    /// Arrivals that fired in the failing run.
    pub irq_fired: u64,
    /// Rendered oracle failures.
    pub failures: Vec<String>,
}

/// What one exploration of one `(chip, seed)` pair covered and found.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Chip explored.
    pub chip: String,
    /// Injection seed riding along (`None` = clean baseline).
    pub seed: Option<u64>,
    /// Candidate arrivals enumerated from the baseline trace.
    pub candidates: usize,
    /// Commuting classes formed.
    pub classes: usize,
    /// Representatives actually executed.
    pub explored: usize,
    /// Candidates skipped as commuting with an explored representative.
    pub pruned: usize,
    /// Whether a caller-imposed cap stopped exploration before every
    /// class ran (pruned still counts only skipped class members).
    pub truncated: bool,
    /// Schedules the oracle rejected.
    pub findings: Vec<Finding>,
}

impl ExploreOutcome {
    /// Enumerated candidates per executed run — the DPOR win. 1.0 means
    /// no pruning; meaningless (and 0) before anything ran.
    pub fn prune_ratio(&self) -> f64 {
        if self.explored == 0 {
            0.0
        } else {
            self.candidates as f64 / self.explored as f64
        }
    }
}

/// Checks one drained scheduled run with the campaign's oracle, its
/// failure lines labelled `schedule 0x…`. Empty result = the schedule
/// survived.
///
/// The victim's own observable stream is compared only when neither an
/// injection nor the arrival fired: front-running timer work
/// legitimately shifts when the victim restarts. Bystanders must be
/// untouched, contracts must hold everywhere, and everything must still
/// converge.
pub fn validate_scheduled(
    chip: &ChipProfile,
    run: &RunRecord,
    schedule: u64,
    reference: &Reference,
) -> Vec<String> {
    check_run(
        chip,
        Label::Schedule(schedule),
        run,
        &reference.walk_record(run),
    )
}

/// The oracle [`Reference`] of a drained, uninterrupted run: its raw
/// trace plus the whole and per-bystander observable streams.
pub fn bystander_reference(run: &RunRecord) -> Reference {
    Reference::new(run.trace.events.clone())
}

/// Explores every interrupt-arrival class of `(runner's scenario,
/// seed)`: runs the baseline, enumerates candidates, prunes commuting
/// classes, executes one representative per class through the
/// snapshot/restore machinery, and oracle-checks each. Failing
/// schedules are shrunk to 1-minimal repros.
///
/// `cap` bounds the number of representatives executed (wall-clock
/// budget for CI); hitting it sets [`ExploreOutcome::truncated`].
pub fn explore(runner: &mut FleetRunner, seed: Option<u64>, cap: Option<usize>) -> ExploreOutcome {
    let chip = *runner.chip();
    let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
    let baseline = runner.run_plan(plan.clone());
    // The oracle reference is always the uninjected, uninterrupted run.
    let reference = if seed.is_some() {
        bystander_reference(&runner.run_plan(None))
    } else {
        bystander_reference(&baseline)
    };
    let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
    let classes = commuting_classes(&baseline.trace.events, &candidates);
    let mut outcome = ExploreOutcome {
        chip: chip.name.to_string(),
        seed,
        candidates: candidates.len(),
        classes: classes.len(),
        explored: 0,
        pruned: 0,
        truncated: false,
        findings: Vec::new(),
    };
    for class in &classes {
        if cap.is_some_and(|c| outcome.explored >= c) {
            outcome.truncated = true;
            break;
        }
        let representative = class[0];
        outcome.explored += 1;
        outcome.pruned += class.len() - 1;
        let schedule = representative.schedule();
        let run = runner.run_scheduled(plan.clone(), &schedule);
        let failures = validate_scheduled(&chip, &run, schedule.id(), &reference);
        if failures.is_empty() {
            continue;
        }
        let minimized = shrink_schedule(&schedule, |s| {
            let rerun = runner.run_scheduled(plan.clone(), s);
            !validate_scheduled(&chip, &rerun, s.id(), &reference).is_empty()
        });
        outcome.findings.push(Finding {
            schedule: schedule.id(),
            minimized: minimized.id(),
            irq_fired: run.irq_fired,
            failures,
        });
    }
    outcome
}

// ---------------------------------------------------------------------
// The pruning-soundness obligation.
// ---------------------------------------------------------------------

/// The Fig. 10/12 component name for the explorer's obligation.
pub const COMPONENT: &str = "Kernel (Schedule Explorer)";

/// Registers the DPOR pruning-soundness obligation: for clean and
/// injected baselines, a pruned class member's run must be identical to
/// its representative's on the oracle surface — per-pid observable
/// streams (victim included), contract verdicts, terminal states.
/// `density` sets how many multi-member classes are discharged per
/// baseline (first/last member pairs — the widest slide in each class).
pub fn register_obligations(registry: &mut Registry, density: usize) {
    registry.add_fn(
        COMPONENT,
        "explore::commuting_classes",
        ContractKind::Invariant,
        move || {
            let mut cases = 0u64;
            for seed in [None, Some(13u64)] {
                let mut runner = FleetRunner::new(&tt_hw::platform::NRF52840DK);
                let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
                let baseline = runner.run_plan(plan.clone());
                let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
                let classes = commuting_classes(&baseline.trace.events, &candidates);
                for class in classes.iter().filter(|c| c.len() > 1).take(density.max(1)) {
                    let member = class.last().expect("multi-member class");
                    let rep = runner.run_scheduled(plan.clone(), &class[0].schedule());
                    let run = runner.run_scheduled(plan.clone(), &member.schedule());
                    for pid in 0..=BYSTANDERS as u32 {
                        let got = normalize_for_pid(&run.trace.events, TraceScope::Observable, pid);
                        let want =
                            normalize_for_pid(&rep.trace.events, TraceScope::Observable, pid);
                        if got != want {
                            return CheckResult::Refuted {
                                counterexample: format!(
                                    "seed {seed:?}: pid {pid} observable stream diverged between \
                                     representative {:?} and pruned member {:?}",
                                    class[0], member
                                ),
                            };
                        }
                    }
                    if run.violations != rep.violations || run.states != rep.states {
                        return CheckResult::Refuted {
                            counterexample: format!(
                                "seed {seed:?}: oracle surface diverged between representative \
                                 {:?} and pruned member {:?}",
                                class[0], member
                            ),
                        };
                    }
                    cases += 1;
                }
            }
            CheckResult::Verified { cases }
        },
    );
}

// ---------------------------------------------------------------------
// The planted commit-window bug scenario.
// ---------------------------------------------------------------------

/// The planted-bug fixture the explorer's regression gate runs against:
/// the campaign kernel with [`Kernel::commit_window_bug`] set, and
/// workloads shaped so a bystander's elided MPU commit happens while the
/// victim's backoff restart is one tick from due. Without an interrupt
/// in the commit window the split verdict/action pair is equivalent to
/// the atomic commit — seed campaigns of any size stay green — but an
/// ISR arriving at exactly that `MpuCommit` occurrence front-runs the
/// restart, rewrites the register file, and the stale "hardware already
/// matches" verdict re-arms the victim's configuration under the
/// bystander.
pub mod planted {
    use super::*;
    use crate::kernel::AppFactory;

    /// Warmup syscalls before the victim faults (under one quantum, so
    /// the first fault lands in the second slice).
    const WARMUP: u32 = 4;

    /// A victim that faults every [`WARMUP`] steps: each life does a few
    /// syscalls, then writes one word below its memory block.
    #[derive(Clone)]
    struct WindowVictim {
        step_no: u32,
    }

    impl App for WindowVictim {
        fn name(&self) -> &'static str {
            "window-victim"
        }
        fn clone_app(&self) -> Option<Box<dyn App>> {
            Some(Box::new(self.clone()))
        }
        fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
            let ms = k.processes[pid].memory_start();
            let i = self.step_no;
            self.step_no += 1;
            if i < WARMUP {
                if i.is_multiple_of(2) {
                    let _ = k.sys_print(pid, "w\r\n");
                } else {
                    let _ = k.user_write_u32(pid, ms + 128, i);
                }
            } else {
                let _ = k.user_write_u32(pid, ms - 4, 0xDEAD_BEEF);
            }
            Step::Continue
        }
    }

    /// A bystander with an asymmetric step count: `steps` of
    /// print/write/read work, exiting early (short) or running solo
    /// slices through the victim's backoff windows (long).
    #[derive(Clone)]
    struct WindowBystander {
        id: u32,
        steps: u32,
        step_no: u32,
    }

    impl App for WindowBystander {
        fn name(&self) -> &'static str {
            "window-bystander"
        }
        fn clone_app(&self) -> Option<Box<dyn App>> {
            Some(Box::new(self.clone()))
        }
        fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
            let ms = k.processes[pid].memory_start();
            let i = self.step_no;
            self.step_no += 1;
            match i % 3 {
                0 => {
                    let _ = k.sys_print(pid, "s\r\n");
                }
                1 => {
                    let _ = k.user_write_u32(pid, ms + 512 + 4 * (i as usize % 8), i ^ self.id);
                }
                _ => {
                    let _ = k.user_read_u32(pid, ms + 512);
                }
            }
            if self.step_no >= self.steps {
                Step::Exit
            } else {
                Step::Continue
            }
        }
    }

    fn mk_victim() -> Box<dyn App> {
        Box::new(WindowVictim { step_no: 0 })
    }
    fn mk_long() -> Box<dyn App> {
        Box::new(WindowBystander {
            id: 1,
            steps: 48,
            step_no: 0,
        })
    }
    fn mk_short() -> Box<dyn App> {
        Box::new(WindowBystander {
            id: 2,
            steps: 4,
            step_no: 0,
        })
    }

    /// Workload factories, in pid order: faulting victim, long
    /// bystander, short bystander. The short one exits in its first
    /// slice so the long one's commits become consecutive (elidable)
    /// while the victim sits in backoff.
    pub const FACTORIES: [AppFactory; 3] = [mk_victim, mk_long, mk_short];

    /// The campaign kernel with the commit-window bug planted.
    pub fn boot_buggy(chip: &ChipProfile) -> Kernel {
        let mut k = boot_campaign_kernel(chip);
        k.commit_window_bug = true;
        k
    }

    /// The same scenario on a correct kernel — the control arm.
    pub fn boot_correct(chip: &ChipProfile) -> Kernel {
        boot_campaign_kernel(chip)
    }

    /// A [`FleetRunner`] over the planted-bug scenario.
    pub fn runner(chip: &ChipProfile) -> FleetRunner {
        FleetRunner::with_scenario(chip, boot_buggy, &FACTORIES)
    }

    /// A [`FleetRunner`] over the same workloads on a correct kernel.
    pub fn control_runner(chip: &ChipProfile) -> FleetRunner {
        FleetRunner::with_scenario(chip, boot_correct, &FACTORIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tt_hw::platform::NRF52840DK;

    #[test]
    fn candidate_enumeration_matches_engine_occurrence_counts() {
        // Arm each enumerated candidate's single-arrival schedule and
        // check the engine fires exactly once — the trace-derived
        // occurrence number names a hook pass the engine also counts.
        // Spot-check the first, last, and one middle candidate per
        // point (running all ~400 would re-verify the same mapping).
        let mut runner = FleetRunner::new(&NRF52840DK);
        let baseline = runner.run_plan(None);
        let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
        assert!(candidates.len() > 100, "got {}", candidates.len());
        for point in tt_hw::sched::ALL_ARRIVAL_POINTS {
            let of_point: Vec<&Candidate> =
                candidates.iter().filter(|c| c.point == point).collect();
            assert!(!of_point.is_empty(), "{point:?} never enumerated");
            for c in [
                of_point[0],
                of_point[of_point.len() / 2],
                of_point[of_point.len() - 1],
            ] {
                let run = runner.run_scheduled(None, &c.schedule());
                assert_eq!(run.irq_fired, 1, "{c:?} did not fire exactly once");
            }
        }
    }

    #[test]
    fn clean_campaign_explores_with_pruning_and_finds_nothing() {
        let mut runner = FleetRunner::new(&NRF52840DK);
        let outcome = explore(&mut runner, None, None);
        assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
        assert!(!outcome.truncated);
        assert_eq!(outcome.explored, outcome.classes);
        assert_eq!(outcome.pruned + outcome.explored, outcome.candidates);
        // The acceptance floor: DPOR pruning at least halves the runs.
        assert!(
            outcome.prune_ratio() >= 2.0,
            "prune ratio {:.2} ({} candidates / {} explored)",
            outcome.prune_ratio(),
            outcome.candidates,
            outcome.explored,
        );
    }

    #[test]
    fn explore_cap_truncates_and_reports_it() {
        let mut runner = FleetRunner::new(&NRF52840DK);
        let outcome = explore(&mut runner, None, Some(3));
        assert!(outcome.truncated);
        assert_eq!(outcome.explored, 3);
    }

    /// The planted commit-window bug: invisible to the seed campaign,
    /// found by the explorer, reproducible from the minimized schedule
    /// ID alone.
    #[test]
    fn planted_window_bug_is_missed_by_seeds_and_found_by_exploration() {
        let mut runner = planted::runner(&NRF52840DK);
        let reference = bystander_reference(&runner.run_plan(None));
        // The 75-seed fault campaign (the robustness gate's own budget)
        // never opens the window: without an interrupt inside commit_mpu
        // the split verdict/action pair acts atomically.
        for seed in 0..75 {
            let run = runner.run_seed(Some(seed));
            let failures = validate_scheduled(&NRF52840DK, &run, 0, &reference);
            assert!(failures.is_empty(), "seed {seed}: {failures:#?}");
        }
        // The explorer opens it.
        let outcome = explore(&mut runner, None, None);
        assert!(
            !outcome.findings.is_empty(),
            "explorer missed the planted bug: {outcome:#?}"
        );
        let finding = &outcome.findings[0];
        let minimized = InterruptSchedule::from_id(finding.minimized);
        assert_eq!(minimized.arrivals.len(), 1, "{minimized:?}");
        assert_eq!(minimized.arrivals[0].point, ArrivalPoint::MpuCommit);
        // Deterministic repro from the ID alone: two replays fail
        // identically.
        let a = runner.run_scheduled(None, &minimized);
        let b = runner.run_scheduled(None, &minimized);
        assert_eq!(a.trace.events, b.trace.events);
        assert_eq!(a.violations, b.violations);
        let failures = validate_scheduled(&NRF52840DK, &a, finding.minimized, &reference);
        assert!(!failures.is_empty());
        // Control arm: the same workloads on a correct kernel survive
        // the same schedule — the finding is the bug, not the harness.
        let mut control = planted::control_runner(&NRF52840DK);
        let control_reference = bystander_reference(&control.run_plan(None));
        let run = control.run_scheduled(None, &minimized);
        let failures = validate_scheduled(&NRF52840DK, &run, finding.minimized, &control_reference);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    /// The planted bug's minimized schedule (the one `e_explore`'s
    /// demonstration reports) replayed through the oracle: the finding
    /// names the diverging bystander and the event, and the control
    /// kernel survives the same schedule.
    #[test]
    fn planted_finding_names_the_bystander_and_the_event() {
        let minimized = InterruptSchedule::from_id(0x6005);
        let mut runner = planted::runner(&NRF52840DK);
        let reference = bystander_reference(&runner.run_plan(None));
        let run = runner.run_scheduled(None, &minimized);
        let failures = validate_scheduled(&NRF52840DK, &run, minimized.id(), &reference);
        assert_eq!(
            failures,
            [
                "nrf52840dk schedule 0x6005: bystander pid1 trace diverged at event #27: \
              reference `pid1 enter Print(0x3, 0x0, 0x0)` vs injected \
              `pid1 BUS FAULT read 0x00000000`; first injected fault: <no injection fired>"
            ]
        );
        let mut control = planted::control_runner(&NRF52840DK);
        let control_reference = bystander_reference(&control.run_plan(None));
        let run = control.run_scheduled(None, &minimized);
        let failures = validate_scheduled(&NRF52840DK, &run, minimized.id(), &control_reference);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn explored_schedules_replay_byte_identically_across_threads() {
        // The schedule ID is the whole input: replaying it on fresh
        // runners in other threads reproduces the run byte-for-byte.
        let mut runner = FleetRunner::new(&NRF52840DK);
        let baseline = runner.run_plan(None);
        let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
        let picks: Vec<u64> = [7usize, candidates.len() / 2, candidates.len() - 3]
            .iter()
            .map(|&i| candidates[i].schedule().id())
            .collect();
        let here: Vec<RunRecord> = picks
            .iter()
            .map(|&id| runner.run_scheduled(None, &InterruptSchedule::from_id(id)))
            .collect();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let picks = picks.clone();
                std::thread::spawn(move || {
                    let mut r = FleetRunner::new(&NRF52840DK);
                    picks
                        .iter()
                        .map(|&id| r.run_scheduled(None, &InterruptSchedule::from_id(id)))
                        .collect::<Vec<RunRecord>>()
                })
            })
            .collect();
        for h in handles {
            for (theirs, ours) in h.join().expect("replay thread").iter().zip(&here) {
                assert_eq!(theirs.trace.events, ours.trace.events);
                assert_eq!(theirs.violations, ours.violations);
                assert_eq!(theirs.states, ours.states);
                assert_eq!(theirs.irq_fired, ours.irq_fired);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Pruning soundness: any pruned candidate's run is identical to
        /// its representative's on the oracle surface — per-pid
        /// observable streams (victim included), violations, terminal
        /// states. Seeds make the baseline fault and restart, so the
        /// ISR's front-run work is live, not vacuous.
        #[test]
        fn pruned_schedules_match_their_representative(
            seed in prop_oneof![Just(None::<u64>), (0u64..200).prop_map(Some)],
            class_pick in 0usize..1 << 20,
            member_pick in 0usize..1 << 20,
        ) {
            let seed: Option<u64> = seed;
            let mut runner = FleetRunner::new(&NRF52840DK);
            let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
            let baseline = runner.run_plan(plan.clone());
            let candidates =
                enumerate_candidates(&baseline.trace.events, runner.boot_events());
            let classes = commuting_classes(&baseline.trace.events, &candidates);
            let multi: Vec<&Vec<Candidate>> =
                classes.iter().filter(|c| c.len() > 1).collect();
            if multi.is_empty() {
                return Ok(());
            }
            let class = multi[class_pick % multi.len()];
            let member = class[1 + member_pick % (class.len() - 1)];
            let rep = runner.run_scheduled(plan.clone(), &class[0].schedule());
            let run = runner.run_scheduled(plan, &member.schedule());
            for pid in 0..=BYSTANDERS as u32 {
                prop_assert_eq!(
                    normalize_for_pid(&run.trace.events, TraceScope::Observable, pid),
                    normalize_for_pid(&rep.trace.events, TraceScope::Observable, pid),
                    "pid {} diverged: rep {:?} vs member {:?}", pid, class[0], member
                );
            }
            prop_assert_eq!(&run.violations, &rep.violations);
            prop_assert_eq!(&run.states, &rep.states);
        }
    }
}
