//! The §6-style fault-injection campaign: isolation under fire.
//!
//! One campaign run boots a three-process TickTock kernel, arms a seeded
//! [`InjectionPlan`] against the *victim* (pid 0), and runs to
//! completion under the [`FaultPolicy::RestartWithBackoff`] recovery
//! policy. The two *bystander* processes never see an injection; the
//! oracle is that their
//! [`TraceScope::Observable`](crate::trace::TraceScope::Observable)
//! event streams are **byte-identical** to an uninjected reference run
//! of the same chip — faults stay contained to the process they were
//! injected into, no matter what the fault corrupted. The reference is
//! the clean run of the runner that made the run.
//!
//! Every run also checks that no contract site was violated (the runs
//! execute under [`Mode::Observe`] so violations are collected, not
//! panicked), and that recovery converged: bystanders exit, the victim
//! ends [`ProcessState::Exited`] or — restart cap exhausted —
//! [`ProcessState::Killed`], never a livelock.
//!
//! There is one way to run a unit and one oracle. Every fleet run —
//! campaign seed, shrink candidate, explorer schedule, corpus replay —
//! goes through the [`FleetRunner`]'s single run body, and every checked
//! one through one call, `FleetRunner::run_checked` (`run_timed` for a
//! campaign unit, the one caller that reports phase times): the run,
//! checked in place against the runner's own clean run, and its failure
//! lines from one check over one streaming walk ([`Reference`],
//! [`StreamVerdict`]).
//! The body has one loop over tick boundaries, which also captures the
//! runner's checkpoint ladders; every ladder lists its rungs from boot.
//! The fresh boot ([`run_one`]) stays the anchor: the restore-equivalence
//! gate holds each runner's clean run to it on every chip and cache mode.

use std::cell::OnceCell;
use std::rc::Rc;
use std::time::Instant;

use crate::capsules::driver;
use crate::corpus::CorpusRecord;
use crate::kernel::{restore_cloned, App, AppFactory, FaultPolicy, Kernel, Step};
use crate::ladder::{Capture, Finish, Join, Ladder};
use crate::loader::flash_app;
use crate::oracle::{check_run, unperturbed, Cut, Label, PrefixSkip, Shared, Suffix};
use crate::pool;
use crate::process::{Flavor, ProcessState};
use crate::shrink;
use crate::snapshot::Checkpoint;
use crate::trace::{Trace, TraceEvent};
use tt_contracts::{take_violations, with_mode, Mode};
use tt_hw::injection::{self, InjectionPlan};
use tt_hw::mem::{MemSnapshot, PageDelta};
use tt_hw::platform::ChipProfile;
use tt_hw::sched::{self, InterruptSchedule};
use tt_hw::trace;

pub use crate::oracle::{Reference, StreamVerdict};

/// Pid the injection plans target.
pub const VICTIM: usize = 0;
/// Number of bystander processes riding along.
pub const BYSTANDERS: usize = 2;

pub(crate) const TRACE_CAPACITY: usize = 65_536;
const MAX_TICKS: u64 = 400;
pub(crate) const MAX_RESTARTS: u32 = 5;
const BASE_DELAY: u64 = 2;
const MAX_DELAY: u64 = 16;

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/// The victim: a syscall-rich workload that exercises every injection
/// point — register commits (brk/sbrk re-stage regions), syscall
/// arguments, user-mode accesses, grant allocation.
#[derive(Clone)]
struct Victim {
    step_no: u32,
}

impl App for Victim {
    fn name(&self) -> &'static str {
        "victim"
    }
    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }
    fn state_word(&self) -> Option<u64> {
        Some(u64::from(self.step_no))
    }
    fn restore_into(&self, live: &mut Box<dyn App>) {
        restore_cloned(self, live);
    }
    fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
        let ms = k.processes[pid].memory_start();
        let i = self.step_no;
        self.step_no += 1;
        match i % 8 {
            0 => {
                let _ = k.sys_print(pid, "v\r\n");
            }
            1 => {
                let _ = k.sys_sbrk(pid, 64);
            }
            2 => {
                let _ = k.user_write_u32(pid, ms + 128, i);
            }
            3 => {
                let _ = k.sys_memop(pid, 1);
            }
            4 => {
                let _ = k.sys_allow_rw(pid, ms + 256, 16);
            }
            5 => {
                let _ = k.sys_command(pid, driver::ALARM, 1, 50);
            }
            6 => {
                let _ = k.user_read_u32(pid, ms + 128);
            }
            _ => {
                let _ = k.sys_sbrk(pid, -64);
            }
        }
        if self.step_no >= 64 {
            Step::Exit
        } else {
            Step::Continue
        }
    }
}

/// A bystander: deterministic work that never touches cycle-dependent
/// capsules (sensor/ADC) or alarms, so its observable trace depends only
/// on its own behaviour.
#[derive(Clone)]
struct Bystander {
    id: u32,
    step_no: u32,
}

impl App for Bystander {
    fn name(&self) -> &'static str {
        "bystander"
    }
    fn clone_app(&self) -> Option<Box<dyn App>> {
        Some(Box::new(self.clone()))
    }
    fn state_word(&self) -> Option<u64> {
        Some(u64::from(self.step_no))
    }
    fn restore_into(&self, live: &mut Box<dyn App>) {
        restore_cloned(self, live);
    }
    fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
        let ms = k.processes[pid].memory_start();
        let i = self.step_no;
        self.step_no += 1;
        match i % 4 {
            0 => {
                let _ = k.sys_print(pid, "b\r\n");
            }
            1 => {
                let _ = k.user_write_u32(pid, ms + 512 + 4 * (i as usize % 8), i ^ self.id);
            }
            2 => {
                let _ = k.sys_command(pid, driver::LED, 0, self.id);
            }
            _ => {
                let _ = k.user_read_u32(pid, ms + 512);
            }
        }
        if self.step_no >= 32 {
            Step::Exit
        } else {
            Step::Continue
        }
    }
}

fn mk_victim() -> Box<dyn App> {
    Box::new(Victim { step_no: 0 })
}
fn mk_bystander_1() -> Box<dyn App> {
    Box::new(Bystander { id: 1, step_no: 0 })
}
fn mk_bystander_2() -> Box<dyn App> {
    Box::new(Bystander { id: 2, step_no: 0 })
}

/// Restart factories for the three campaign workloads, in pid order.
pub(crate) const CAMPAIGN_FACTORIES: [AppFactory; 3] = [mk_victim, mk_bystander_1, mk_bystander_2];

/// Fresh program state for the three campaign workloads, in pid order.
fn campaign_apps() -> Vec<Box<dyn App>> {
    CAMPAIGN_FACTORIES.iter().map(|mk| mk()).collect()
}

// ---------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------

/// Outcome of one campaign run (injected or reference).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The seed, or `None` for the uninjected reference run.
    pub seed: Option<u64>,
    /// Number of injections that actually fired.
    pub fired: u64,
    /// Number of scheduled interrupt arrivals that fired (0 for runs
    /// without an armed [`InterruptSchedule`]).
    pub irq_fired: u64,
    /// Contract violations observed during the run (rendered).
    pub violations: Vec<String>,
    /// Terminal state per pid.
    pub states: Vec<ProcessState>,
    /// Victim restart count.
    pub restarts: u32,
    /// Victim recovery count.
    pub recoveries: u32,
    /// Cycles the kernel spent recovering the victim.
    pub recovery_cycles: u64,
    /// Commit-cache hits accumulated by the end of the run (boot
    /// included). Part of the restore-equivalence surface: a restored
    /// run must land on exactly the fresh-boot counters.
    pub cache_hits: u64,
    /// Commit-cache misses, likewise.
    pub cache_misses: u64,
    /// The full event trace. Empty when the run was checked in place
    /// ([`RunRecord::oracle`] is set): the ring is then cleared, never
    /// drained.
    pub trace: Trace,
    /// What the oracle's streaming walk found when the fleet run body
    /// checked this run in place against its runner's [`Reference`];
    /// `None` for runs whose trace was drained into [`RunRecord::trace`]
    /// instead.
    pub oracle: Option<StreamVerdict>,
}

/// The one restore-equivalence comparison: the first field in which a
/// fresh-boot record and a restored-machine record of the same unit
/// differ, rendered (`None` = identical in every field). The
/// destructuring below is exhaustive, so a new [`RunRecord`] field
/// cannot be left out of the comparison.
pub fn record_difference(fresh: &RunRecord, restored: &RunRecord) -> Option<String> {
    fn field<T: PartialEq + std::fmt::Debug>(name: &str, a: &T, b: &T) -> Option<String> {
        (a != b).then(|| format!("restored {name} differs: {a:?} vs {b:?}"))
    }
    let RunRecord {
        seed,
        fired,
        irq_fired,
        violations,
        states,
        restarts,
        recoveries,
        recovery_cycles,
        cache_hits,
        cache_misses,
        trace,
        oracle,
    } = fresh;
    if trace.events != restored.trace.events {
        let at = trace
            .events
            .iter()
            .zip(&restored.trace.events)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trace.events.len().min(restored.trace.events.len()));
        return Some(format!(
            "restored trace diverged at event #{at} ({} vs {} events)",
            trace.events.len(),
            restored.trace.events.len()
        ));
    }
    field("dropped count", &trace.dropped, &restored.trace.dropped)
        .or_else(|| field("seed", seed, &restored.seed))
        .or_else(|| field("fired count", fired, &restored.fired))
        .or_else(|| field("irq_fired count", irq_fired, &restored.irq_fired))
        .or_else(|| field("violations", violations, &restored.violations))
        .or_else(|| field("terminal states", states, &restored.states))
        .or_else(|| field("restarts", restarts, &restored.restarts))
        .or_else(|| field("recoveries", recoveries, &restored.recoveries))
        .or_else(|| {
            field(
                "recovery cycles",
                recovery_cycles,
                &restored.recovery_cycles,
            )
        })
        .or_else(|| field("commit-cache hits", cache_hits, &restored.cache_hits))
        .or_else(|| field("commit-cache misses", cache_misses, &restored.cache_misses))
        .or_else(|| field("oracle verdict", oracle, &restored.oracle))
}

/// Boots the campaign kernel on `chip`: TickTock flavour, backoff
/// restart policy, MPU scrub, three processes flashed and loaded. This
/// is the exact state the [`FleetRunner`]'s post-boot [`Checkpoint`]
/// freezes for the fleet path — [`run_one`] and [`FleetRunner`] share
/// it so a restored run has the same starting point as a fresh boot.
pub(crate) fn boot_campaign_kernel(chip: &ChipProfile) -> Kernel {
    let mut k = Kernel::boot(Flavor::Granular, chip);
    k.fault_policy = FaultPolicy::RestartWithBackoff {
        max_restarts: MAX_RESTARTS,
        base_delay: BASE_DELAY,
        max_delay: MAX_DELAY,
    };
    k.mpu_scrub = true;
    let base = chip.map.flash.start + 0x4_0000;
    for (slot, name) in [(0usize, "victim"), (1, "bys1"), (2, "bys2")] {
        let img = flash_app(&mut k.mem, base + slot * 0x1000, name, 0x1000, 3000, 1024)
            .expect("flash image");
        k.load_process(&img).expect("load process");
    }
    k
}

/// Drives the three campaign workloads to completion on a booted (or
/// restored) kernel.
fn run_apps(k: &mut Kernel) {
    let mut apps = campaign_apps();
    k.run_with_factories(&mut apps, Some(&CAMPAIGN_FACTORIES), MAX_TICKS);
}

/// Drains the per-run violation sink into a [`RunRecord`] after
/// `violations` — what the run's checkpoint prefix produced (empty for a
/// fresh boot). The caller supplies the trace: drained, or empty when
/// the run was checked in place.
fn collect_record(
    kernel: &Kernel,
    seed: Option<u64>,
    fired: u64,
    irq_fired: u64,
    mut violations: Vec<String>,
    trace: Trace,
) -> RunRecord {
    violations.extend(take_violations().iter().map(|v| format!("{v:?}")));
    RunRecord {
        seed,
        fired,
        irq_fired,
        violations,
        states: kernel.processes.iter().map(|p| p.state.clone()).collect(),
        restarts: kernel.restarts[VICTIM],
        recoveries: kernel.recoveries[VICTIM],
        recovery_cycles: kernel.recovery_cycles[VICTIM],
        cache_hits: kernel.machine.cache().hits(),
        cache_misses: kernel.machine.cache().misses(),
        trace,
        oracle: None,
    }
}

/// Executes one three-process run on `chip`, with the injection plan for
/// `seed` armed against the victim (or no plan for the reference run).
///
/// This is the fresh-boot path: every run pays a full [`Kernel::boot`]
/// plus three flash/load cycles. Fleet campaigns use [`FleetRunner`],
/// which boots once and restores a [`Checkpoint`] per run; the two
/// must produce byte-identical [`RunRecord`]s (the injection engine only
/// counts occurrences in the victim's context, and no process context
/// exists during boot, so arming before boot and arming after restore
/// see the same occurrence stream).
pub fn run_one(chip: &ChipProfile, seed: Option<u64>) -> RunRecord {
    run_one_scheduled(chip, seed, None)
}

/// [`run_one`] with an optional [`InterruptSchedule`] armed alongside
/// the injection plan — the fresh-boot anchor the scheduled fleet path
/// is tested against. Boot passes no arrival-point hooks, so arming
/// before boot (here) and arming after a post-boot restore
/// ([`FleetRunner`]) count boundary occurrences identically.
pub fn run_one_scheduled(
    chip: &ChipProfile,
    seed: Option<u64>,
    schedule: Option<&InterruptSchedule>,
) -> RunRecord {
    tt_hw::cycles::reset();
    trace::enable(TRACE_CAPACITY);
    if let Some(s) = seed {
        injection::arm(&InjectionPlan::from_seed(s, VICTIM as u32));
    }
    if let Some(s) = schedule {
        sched::arm(s);
    }
    let kernel = with_mode(Mode::Observe, || {
        let mut k = boot_campaign_kernel(chip);
        run_apps(&mut k);
        k
    });
    let fired = if seed.is_some() {
        injection::disarm()
    } else {
        0
    };
    let irq_fired = if schedule.is_some() {
        sched::disarm()
    } else {
        0
    };
    let drained = trace::take();
    trace::disable();
    collect_record(&kernel, seed, fired, irq_fired, Vec::new(), drained)
}

// ---------------------------------------------------------------------
// The fleet path: boot once, resume from a checkpoint ladder.
// ---------------------------------------------------------------------

/// Per-run wall-clock phase breakdown of the [`FleetRunner`] run body,
/// in nanoseconds, and the run's exact work counts. Timing never feeds
/// back into run behaviour or report text — it rides alongside the
/// (deterministic) [`RunRecord`] for the fleet profiler. Only the fleet
/// campaign unit clocks its phases (`FleetRunner::run_timed`); every
/// other run's times read zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPhases {
    /// Restoring the checkpoint (and arming the plan).
    pub restore_ns: u64,
    /// Executing the run body to completion.
    pub run_ns: u64,
    /// Draining the per-run sinks into the record.
    pub collect_ns: u64,
    /// The oracle: its in-place walk over the undrained ring and the
    /// rendering of its failure lines (zero for unchecked runs).
    pub oracle_ns: u64,
    /// Whether the run resumed past boot, from a ladder rung.
    pub midrun: bool,
    /// Trace events in the resumed rung's prefix: the part of the run
    /// that was not re-simulated.
    pub resumed_events: usize,
    /// Whether the run rejoined its baseline and took the rest of the
    /// run from the ladder ([`FleetRunner`] lists the rule).
    pub rejoined: bool,
    /// Whether it rejoined at an interrupt's return rather than at a
    /// rung.
    pub returned: bool,
    /// Trace events taken from the ladder after the run rejoined it: the
    /// part of the run past the rejoin point that was not simulated.
    pub rejoined_events: usize,
    /// Raw events the oracle's in-place pass/fail walk visited (zero for
    /// unchecked runs). A walk from event 0 visits
    /// [`StreamVerdict::events`]; this one skips the rung prefix the
    /// reference shares and, for a rejoined run whose cut held, the
    /// baseline suffix it took as clean. A slice compare counts every
    /// event; the failure path's divergence walks are not counted.
    pub walked: usize,
    /// Trace events copied into or out of the ring during the run
    /// ([`trace::copied`]): shared ladder parts copied into the ring's
    /// slots, and the drain of an unchecked run.
    pub copied: usize,
    /// Ticks simulated past the resumed rung.
    pub ticks: u64,
    /// Hooks that reached the injection engine during the run: the
    /// occurrences at which an injection was due
    /// ([`injection::engine_entries`]).
    pub engine_entries: u64,
}

/// Where the run body reads the host clock: the caller picks the clock,
/// so a run whose phase times nobody reads pays for no clock read.
pub(crate) trait Clock {
    /// A point in time as this clock reads it.
    type Mark: Copy;
    /// Reads the clock.
    fn now() -> Self::Mark;
    /// Nanoseconds from `from` to `to`.
    fn ns(from: Self::Mark, to: Self::Mark) -> u64;
}

/// The host's monotonic clock, one `Instant::now()` per read: the fleet
/// campaign unit's, five reads a run.
pub(crate) struct Wall;

#[cfg(test)]
thread_local! {
    /// [`Wall`] reads on this thread, for the clock-read count test.
    static WALL_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Clock for Wall {
    type Mark = Instant;

    fn now() -> Instant {
        #[cfg(test)]
        WALL_READS.with(|n| n.set(n.get() + 1));
        Instant::now()
    }

    fn ns(from: Instant, to: Instant) -> u64 {
        (to - from).as_nanos() as u64
    }
}

/// No clock: every mark is `()` and every span zero. The explorer, the
/// shrinker, corpus replay, the capture pass and the drained entry
/// points run on it.
pub(crate) struct Untimed;

impl Clock for Untimed {
    type Mark = ();

    fn now() {}

    fn ns((): (), (): ()) -> u64 {
        0
    }
}

/// What the run body does at each tick boundary it stops at.
enum AtBoundary {
    /// Nothing: the run goes to its end in one call.
    Nothing,
    /// Stop if the run has rejoined the baseline of the ladder it resumed
    /// along.
    Rejoin,
    /// Capture a rung: the capture pass.
    Capture(Capture),
}

/// A reusable campaign machine for one chip: boots once and replays any
/// number of runs by restoring a checkpoint instead of re-booting.
///
/// The runner keeps **checkpoint ladders** ([`Checkpoint`]s at tick
/// boundaries, each holding its RAM as page deltas against one
/// post-boot memory snapshot). Every ladder lists its rungs from boot,
/// rung `i` at tick `i`:
///
/// - the *clean ladder*, captured once, at construction, under the
///   empty counting plan: rung 0 is the post-boot state and one rung
///   follows per tick boundary of the clean run. A run resumes from the
///   latest clean rung before both its plan's first injection and its
///   schedule's first arrival ([`InjectionPlan::fires_within`],
///   [`InterruptSchedule::fires_within`]): up to there it is the clean
///   run.
/// - the *seeded ladder* of the last capture pass under an injection
///   plan P: the clean rungs up to the one the pass resumed from, shared
///   by `Rc`, then the pass's own. It serves runs under exactly P, up to
///   the schedule's first arrival.
///
/// The same ladders end scheduled runs early: a run under no plan (the
/// clean ladder's) or under P (the seeded ladder's) takes the rest of
/// the run from the ladder once its schedule is spent, from the end of
/// the app step in which its interrupt returned having changed nothing,
/// or else from the first tick boundary past its last arrival where the
/// machine equals the baseline's rung (`crate::ladder` lists the
/// conditions).
///
/// Every run goes through one private run body and one restore path.
/// The body's one loop over tick boundaries does one of three things at
/// each boundary: nothing (a campaign run, which goes to its end in one
/// call), the rejoin check (a scheduled run whose plan's ladder the
/// runner holds), or capture a rung (the capture pass behind
/// [`FleetRunner::capture_ladder`]). Every resumed run is byte-identical
/// to the run from boot (gated by the equivalence tests).
/// [`FleetRunner::run_plan`], [`FleetRunner::run_seed`] and
/// [`FleetRunner::run_scheduled`] are the body's drained-trace entry
/// points. The campaign, the corpus replay, the explorer and the
/// shrinkers check their runs in place through
/// `FleetRunner::run_checked`, against the runner's own clean run.
///
/// A runner is thread-affine (checkpoints hold `Rc` hardware handles
/// and replay into this thread's trace ring); fleet sweeps keep one per
/// `(chip, cache-mode)` per worker in a [`RunnerSlots`] cache. For
/// cold-cache runners, both [`FleetRunner::new`] and every run must
/// execute under `tt_hw::commit_cache::with_disabled` — the commit cache
/// changes which `RegWrite` events boot emits, so a cold run restored
/// from a warm boot checkpoint would diverge from a cold fresh boot.
pub struct FleetRunner {
    chip: ChipProfile,
    kernel: Kernel,
    /// Restart factories for the scenario's workloads, in pid order —
    /// also the source of each run's fresh program state.
    factories: &'static [AppFactory],
    /// Post-boot memory: the base of every rung's page delta.
    base: MemSnapshot,
    /// The clean ladder.
    clean: Rc<Ladder>,
    /// The seeded ladder, if a capture pass ran under a plan.
    seeded: Option<Rc<Ladder>>,
    /// The rung the live machine was last restored to.
    at: Rc<Checkpoint>,
    /// The programs of the last run, handed back when it ends so the
    /// next restore writes a rung's programs into them.
    apps: Vec<Box<dyn App>>,
    /// The oracle's reference: the clean ladder's trace, reduced on first
    /// use ([`FleetRunner::reference`]).
    reference: OnceCell<Reference>,
    /// Wall-clock nanoseconds spent booting and capturing the clean
    /// ladder, for the profiler's amortization line.
    capture_ns: u64,
}

impl FleetRunner {
    /// Boots the campaign kernel on `chip`, checkpoints the post-boot
    /// state, then runs the clean run to its end, checkpointing every
    /// tick boundary: the clean ladder. The boot executes under
    /// [`Mode::Observe`] with tracing enabled, exactly like [`run_one`]'s
    /// prelude.
    pub fn new(chip: &ChipProfile) -> Self {
        Self::with_scenario(chip, boot_campaign_kernel, &CAMPAIGN_FACTORIES)
    }

    /// [`FleetRunner::new`] over a custom scenario: `boot` builds the
    /// kernel (flavor, fault policy, knobs, processes flashed and
    /// loaded) and `factories` supply each pid's program, in pid order.
    /// The schedule explorer uses this to run planted-bug kernels and
    /// asymmetric workloads through the exact checkpoint machinery the
    /// campaign uses.
    pub fn with_scenario(
        chip: &ChipProfile,
        boot: fn(&ChipProfile) -> Kernel,
        factories: &'static [AppFactory],
    ) -> Self {
        let t0 = Instant::now();
        tt_hw::cycles::reset();
        let _ = injection::disarm();
        let _ = sched::disarm();
        trace::enable(TRACE_CAPACITY);
        let samples = tt_hw::cycles::samples();
        let mut kernel = with_mode(Mode::Observe, || boot(chip));
        assert_eq!(
            kernel.processes.len(),
            factories.len(),
            "one factory per loaded process"
        );
        let boot_trace = trace::take();
        assert_eq!(boot_trace.dropped, 0, "boot overflowed the trace ring");
        trace::disable();
        let base = kernel.mem.snapshot();
        let violations: Vec<String> = take_violations().iter().map(|v| format!("{v:?}")).collect();
        let len = boot_trace.events.len();
        let samples = tt_hw::cycles::samples() - samples;
        // The post-boot rung holds the fresh programs when they are
        // resumable, so a restore to it writes them into the live ones as
        // a restore to any other rung does; else each run starts its own.
        let fresh: Vec<Box<dyn App>> = factories.iter().map(|mk| mk()).collect();
        let capture = |apps: Option<&[Box<dyn App>]>| {
            let from = PageDelta::default();
            Checkpoint::capture(&kernel, &from, apps, violations.clone(), len, samples)
        };
        let boot_rung = capture(Some(&fresh[..]))
            .or_else(|| capture(None))
            .expect("fresh programs need no clone");
        let boot_rung = Rc::new(boot_rung);
        let boot_skip = PrefixSkip::default().advance(&boot_trace.events);
        let mut runner = Self {
            chip: *chip,
            kernel,
            factories,
            base,
            clean: Rc::new(Ladder {
                plan: None,
                trace: boot_trace.events.into(),
                rungs: vec![Rc::clone(&boot_rung)],
                skips: vec![boot_skip],
                shared: Shared::OWN,
                suffix: Suffix::OWN,
                finish: None,
            }),
            seeded: None,
            at: boot_rung,
            apps: Vec::new(),
            reference: OnceCell::new(),
            capture_ns: 0,
        };
        runner.capture(None);
        runner.capture_ns = t0.elapsed().as_nanos() as u64;
        runner
    }

    /// Raw events in the post-boot trace prefix — the offset from which
    /// a drained full-run trace starts counting arrival-point
    /// occurrences (boot passes no hooks, so event index `boot_events()`
    /// is boundary occurrence 0 for every point).
    pub fn boot_events(&self) -> usize {
        self.clean.rungs[0].trace_len
    }

    /// The chip this runner was booted for.
    pub fn chip(&self) -> &ChipProfile {
        &self.chip
    }

    /// Wall-clock nanoseconds this runner spent booting and capturing
    /// its clean ladder (amortized over every run it serves).
    pub fn capture_ns(&self) -> u64 {
        self.capture_ns
    }

    /// The reference every checked run is held to: the clean ladder's
    /// trace, which is the clean run's, reduced on first use.
    pub(crate) fn reference(&self) -> &Reference {
        self.reference
            .get_or_init(|| Reference::new(Rc::clone(&self.clean.trace)))
    }

    /// The ladder a run under `plan` and `schedule` resumes along — the
    /// seeded one when it was captured under exactly `plan`, else the
    /// clean one — and the latest of its rungs the run may resume from:
    /// before the schedule's first arrival and, on a ladder not captured
    /// under `plan`, before the plan's first injection. The post-boot
    /// rung always qualifies.
    fn pick(
        &self,
        plan: Option<&InjectionPlan>,
        schedule: Option<&InterruptSchedule>,
    ) -> (Rc<Ladder>, usize) {
        let own = self
            .seeded
            .as_ref()
            .filter(|l| plan.is_some() && l.plan.as_ref() == plan);
        let foreign = plan.filter(|_| own.is_none());
        let ladder = own.unwrap_or(&self.clean);
        let index = ladder.rungs.iter().rposition(|r| {
            foreign.is_none_or(|p| !p.fires_within(&r.injection.seen))
                && schedule.is_none_or(|s| !s.fires_within(&r.sched_seen))
        });
        (Rc::clone(ladder), index.expect("nothing fires before boot"))
    }

    /// The one restore path: rewinds the machine to `ladder`'s rung
    /// `index` from the rung the live state derives from, and returns
    /// the program state to resume with — the last run's programs, with
    /// the rung's written into them, or fresh ones at a rung that holds
    /// none. Memory moves every page dirtied since the last restore or
    /// held by either rung's delta. Callers hand the programs back in
    /// `self.apps` when the run ends.
    fn restore_to(&mut self, ladder: &Ladder, index: usize) -> Vec<Box<dyn App>> {
        let target = &ladder.rungs[index];
        let from = &self.at.mem;
        let mut apps = std::mem::take(&mut self.apps);
        let kernel = &mut self.kernel;
        if !target.restore(
            kernel,
            &self.base,
            from,
            &ladder.trace,
            TRACE_CAPACITY,
            &mut apps,
        ) {
            apps.clear();
            apps.extend(self.factories.iter().map(|mk| mk()));
        }
        self.at = Rc::clone(target);
        apps
    }

    /// The capture pass: `plan`'s run (`None` = clean) through the run
    /// body from the latest clean rung eligible for it, capturing a rung
    /// at every tick boundary the run loop reaches without ending on its
    /// own. Both engines are armed as in a run — the plan (or the empty
    /// counting plan) and an empty schedule, each trace-neutral until it
    /// fires — so the rungs carry the occurrence counts a resumed run
    /// replays. The clean pass runs once, at construction, and its ladder
    /// replaces the post-boot one; a pass under a plan replaces the
    /// seeded ladder. Returns the pass's drained record, identical to
    /// [`FleetRunner::run_plan`]'s, the new ladder's height, and the
    /// nanoseconds spent capturing.
    fn capture(&mut self, plan: Option<InjectionPlan>) -> (RunRecord, usize, u64) {
        // The pass resumes along the clean ladder, whatever it replaces.
        self.seeded = None;
        let (record, _, pass, _) = self.body::<Untimed>(plan.as_ref(), None, false, true);
        let pass = pass.expect("a capture pass captures");
        let trace: Rc<[TraceEvent]> = record.trace.events.as_slice().into();
        let (mut skip, mut covered) = (PrefixSkip::default(), 0);
        let skips = pass
            .rungs
            .iter()
            .map(|rung| {
                skip = skip.advance(&trace[covered..rung.trace_len]);
                covered = rung.trace_len;
                skip
            })
            .collect();
        let finish = Finish {
            record: RunRecord {
                violations: record.violations.clone(),
                states: record.states.clone(),
                trace: Trace::default(),
                oracle: None,
                ..record
            },
            cycles: tt_hw::cycles::now(),
            samples: pass.samples(),
        };
        // The reference is the clean trace; a seeded one is compared once.
        let (shared, suffix) = match plan {
            None => (Shared::OWN, Suffix::OWN),
            Some(_) => {
                let reference = self.reference();
                (Shared::of(&trace, reference), Suffix::of(&trace, reference))
            }
        };
        let ladder = Rc::new(Ladder {
            plan,
            trace,
            rungs: pass.rungs,
            skips,
            shared,
            suffix,
            finish: Some(finish),
        });
        let height = ladder.rungs.len();
        match ladder.plan {
            None => self.clean = ladder,
            Some(_) => self.seeded = Some(ladder),
        }
        (record, height, pass.ns)
    }

    /// Runs `plan`'s baseline (`None` = the clean run) to completion
    /// and returns its drained record — identical to
    /// [`FleetRunner::run_plan`]'s — with the height of the ladder a run
    /// under `plan` resumes along (post-boot rung included) and the
    /// nanoseconds spent capturing rungs. Under a plan the run is a
    /// capture pass: it resumes from the latest clean rung before the
    /// plan's first injection, and its seeded ladder shares every clean
    /// rung up to there, then has a rung at every tick boundary the run
    /// passes; later runs under the same plan resume from the latest
    /// rung before their first interrupt arrival. The clean ladder was
    /// captured at construction, so the clean baseline is the clean run
    /// resumed from its top rung, and captures nothing.
    pub fn capture_ladder(&mut self, plan: Option<InjectionPlan>) -> (RunRecord, usize, u64) {
        match plan {
            Some(plan) => self.capture(Some(plan)),
            None => (self.run_plan(None), self.clean.rungs.len(), 0),
        }
    }

    /// Resumes the best eligible rung and executes one run with `plan`
    /// armed against the victim (or no plan for a reference-shaped run).
    /// The trace is drained into the record.
    pub fn run_plan(&mut self, plan: Option<InjectionPlan>) -> RunRecord {
        self.run(plan, None).0
    }

    /// [`FleetRunner::run_plan`] with the plan derived from `seed`
    /// (`None` = uninjected reference-shaped run).
    pub fn run_seed(&mut self, seed: Option<u64>) -> RunRecord {
        self.run_plan(seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32)))
    }

    /// [`FleetRunner::run_plan`] with an [`InterruptSchedule`] armed
    /// alongside the plan: each scheduled arrival fires the timer
    /// interrupt at its boundary occurrence. The returned record carries
    /// the arrival count in [`RunRecord::irq_fired`].
    pub fn run_scheduled(
        &mut self,
        plan: Option<InjectionPlan>,
        schedule: &InterruptSchedule,
    ) -> RunRecord {
        self.run(plan, Some(schedule)).0
    }

    /// The one checked run: `plan` and `schedule` through the run body,
    /// checked in place against [`FleetRunner::reference`]. Returns the
    /// record (its verdict in [`RunRecord::oracle`]), the phases and
    /// [`check_run`]'s failure lines labelled `label` (empty = passed).
    /// Untimed: the phases' wall times read zero.
    pub(crate) fn run_checked(
        &mut self,
        plan: Option<&InjectionPlan>,
        schedule: Option<&InterruptSchedule>,
        label: Label,
    ) -> (RunRecord, RunPhases, Vec<String>) {
        self.checked::<Untimed>(plan, schedule, label)
    }

    /// [`FleetRunner::run_checked`] with its phases clocked: the fleet
    /// campaign unit, which reports them ([`UnitOutcome`]).
    pub(crate) fn run_timed(
        &mut self,
        plan: Option<&InjectionPlan>,
        schedule: Option<&InterruptSchedule>,
        label: Label,
    ) -> (RunRecord, RunPhases, Vec<String>) {
        self.checked::<Wall>(plan, schedule, label)
    }

    /// The checked run on clock `C`. The validate phase runs from the end
    /// of the collect phase to the last failure line rendered.
    fn checked<C: Clock>(
        &mut self,
        plan: Option<&InjectionPlan>,
        schedule: Option<&InterruptSchedule>,
        label: Label,
    ) -> (RunRecord, RunPhases, Vec<String>) {
        let (run, mut phases, _, collected) = self.body::<C>(plan, schedule, true, false);
        let streams = run.oracle.as_ref().expect("the run body checked the run");
        let failures = check_run(&self.chip, label, &run, streams);
        phases.oracle_ns = C::ns(collected, C::now());
        (run, phases, failures)
    }

    /// The run body every unchecked fleet run goes through
    /// ([`FleetRunner::body`], its trace drained into the record),
    /// untimed.
    pub(crate) fn run(
        &mut self,
        plan: Option<InjectionPlan>,
        schedule: Option<&InterruptSchedule>,
    ) -> (RunRecord, RunPhases) {
        let (record, phases, _, _) = self.body::<Untimed>(plan.as_ref(), schedule, false, false);
        (record, phases)
    }

    /// The run body. Resumes the latest rung eligible for `plan` and
    /// `schedule` ([`FleetRunner::pick`]), arms both from the rung's
    /// progress (either may be absent), and runs to completion: in one
    /// call, or one tick at a time when it has something to do at each
    /// tick boundary ([`AtBoundary`]).
    ///
    /// - A scheduled run whose plan's ladder the runner holds stops, once
    ///   its schedule has nothing left to fire, where it has rejoined
    ///   that ladder's baseline — at the end of the app step in which an
    ///   interrupt that changed nothing returned ([`Ladder::arm`],
    ///   [`Join::at_return`]), or at the first tick boundary where the
    ///   machine equals the baseline's rung ([`Ladder::rejoin`]) — and
    ///   takes the rest of the run from there ([`Ladder::splice`]): the
    ///   baseline's trace suffix and violations, its terminal states and
    ///   counters, and its cycle count past the join.
    /// - A `capture` pass arms the counting plan (or its plan) and an
    ///   empty schedule, and captures a rung at every boundary; the
    ///   caller installs them ([`FleetRunner::capture`]).
    ///
    /// Unless `check` is set the trace is drained into the record. If it
    /// is, the oracle walks the undrained ring in place against the
    /// runner's reference — skipping the rung's prefix where the
    /// reference shares it ([`Ladder::skip`]) and a rejoined run's suffix
    /// where the baseline's is clean ([`Reference::walk`]) — the ring is
    /// cleared instead of drained, and the verdict rides in
    /// [`RunRecord::oracle`]. The rung's violations are prepended, so a
    /// resumed run reports exactly what the equivalent fresh run would.
    ///
    /// The ring shares the rung's prefix and a rejoined run's suffix
    /// with the ladder's trace instead of copying them
    /// ([`trace::share_prefix`], [`trace::share_suffix`]); a drained run
    /// copies them out at its drain.
    ///
    /// Arming copies the plan and the schedule into the engines' own
    /// storage, which allocates nothing in steady state.
    ///
    /// Clock `C` times the restore, run and collect phases with four
    /// reads and returns the last, the end of the collect phase (the
    /// rest of the run, a rejoined run's splice, counts as collect: a
    /// timed campaign run never rejoins). [`Untimed`] reads none.
    fn body<C: Clock>(
        &mut self,
        plan: Option<&InjectionPlan>,
        schedule: Option<&InterruptSchedule>,
        check: bool,
        capture: bool,
    ) -> (RunRecord, RunPhases, Option<Capture>, C::Mark) {
        let seed = plan.map(|p| p.seed);
        let copied = trace::copied();
        let entries = injection::engine_entries();
        let t0 = C::now();
        let (ladder, index) = self.pick(plan, schedule);
        let mut apps = self.restore_to(&ladder, index);
        let rung = &*ladder.rungs[index];
        // Only a scheduled run may rejoin its baseline; the campaign arms
        // no schedule and always runs to the end.
        let rejoins = schedule.is_some() && ladder.plan.as_ref() == plan;
        // A capture pass counts occurrences under the empty plan when it
        // has none, and at arrival points under the empty schedule.
        let counting = InjectionPlan {
            seed: 0,
            target_pid: VICTIM as u32,
            injections: Vec::new(),
        };
        let armed = plan.or(capture.then_some(&counting));
        if let Some(p) = armed {
            injection::resume(p, &rung.injection);
        }
        let empty = capture.then(InterruptSchedule::empty);
        let schedule = schedule.or(empty.as_ref());
        if let Some(s) = schedule {
            sched::arm_with_seen(s, rung.sched_seen);
        }
        let mut at_boundary = match (capture, rejoins) {
            (true, _) => AtBoundary::Capture(Capture {
                rungs: ladder.rungs[..=index].to_vec(),
                resumable: true,
                samples: (rung.samples, tt_hw::cycles::samples()),
                ns: 0,
            }),
            (false, true) => AtBoundary::Rejoin,
            (false, false) => AtBoundary::Nothing,
        };
        // A run that may rejoin stops at the end of the app step in which
        // an interrupt that changed nothing returned, if it may take the
        // rest from there (`Kernel::interrupt_now`).
        self.kernel.inert_irqs = rejoins.then(|| ladder.arm(rung)).flatten();
        self.kernel.stop_at_step = false;
        let t1 = C::now();
        let (kernel, base, factories) = (&mut self.kernel, &self.base, self.factories);
        let stride = match at_boundary {
            AtBoundary::Nothing => MAX_TICKS,
            _ => 1,
        };
        let mut violations = rung.violations.clone();
        let at_rung = with_mode(Mode::Observe, || {
            while kernel.ticks < MAX_TICKS
                && !kernel.run_with_factories(
                    &mut apps,
                    Some(factories),
                    (kernel.ticks + stride).min(MAX_TICKS),
                )
            {
                match &mut at_boundary {
                    AtBoundary::Nothing => {}
                    AtBoundary::Rejoin => {
                        let joined = ladder.rejoin(kernel, base, &rung.mem, &apps);
                        if joined.is_some() {
                            return joined;
                        }
                    }
                    AtBoundary::Capture(pass) => {
                        pass.take(kernel, &rung.mem, &apps, &mut violations)
                    }
                }
            }
            None
        });
        let fired = if armed.is_some() {
            injection::disarm()
        } else {
            0
        };
        let irq_fired = if schedule.is_some() {
            sched::disarm()
        } else {
            0
        };
        // A run that stopped at an interrupt's return.
        let stopped = std::mem::take(&mut self.kernel.stop_at_step);
        let inert = self.kernel.inert_irqs.take().filter(|_| stopped);
        let ticks = self.kernel.ticks - rung.ticks;
        let t2 = C::now();
        let mut record = collect_record(
            &self.kernel,
            seed,
            fired,
            irq_fired,
            violations,
            Trace::default(),
        );
        // Taking the rest of the run from the baseline where it joined it.
        let join = at_rung.or_else(|| inert.map(|inert| Join::at_return(index, inert, &record)));
        let live = join.map(|join| ladder.splice(&join, &mut record));
        let t3 = C::now();
        let oracle = check.then(|| {
            let unperturbed = unperturbed(record.fired, irq_fired);
            let skip = ladder.skip(index, unperturbed);
            let cut = join.zip(live).map(|(join, live)| Cut {
                live,
                at: ladder.cursor(&join),
                suffix: ladder.suffix,
            });
            let reference = self.reference();
            trace::with_events(|events| reference.walk(events, unperturbed, skip, cut))
        });
        record.trace = match check {
            true => Trace::default(),
            false => trace::take(),
        };
        trace::disable();
        assert!(
            !capture || record.trace.dropped == 0,
            "a capture pass overflowed the trace ring"
        );
        let walked = oracle.as_ref().map_or(0, |&(_, walked)| walked);
        record.oracle = oracle.map(|(verdict, _)| verdict);
        let phases = RunPhases {
            restore_ns: C::ns(t0, t1),
            run_ns: C::ns(t1, t2),
            collect_ns: C::ns(t2, t3),
            oracle_ns: 0,
            midrun: rung.ticks > 0,
            resumed_events: rung.trace_len,
            rejoined: join.is_some(),
            returned: at_rung.is_none() && inert.is_some(),
            rejoined_events: join.map_or(0, |join| ladder.trace.len() - join.trace_len),
            walked,
            copied: (trace::copied() - copied) as usize,
            ticks,
            engine_entries: injection::engine_entries() - entries,
        };
        self.apps = apps;
        let pass = match at_boundary {
            AtBoundary::Capture(pass) => Some(pass),
            _ => None,
        };
        (record, phases, pass, t3)
    }

    /// Pays one post-boot restore and discards the result: the per-run
    /// reset cost the fleet benchmark compares against [`boot_probe`].
    pub fn restore_probe(&mut self) {
        self.apps = self.restore_to(&Rc::clone(&self.clean), 0);
        trace::recycle(trace::take());
        trace::disable();
    }

    /// Pays one restore of the tick-1 rung and discards the result.
    pub fn midrun_probe(&mut self) {
        let clean = Rc::clone(&self.clean);
        self.apps = self.restore_to(&clean, 1.min(clean.rungs.len() - 1));
        trace::recycle(trace::take());
        trace::disable();
    }

    /// Pays what resuming from the tick-1 rung *skips*: a post-boot
    /// restore plus the first scheduler tick. The ratio of this to
    /// [`FleetRunner::midrun_probe`] is the `fleet.midrun_restore_speedup`
    /// floor in `ci/bench_baseline.json`.
    pub fn first_tick_probe(&mut self) {
        let mut apps = self.restore_to(&Rc::clone(&self.clean), 0);
        with_mode(Mode::Observe, || {
            self.kernel
                .run_with_factories(&mut apps, Some(self.factories), 1);
        });
        self.apps = apps;
        drop(take_violations());
        trace::recycle(trace::take());
        trace::disable();
    }
}

/// Pays one fresh campaign boot on `chip` and discards the kernel: the
/// per-run reset cost of the pre-fleet campaign, measured for the
/// restore-vs-boot speedup gate.
pub fn boot_probe(chip: &ChipProfile) {
    tt_hw::cycles::reset();
    trace::enable(TRACE_CAPACITY);
    let kernel = with_mode(Mode::Observe, || boot_campaign_kernel(chip));
    drop(take_violations());
    trace::recycle(trace::take());
    trace::disable();
    drop(kernel);
}

/// Snapshot-capture amortization tallies, shared across the fleet
/// pool's workers (each worker boots its own runners; the campaign sums
/// them here for the profiler).
#[derive(Debug, Default)]
pub struct CaptureStats {
    /// Fresh `FleetRunner` boots (one per worker per `(chip, mode)`
    /// slot the worker drew work for).
    pub boots: std::sync::atomic::AtomicU64,
    /// Total wall-clock nanoseconds those boots + snapshot captures took.
    pub capture_ns: std::sync::atomic::AtomicU64,
}

/// A worker-local cache of booted [`FleetRunner`]s over a chip slice,
/// one slot per `(chip, cache-mode)`. A runner is built — boot plus its
/// one clean capture pass — the first time its worker draws work for
/// the slot, then reused: every later run on the slot is a restore of a
/// clean-ladder rung, not a boot. The campaign's corpus replay, its
/// units and the explore sweep each build one per worker via
/// [`pool::run_indexed_ctx`].
pub struct RunnerSlots<'a> {
    chips: &'a [ChipProfile],
    runners: Vec<Option<FleetRunner>>,
    stats: &'a CaptureStats,
}

impl<'a> RunnerSlots<'a> {
    /// Empty slots for `chips`, tallying every boot into `stats`.
    pub fn new(chips: &'a [ChipProfile], stats: &'a CaptureStats) -> Self {
        Self {
            chips,
            runners: (0..chips.len() * 2).map(|_| None).collect(),
            stats,
        }
    }

    /// Runs `f` on the runner of `chips[chip]` in the given cache mode,
    /// booting it first if this worker has not. Cold slots boot *and*
    /// run with the commit cache disabled: the cache changes which
    /// `RegWrite` events boot emits, so a cold snapshot must come from a
    /// cold boot.
    pub fn with<R>(&mut self, chip: usize, cold: bool, f: impl FnOnce(&mut FleetRunner) -> R) -> R {
        let (chips, stats) = (self.chips, self.stats);
        let slot = &mut self.runners[chip * 2 + usize::from(cold)];
        let run = move || {
            let runner = slot.get_or_insert_with(|| {
                let runner = FleetRunner::new(&chips[chip]);
                let relaxed = std::sync::atomic::Ordering::Relaxed;
                stats.boots.fetch_add(1, relaxed);
                stats.capture_ns.fetch_add(runner.capture_ns(), relaxed);
                runner
            });
            f(runner)
        };
        if cold {
            tt_hw::commit_cache::with_disabled(run)
        } else {
            run()
        }
    }
}

// ---------------------------------------------------------------------
// The per-chip campaign.
// ---------------------------------------------------------------------

/// Aggregated campaign result for one chip.
#[derive(Debug, Clone, Default)]
pub struct ChipReport {
    /// Chip name.
    pub chip: &'static str,
    /// Seeded injection runs executed (warm; the cold pass doubles this).
    pub runs: u64,
    /// Injections that fired across all runs.
    pub fired: u64,
    /// Failed oracle checks, rendered for the report. Empty on success.
    pub failures: Vec<String>,
    /// Victim recoveries across all warm runs.
    pub recoveries: u64,
    /// Victim restarts across all warm runs.
    pub restarts: u64,
    /// Runs that ended with the victim permanently killed.
    pub killed: u64,
    /// Total victim recovery cycles, commit cache enabled.
    pub warm_cycles: u64,
    /// Victim recoveries in the warm pass (divisor for the mean).
    pub warm_recoveries: u64,
    /// Total victim recovery cycles with the commit cache disabled.
    pub cold_cycles: u64,
    /// Victim recoveries in the cold pass.
    pub cold_recoveries: u64,
}

impl ChipReport {
    /// Mean recovery latency in cycles, commit cache enabled.
    pub fn warm_mean(&self) -> f64 {
        self.warm_cycles as f64 / (self.warm_recoveries.max(1)) as f64
    }
    /// Mean recovery latency in cycles, commit cache disabled.
    pub fn cold_mean(&self) -> f64 {
        self.cold_cycles as f64 / (self.cold_recoveries.max(1)) as f64
    }
}

/// The fresh-boot clean run's health checks for `chip`, as the opening
/// lines of the chip's report.
fn fresh_boot_report(chip: &ChipProfile) -> ChipReport {
    let run = run_one(chip, None);
    let tag = |what: String| format!("{} reference: {what}", chip.name);
    let violations = run.violations.iter();
    let mut failures: Vec<String> = violations
        .map(|v| tag(format!("contract violation: {v}")))
        .collect();
    if run.states.iter().any(|s| *s != ProcessState::Exited) {
        failures.push(tag(format!("processes did not all exit: {:?}", run.states)));
    }
    ChipReport {
        chip: chip.name,
        failures,
        ..ChipReport::default()
    }
}

/// One scheduled unit of campaign work: chip index, seed, cache mode
/// (`true` = commit cache disabled).
pub type Unit = (usize, u64, bool);

/// What one injected run reduces to before the ordered merge: the
/// fixed-size summary a fleet campaign keeps per run (everything
/// [`crate::corpus::CorpusRecord`] needs, plus the rendered failures).
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Index of the chip in the campaign's chip slice.
    pub chip: usize,
    /// The injection seed.
    pub seed: u64,
    /// `true` for the commit-cache-disabled pass.
    pub cold: bool,
    /// Rendered oracle failures (empty = run passed).
    pub failures: Vec<String>,
    /// Injections that fired.
    pub fired: u64,
    /// Victim recoveries.
    pub recoveries: u32,
    /// Victim restarts.
    pub restarts: u32,
    /// Whether the victim ended permanently killed.
    pub killed: bool,
    /// Cycles spent recovering the victim.
    pub recovery_cycles: u64,
    /// Events in the run's trace.
    pub trace_len: usize,
    /// Wall-clock nanoseconds restoring the snapshot (and arming).
    ///
    /// Timing fields feed the fleet profiler only — they never enter the
    /// compared report text, so byte-identical determinism holds.
    pub restore_ns: u64,
    /// Wall-clock nanoseconds executing the run body.
    pub run_ns: u64,
    /// Wall-clock nanoseconds draining sinks into the record.
    pub collect_ns: u64,
    /// Wall-clock nanoseconds validating against the reference.
    pub validate_ns: u64,
    /// Whether the run resumed past boot, from a ladder rung.
    pub midrun: bool,
    /// Trace events of the runner's boot: the part of every run that no
    /// run re-simulates.
    pub boot_events: usize,
    /// Trace events in the resumed rung's prefix
    /// ([`RunPhases::resumed_events`]): `trace_len - resumed_events`
    /// events were re-simulated.
    pub resumed_events: usize,
    /// Hooks that reached the injection engine
    /// ([`RunPhases::engine_entries`]).
    pub engine_entries: u64,
}

fn run_unit(slots: &mut RunnerSlots, unit: Unit) -> UnitOutcome {
    let (c, seed, cold) = unit;
    let plan = InjectionPlan::from_seed(seed, VICTIM as u32);
    let (run, phases, failures, boot_events) = slots.with(c, cold, |runner| {
        let (run, phases, failures) = runner.run_timed(Some(&plan), None, Label::Seed(seed));
        (run, phases, failures, runner.boot_events())
    });
    let streams = run.oracle.as_ref().expect("a checked run has a verdict");
    UnitOutcome {
        chip: c,
        seed,
        cold,
        failures,
        fired: run.fired,
        recoveries: run.recoveries,
        restarts: run.restarts,
        killed: run.states[VICTIM] == ProcessState::Killed,
        recovery_cycles: run.recovery_cycles,
        trace_len: streams.events,
        restore_ns: phases.restore_ns,
        run_ns: phases.run_ns,
        collect_ns: phases.collect_ns,
        validate_ns: phases.oracle_ns,
        midrun: phases.midrun,
        boot_events,
        resumed_events: phases.resumed_events,
        engine_entries: phases.engine_entries,
    }
}

/// The one corpus replay: re-drives `record` on `runner` and returns its
/// failure lines (empty = the record no longer fails). The record is
/// the whole input — `from_seed(seed)` unless it is `clean`, its
/// schedule unless 0 — and the run is `FleetRunner::run_checked`'s.
/// Lines are labelled `seed N`, or `schedule 0x…` for a record with a
/// schedule, as the campaign and the explorer labelled them. The runner
/// must be one of the record's chip and cache mode
/// ([`RunnerSlots::with`]).
pub fn replay(runner: &mut FleetRunner, record: &CorpusRecord) -> Vec<String> {
    let plan = (!record.clean).then(|| InjectionPlan::from_seed(record.seed, VICTIM as u32));
    let schedule = (record.schedule != 0).then(|| InterruptSchedule::from_id(record.schedule));
    let label = match record.schedule {
        0 => Label::Seed(record.seed),
        id => Label::Schedule(id),
    };
    runner
        .run_checked(plan.as_ref(), schedule.as_ref(), label)
        .2
}

/// Everything one fleet campaign produces: the per-chip reports, the
/// per-unit outcomes (with wall-clock phase timings), the corpus
/// replay's lines and the snapshot-capture amortization tallies.
#[derive(Debug)]
pub struct CampaignResult {
    /// Aggregated per-chip reports, byte-identical across thread counts.
    pub reports: Vec<ChipReport>,
    /// Per-unit outcomes in schedule order.
    pub outcomes: Vec<UnitOutcome>,
    /// Each corpus record's [`replay`] lines, in corpus order (empty =
    /// the record no longer fails).
    pub replayed: Vec<Vec<String>>,
    /// Fresh runner boots across all workers.
    pub boots: u64,
    /// Total nanoseconds spent booting + capturing snapshots.
    pub capture_ns: u64,
}

/// Runs the campaign — `seeds` injection runs per chip, each warm and
/// cold, plus one fresh-boot clean run per chip — on a work-stealing
/// pool of `threads` workers (1 = serial). This is the campaign's one
/// entry point; the per-chip reports and the per-unit outcomes (the raw
/// material for `ci/corpus/` persistence and the fleet benchmark) come
/// back together.
///
/// The unit of work is a single `(chip, seed, warm/cold)` run, fanned
/// out over [`pool::run_indexed_ctx`]: each worker keeps a
/// [`RunnerSlots`] cache, so every unit after the first on a slot is a
/// [`Checkpoint`] restore instead of a [`Kernel::boot`]. Results
/// merge in unit order, and restored runs are byte-identical to fresh
/// boots, so the reports — failure strings included — are byte-identical
/// for any thread count.
///
/// Every run is checked against its runner's own clean run
/// (`FleetRunner::run_checked`); the fresh-boot clean run's health
/// checks open each chip's report.
///
/// Before the units, every `corpus` record is [`replay`]ed on the same
/// pool (its chip index is into `chips`; one out of range is one
/// failure line). The replay's lines come back
/// in [`CampaignResult::replayed`] and stay out of the reports, so the
/// reports do not depend on the corpus. A campaign of zero seeds only
/// replays its corpus.
pub fn run_campaign_profiled(
    chips: &[ChipProfile],
    seeds: u64,
    threads: usize,
    corpus: &[CorpusRecord],
) -> CampaignResult {
    // Phase 1: one fresh-boot clean run per chip, its health checks.
    let mut reports = pool::run_indexed(chips, threads, |_, chip| fresh_boot_report(chip));
    let stats = CaptureStats::default();
    let stats_ref = &stats;
    let slots = || RunnerSlots::new(chips, stats_ref);
    // Phase 2: the corpus.
    let replayed = pool::run_indexed_ctx(corpus, threads, slots, |slots, _, r| {
        let c = usize::from(r.chip);
        match c < chips.len() {
            true => slots.with(c, r.cold, |runner| replay(runner, r)),
            false => vec![format!("corpus chip index {c} out of range")],
        }
    });
    // Phase 3: every (chip, seed, cache-mode) run as its own unit.
    let units: Vec<Unit> = (0..chips.len())
        .flat_map(|c| (0..seeds).flat_map(move |seed| [(c, seed, false), (c, seed, true)]))
        .collect();
    let outcomes = pool::run_indexed_ctx(&units, threads, slots, |slots, _, &unit| {
        run_unit(slots, unit)
    });
    // Ordered merge: fresh-boot health checks first (as the serial
    // runner reported them), then each unit's failures and tallies in schedule
    // order.
    for unit in &outcomes {
        let report = &mut reports[unit.chip];
        report.failures.extend(unit.failures.iter().cloned());
        if unit.cold {
            report.cold_cycles += unit.recovery_cycles;
            report.cold_recoveries += u64::from(unit.recoveries);
        } else {
            report.runs += 1;
            report.fired += unit.fired;
            report.recoveries += u64::from(unit.recoveries);
            report.restarts += u64::from(unit.restarts);
            report.killed += u64::from(unit.killed);
            report.warm_cycles += unit.recovery_cycles;
            report.warm_recoveries += u64::from(unit.recoveries);
        }
    }
    CampaignResult {
        reports,
        outcomes,
        replayed,
        boots: stats.boots.load(std::sync::atomic::Ordering::Relaxed),
        capture_ns: stats.capture_ns.load(std::sync::atomic::Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Shrinking a failing seed.
// ---------------------------------------------------------------------

/// Shrinks the plan behind a failing `(chip, seed, cache-mode)` run to a
/// 1-minimal schedule that still fails the campaign oracle, replaying
/// candidate plans on one serial [`FleetRunner`] of the run's chip and
/// cache mode, each checked as the campaign checked it
/// (`FleetRunner::run_checked`, against the runner's own clean run).
///
/// The runner is booted afresh and the predicate runs serially on the
/// calling thread, so the minimized schedule is a pure function of
/// `(chip, seed, cold)` — identical across re-invocations and across
/// whatever thread count the campaign that *found* the seed was using.
pub fn shrink_failing_seed(chip: &ChipProfile, seed: u64, cold: bool) -> InjectionPlan {
    let stats = CaptureStats::default();
    let mut slots = RunnerSlots::new(std::slice::from_ref(chip), &stats);
    let plan = InjectionPlan::from_seed(seed, VICTIM as u32);
    shrink::shrink_plan(&plan, |candidate| {
        let checked = |runner: &mut FleetRunner| {
            let label = Label::Seed(seed);
            runner.run_checked(Some(candidate), None, label).2
        };
        !slots.with(0, cold, checked).is_empty()
    })
}

/// Renders the campaign table plus any failures.
pub fn render_report(reports: &[ChipReport], seeds: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fault campaign: {} seeds x {} chips (warm+cold) = {} injected runs\n",
        seeds,
        reports.len(),
        reports.iter().map(|r| r.runs * 2).sum::<u64>(),
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>6} {:>9} {:>8} {:>7} {:>12} {:>12}\n",
        "chip", "runs", "fired", "recovers", "restarts", "killed", "warm cyc", "cold cyc"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<14} {:>6} {:>6} {:>9} {:>8} {:>7} {:>12.0} {:>12.0}\n",
            r.chip,
            r.runs * 2,
            r.fired,
            r.recoveries,
            r.restarts,
            r.killed,
            r.warm_mean(),
            r.cold_mean(),
        ));
    }
    let failures: Vec<&String> = reports.iter().flat_map(|r| &r.failures).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use crate::trace::{normalize, TraceScope};
    use proptest::proptest;
    use tt_hw::platform::{ALL_CHIPS, HIFIVE1, NRF52840DK};
    use tt_hw::sched::ArrivalPoint;

    /// One chip's campaign report, run serially.
    fn chip_campaign(chip: &ChipProfile, seeds: u64) -> ChipReport {
        run_campaign_profiled(std::slice::from_ref(chip), seeds, 1, &[])
            .reports
            .pop()
            .expect("one chip, one report")
    }

    #[test]
    fn only_the_fleet_unit_reads_the_host_clock() {
        let reads = || WALL_READS.with(|n| n.get());
        let stats = CaptureStats::default();
        let mut slots = RunnerSlots::new(std::slice::from_ref(&NRF52840DK), &stats);
        let (chip, plan) = (NRF52840DK, InjectionPlan::from_seed(3, VICTIM as u32));
        let schedule = InterruptSchedule::single(ArrivalPoint::MpuCommit, 2);
        let untimed = slots.with(0, false, |runner| {
            let before = reads();
            let record = CorpusRecord {
                seed: 3,
                ..CorpusRecord::default()
            };
            assert!(replay(runner, &record).is_empty());
            let (_, phases, failures) =
                runner.run_checked(Some(&plan), Some(&schedule), Label::Seed(3));
            assert!(failures.is_empty(), "{}: {failures:?}", chip.name);
            assert_eq!(phases.restore_ns + phases.run_ns + phases.oracle_ns, 0);
            trace::recycle(runner.run_scheduled(None, &schedule).trace);
            reads() - before
        });
        assert_eq!(untimed, 0, "untimed runs read the clock");
        for seed in 0..4 {
            let before = reads();
            let outcome = run_unit(&mut slots, (0, seed, false));
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            assert_eq!(reads() - before, 5, "clock reads of fleet unit {seed}");
        }
    }

    #[test]
    fn reference_run_is_clean_and_deterministic() {
        let a = run_one(&NRF52840DK, None);
        let b = run_one(&NRF52840DK, None);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.states.iter().all(|s| *s == ProcessState::Exited));
        assert_eq!(a.fired, 0);
        assert_eq!(
            normalize(&a.trace.events, TraceScope::Observable),
            normalize(&b.trace.events, TraceScope::Observable),
        );
    }

    #[test]
    fn arm_campaign_smoke_holds_the_oracle() {
        let report = chip_campaign(&NRF52840DK, 4);
        assert_eq!(report.runs, 4);
        assert!(report.failures.is_empty(), "{:#?}", report.failures);
    }

    #[test]
    fn pmp_campaign_smoke_holds_the_oracle() {
        let report = chip_campaign(&HIFIVE1, 3);
        assert!(report.failures.is_empty(), "{:#?}", report.failures);
    }

    #[test]
    fn parallel_campaign_report_is_byte_identical_to_serial() {
        let chips = [NRF52840DK, HIFIVE1];
        let serial = run_campaign_profiled(&chips, 3, 1, &[]).reports;
        for threads in [2, 8] {
            let parallel = run_campaign_profiled(&chips, 3, threads, &[]).reports;
            assert_eq!(
                render_report(&serial, 3),
                render_report(&parallel, 3),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn injected_runs_do_fire_against_the_victim() {
        // Across a handful of seeds at least one plan must actually fire
        // on each architecture — otherwise the campaign tests nothing.
        let fired: u64 = (0..6).map(|s| run_one(&NRF52840DK, Some(s)).fired).sum();
        assert!(fired > 0, "no ARM injection fired in 6 seeds");
        let fired: u64 = (0..6).map(|s| run_one(&HIFIVE1, Some(s)).fired).sum();
        assert!(fired > 0, "no PMP injection fired in 6 seeds");
    }

    /// Asserts a restored-machine run equals a fresh-boot run in every
    /// observable dimension: raw Full-scope trace, violations, terminal
    /// states, fired count, and recovery tallies.
    fn assert_run_equivalent(chip: &ChipProfile, seed: Option<u64>, cold: bool, what: &str) {
        let pair = || (run_one(chip, seed), FleetRunner::new(chip).run_seed(seed));
        let (fresh, restored) = if cold {
            tt_hw::commit_cache::with_disabled(pair)
        } else {
            pair()
        };
        // Every field, commit-cache counters included: a restore that
        // resurrected stale hit/miss tallies (or missed a reset_stats
        // interaction) shows up even when the trace doesn't diverge.
        assert_eq!(
            record_difference(&fresh, &restored),
            None,
            "{what}: {} seed {seed:?} cold {cold}",
            chip.name
        );
        trace::recycle(fresh.trace);
        trace::recycle(restored.trace);
    }

    #[test]
    fn restored_runs_match_fresh_boots_on_all_chips_and_modes() {
        for chip in &ALL_CHIPS {
            for cold in [false, true] {
                for seed in [None, Some(3)] {
                    assert_run_equivalent(chip, seed, cold, "restore-equivalence");
                }
            }
        }
    }

    #[test]
    fn snapshot_run_restore_run_round_trips_byte_identically() {
        // The PR 6 drift gate: run → restore → run the *same* runner and
        // demand byte-identity — any per-run state restore() misses
        // (commit-cache entries, kernel counters, backoff state,
        // injection cursors, TLS buffers) shows up as a diff here.
        for chip in [&NRF52840DK, &HIFIVE1] {
            let mut runner = FleetRunner::new(chip);
            for seed in 0..8u64 {
                let first = runner.run_seed(Some(seed));
                let second = runner.run_seed(Some(seed));
                assert_eq!(
                    first.trace.events, second.trace.events,
                    "{} seed {seed}: second run on a restored machine diverged",
                    chip.name
                );
                assert_eq!(first.violations, second.violations);
                assert_eq!(first.states, second.states);
                assert_eq!(first.fired, second.fired);
                assert_eq!(first.restarts, second.restarts);
                assert_eq!(first.recovery_cycles, second.recovery_cycles);
                trace::recycle(first.trace);
                trace::recycle(second.trace);
            }
        }
    }

    #[test]
    fn midrun_and_fallback_runs_interleave_byte_identically() {
        // Alternating restore targets on one runner exercises the page
        // delta merge both ways: a mid-run restore followed by a
        // post-boot restore (and back) must not leave pages from the
        // other rung behind. Seeds are picked so one plan fires inside
        // the first tick (forcing the post-boot fallback) and one does
        // not (resuming a later clean rung).
        let plan = |seed: u64| InjectionPlan::from_seed(seed, VICTIM as u32);
        for chip in [&NRF52840DK, &HIFIVE1] {
            let mut runner = FleetRunner::new(chip);
            assert!(runner.capture_ns() > 0);
            let seen = runner.clean.rungs[1].injection.seen;
            let fallback_seed = (0..500u64)
                .find(|&s| InjectionPlan::from_seed(s, VICTIM as u32).fires_within(&seen))
                .expect("some seed schedules an injection inside tick 1");
            let midrun_seed = (0..500u64)
                .find(|&s| !InjectionPlan::from_seed(s, VICTIM as u32).fires_within(&seen))
                .expect("some seed stays clear of tick 1");
            let expect_fallback = run_one(chip, Some(fallback_seed));
            let expect_midrun = run_one(chip, Some(midrun_seed));
            let expect_ref = run_one(chip, None);
            for round in 0..3 {
                let (got, phases) = runner.run(Some(plan(midrun_seed)), None);
                assert!(phases.midrun, "{}: eligible plan skipped midrun", chip.name);
                assert_eq!(
                    expect_midrun.trace.events, got.trace.events,
                    "{} round {round}: midrun-path run diverged",
                    chip.name
                );
                assert_eq!(expect_midrun.violations, got.violations);
                assert_eq!(expect_midrun.fired, got.fired);
                trace::recycle(got.trace);
                let (got, phases) = runner.run(Some(plan(fallback_seed)), None);
                assert!(
                    !phases.midrun,
                    "{}: prefix-firing plan took the midrun path",
                    chip.name
                );
                assert_eq!(
                    expect_fallback.trace.events, got.trace.events,
                    "{} round {round}: fallback-path run diverged after a midrun restore",
                    chip.name
                );
                assert_eq!(expect_fallback.violations, got.violations);
                assert_eq!(expect_fallback.fired, got.fired);
                trace::recycle(got.trace);
                let (got, phases) = runner.run(None, None);
                assert!(phases.midrun, "{}: reference run skipped midrun", chip.name);
                assert_eq!(
                    expect_ref.trace.events, got.trace.events,
                    "{} round {round}: reference-shaped run diverged",
                    chip.name
                );
                trace::recycle(got.trace);
            }
            trace::recycle(expect_fallback.trace);
            trace::recycle(expect_midrun.trace);
            trace::recycle(expect_ref.trace);
        }
    }

    /// A corpus record's replay, in place on a restored runner, fails
    /// with exactly the lines of the drained fresh-boot run of the same
    /// inputs under the record's cache mode, walked from event 0 against
    /// the runner's reference: seed records warm and cold, clean and
    /// seeded schedule records, on every chip, all of which pass; and the
    /// planted commit-window bug's minimised schedule, which fails warm.
    #[test]
    fn replay_matches_the_drained_fresh_boot_run() {
        let id = InterruptSchedule::single(ArrivalPoint::SyscallEnter, 1).id();
        let record = |cold, clean, seed, schedule| CorpusRecord {
            cold,
            clean,
            seed,
            schedule,
            ..Default::default()
        };
        let records = [
            record(false, false, 5, 0),
            record(true, false, 5, 0),
            record(false, true, 0, id),
            record(true, true, 0, id),
            record(false, false, 3, id),
            record(true, false, 3, id),
        ];
        for chip in &ALL_CHIPS {
            let stats = CaptureStats::default();
            let mut slots = RunnerSlots::new(std::slice::from_ref(chip), &stats);
            for r in &records {
                let seed = (!r.clean).then_some(r.seed);
                let schedule = (r.schedule != 0).then(|| InterruptSchedule::from_id(r.schedule));
                let label = match r.schedule {
                    0 => Label::Seed(r.seed),
                    id => Label::Schedule(id),
                };
                slots.with(0, r.cold, |runner| {
                    let fresh = run_one_scheduled(chip, seed, schedule.as_ref());
                    let streams = runner.reference().walk_record(&fresh);
                    let expect = check_run(chip, label, &fresh, &streams);
                    let ctx = format!("{} {r:?}", chip.name);
                    assert!(expect.is_empty(), "{ctx}: {expect:#?}");
                    assert_eq!(replay(runner, r), expect, "{ctx}");
                    trace::recycle(fresh.trace);
                });
            }
        }
        let schedule = InterruptSchedule::from_id(0x6005);
        let mut runner = crate::explore::planted::runner(&NRF52840DK);
        let drained = runner.run_scheduled(None, &schedule);
        let streams = runner.reference().walk_record(&drained);
        let expect = check_run(&NRF52840DK, Label::Schedule(0x6005), &drained, &streams);
        assert!(!expect.is_empty(), "the planted bug passed");
        assert_eq!(replay(&mut runner, &record(false, true, 0, 0x6005)), expect);
    }

    #[test]
    fn campaign_replays_its_corpus_apart_from_its_reports() {
        let chips = [NRF52840DK, HIFIVE1];
        let corpus = [
            CorpusRecord {
                chip: 1,
                cold: true,
                seed: 5,
                failures: 1,
                ..Default::default()
            },
            CorpusRecord {
                chip: 9,
                ..Default::default()
            },
        ];
        let result = run_campaign_profiled(&chips, 2, 1, &corpus);
        assert_eq!(
            result.replayed,
            [vec![], vec!["corpus chip index 9 out of range".to_string()]]
        );
        // The corpus changes neither the units nor the reports.
        let plain = run_campaign_profiled(&chips, 2, 1, &[]);
        assert!(plain.replayed.is_empty());
        assert_eq!(
            render_report(&plain.reports, 2),
            render_report(&result.reports, 2)
        );
        let units = |r: &CampaignResult| -> Vec<Unit> {
            r.outcomes
                .iter()
                .map(|o| (o.chip, o.seed, o.cold))
                .collect()
        };
        assert_eq!(units(&plain), units(&result));
        // A campaign of zero seeds only replays.
        let only = run_campaign_profiled(&chips, 0, 2, &corpus);
        assert!(only.outcomes.is_empty());
        assert_eq!(only.replayed, result.replayed);
    }

    #[test]
    fn interleaved_runners_do_not_leak_thread_local_state() {
        // Two chips alternating on one worker thread, with deliberate
        // TLS pollution between runs: stale cycle counts, a stale
        // process context, a dirty method-record buffer. restore() must
        // make every run start from its own boot state regardless.
        let mut arm = FleetRunner::new(&NRF52840DK);
        let mut rv = FleetRunner::new(&HIFIVE1);
        let expect_arm = run_one(&NRF52840DK, Some(2));
        let expect_rv = run_one(&HIFIVE1, Some(2));
        for round in 0..3 {
            // Pollute the thread-local run context.
            tt_hw::cycles::charge_n(tt_hw::cycles::Cost::Alu, 10_000 + round);
            tt_hw::cycles::set_recording(true);
            tt_hw::cycles::record_method("polluter", 99);
            trace::set_current_pid(42);
            let got_arm = arm.run_seed(Some(2));
            let got_rv = rv.run_seed(Some(2));
            assert_eq!(
                expect_arm.trace.events, got_arm.trace.events,
                "round {round}: ARM trace polluted by interleaving"
            );
            assert_eq!(
                expect_rv.trace.events, got_rv.trace.events,
                "round {round}: RISC-V trace polluted by interleaving"
            );
            assert_eq!(expect_arm.violations, got_arm.violations);
            assert_eq!(expect_rv.violations, got_rv.violations);
            trace::recycle(got_arm.trace);
            trace::recycle(got_rv.trace);
        }
        trace::recycle(expect_arm.trace);
        trace::recycle(expect_rv.trace);
    }

    #[test]
    fn detailed_campaign_outcomes_match_schedule_order() {
        let chips = [NRF52840DK, HIFIVE1];
        let CampaignResult {
            reports,
            outcomes,
            boots,
            capture_ns,
            ..
        } = run_campaign_profiled(&chips, 2, 1, &[]);
        assert_eq!(outcomes.len(), chips.len() * 2 * 2);
        let schedule: Vec<(usize, u64, bool)> =
            outcomes.iter().map(|o| (o.chip, o.seed, o.cold)).collect();
        assert_eq!(
            schedule,
            vec![
                (0, 0, false),
                (0, 0, true),
                (0, 1, false),
                (0, 1, true),
                (1, 0, false),
                (1, 0, true),
                (1, 1, false),
                (1, 1, true),
            ]
        );
        assert!(outcomes.iter().all(|o| o.failures.is_empty()));
        assert!(outcomes.iter().all(|o| o.trace_len > 0));
        assert!(boots > 0);
        assert!(capture_ns > 0);
        // Phase timings populated, and at least one unit resumed midrun.
        assert!(outcomes.iter().any(|o| o.midrun));
        assert!(outcomes.iter().all(|o| o.run_ns > 0));
        // Tallies in the reports are exactly the outcome sums.
        let fired: u64 = outcomes.iter().filter(|o| !o.cold).map(|o| o.fired).sum();
        assert_eq!(reports.iter().map(|r| r.fired).sum::<u64>(), fired);
    }

    #[test]
    fn shrinking_a_seed_is_deterministic_across_invocations() {
        // The campaign oracle holds on every seed, so shrink_failing_seed
        // returns the full plan unchanged — still a determinism check.
        let a = shrink_failing_seed(&NRF52840DK, 5, false);
        let b = shrink_failing_seed(&NRF52840DK, 5, false);
        assert_eq!(a, b);
        assert_eq!(a, InjectionPlan::from_seed(5, VICTIM as u32));
        // A predicate that *does* reproduce (injections fired) exercises
        // the real shrink loop on restored machines: the minimized plan
        // must be identical across invocations and runner instances.
        let shrink_fired = || {
            let mut runner = FleetRunner::new(&NRF52840DK);
            let plan = InjectionPlan::from_seed(11, VICTIM as u32);
            crate::shrink::shrink_plan(&plan, |p| {
                let run = runner.run_plan(Some(p.clone()));
                let fired = run.fired;
                trace::recycle(run.trace);
                fired > 0
            })
        };
        let first = shrink_fired();
        let second = shrink_fired();
        assert_eq!(
            first, second,
            "minimized schedule differs across re-invocations"
        );
    }

    #[test]
    fn scheduled_runs_on_restored_machines_match_fresh_boots() {
        use tt_hw::sched::ArrivalPoint;
        // An early arrival (fires inside tick 1, forcing the post-boot
        // fallback), a late one (mid-run eligible), and the empty
        // schedule (pure occurrence counting) — each must make the
        // fleet path byte-identical to a fresh boot with the same
        // schedule armed.
        let schedules = [
            InterruptSchedule::single(ArrivalPoint::SyscallEnter, 0),
            InterruptSchedule::single(ArrivalPoint::SchedulerDecision, 8),
            InterruptSchedule::single(ArrivalPoint::MpuCommit, 12),
            InterruptSchedule::empty(),
        ];
        for chip in [&NRF52840DK, &HIFIVE1] {
            let mut runner = FleetRunner::new(chip);
            for schedule in &schedules {
                for seed in [None, Some(7)] {
                    let fresh = run_one_scheduled(chip, seed, Some(schedule));
                    let restored = runner.run_scheduled(
                        seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32)),
                        schedule,
                    );
                    let ctx = format!("{} seed {seed:?} schedule {:#x}", chip.name, schedule.id());
                    assert_eq!(
                        fresh.trace.events, restored.trace.events,
                        "{ctx}: Full-scope trace diverged"
                    );
                    assert_eq!(fresh.violations, restored.violations, "{ctx}: violations");
                    assert_eq!(fresh.states, restored.states, "{ctx}: states");
                    assert_eq!(fresh.fired, restored.fired, "{ctx}: fired");
                    assert_eq!(fresh.irq_fired, restored.irq_fired, "{ctx}: irq_fired");
                    trace::recycle(fresh.trace);
                    trace::recycle(restored.trace);
                }
            }
        }
    }

    #[test]
    fn empty_schedule_is_trace_neutral() {
        // An armed-but-empty schedule exercises every arrival-point
        // hook's counting path; the run must stay byte-identical to one
        // with no schedule armed at all.
        let plain = run_one(&NRF52840DK, Some(3));
        let counted = run_one_scheduled(&NRF52840DK, Some(3), Some(&InterruptSchedule::empty()));
        assert_eq!(plain.trace.events, counted.trace.events);
        assert_eq!(plain.violations, counted.violations);
        assert_eq!(counted.irq_fired, 0);
        trace::recycle(plain.trace);
        trace::recycle(counted.trace);
    }

    #[test]
    fn scheduled_arrivals_fire_and_perturb_only_nonobservably_on_a_correct_kernel() {
        use tt_hw::sched::ArrivalPoint;
        // On the correct kernel an arrival that fires must leave IRQ
        // markers in the Full trace while every bystander's Observable
        // stream stays byte-identical to the reference.
        let mut runner = FleetRunner::new(&NRF52840DK);
        let mut fired_somewhere = false;
        for at in [0, 5, 17] {
            let run = runner.run_scheduled(
                None,
                &InterruptSchedule::single(ArrivalPoint::SyscallExit, at),
            );
            if run.irq_fired > 0 {
                fired_somewhere = true;
                assert!(
                    run.trace
                        .events
                        .iter()
                        .any(|e| matches!(e, TraceEvent::IrqEnter { .. })),
                    "fired arrival left no IrqEnter marker"
                );
            }
            assert!(run.violations.is_empty(), "{:?}", run.violations);
            let streams = runner.reference().walk_record(&run);
            assert!(
                streams.bystanders.iter().all(Option::is_none),
                "at {at}: bystander stream diverged under a scheduled arrival"
            );
            trace::recycle(run.trace);
        }
        assert!(fired_somewhere, "no scheduled arrival fired at all");
    }

    #[test]
    fn record_difference_covers_every_field() {
        let fresh = run_one(&NRF52840DK, Some(3));
        assert_eq!(record_difference(&fresh, &fresh.clone()), None);
        let mut dropped = fresh.clone();
        dropped.trace.dropped = 1;
        let diff = record_difference(&fresh, &dropped).expect("dropped count compared");
        assert!(diff.contains("dropped"), "{diff}");
        let mut irq = fresh.clone();
        irq.irq_fired = 1;
        let diff = record_difference(&fresh, &irq).expect("irq_fired compared");
        assert!(diff.contains("irq_fired"), "{diff}");
    }

    proptest! {
        #[test]
        fn restored_runs_match_fresh_boots_for_arbitrary_units(
            chip_idx in 0usize..ALL_CHIPS.len(),
            seed in proptest::prelude::any::<u64>(),
            cold in proptest::prelude::any::<bool>(),
        ) {
            let chip = &ALL_CHIPS[chip_idx];
            assert_run_equivalent(chip, Some(seed), cold, "proptest");
        }
    }
}

/// The checkpoint ladder against the runs it replaces: equivalence,
/// stale-ladder hazards, chunked-capture termination, and the planted
/// bug through the ladder.
#[cfg(test)]
mod ladder_tests {
    use super::*;
    use crate::explore::{
        bystander_reference, commuting_classes, enumerate_candidates, explore, planted,
        validate_scheduled,
    };
    use crate::kernel::AppFactory;
    use crate::trace::TraceEvent;
    use crate::trace::{normalize, TraceScope};
    use proptest::prelude::*;
    use tt_hw::platform::{ALL_CHIPS, EARLGREY, NRF52840DK};
    use tt_hw::sched::ALL_ARRIVAL_POINTS;

    /// One representative of `(chip, seed)`'s baseline, run from the
    /// latest ladder rung before its arrival and from a fresh boot: the
    /// drained records must be identical in every field, and the
    /// in-place oracle verdict of the laddered run must equal the fresh
    /// run's walk. Returns the rung prefix the laddered run resumed after.
    fn assert_rung_equivalent(
        chip: &ChipProfile,
        seed: Option<u64>,
        pick: usize,
        cold: bool,
    ) -> usize {
        let body = || {
            let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
            let mut laddered = FleetRunner::new(chip);
            let (baseline, rungs, _) = laddered.capture_ladder(plan.clone());
            assert!(
                rungs > 1,
                "{}: the baseline passed no tick boundary",
                chip.name
            );
            let ctx = format!("{} seed {seed:?} cold {cold}", chip.name);
            assert_eq!(
                record_difference(&run_one(chip, seed), &baseline),
                None,
                "{ctx}: baseline"
            );
            let candidates = enumerate_candidates(&baseline.trace.events, laddered.boot_events());
            let classes = commuting_classes(&baseline.trace.events, &candidates);
            let schedule = classes[pick % classes.len()][0].schedule();
            let ctx = format!("{ctx} schedule {:#x}", schedule.id());
            let fresh = run_one_scheduled(chip, seed, Some(&schedule));
            let from_rung = laddered.run_scheduled(plan.clone(), &schedule);
            assert_eq!(record_difference(&fresh, &from_rung), None, "{ctx}");
            let label = Label::Schedule(schedule.id());
            let (checked, phases, _) = laddered.run_checked(plan.as_ref(), Some(&schedule), label);
            assert!(
                checked.trace.events.is_empty(),
                "{ctx}: the ring was drained"
            );
            assert_eq!(
                checked.oracle,
                Some(laddered.reference().walk_record(&fresh)),
                "{ctx}: in-place verdict"
            );
            phases.resumed_events
        };
        if cold {
            tt_hw::commit_cache::with_disabled(body)
        } else {
            body()
        }
    }

    #[test]
    fn ladder_runs_match_snapshot_runs_on_all_chips() {
        for chip in &ALL_CHIPS {
            let mut resumed = Vec::new();
            for (seed, cold) in [(None, false), (Some(3), false), (Some(11), true)] {
                for pick in [0, 37, 1 << 20] {
                    resumed.push(assert_rung_equivalent(chip, seed, pick, cold));
                }
            }
            // The ladder is exercised: some representative resumed past
            // the tick-1 rung.
            let tick1 = FleetRunner::new(chip).clean.rungs[1].trace_len;
            assert!(
                resumed.iter().any(|&r| r > tick1),
                "{}: {resumed:?}",
                chip.name
            );
        }
    }

    /// The index of `seeded`'s first own rung: every rung before it is
    /// the clean ladder's.
    fn first_own(seeded: &Ladder, clean: &Ladder) -> usize {
        let shared = seeded.rungs.iter().zip(&clean.rungs);
        shared.take_while(|(a, b)| Rc::ptr_eq(a, b)).count()
    }

    /// Whether the runner was last restored to a rung the clean ladder
    /// does not hold.
    fn seeded_only(runner: &FleetRunner) -> bool {
        !runner.clean.rungs.iter().any(|r| Rc::ptr_eq(r, &runner.at))
    }

    #[test]
    fn restores_between_rungs_land_on_each_rungs_memory() {
        // Every restore must land on its rung's exact RAM, whichever rung
        // the live state came from and whether a run dirtied it since —
        // including jumps back to boot with no run in between, where
        // only the departed rung's delta says which pages to reset.
        let ram = |mem: &tt_hw::mem::PhysicalMemory| {
            let map = mem.map();
            let mut buf = vec![0u8; map.ram.len()];
            mem.read_bytes(map.ram.start, &mut buf).expect("RAM");
            buf
        };
        let plan = Some(InjectionPlan::from_seed(5, VICTIM as u32));
        let laddered = || {
            let mut runner = FleetRunner::new(&NRF52840DK);
            runner.capture_ladder(None);
            runner.capture_ladder(plan.clone());
            runner
        };
        let probe = laddered();
        let last = probe.clean.rungs.len() - 1;
        let seeded = probe.seeded.as_ref().expect("seeded ladder");
        let first_seeded = first_own(seeded, &probe.clean);
        let last_seeded = seeded.rungs.len() - 1;
        // (seeded ladder, rung index)
        let path = [
            (false, last),
            (false, 0),
            (false, last / 2),
            (true, last_seeded),
            (false, 1),
            (true, first_seeded),
            (false, last),
            (false, last),
            (false, 0),
        ];
        let ladder = |runner: &FleetRunner, seeded: bool| match seeded {
            true => Rc::clone(runner.seeded.as_ref().expect("seeded ladder")),
            false => Rc::clone(&runner.clean),
        };
        // Each rung's memory rebuilt independently of the merge rule: an
        // untracked memory copies the whole base, then the rung's pages.
        let want: Vec<Vec<u8>> = path
            .iter()
            .map(|&(seeded, index)| {
                let rung = &ladder(&probe, seeded).rungs[index];
                let mut mem = tt_hw::mem::PhysicalMemory::new(probe.kernel.mem.map());
                mem.restore_to(&probe.base, &PageDelta::default(), &rung.mem);
                ram(&mem)
            })
            .collect();
        for with_runs in [false, true] {
            let mut runner = laddered();
            for (step, (&id, want)) in path.iter().zip(&want).enumerate() {
                let mut apps = runner.restore_to(&ladder(&runner, id.0), id.1);
                let got = ram(&runner.kernel.mem);
                assert!(got == *want, "step {step}: {id:?} (runs {with_runs})");
                if with_runs {
                    with_mode(Mode::Observe, || {
                        runner.kernel.run_with_factories(
                            &mut apps,
                            Some(runner.factories),
                            MAX_TICKS,
                        )
                    });
                    let _ = take_violations();
                }
            }
            trace::disable();
        }
    }

    #[test]
    fn a_stale_ladder_is_never_resumed_by_another_plan() {
        // A ladder captured for seed 3, then runs under seed 4 and under
        // no plan: neither may resume a seed-3 rung, and each must equal
        // the fresh-boot run.
        let chip = &NRF52840DK;
        let plan = |seed: Option<u64>| seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
        let mut laddered = FleetRunner::new(chip);
        let (seed3, _, _) = laddered.capture_ladder(plan(Some(3)));
        let candidates = enumerate_candidates(&seed3.trace.events, laddered.boot_events());
        for other in [Some(4), None] {
            for c in [
                candidates[3],
                candidates[candidates.len() / 2],
                candidates[candidates.len() - 1],
            ] {
                let schedule = c.schedule();
                let stale = laddered.run_scheduled(plan(other), &schedule);
                assert!(
                    !seeded_only(&laddered),
                    "{other:?} {c:?} resumed the seed-3 ladder"
                );
                let fresh = run_one_scheduled(chip, other, Some(&schedule));
                assert_eq!(record_difference(&fresh, &stale), None, "{other:?} {c:?}");
            }
        }
        // And the seed-3 ladder still serves seed 3 afterwards.
        let schedule = candidates[candidates.len() - 1].schedule();
        let (run, _) = laddered.run(plan(Some(3)), Some(&schedule));
        assert!(
            seeded_only(&laddered),
            "seed 3 should resume its own ladder"
        );
        let fresh = run_one_scheduled(chip, Some(3), Some(&schedule));
        assert_eq!(record_difference(&fresh, &run), None);
    }

    /// Programs that yield forever after a few syscalls: the scheduler
    /// ends the run with an `IdleExit` instead of an all-done break.
    #[derive(Clone)]
    struct Yielder {
        steps: u32,
    }

    impl App for Yielder {
        fn name(&self) -> &'static str {
            "yielder"
        }
        fn clone_app(&self) -> Option<Box<dyn App>> {
            Some(Box::new(self.clone()))
        }
        fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
            self.steps += 1;
            if self.steps < 10 {
                let _ = k.sys_print(pid, "y\r\n");
                Step::Continue
            } else {
                Step::Yield
            }
        }
    }

    fn mk_yielder() -> Box<dyn App> {
        Box::new(Yielder { steps: 0 })
    }

    /// The clean run from the post-boot rung, run live and drained:
    /// what a run resumed from any clean rung must equal.
    fn clean_run_from_boot(runner: &mut FleetRunner) -> RunRecord {
        let mut apps = runner.restore_to(&Rc::clone(&runner.clean), 0);
        with_mode(Mode::Observe, || {
            runner
                .kernel
                .run_with_factories(&mut apps, Some(runner.factories), MAX_TICKS)
        });
        let drained = trace::take();
        trace::disable();
        let violations = runner.clean.rungs[0].violations.clone();
        collect_record(&runner.kernel, None, 0, 0, violations, drained)
    }

    #[test]
    fn a_chunked_capture_never_runs_past_the_loops_own_end() {
        // The construction pass runs one tick per call; after the loop
        // ends on its own (all done, or the idle exit) it must capture no
        // rung and run no further tick, and a run resumed from the top
        // rung must end exactly where the run from boot ends.
        const YIELDERS: [crate::kernel::AppFactory; 3] = [mk_yielder, mk_yielder, mk_yielder];
        let idle =
            |chip: &ChipProfile| FleetRunner::with_scenario(chip, boot_campaign_kernel, &YIELDERS);
        let scenarios: [fn(&ChipProfile) -> FleetRunner; 3] =
            [FleetRunner::new, planted::runner, idle];
        let idle_exits = |events: &[TraceEvent]| {
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::IdleExit))
                .count()
        };
        for make in scenarios {
            let mut runner = make(&NRF52840DK);
            // The construction pass left the machine where the run ended.
            let end = runner.kernel.ticks;
            let last = runner.clean.rungs.last().expect("rungs").ticks;
            assert!(
                last < end,
                "a rung at tick {last} of a run that ended at {end}"
            );
            let resumed = runner.run_plan(None);
            let top = runner.clean.rungs.last().expect("rungs");
            assert!(Rc::ptr_eq(&runner.at, top), "resumed below the top rung");
            assert_eq!(
                runner.kernel.ticks, end,
                "the resumed run ran an extra tick"
            );
            assert!(idle_exits(&resumed.trace.events) <= 1);
            let from_boot = clean_run_from_boot(&mut runner);
            assert_eq!(runner.kernel.ticks, end);
            assert_eq!(record_difference(&from_boot, &resumed), None);
            assert_eq!(*resumed.trace.events, *runner.clean.trace);
        }
        // The idle scenario really ends on the idle exit.
        let mut runner = idle(&NRF52840DK);
        let (baseline, _, _) = runner.capture_ladder(None);
        assert_eq!(baseline.trace.events.last(), Some(&TraceEvent::IdleExit));
    }

    #[test]
    fn fleet_runs_resume_deep_rungs_and_match_fresh_boots_on_every_chip() {
        // Campaign seeds resume from the latest clean rung before their
        // first injection, which for some seeds is well past tick 1, and
        // every such run equals its fresh boot in every field.
        for chip in &ALL_CHIPS {
            let mut deepest = 0;
            for cold in [false, true] {
                let body = || {
                    let mut runner = FleetRunner::new(chip);
                    let mut deepest = 0;
                    for seed in 0..64 {
                        let fresh = run_one(chip, Some(seed));
                        let resumed = runner.run_seed(Some(seed));
                        assert_eq!(
                            record_difference(&fresh, &resumed),
                            None,
                            "{} seed {seed} cold {cold} from tick {}",
                            chip.name,
                            runner.at.ticks
                        );
                        deepest = deepest.max(runner.at.ticks);
                        trace::recycle(fresh.trace);
                        trace::recycle(resumed.trace);
                    }
                    deepest
                };
                deepest = deepest.max(match cold {
                    true => tt_hw::commit_cache::with_disabled(body),
                    false => body(),
                });
            }
            assert!(deepest >= 2, "{}: deepest rung {deepest}", chip.name);
        }
    }

    #[test]
    fn cold_rungs_skip_their_references_prefix() {
        // A cold runner's rungs keep their cursor offsets against its own
        // cold reference, and the in-place verdict equals the walk of the
        // drained run.
        for chip in &ALL_CHIPS {
            tt_hw::commit_cache::with_disabled(|| {
                let mut runner = FleetRunner::new(chip);
                let top = runner.clean.rungs.len() - 1;
                let skip = runner.clean.skip(top, true);
                assert_ne!(skip, PrefixSkip::default(), "{}", chip.name);
                assert_eq!(skip, runner.clean.skips[top], "{}", chip.name);
                let mut skipped = 0;
                for seed in 0..16 {
                    let plan = InjectionPlan::from_seed(seed, VICTIM as u32);
                    let (checked, _, _) = runner.run_checked(Some(&plan), None, Label::Seed(seed));
                    let at = runner.at.ticks as usize;
                    skipped += usize::from(runner.clean.skip(at, true).raw > 0);
                    let drained = runner.run_seed(Some(seed));
                    assert_eq!(
                        checked.oracle,
                        Some(runner.reference().walk_record(&drained)),
                        "{} seed {seed}",
                        chip.name
                    );
                    trace::recycle(drained.trace);
                }
                assert!(skipped > 0, "{}: no run skipped its prefix", chip.name);
            });
        }
    }

    /// Asserts `ladder`'s rungs from rung `from` on keep their cursor
    /// offsets against the reference reduced from `clean` up to the first
    /// observable divergence of its trace and get none past it. Returns
    /// how many rungs kept and lost them.
    fn skips_stop_at_the_divergence(
        ladder: &Ladder,
        from: usize,
        clean: &[TraceEvent],
    ) -> (usize, usize) {
        let observable = normalize(&ladder.trace, TraceScope::Observable);
        let shared = observable
            .iter()
            .zip(&normalize(clean, TraceScope::Observable))
            .take_while(|(a, b)| a == b)
            .count();
        let (mut kept, mut past) = (0, 0);
        for (i, &own) in ladder.skips.iter().enumerate().skip(from) {
            let skip = ladder.skip(i, true);
            if own.full > shared {
                past += 1;
                assert_eq!(skip, PrefixSkip::default(), "rung {i}");
            } else {
                kept += 1;
                assert_eq!(skip, own, "rung {i}");
            }
        }
        (kept, past)
    }

    #[test]
    fn a_ladder_diverging_observably_from_the_reference_skips_nothing_past_it() {
        // A seeded ladder whose injection changes the observable stream
        // mid-run: rungs before the divergence keep their offsets, every
        // rung after it loses them.
        let mut runner = FleetRunner::new(&NRF52840DK);
        let split = (0..64).find(|&seed| {
            runner.capture_ladder(Some(InjectionPlan::from_seed(seed, VICTIM as u32)));
            let seeded = runner.seeded.as_ref().expect("seeded ladder");
            let own = first_own(seeded, &runner.clean);
            let (kept, past) = skips_stop_at_the_divergence(seeded, own, &runner.clean.trace);
            kept > 0 && past > 0
        });
        assert!(split.is_some(), "no seed diverges mid-ladder");
    }

    #[test]
    fn planted_bug_is_minimised_to_its_commit_and_replays_drained() {
        let mut runner = planted::runner(&NRF52840DK);
        let outcome = explore(&mut runner, None, None);
        let finding = outcome.findings.first().expect("the planted bug is found");
        assert_eq!(finding.minimized, 0x6005, "{finding:#?}");
        assert!(outcome.rungs > 1);
        // A fresh runner has its clean ladder only: the drained replay
        // fails with exactly the in-place finding's lines for the
        // representative, and fails for the minimised ID.
        let mut fresh = planted::runner(&NRF52840DK);
        let reference = bystander_reference(&fresh.run_plan(None));
        let schedule = InterruptSchedule::from_id(finding.schedule);
        let run = fresh.run_scheduled(None, &schedule);
        assert_eq!(
            validate_scheduled(&NRF52840DK, &run, finding.schedule, &reference),
            finding.failures
        );
        let minimized = InterruptSchedule::from_id(finding.minimized);
        let run = fresh.run_scheduled(None, &minimized);
        let drained = validate_scheduled(&NRF52840DK, &run, finding.minimized, &reference);
        assert!(!drained.is_empty());
        // Replayed in place, through the one checked run, the minimised
        // ID fails with exactly the drained run's lines.
        let record = CorpusRecord {
            clean: true,
            schedule: finding.minimized,
            ..CorpusRecord::default()
        };
        assert_eq!(replay(&mut fresh, &record), drained);
    }

    /// One tick boundary a scheduled run passed after its schedule had
    /// nothing left to fire.
    #[derive(Debug)]
    struct Boundary {
        ticks: u64,
        /// The live trace's length there.
        trace_len: usize,
        /// Whether the live machine equalled its baseline's rung there.
        matched: bool,
    }

    /// `schedule`'s run under `plan`, resumed from its rung like the run
    /// body resumes it but simulated to its end one tick at a time,
    /// taking nothing from the ladder: the drained record, the cycle
    /// counter at the end, and every boundary past the schedule's last
    /// arrival, with the rung compare's verdict there.
    fn simulated_to_the_end(
        runner: &mut FleetRunner,
        plan: Option<InjectionPlan>,
        schedule: &InterruptSchedule,
    ) -> (RunRecord, u64, Vec<Boundary>) {
        let (own, index) = runner.pick(plan.as_ref(), Some(schedule));
        assert_eq!(own.plan, plan, "the runner holds the plan's ladder");
        let mut apps = runner.restore_to(&own, index);
        let rung = &own.rungs[index];
        let armed = plan.is_some();
        if let Some(p) = &plan {
            injection::resume(p, &rung.injection);
        }
        sched::arm_with_seen(schedule, rung.sched_seen);
        let mut boundaries = Vec::new();
        with_mode(Mode::Observe, || {
            while runner.kernel.ticks < MAX_TICKS
                && !runner.kernel.run_with_factories(
                    &mut apps,
                    Some(runner.factories),
                    runner.kernel.ticks + 1,
                )
            {
                if !sched::exhausted() {
                    continue;
                }
                let ticks = runner.kernel.ticks;
                let matched = own.rung_at(ticks).is_some_and(|r| {
                    r.matches(
                        &runner.kernel,
                        &runner.base,
                        &rung.mem,
                        &apps,
                        own.plan.as_ref(),
                    )
                });
                let trace_len = trace::with_events(|events| events.len());
                boundaries.push(Boundary {
                    ticks,
                    trace_len,
                    matched,
                });
            }
        });
        let fired = if armed { injection::disarm() } else { 0 };
        let irq_fired = sched::disarm();
        let drained = trace::take();
        trace::disable();
        let seed = plan.as_ref().map(|p| p.seed);
        let violations = rung.violations.clone();
        let record = collect_record(&runner.kernel, seed, fired, irq_fired, violations, drained);
        (record, tt_hw::cycles::now(), boundaries)
    }

    /// The tick boundary at which `run` rejoined its baseline at a rung,
    /// if it did.
    fn rejoined_at(runner: &FleetRunner, phases: &RunPhases) -> Option<u64> {
        (phases.rejoined && !phases.returned).then_some(runner.at.ticks + phases.ticks)
    }

    #[test]
    fn rejoined_runs_match_fresh_boots_on_every_chip() {
        // Every representative of the clean unit and of seeds 0 and 13,
        // on every chip: the drained record of the laddered run — which
        // mostly rejoins its baseline at its interrupt's return and takes
        // the rest from the ladder — equals the fresh boot's in every
        // field, and the cycle counter ends on the fresh boot's count.
        for chip in &ALL_CHIPS {
            let mut runner = FleetRunner::new(chip);
            let (mut runs, mut rejoined, mut returned) = (0, 0, 0);
            for seed in [None, Some(0), Some(13)] {
                let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
                let (baseline, _, _) = runner.capture_ladder(plan.clone());
                let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
                for class in commuting_classes(&baseline.trace.events, &candidates) {
                    let schedule = class[0].schedule();
                    let fresh = run_one_scheduled(chip, seed, Some(&schedule));
                    let fresh_cycles = tt_hw::cycles::now();
                    let (run, phases) = runner.run(plan.clone(), Some(&schedule));
                    let ctx = format!("{} seed {seed:?} schedule {:#x}", chip.name, schedule.id());
                    assert_eq!(record_difference(&fresh, &run), None, "{ctx}");
                    assert_eq!(tt_hw::cycles::now(), fresh_cycles, "{ctx}: cycles");
                    runs += 1;
                    rejoined += usize::from(phases.rejoined);
                    returned += usize::from(phases.returned);
                    trace::recycle(fresh.trace);
                    trace::recycle(run.trace);
                }
                trace::recycle(baseline.trace);
            }
            assert!(
                rejoined * 10 > runs * 8 && returned * 10 > runs * 9,
                "{}: {rejoined} of {runs} rejoined, {returned} at the interrupt's return",
                chip.name
            );
        }
    }

    /// A bystander that reads the cycle-derived sensor every fourth step
    /// of its life.
    #[derive(Clone)]
    struct SensingBystander {
        step_no: u32,
    }

    impl App for SensingBystander {
        fn name(&self) -> &'static str {
            "sensing-bystander"
        }
        fn clone_app(&self) -> Option<Box<dyn App>> {
            Some(Box::new(self.clone()))
        }
        fn state_word(&self) -> Option<u64> {
            Some(u64::from(self.step_no))
        }
        fn step(&mut self, k: &mut Kernel, pid: usize) -> Step {
            let i = self.step_no;
            self.step_no += 1;
            match i % 4 {
                0 => {
                    let _ = k.sys_command(pid, driver::SENSOR, 0, 0);
                }
                _ => {
                    let _ = k.sys_print(pid, "s\r\n");
                }
            }
            if self.step_no >= 24 {
                Step::Exit
            } else {
                Step::Continue
            }
        }
    }

    fn mk_sensing() -> Box<dyn App> {
        Box::new(SensingBystander { step_no: 0 })
    }

    #[test]
    fn a_baseline_that_reads_the_cycle_counter_is_rejoined_only_past_its_last_read() {
        // An interrupt shifts the cycle counter, so every later sensor
        // reading differs from the baseline's: a run may take the
        // baseline's continuation only from past the baseline's last
        // read — at a rung, or at an interrupt's return. Every
        // representative still equals the run simulated to its end,
        // cycle counter included.
        const SENSING: [AppFactory; 3] = [CAMPAIGN_FACTORIES[0], mk_sensing, CAMPAIGN_FACTORIES[2]];
        let chip = &NRF52840DK;
        let mut runner = FleetRunner::with_scenario(chip, boot_campaign_kernel, &SENSING);
        let baseline = runner.run_plan(None);
        let last_read = baseline
            .trace
            .events
            .iter()
            .rposition(|e| {
                matches!(e, TraceEvent::SyscallEnter { call: crate::trace::SyscallKind::Command, arg0, .. }
                    if *arg0 as usize == driver::SENSOR)
            })
            .expect("the bystander reads the sensor");
        let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
        let (mut refused, mut rejoined) = (0, 0);
        let (mut refused_at_return, mut returned) = (0, 0);
        for class in commuting_classes(&baseline.trace.events, &candidates) {
            let schedule = class[0].schedule();
            let (want, want_cycles, boundaries) =
                simulated_to_the_end(&mut runner, None, &schedule);
            let (got, phases) = runner.run(None, Some(&schedule));
            let ctx = format!("schedule {:#x}", schedule.id());
            assert_eq!(record_difference(&want, &got), None, "{ctx}");
            assert_eq!(tt_hw::cycles::now(), want_cycles, "{ctx}: cycles");
            // An interrupt that recorded nothing but its entry and exit,
            // arriving before the last read: the baseline's rest, behind
            // the interrupt's two events, is not this run's rest, and the
            // run does not stop at the interrupt's return.
            let pos = class[0].pos;
            let irq = &want.trace.events[pos..pos + 2];
            let quiet = matches!(
                irq,
                [TraceEvent::IrqEnter { .. }, TraceEvent::IrqExit { .. }]
            );
            if pos <= last_read && quiet {
                assert!(!phases.returned, "{ctx} stopped before the last read");
                let spliced = [
                    &baseline.trace.events[..pos],
                    irq,
                    &baseline.trace.events[pos..],
                ];
                assert_ne!(want.trace.events, spliced.concat(), "{ctx}");
                refused_at_return += 1;
            }
            returned += usize::from(phases.returned);
            let Some(at) = rejoined_at(&runner, &phases) else {
                continue;
            };
            rejoined += 1;
            let rung = runner.clean.rung_at(at).expect("rung");
            assert!(
                rung.trace_len > last_read,
                "{ctx} rejoined before the last read"
            );
            // The machine equalled a rung before the read, and the
            // guard turned it down there.
            let first_equal = boundaries
                .iter()
                .find(|b| b.matched)
                .expect("an equal rung");
            refused += usize::from(first_equal.ticks < at);
        }
        assert!(
            refused > 0 && rejoined > 0,
            "{refused} refused, {rejoined} rejoined"
        );
        assert!(
            refused_at_return > 0 && returned > 0,
            "{refused_at_return} refused at the interrupt's return, {returned} returned"
        );
    }

    #[test]
    fn a_run_whose_trace_matches_but_state_differs_does_not_rejoin_there() {
        // A front-run restart re-commits the interrupted process's
        // configuration, which the injection engine counts as register
        // writes in the victim's context: its occurrence counters run
        // ahead of the baseline's, so a pending injection would fire
        // elsewhere. Until then the run's trace can follow the
        // baseline's event for event while its state differs; the run
        // must not rejoin at such a boundary, and must still equal its
        // fresh boot.
        let chip = &NRF52840DK;
        let mut runner = FleetRunner::new(chip);
        let mut found = 0;
        for seed in 0..16 {
            let plan = Some(InjectionPlan::from_seed(seed, VICTIM as u32));
            let (baseline, _, _) = runner.capture_ladder(plan.clone());
            let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
            for class in commuting_classes(&baseline.trace.events, &candidates) {
                let schedule = class[0].schedule();
                let (want, _, boundaries) =
                    simulated_to_the_end(&mut runner, plan.clone(), &schedule);
                let own = runner.seeded.as_ref().expect("seeded ladder");
                // Boundaries where the state differs from the rung while
                // the trace goes on exactly as the baseline's does for
                // the next tick's worth of events.
                let lookalike = boundaries.iter().find(|b| {
                    let Some(rung) = own.rung_at(b.ticks) else {
                        return false;
                    };
                    let ahead = 16.min(own.trace.len() - rung.trace_len);
                    !b.matched
                        && ahead > 0
                        && want.trace.events.get(b.trace_len..b.trace_len + ahead)
                            == Some(&own.trace[rung.trace_len..rung.trace_len + ahead])
                });
                let Some(lookalike) = lookalike.map(|b| b.ticks) else {
                    continue;
                };
                found += 1;
                let (got, phases) = runner.run(plan.clone(), Some(&schedule));
                let ctx = format!("seed {seed} schedule {:#x}", schedule.id());
                assert_eq!(
                    record_difference(&run_one_scheduled(chip, Some(seed), Some(&schedule)), &got),
                    None,
                    "{ctx}"
                );
                assert_eq!(record_difference(&want, &got), None, "{ctx}");
                assert!(
                    rejoined_at(&runner, &phases).is_none_or(|at| at != lookalike),
                    "{ctx}: rejoined at tick {lookalike}, where only the trace matches"
                );
            }
        }
        assert!(
            found > 0,
            "no run's trace matched its baseline while its state differed"
        );
    }

    #[test]
    fn the_rung_compare_notices_every_field_it_compares() {
        // Restored to a mid-run rung of a seeded ladder whose plan still
        // has an injection to fire, the live machine equals the rung;
        // with any one compared field changed, it does not.
        type Change = fn(&mut Kernel, &mut Vec<Box<dyn App>>, &mut tt_hw::injection::Progress);
        let changes: [(&str, Change); 13] = [
            ("nothing", |_, _, _| {}),
            ("ticks", |k, _, _| k.ticks += 1),
            ("process table", |k, _, _| k.processes[1].console.push('!')),
            ("program state", |_, apps, _| {
                apps[1] = CAMPAIGN_FACTORIES[1]()
            }),
            ("restart_due", |k, _, _| k.restart_due[2] = Some(MAX_TICKS)),
            ("pending_respawn", |k, _, _| k.pending_respawn[2] = true),
            ("alarms", |k, _, _| k.capsules.set_alarm(1, k.ticks, 5, 1)),
            ("subscriptions", |k, _, _| {
                k.subscriptions[1].push(driver::LED)
            }),
            ("commit cache", |k, _, _| {
                k.machine.cache().note_committed(7, u64::MAX)
            }),
            ("injection progress", |_, _, progress| progress.seen[0] += 1),
            ("register file", |k, _, _| match k.machine.kind() {
                crate::machine::MachineKind::CortexM(mpu) => {
                    let enable = mpu.borrow().enable;
                    mpu.borrow_mut().write_ctrl(!enable, true);
                }
                crate::machine::MachineKind::Pmp(_) => unreachable!("an ARM chip"),
            }),
            ("RAM", |k, _, _| {
                let at = k.processes[1].memory_start() + 600;
                let word = k.mem.read_u32(at).expect("RAM");
                k.mem.write_u32(at, word ^ 1).expect("RAM");
            }),
            ("fault log", |k, _, _| k.fault_log.push((1, "fault".into()))),
        ];
        let mut runner = FleetRunner::new(&NRF52840DK);
        let (plan, index) = (0..64)
            .find_map(|seed| {
                let plan = InjectionPlan::from_seed(seed, VICTIM as u32);
                runner.capture_ladder(Some(plan.clone()));
                let seeded = runner.seeded.as_ref().expect("seeded ladder");
                let own = &seeded.rungs[first_own(seeded, &runner.clean)..];
                let index = own.iter().rposition(|r| !plan.spent_by(&r.injection))?;
                Some((plan, seeded.rungs.len() - own.len() + index))
            })
            .expect("a seeded rung with an injection still to fire");
        let seeded = Rc::clone(runner.seeded.as_ref().expect("seeded ladder"));
        let rung = &seeded.rungs[index];
        for (what, change) in changes {
            let mut apps = runner.restore_to(&seeded, index);
            let mut progress = rung.injection.clone();
            change(&mut runner.kernel, &mut apps, &mut progress);
            injection::resume(&plan, &progress);
            let equal = rung.matches(&runner.kernel, &runner.base, &rung.mem, &apps, Some(&plan));
            injection::disarm();
            trace::disable();
            assert_eq!(equal, what == "nothing", "{what}");
        }
    }

    #[test]
    fn an_interrupt_the_kernel_reports_inert_leaves_the_machine_as_it_was() {
        // At every rung past boot of the clean ladder and of seeded ones,
        // on one ARM and one RISC-V chip, the interrupt is taken at every
        // arrival point in every process's context. Each one the kernel
        // reports inert — the run stays armed — leaves the machine equal
        // to the rung, and counts exactly the events and cycles it added.
        // The others ran a front-run restart. Taken again with a
        // bystander's alarm due at the next tick, no interrupt is inert:
        // it fires the alarm early.
        for chip in [&NRF52840DK, &EARLGREY] {
            let mut runner = FleetRunner::new(chip);
            let (mut inert, mut changed) = (0, 0);
            for seed in [None, Some(0), Some(2), Some(5)] {
                let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
                runner.capture_ladder(plan.clone());
                let (ladder, _) = runner.pick(plan.as_ref(), None);
                // The post-boot rung holds no programs to compare.
                for (index, rung) in ladder.rungs.iter().enumerate().skip(1) {
                    for (pid, point) in (0..BYSTANDERS + 1).flat_map(|pid| {
                        ALL_ARRIVAL_POINTS
                            .into_iter()
                            .map(move |point| (pid, point))
                    }) {
                        for due in [false, true] {
                            let apps = runner.restore_to(&ladder, index);
                            if let Some(p) = &plan {
                                injection::resume(p, &rung.injection);
                            }
                            if due {
                                let now = runner.kernel.ticks;
                                runner.kernel.capsules.set_alarm(BYSTANDERS, now, 1, 7);
                            }
                            runner.kernel.inert_irqs = ladder.arm(rung);
                            let len = || trace::with_events(|events| events.len());
                            let (events, cycles) = (len(), tt_hw::cycles::now());
                            with_mode(Mode::Observe, || runner.kernel.interrupt_now(pid, point));
                            let ctx = format!(
                                "{} seed {seed:?} rung {index} pid{pid} {point:?} due {due}",
                                chip.name
                            );
                            match runner.kernel.inert_irqs.take() {
                                Some(irqs) => {
                                    assert!(!due, "{ctx}: an alarm fired early");
                                    inert += 1;
                                    assert_eq!(irqs.events, len() - events, "{ctx}: events");
                                    assert_eq!(irqs.cycles, tt_hw::cycles::now() - cycles, "{ctx}");
                                    let (kernel, base) = (&runner.kernel, &runner.base);
                                    let plan = ladder.plan.as_ref();
                                    assert!(
                                        rung.matches(kernel, base, &rung.mem, &apps, plan),
                                        "{ctx}"
                                    );
                                }
                                None => changed += usize::from(!due),
                            }
                            let _ = injection::disarm();
                            drop(take_violations());
                        }
                    }
                }
            }
            trace::disable();
            assert!(
                inert > 0 && changed > 0,
                "{}: {inert} inert, {changed} changed something",
                chip.name
            );
        }
    }

    #[test]
    fn the_runners_clean_reference_is_its_clean_runs() {
        // Each runner's reference is its own clean run. A cold one's raw
        // trace differs from a warm one's in `RegWrite`s, but each
        // reference holds the other mode's clean run to be clean: their
        // observable streams, which every failure line renders from, are
        // the same.
        for chip in &ALL_CHIPS {
            let clean_run = |cold: bool| {
                let body = || {
                    let mut runner = FleetRunner::new(chip);
                    let clean = runner.run_plan(None);
                    let own = Reference::new(clean.trace.events.as_slice().into());
                    assert_eq!(*runner.reference(), own, "{} cold {cold}", chip.name);
                    (own, clean)
                };
                match cold {
                    true => tt_hw::commit_cache::with_disabled(body),
                    false => body(),
                }
            };
            let ((warm, warm_run), (cold, cold_run)) = (clean_run(false), clean_run(true));
            assert_ne!(
                warm_run.trace.events, cold_run.trace.events,
                "{}",
                chip.name
            );
            for (reference, run) in [(&warm, &cold_run), (&cold, &warm_run)] {
                let clean = StreamVerdict {
                    events: run.trace.events.len(),
                    ..StreamVerdict::default()
                };
                assert_eq!(reference.walk_record(run), clean, "{}", chip.name);
            }
        }
    }

    #[test]
    fn every_ladder_lists_its_rungs_from_boot() {
        // Rung i stands at tick i on the clean ladder and on every seeded
        // one, with its prefix's cursor offsets. A seeded ladder shares
        // the clean rungs, offsets and trace up to the latest clean rung
        // before its plan's first injection, where its pass resumed.
        for chip in &ALL_CHIPS {
            for cold in [false, true] {
                let body = || {
                    let mut runner = FleetRunner::new(chip);
                    let clean = Rc::clone(&runner.clean);
                    let mut ladders = vec![(None, Rc::clone(&clean))];
                    for seed in [0, 3, 13] {
                        let plan = InjectionPlan::from_seed(seed, VICTIM as u32);
                        let (_, height, _) = runner.capture_ladder(Some(plan.clone()));
                        let seeded = runner.seeded.as_ref().expect("seeded ladder");
                        assert_eq!(height, seeded.rungs.len());
                        ladders.push((Some(plan), Rc::clone(seeded)));
                    }
                    for (plan, ladder) in &ladders {
                        let seed = plan.as_ref().map(|p| p.seed);
                        let ctx = format!("{} cold {cold} seed {seed:?}", chip.name);
                        assert_eq!(ladder.rungs.len(), ladder.skips.len(), "{ctx}");
                        for (i, (rung, &skip)) in ladder.rungs.iter().zip(&ladder.skips).enumerate()
                        {
                            assert_eq!(rung.ticks, i as u64, "{ctx}");
                            let prefix = &ladder.trace[..rung.trace_len];
                            let want = PrefixSkip::default().advance(prefix);
                            assert_eq!(skip, want, "{ctx} rung {i}");
                        }
                        let Some(plan) = plan else {
                            continue;
                        };
                        let start = clean
                            .rungs
                            .iter()
                            .rposition(|r| !plan.fires_within(&r.injection.seen))
                            .expect("nothing fires before boot");
                        assert_eq!(first_own(ladder, &clean), start + 1, "{ctx}");
                        assert_eq!(ladder.skips[..=start], clean.skips[..=start], "{ctx}");
                        let len = clean.rungs[start].trace_len;
                        assert_eq!(ladder.trace[..len], clean.trace[..len], "{ctx}");
                    }
                };
                match cold {
                    true => tt_hw::commit_cache::with_disabled(body),
                    false => body(),
                }
            }
        }
    }

    #[test]
    fn perturbed_runs_skip_rungs_past_the_victims_divergence() {
        // A seeded ladder whose injection changes the whole observable
        // stream mid-run loses its whole-stream skips past the divergence;
        // its bystander streams still agree with the reference, so a
        // perturbed run keeps every rung's bystander offsets.
        let mut runner = FleetRunner::new(&NRF52840DK);
        let split = (0..64).find(|&seed| {
            runner.capture_ladder(Some(InjectionPlan::from_seed(seed, VICTIM as u32)));
            let seeded = runner.seeded.as_ref().expect("seeded ladder");
            let lost = (0..seeded.rungs.len())
                .filter(|&i| seeded.skip(i, true) != seeded.skips[i])
                .count();
            for (i, &own) in seeded.skips.iter().enumerate() {
                assert_eq!(seeded.skip(i, false), own, "seed {seed} rung {i}");
            }
            lost > 0
        });
        assert!(split.is_some(), "no seed diverges mid-ladder");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The oracle's cut is exact: a representative of any unit,
        /// checked in place against the runner's clean reference (its rung
        /// prefix skipped and, where it rejoined its baseline, the suffix
        /// it took left unwalked) gets the verdict of the same schedule
        /// run from boot and walked from event 0.
        #[test]
        fn rejoined_verdicts_match_walks_of_fresh_boots(
            chip_idx in 0usize..ALL_CHIPS.len(),
            seed in prop_oneof![Just(None::<u64>), (0u64..200).prop_map(Some)],
            pick in 0usize..1 << 20,
        ) {
            let (chip, seed): (&ChipProfile, Option<u64>) = (&ALL_CHIPS[chip_idx], seed);
            let plan = seed.map(|s| InjectionPlan::from_seed(s, VICTIM as u32));
            let mut runner = FleetRunner::new(chip);
            let (baseline, _, _) = runner.capture_ladder(plan.clone());
            let candidates = enumerate_candidates(&baseline.trace.events, runner.boot_events());
            let classes = commuting_classes(&baseline.trace.events, &candidates);
            let schedule = classes[pick % classes.len()][0].schedule();
            let label = Label::Schedule(schedule.id());
            let (checked, phases, _) = runner.run_checked(plan.as_ref(), Some(&schedule), label);
            let fresh = run_one_scheduled(chip, seed, Some(&schedule));
            let streams = checked.oracle.expect("checked in place");
            prop_assert_eq!(
                &streams,
                &runner.reference().walk_record(&fresh),
                "{} seed {:?} schedule {:#x}", chip.name, seed, schedule.id()
            );
            if phases.rejoined {
                prop_assert!(
                    phases.walked + phases.rejoined_events <= streams.events,
                    "the cut was refused: walked {} of {}", phases.walked, streams.events
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Ladder equivalence: any representative of any unit, resumed
        /// from its rung and checked in place, matches the run from the
        /// snapshot byte for byte.
        #[test]
        fn ladder_runs_match_snapshot_runs_for_arbitrary_units(
            chip_idx in 0usize..ALL_CHIPS.len(),
            seed in prop_oneof![Just(None::<u64>), (0u64..200).prop_map(Some)],
            pick in 0usize..1 << 20,
            cold in any::<bool>(),
        ) {
            assert_rung_equivalent(&ALL_CHIPS[chip_idx], seed, pick, cold);
        }
    }
}
