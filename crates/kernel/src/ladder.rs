//! Checkpoint ladders: the rungs one baseline run passed, one per tick
//! boundary from boot, over the trace they were captured along
//! ([`Ladder`]), how the baseline ended ([`Finish`]), the capture pass
//! that builds a ladder ([`Capture`]), and how a scheduled run rejoins
//! its baseline and takes the rest of the run from it ([`Join`],
//! [`Ladder::splice`]). The
//! [`FleetRunner`](crate::campaign::FleetRunner) owns the ladders and
//! runs every pass and run through its one run body.
//!
//! A scheduled run joins its baseline one of two ways, once its schedule
//! is spent:
//!
//! - **At an interrupt's return.** An interrupt that fired no alarm and
//!   ran no restart changed nothing but the trace and the cycle counter
//!   (`Kernel::interrupt_now`), so the run has replayed the baseline up
//!   to the arrival by construction. If the baseline reads the counter
//!   nowhere past there, the run stops at the end of the app step and
//!   joins the baseline at its own event count less the interrupts'
//!   events ([`Ladder::arm`], [`Join::at_return`]). No compare is needed.
//! - **At a rung.** Any other run is compared with the baseline's rung
//!   at each tick boundary past its last arrival ([`Ladder::rejoin`]).

use std::rc::Rc;
use std::time::Instant;

use crate::campaign::{RunRecord, TRACE_CAPACITY};
use crate::kernel::{App, InertIrqs, Kernel};
use crate::oracle::{PrefixSkip, Shared, Suffix};
use crate::snapshot::Checkpoint;
use crate::trace::TraceEvent;
use tt_contracts::take_violations;
use tt_hw::injection::InjectionPlan;
use tt_hw::mem::{MemSnapshot, PageDelta};
use tt_hw::sched;
use tt_hw::trace;

/// A checkpoint ladder: the rungs one baseline run passed, one per tick
/// boundary from boot, over the trace they were captured along.
pub(crate) struct Ladder {
    /// The plan the baseline ran under; `None` for the clean ladder,
    /// captured under the empty counting plan.
    pub(crate) plan: Option<InjectionPlan>,
    /// The baseline's trace: each rung's prefix is its first
    /// `trace_len` events. The clean ladder's is also the buffer of the
    /// runner's oracle reference.
    pub(crate) trace: Rc<[TraceEvent]>,
    /// One checkpoint per tick boundary the baseline reached, from boot:
    /// rung `i` stands at tick `i`. A seeded ladder shares the clean
    /// ladder's rungs up to the one its capture pass resumed from.
    pub(crate) rungs: Vec<Rc<Checkpoint>>,
    /// The oracle's cursor offsets for each rung's trace prefix.
    pub(crate) skips: Vec<PrefixSkip>,
    /// How far `trace` agrees with the runner's reference from the start.
    pub(crate) shared: Shared,
    /// Where `trace` agrees with the runner's reference to the end.
    pub(crate) suffix: Suffix,
    /// How the baseline ended; `None` until its capture pass ran.
    pub(crate) finish: Option<Finish>,
}

/// How a ladder's baseline ended: what a scheduled run that rejoins the
/// baseline takes from here instead of simulating it.
pub(crate) struct Finish {
    /// The baseline's drained record, its trace left empty (the ladder
    /// holds the trace).
    pub(crate) record: RunRecord,
    /// The cycle counter at the end.
    pub(crate) cycles: u64,
    /// The thread's cycle-read count at the end, against
    /// [`Checkpoint`]'s `samples`.
    pub(crate) samples: u64,
}

/// Where a scheduled run joined its ladder's baseline: the baseline at
/// trace position `trace_len`, from which the run takes the rest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Join {
    /// The latest rung at or before the join.
    pub(crate) rung: usize,
    /// Baseline trace events before the join.
    pub(crate) trace_len: usize,
    /// Baseline contract violations before the join.
    pub(crate) violations: usize,
    /// The baseline's cycle counter at the join.
    pub(crate) cycles: u64,
    /// The baseline's commit-cache hit and miss counters at the join.
    pub(crate) cache: (u64, u64),
}

impl Join {
    /// The join of a run that stopped at the end of the app step in
    /// which its last interrupt returned, every one of them `inert`, and
    /// that resumed from rung `rung`. Up to there the run replayed the
    /// baseline, plus the interrupts' own events and cycles, so the
    /// baseline stands at the live trace's length less those events, the
    /// live counter less those cycles, and the live violations and
    /// commit-cache counters of `record` (collected at the stop).
    pub(crate) fn at_return(rung: usize, inert: InertIrqs, record: &RunRecord) -> Join {
        let live = trace::with_events(|events| events.len());
        Join {
            rung,
            trace_len: live - inert.events,
            violations: record.violations.len(),
            cycles: tt_hw::cycles::now().wrapping_sub(inert.cycles),
            cache: (record.cache_hits, record.cache_misses),
        }
    }
}

impl Ladder {
    /// The rung along this ladder's baseline at tick boundary `ticks`.
    pub(crate) fn rung_at(&self, ticks: u64) -> Option<&Checkpoint> {
        self.rungs.get(usize::try_from(ticks).ok()?).map(|r| &**r)
    }

    /// What a scheduled run under this ladder's plan that resumed from
    /// `rung` arms the kernel with, so that it stops at an interrupt's
    /// return (`Kernel::interrupt_now`): the thread's cycle-read count
    /// at which the baseline reads the counter no more, and the room the
    /// trace ring has past the baseline's whole trace. `None` before the
    /// baseline's capture pass ran.
    pub(crate) fn arm(&self, rung: &Checkpoint) -> Option<InertIrqs> {
        let finish = self.finish.as_ref()?;
        Some(InertIrqs {
            samples: tt_hw::cycles::samples() + (finish.samples - rung.samples),
            room: TRACE_CAPACITY.saturating_sub(self.trace.len()),
            events: 0,
            cycles: 0,
        })
    }

    /// Where a scheduled run under this ladder's plan has rejoined the
    /// baseline at a rung, standing on a tick boundary, if the rest of
    /// the run can be taken from the baseline: the schedule has nothing
    /// left to fire, the baseline reads the cycle counter nowhere past
    /// the rung (the counter is the one thing the compare leaves out),
    /// the baseline's suffix fits the trace ring unwrapped, and the live
    /// machine equals the rung ([`Checkpoint::matches`]). `from` is the
    /// delta of the rung the run resumed from.
    pub(crate) fn rejoin(
        &self,
        kernel: &Kernel,
        base: &MemSnapshot,
        from: &PageDelta,
        apps: &[Box<dyn App>],
    ) -> Option<Join> {
        let finish = self.finish.as_ref()?;
        let rung = self.rung_at(kernel.ticks)?;
        let suffix = self.trace.len() - rung.trace_len;
        let fits = || {
            trace::with_events(|events| {
                events.dropped == 0 && events.len() + suffix <= TRACE_CAPACITY
            })
        };
        (sched::exhausted()
            && rung.samples == finish.samples
            && fits()
            && rung.matches(kernel, base, from, apps, self.plan.as_ref()))
        .then(|| Join {
            rung: kernel.ticks as usize,
            trace_len: rung.trace_len,
            violations: rung.violations.len(),
            cycles: rung.cycles,
            cache: rung.cache.counters(),
        })
    }

    /// Takes the rest of a run that joined this ladder's baseline at
    /// `join` from the baseline: appends the baseline's trace past the
    /// join to the ring, shared with the ladder's trace, not copied
    /// ([`trace::share_suffix`]), and moves the cycle counter on by the baseline's
    /// remainder, then completes `record` with the baseline's violations
    /// past the join, its terminal states, restart, recovery and fired
    /// counts, and its commit-cache counters' remainder (they only
    /// count, so a rung's may differ from the live ones). Returns the
    /// ring's length before the append.
    pub(crate) fn splice(&self, join: &Join, record: &mut RunRecord) -> usize {
        let finish = self
            .finish
            .as_ref()
            .expect("a joined ladder has its finish");
        let live = trace::with_events(|events| events.len());
        trace::share_suffix(&self.trace, join.trace_len);
        let now = tt_hw::cycles::now();
        tt_hw::cycles::set_now(now.wrapping_add(finish.cycles.wrapping_sub(join.cycles)));
        let end = &finish.record;
        record
            .violations
            .extend_from_slice(&end.violations[join.violations..]);
        record.fired = end.fired;
        record.cache_hits += end.cache_hits - join.cache.0;
        record.cache_misses += end.cache_misses - join.cache.1;
        record.states.clone_from(&end.states);
        record.restarts = end.restarts;
        record.recoveries = end.recoveries;
        record.recovery_cycles = end.recovery_cycles;
        live
    }

    /// Rung `index`'s cursor offsets if its prefix projects onto a prefix
    /// of the reference streams a run is held to (no offsets otherwise):
    /// the whole observable stream if `unperturbed`, else each
    /// bystander's, whatever the victim did (only the offsets' `by` half
    /// is meaningful then). Restore installs prefixes of `trace` only, so
    /// one walk per ladder ([`Shared::of`]) serves every run.
    pub(crate) fn skip(&self, index: usize, unperturbed: bool) -> PrefixSkip {
        let shared = match unperturbed {
            true => self.shared.full,
            false => self.shared.bystanders,
        };
        match self.rungs[index].trace_len <= shared {
            true => self.skips[index],
            false => PrefixSkip::default(),
        }
    }

    /// The cursor offsets of the baseline's prefix up to `join`: its
    /// rung's, advanced over the baseline's events from the rung on.
    pub(crate) fn cursor(&self, join: &Join) -> PrefixSkip {
        let from = self.rungs[join.rung].trace_len;
        self.skips[join.rung].advance(&self.trace[from..join.trace_len])
    }
}

/// The capture pass's state: the ladder it builds so far, and what its
/// capture hook needs to add a rung.
pub(crate) struct Capture {
    /// The clean rungs the pass shares up to the one it resumed from,
    /// then one rung per tick boundary it reached.
    pub(crate) rungs: Vec<Rc<Checkpoint>>,
    /// Whether every program so far could be cloned into a rung.
    pub(crate) resumable: bool,
    /// Cycle-counter reads along the baseline up to the rung the pass
    /// resumed from, and this thread's count when the pass started.
    pub(crate) samples: (u64, u64),
    /// Wall-clock nanoseconds spent capturing rungs.
    pub(crate) ns: u64,
}

impl Capture {
    /// Cycle-counter reads since boot, along this baseline.
    pub(crate) fn samples(&self) -> u64 {
        self.samples.0 + (tt_hw::cycles::samples() - self.samples.1)
    }

    /// The capture hook: checkpoints the live machine at the tick
    /// boundary the run stopped at, with the run's `violations` so far
    /// (this thread's sink drained into them first). `from` is the delta
    /// of the rung the run resumed from. After a program that cannot be
    /// cloned, the pass captures no further rung.
    pub(crate) fn take(
        &mut self,
        kernel: &Kernel,
        from: &PageDelta,
        apps: &[Box<dyn App>],
        violations: &mut Vec<String>,
    ) {
        if !self.resumable {
            return;
        }
        let t0 = Instant::now();
        violations.extend(take_violations().iter().map(|v| format!("{v:?}")));
        let len = trace::with_events(|events| events.len());
        let samples = self.samples();
        let rung = Checkpoint::capture(kernel, from, Some(apps), violations.clone(), len, samples);
        self.resumable = rung.is_some();
        self.rungs.extend(rung.map(Rc::new));
        self.ns += t0.elapsed().as_nanos() as u64;
    }
}
