//! Deterministic interrupt-arrival schedules ("adversarial timing").
//!
//! The fault-injection engine ([`crate::injection`]) decides *what* goes
//! wrong; this module decides *when* the timer interrupt lands. The
//! paper's isolation argument (§4.5) exists precisely because interrupt
//! timing around syscall and MPU/PMP commit boundaries is where seeded
//! tests cannot reach — a bug may only manifest when an interrupt lands
//! *between* a staged protection write and its hardware commit.
//!
//! An [`InterruptSchedule`] names up to [`MAX_ARRIVALS`] arrival points:
//! "the `at`-th time execution passes boundary `point`, the timer
//! interrupt fires there instead of at the next tick top". The kernel
//! consults [`arrival`] at each boundary; when it returns `true` the
//! kernel services the interrupt at that exact spot. Schedules encode to
//! a compact 64-bit [`InterruptSchedule::id`] so any exploration failure
//! is a one-line deterministic repro, exactly like an injection seed.
//!
//! The engine is thread-local like the injection engine: occurrence
//! counters live per worker, [`arm_with_seen`] resumes them from a
//! machine checkpoint, and the disarmed fast path is a single scalar read
//! of [`tt_contracts::simctx::SimContext::sched_armed`].

use std::cell::RefCell;

use tt_contracts::simctx;

/// Where an interrupt arrival may be scheduled. Each point corresponds
/// to one boundary the kernel consults, identified in the trace ring by
/// the event that brackets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArrivalPoint {
    /// Immediately after a syscall handler records `SyscallEnter` —
    /// the interrupt preempts the handler before it does any work.
    SyscallEnter,
    /// Immediately before a syscall handler records `SyscallExit` —
    /// the interrupt lands after the handler's work, before the return.
    SyscallExit,
    /// Inside the kernel's MPU/PMP commit helper, *between* the staged
    /// configuration being decided and the hardware write-out — the
    /// stage→commit window of §4.5.
    MpuCommit,
    /// At a scheduler decision boundary: after the scheduler picks a
    /// process and establishes its protection, before its slice runs.
    SchedulerDecision,
}

/// All arrival points, for schedule enumeration and exhaustive tests.
pub const ALL_ARRIVAL_POINTS: [ArrivalPoint; 4] = [
    ArrivalPoint::SyscallEnter,
    ArrivalPoint::SyscallExit,
    ArrivalPoint::MpuCommit,
    ArrivalPoint::SchedulerDecision,
];

/// Largest occurrence index a schedule slot can encode (13 bits).
pub const MAX_AT: u32 = (1 << 13) - 1;

/// Most arrivals one schedule can carry (one per 16-bit ID slot).
pub const MAX_ARRIVALS: usize = 4;

/// One scheduled interrupt arrival: the timer fires at the `at`-th time
/// execution passes `point` (0-based, counted since [`arm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Arrival {
    /// Which boundary.
    pub point: ArrivalPoint,
    /// Which occurrence of the boundary (0 = the first since arming).
    pub at: u32,
}

/// A complete, replayable interrupt-arrival schedule for one run.
///
/// Canonical form (what [`Self::new`] and [`Self::from_id`] produce):
/// arrivals sorted by `(point, at)` with duplicates removed, so equal
/// schedules compare equal and `id` round-trips bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InterruptSchedule {
    /// The scheduled arrivals (each fires at most once).
    pub arrivals: Vec<Arrival>,
}

/// The point's index in [`ALL_ARRIVAL_POINTS`]: its discriminant.
fn point_index(point: ArrivalPoint) -> usize {
    point as usize
}

impl InterruptSchedule {
    /// The empty schedule: armed runs count boundary occurrences (so a
    /// snapshot can record them) but never fire an interrupt.
    pub fn empty() -> Self {
        Self { arrivals: vec![] }
    }

    /// Builds a canonical schedule from arrivals (sorted, deduped,
    /// truncated to [`MAX_ARRIVALS`], occurrence clamped to [`MAX_AT`]).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        for a in &mut arrivals {
            a.at = a.at.min(MAX_AT);
        }
        arrivals.sort_by_key(|a| (point_index(a.point), a.at));
        arrivals.dedup();
        arrivals.truncate(MAX_ARRIVALS);
        Self { arrivals }
    }

    /// The single-arrival schedule — the explorer's bread and butter.
    pub fn single(point: ArrivalPoint, at: u32) -> Self {
        let mut schedule = Self::empty();
        schedule.set_single(point, at);
        schedule
    }

    /// Makes this the single-arrival schedule [`Self::single`] builds,
    /// in this schedule's own storage: a caller that sweeps schedules one
    /// at a time allocates once.
    pub fn set_single(&mut self, point: ArrivalPoint, at: u32) {
        self.arrivals.clear();
        self.arrivals.push(Arrival {
            point,
            at: at.min(MAX_AT),
        });
    }

    /// Encodes the schedule as a replayable 64-bit ID: four 16-bit
    /// slots, each `0` (empty) or `(point_index + 1) << 13 | at`.
    pub fn id(&self) -> u64 {
        let mut id = 0u64;
        for (slot, a) in self.arrivals.iter().take(MAX_ARRIVALS).enumerate() {
            let v = ((point_index(a.point) as u64 + 1) << 13) | u64::from(a.at.min(MAX_AT));
            id |= v << (16 * slot);
        }
        id
    }

    /// Decodes a schedule ID back into its canonical schedule. Every
    /// value [`Self::id`] produces round-trips exactly; unknown point
    /// tags in foreign IDs decode as empty slots.
    pub fn from_id(id: u64) -> Self {
        let mut arrivals = Vec::with_capacity(MAX_ARRIVALS);
        for slot in 0..MAX_ARRIVALS {
            let v = (id >> (16 * slot)) & 0xFFFF;
            let tag = (v >> 13) as usize;
            if tag == 0 || tag > ALL_ARRIVAL_POINTS.len() {
                continue;
            }
            arrivals.push(Arrival {
                point: ALL_ARRIVAL_POINTS[tag - 1],
                at: (v & MAX_AT as u64) as u32,
            });
        }
        Self::new(arrivals)
    }

    /// Returns `true` if any scheduled arrival would fire during a run
    /// prefix whose per-point occurrence counts
    /// ([`ALL_ARRIVAL_POINTS`] order) are `seen` — i.e. the arrival
    /// belongs in the prefix a checkpoint would skip, so the runner must
    /// resume from an earlier one (the schedule analogue of
    /// `InjectionPlan::fires_within`).
    pub fn fires_within(&self, seen: &[u32; ALL_ARRIVAL_POINTS.len()]) -> bool {
        self.arrivals
            .iter()
            .any(|a| a.at < seen[point_index(a.point)])
    }
}

/// The armed schedule, held in the engine's own storage: arming copies
/// the at most [`MAX_ARRIVALS`] arrivals in and allocates nothing.
struct Engine {
    /// The schedule's arrivals; the first `len` are live.
    arrivals: [Arrival; MAX_ARRIVALS],
    len: usize,
    /// Occurrences of each point, indexed in [`ALL_ARRIVAL_POINTS`] order.
    seen: [u32; ALL_ARRIVAL_POINTS.len()],
    /// The occurrence of each point at which the next arrival fires
    /// ([`NONE`] when none is left): the least `at` of the point's
    /// arrivals not yet passed. An arrival fires once, as the occurrence
    /// moves past it, so this is also the one-shot state.
    next: [u64; ALL_ARRIVAL_POINTS.len()],
    fired_count: u64,
}

/// No arrival left at a point.
const NONE: u64 = u64::MAX;

/// Filler for arrival slots past a schedule's length; never read.
const NO_ARRIVAL: Arrival = Arrival {
    point: ArrivalPoint::SyscallEnter,
    at: 0,
};

impl Engine {
    const DISARMED: Engine = Engine {
        arrivals: [NO_ARRIVAL; MAX_ARRIVALS],
        len: 0,
        seen: [0; ALL_ARRIVAL_POINTS.len()],
        next: [NONE; ALL_ARRIVAL_POINTS.len()],
        fired_count: 0,
    };

    /// The least `at` at least `from` among the arrivals at point index
    /// `point`, or [`NONE`]. Panic-free, for [`Engine::fire`].
    #[inline]
    fn first_at(&self, point: usize, from: u64) -> u64 {
        self.arrivals
            .iter()
            .take(self.len)
            .filter(|a| point_index(a.point) == point && u64::from(a.at) >= from)
            .map(|a| u64::from(a.at))
            .min()
            .unwrap_or(NONE)
    }

    /// Counts one pass of `point` and fires the arrival scheduled there.
    #[inline]
    fn arrive(&mut self, point: ArrivalPoint) -> bool {
        let idx = point_index(point);
        let (Some(seen), Some(&next)) = (self.seen.get_mut(idx), self.next.get(idx)) else {
            return false;
        };
        let occurrence = *seen;
        *seen = occurrence.wrapping_add(1);
        if next != u64::from(occurrence) {
            return false;
        }
        self.fire(idx, next);
        true
    }

    /// Fires the arrival at occurrence `at` of point index `point`. Cold,
    /// panic-free and `#[inline]`, so each caller sees that it cannot
    /// unwind while the engine is borrowed and keeps [`arrival`] inline.
    #[cold]
    #[inline]
    fn fire(&mut self, point: usize, at: u64) {
        let next = self.first_at(point, at + 1);
        if let Some(slot) = self.next.get_mut(point) {
            *slot = next;
        }
        self.fired_count += 1;
    }
}

thread_local! {
    // Plain data, so the thread-local carries no `Drop` glue and keeps
    // the const-initialized TLS fast path for every boundary the kernel
    // passes. Whether it is armed is the `SimContext::sched_armed` flag.
    static ENGINE: RefCell<Engine> = const { RefCell::new(Engine::DISARMED) };
}

/// Arms the engine with a schedule. Occurrence counters and one-shot
/// flags start fresh; any previously armed schedule is discarded.
pub fn arm(schedule: &InterruptSchedule) {
    arm_with_seen(schedule, [0; ALL_ARRIVAL_POINTS.len()]);
}

/// Arms the engine with occurrence counters starting at `seen` — the
/// mid-run-snapshot form of [`arm`]. Sound only when no arrival was
/// scheduled inside the skipped prefix (callers must check
/// [`InterruptSchedule::fires_within`] first). The arrivals are copied
/// into the engine's own storage: arming allocates nothing.
///
/// Panics if the schedule holds more than [`MAX_ARRIVALS`] arrivals
/// (canonical schedules never do).
pub fn arm_with_seen(schedule: &InterruptSchedule, seen: [u32; ALL_ARRIVAL_POINTS.len()]) {
    debug_assert!(
        !schedule.fires_within(&seen),
        "schedule fires inside the skipped prefix"
    );
    let len = schedule.arrivals.len();
    assert!(len <= MAX_ARRIVALS, "{len} arrivals exceed {MAX_ARRIVALS}");
    ENGINE.with(|e| {
        let mut eng = e.borrow_mut();
        *eng = Engine {
            len,
            seen,
            ..Engine::DISARMED
        };
        eng.arrivals[..len].copy_from_slice(&schedule.arrivals);
        for (point, seen) in seen.into_iter().enumerate() {
            eng.next[point] = eng.first_at(point, u64::from(seen));
        }
    });
    simctx::with(|c| c.sched_armed.set(true));
}

/// The per-point occurrence counters accumulated since [`arm`] (in
/// [`ALL_ARRIVAL_POINTS`] order), or `None` when disarmed. A mid-run
/// snapshot records these at capture time and replays them into
/// [`arm_with_seen`] on every restore.
pub fn seen_counts() -> Option<[u32; ALL_ARRIVAL_POINTS.len()]> {
    is_armed().then(|| ENGINE.with(|e| e.borrow().seen))
}

/// Disarms the engine, returning how many arrivals fired since [`arm`].
pub fn disarm() -> u64 {
    let was = simctx::with(|c| c.sched_armed.replace(false));
    match was {
        true => ENGINE.with(|e| e.borrow().fired_count),
        false => 0,
    }
}

/// Returns `true` when the armed schedule has nothing left to fire:
/// every arrival either fired or had its occurrence pass (the boundary
/// counters only grow, so a passed occurrence never comes round again).
/// From then on the engine only counts. `false` when disarmed.
pub fn exhausted() -> bool {
    is_armed() && ENGINE.with(|e| e.borrow().next.iter().all(|&at| at == NONE))
}

/// Returns `true` if a schedule is armed on this thread: the
/// `SimContext` flag.
#[inline]
pub fn is_armed() -> bool {
    simctx::with(|c| c.sched_armed.get())
}

/// Number of arrivals fired since the last [`arm`] (0 when disarmed).
pub fn fired_count() -> u64 {
    match is_armed() {
        true => ENGINE.with(|e| e.borrow().fired_count),
        false => 0,
    }
}

/// Boundary hook: bumps the occurrence counter for `point` and returns
/// `true` when the armed schedule fires the timer interrupt here. The
/// kernel then services the interrupt at this exact spot (and records
/// the trace events — the engine only answers the timing question).
///
/// Unlike injection hooks, arrivals are not pid-scoped: a timer
/// interrupt lands wherever the boundary is, in any process context.
///
/// The armed path has no panic edge, as [`crate::trace::record`]: the
/// engine is taken with `try_borrow_mut`, whose failure calls one cold
/// panic, and its storage is inline, so the whole hook compiles in
/// place at each boundary instead of behind an out-of-line
/// `LocalKey::with`.
#[inline]
pub fn arrival(point: ArrivalPoint) -> bool {
    // Fast path: one scalar TLS flag rejects every boundary while no
    // schedule is armed — the common case for every non-explorer run.
    if !is_armed() {
        return false;
    }
    ENGINE.with(|e| {
        let Ok(mut eng) = e.try_borrow_mut() else {
            reentered()
        };
        eng.arrive(point)
    })
}

/// The one panic [`arrival`] can reach, kept out of line.
#[cold]
#[inline(never)]
fn reentered() -> ! {
    panic!("sched::arrival re-entered while the engine is borrowed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_indices_follow_the_point_list() {
        for (i, p) in ALL_ARRIVAL_POINTS.into_iter().enumerate() {
            assert_eq!(point_index(p), i);
        }
    }

    #[test]
    fn rearming_starts_from_fresh_flags_in_the_same_storage() {
        let s = InterruptSchedule::new(vec![
            Arrival {
                point: ArrivalPoint::SyscallEnter,
                at: 0,
            },
            Arrival {
                point: ArrivalPoint::MpuCommit,
                at: 1,
            },
        ]);
        for _ in 0..2 {
            arm(&s);
            assert!(arrival(ArrivalPoint::SyscallEnter));
            assert!(!arrival(ArrivalPoint::SyscallEnter));
            assert!(!exhausted());
            assert!(!arrival(ArrivalPoint::MpuCommit));
            assert!(arrival(ArrivalPoint::MpuCommit));
            assert!(exhausted());
            assert_eq!(disarm(), 2);
        }
        assert_eq!(disarm(), 0, "a disarmed engine fired nothing");
        // A shorter schedule leaves no arrival of the longer one behind.
        arm(&InterruptSchedule::single(ArrivalPoint::MpuCommit, 0));
        assert!(!arrival(ArrivalPoint::SyscallEnter));
        assert!(arrival(ArrivalPoint::MpuCommit));
        assert_eq!(disarm(), 1);
    }

    #[test]
    fn disarmed_arrivals_never_fire() {
        assert!(!is_armed());
        for p in ALL_ARRIVAL_POINTS {
            assert!(!arrival(p));
        }
        assert_eq!(fired_count(), 0);
        assert_eq!(seen_counts(), None);
    }

    #[test]
    fn arrival_fires_once_at_the_scheduled_occurrence() {
        arm(&InterruptSchedule::single(ArrivalPoint::MpuCommit, 2));
        assert!(!arrival(ArrivalPoint::MpuCommit)); // occurrence 0
        assert!(!arrival(ArrivalPoint::SyscallEnter)); // other point
        assert!(!arrival(ArrivalPoint::MpuCommit)); // occurrence 1
        assert!(arrival(ArrivalPoint::MpuCommit)); // occurrence 2: fires
        assert!(!arrival(ArrivalPoint::MpuCommit)); // one-shot
        assert_eq!(disarm(), 1);
        assert!(!is_armed());
    }

    #[test]
    fn empty_schedule_counts_occurrences_without_firing() {
        arm(&InterruptSchedule::empty());
        assert!(!arrival(ArrivalPoint::SyscallExit));
        assert!(!arrival(ArrivalPoint::SyscallExit));
        assert!(!arrival(ArrivalPoint::SchedulerDecision));
        let seen = seen_counts().expect("armed");
        assert_eq!(seen, [0, 2, 0, 1]);
        assert_eq!(disarm(), 0);
    }

    #[test]
    fn ids_round_trip_for_all_single_and_multi_arrival_schedules() {
        for point in ALL_ARRIVAL_POINTS {
            for at in [0, 1, 7, 100, MAX_AT] {
                let s = InterruptSchedule::single(point, at);
                assert_eq!(InterruptSchedule::from_id(s.id()), s, "{point:?}@{at}");
            }
        }
        let multi = InterruptSchedule::new(vec![
            Arrival {
                point: ArrivalPoint::SchedulerDecision,
                at: 9,
            },
            Arrival {
                point: ArrivalPoint::SyscallEnter,
                at: 3,
            },
            Arrival {
                point: ArrivalPoint::MpuCommit,
                at: 0,
            },
        ]);
        assert_eq!(InterruptSchedule::from_id(multi.id()), multi);
        assert_eq!(InterruptSchedule::from_id(0), InterruptSchedule::empty());
        assert_eq!(InterruptSchedule::empty().id(), 0);
    }

    #[test]
    fn new_canonicalizes_order_duplicates_and_bounds() {
        let a = InterruptSchedule::new(vec![
            Arrival {
                point: ArrivalPoint::SyscallExit,
                at: 5,
            },
            Arrival {
                point: ArrivalPoint::SyscallEnter,
                at: MAX_AT + 100, // clamped
            },
            Arrival {
                point: ArrivalPoint::SyscallExit,
                at: 5, // duplicate
            },
        ]);
        assert_eq!(
            a.arrivals,
            vec![
                Arrival {
                    point: ArrivalPoint::SyscallEnter,
                    at: MAX_AT,
                },
                Arrival {
                    point: ArrivalPoint::SyscallExit,
                    at: 5,
                },
            ]
        );
        // Same content, different construction order: same ID.
        let b = InterruptSchedule::new(vec![
            Arrival {
                point: ArrivalPoint::SyscallEnter,
                at: MAX_AT,
            },
            Arrival {
                point: ArrivalPoint::SyscallExit,
                at: 5,
            },
        ]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn arm_with_seen_resumes_occurrence_counting_mid_stream() {
        let s = InterruptSchedule::single(ArrivalPoint::SyscallEnter, 3);
        arm(&s);
        assert!(!arrival(ArrivalPoint::SyscallEnter)); // 0
        assert!(!arrival(ArrivalPoint::SyscallEnter)); // 1
        let seen = seen_counts().expect("armed");
        assert_eq!(seen[0], 2);
        assert!(!s.fires_within(&seen)); // at=3 is after the prefix
        disarm();
        arm_with_seen(&s, seen);
        assert!(!arrival(ArrivalPoint::SyscallEnter)); // 2
        assert!(arrival(ArrivalPoint::SyscallEnter)); // 3: fires
        assert_eq!(disarm(), 1);
    }

    #[test]
    fn a_schedule_is_exhausted_once_every_arrival_fired_or_passed() {
        assert!(!exhausted(), "a disarmed engine is not exhausted");
        arm(&InterruptSchedule::new(vec![
            Arrival {
                point: ArrivalPoint::SyscallEnter,
                at: 1,
            },
            Arrival {
                point: ArrivalPoint::MpuCommit,
                at: 0,
            },
        ]));
        assert!(!exhausted());
        assert!(!arrival(ArrivalPoint::SyscallEnter)); // 0
        assert!(arrival(ArrivalPoint::SyscallEnter)); // 1: fires
        assert!(!exhausted(), "the MpuCommit arrival is still pending");
        assert!(arrival(ArrivalPoint::MpuCommit));
        assert!(exhausted());
        assert!(!arrival(ArrivalPoint::SyscallEnter));
        assert!(exhausted());
        assert_eq!(disarm(), 2);
        // The empty schedule has nothing to fire from the start.
        arm(&InterruptSchedule::empty());
        assert!(exhausted());
        disarm();
    }

    #[test]
    fn fires_within_flags_prefix_scheduled_arrivals() {
        let s = InterruptSchedule::single(ArrivalPoint::SchedulerDecision, 1);
        let mut seen = [0u32; ALL_ARRIVAL_POINTS.len()];
        assert!(!s.fires_within(&seen));
        seen[3] = 1; // SchedulerDecision; at=1 not yet reached.
        assert!(!s.fires_within(&seen));
        seen[3] = 2; // Occurrence 1 happened inside the prefix.
        assert!(s.fires_within(&seen));
        assert!(!InterruptSchedule::empty().fires_within(&seen));
    }
}
