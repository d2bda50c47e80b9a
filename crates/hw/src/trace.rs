//! Kernel event tracing: a fixed-capacity ring buffer of typed events.
//!
//! The differential oracle in `tt-kernel` compares *final* run outcomes;
//! two kernels can diverge mid-run (a wrong MPU register write, a missed
//! fault, a mis-ordered upcall) and still converge to the same console
//! output. This module records *what the system observably did*, step by
//! step, so the oracle can report the first divergent event instead.
//!
//! Like [`crate::cycles`], the sink is thread-local so parallel tests do
//! not interfere. The enabled flag lives *inside* the ring's own
//! thread-local cell (mirrored into
//! [`tt_contracts::simctx::SimContext`] for cheap [`is_enabled`]
//! queries), so [`record`] is **one** TLS access per event — flag check
//! and ring push behind a single `with` — and a single flag load when
//! tracing is disabled (the default). Recording is zero-allocation in
//! steady state:
//! the buffer is allocated once at [`enable`], retained across
//! enable/disable cycles, and events are `Copy`; when the ring is full
//! the oldest event is overwritten and a drop counter is bumped. Drained
//! event buffers can be handed back with [`recycle`] so a long campaign
//! of enable/record/[`take`] runs on one thread settles into zero
//! allocations per run.
//!
//! The push must stay free of panic edges. [`record`] takes the ring
//! with `try_borrow_mut`, whose failure (a record from inside
//! [`with_events`]) calls one cold, out-of-line panic, and the push
//! takes its slot with `get_mut`, not an index. With no panic path left
//! in it, LLVM inlines the whole push, TLS access included, at every
//! call site. With an indexed store and `borrow_mut` it did not: every
//! event went through one shared, out-of-line `LocalKey::with` and
//! passed its 32-byte event through a stack slot. In a sampled profile
//! of the serial fleet campaign (40 campaigns of 14 000 runs, a shared
//! 2-vCPU x86-64 host) the push's self time fell from 16.4% to 4.8% of
//! samples, and `LocalKey::with`'s from 8.7% to 5.9%.
//!
//! Crucially, tracing never calls into [`crate::cycles`]: enabling a
//! trace must not perturb the cycle-accurate cost model that Fig. 11/12
//! experiments depend on.

use tt_contracts::simctx;

/// Which hardware register a [`TraceEvent::RegWrite`] hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegName {
    /// Cortex-M `MPU_CTRL` (value bit0 = ENABLE, bit2 = PRIVDEFENA).
    Ctrl,
    /// Cortex-M `MPU_RNR` region number register.
    Rnr,
    /// Cortex-M `MPU_RBAR` region base address register.
    Rbar,
    /// Cortex-M `MPU_RASR` region attribute and size register.
    Rasr,
    /// RISC-V `pmpcfg` byte for one entry.
    PmpCfg,
    /// RISC-V `pmpaddr` CSR for one entry.
    PmpAddr,
    /// A staged [`crate::registers::RegisterU32`] copy (driver-side
    /// read-modify-write staging, not yet committed to hardware).
    Staged(&'static str),
}

/// Which system call a [`TraceEvent::SyscallEnter`]/`SyscallExit` pair
/// describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyscallKind {
    /// `brk(new_break)`.
    Brk,
    /// `sbrk(delta)`.
    Sbrk,
    /// `memop(op, arg)`.
    Memop,
    /// `subscribe(driver, upcall)`.
    Subscribe,
    /// `allow_ro(driver, addr, len)`.
    AllowRo,
    /// `allow_rw(driver, addr, len)`.
    AllowRw,
    /// `command(driver, cmd, arg)`.
    Command,
    /// The debug `print` syscall.
    Print,
}

/// Direction of a [`TraceEvent::ContextSwitch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SwitchDir {
    /// The process is being switched onto the (virtual) CPU.
    In,
    /// The process is being switched off.
    Out,
}

/// Sentinel pid recorded when no process context is active (e.g. register
/// writes during kernel boot).
pub const NO_PID: u32 = u32::MAX;

/// One step of the kernel's fault-recovery protocol, carried by
/// [`TraceEvent::Recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecoveryStep {
    /// The faulted process's grant allocations were reclaimed (kernel
    /// break raised back to the top of the memory block).
    GrantsReclaimed,
    /// The faulted process's `AppBreaks`/region state was scrubbed and
    /// re-derived, and its invariants re-checked.
    StateRederived,
    /// A restart was scheduled `delay` ticks in the future under the
    /// exponential-backoff policy.
    BackoffScheduled {
        /// Backoff delay in scheduler ticks.
        delay: u64,
    },
    /// The restart cap was exhausted; the process is being permanently
    /// killed.
    RestartExhausted,
}

/// One observable step of a kernel run.
///
/// Events are `Copy` and fixed-size so the ring buffer never allocates
/// after [`enable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A system call handler was entered.
    SyscallEnter {
        /// Calling process.
        pid: u32,
        /// Which syscall.
        call: SyscallKind,
        /// First raw argument (meaning depends on `call`).
        arg0: u32,
        /// Second raw argument.
        arg1: u32,
        /// Third raw argument.
        arg2: u32,
    },
    /// A system call handler returned.
    SyscallExit {
        /// Calling process.
        pid: u32,
        /// Which syscall.
        call: SyscallKind,
        /// Whether the call succeeded.
        ok: bool,
        /// Raw return value (0 on plain success).
        value: u32,
    },
    /// The scheduler switched a process in or out.
    ContextSwitch {
        /// The process being switched.
        pid: u32,
        /// In or out.
        dir: SwitchDir,
    },
    /// A process's full MPU/PMP configuration was committed to hardware
    /// (the kernel-level `setup_mpu` path). The raw register values follow
    /// as [`TraceEvent::RegWrite`] events from the hardware hooks.
    MpuCommit {
        /// Process whose configuration was committed.
        pid: u32,
    },
    /// The granular (`ticktock`) allocator pushed its region array to the
    /// driver — the §4.4 "commit" path. Legacy flavors never emit this.
    AllocatorCommit {
        /// Number of committed regions.
        regions: u8,
    },
    /// A write reached the hardware register file (or a staged register
    /// copy, for [`RegName::Staged`]).
    RegWrite {
        /// Which register.
        reg: RegName,
        /// Region / PMP entry index (0 for indexless registers).
        index: u8,
        /// Raw 32-bit value written.
        value: u32,
    },
    /// A user-mode access was denied by the protection unit.
    BusFault {
        /// Faulting process.
        pid: u32,
        /// Faulting address.
        addr: u32,
        /// `true` for a write access, `false` for a read.
        write: bool,
    },
    /// An upcall was delivered to a subscribed process.
    UpcallDeliver {
        /// Receiving process.
        pid: u32,
        /// Driver that scheduled the upcall.
        driver: u32,
        /// Upcall payload value.
        value: u32,
    },
    /// A process image was loaded and its memory allocated.
    ProcessLoad {
        /// New process.
        pid: u32,
    },
    /// A faulted process was restarted.
    ProcessRestart {
        /// Restarted process.
        pid: u32,
    },
    /// A process was marked faulted by the kernel.
    ProcessFault {
        /// Faulted process.
        pid: u32,
    },
    /// A process was permanently killed by the fault-recovery policy
    /// (either [`crate::injection`]-driven or a restart-cap exhaustion).
    ProcessKill {
        /// Killed process.
        pid: u32,
    },
    /// One step of the kernel's fault-recovery protocol completed.
    Recovery {
        /// Recovering process.
        pid: u32,
        /// What the step did.
        step: RecoveryStep,
    },
    /// The fault-injection engine fired one scheduled injection
    /// ([`crate::injection`]). Recorded at the exact point the fault is
    /// introduced, so a campaign divergence can be attributed to the
    /// injection that precedes it.
    FaultInjected {
        /// Process context the injection fired in (the plan's target).
        pid: u32,
        /// Where the fault was introduced.
        point: crate::injection::InjectionPoint,
        /// Point-specific detail: the flipped bit for register flips, the
        /// XOR mask for argument corruption, 0 otherwise.
        info: u32,
    },
    /// A scheduled timer interrupt arrived at an adversarial boundary
    /// ([`crate::sched`]) and the kernel entered its service routine.
    /// Recorded before any service work, so downstream divergence can be
    /// attributed to the arrival that precedes it.
    IrqEnter {
        /// Process context the interrupt landed in ([`NO_PID`] when it
        /// landed outside any process slice).
        pid: u32,
        /// The boundary the arrival was scheduled at.
        point: crate::sched::ArrivalPoint,
    },
    /// The interrupt service routine returned to the interrupted context.
    IrqExit {
        /// Process context being resumed.
        pid: u32,
    },
    /// The scheduler exited because every live process yielded with no
    /// alarm pending and no restart due — a wedged workload, distinct
    /// from the everyone-`Exited` completion path (which ends a trace
    /// without this marker). Lets the oracle tell a clean run from a
    /// deadlocked one instead of inferring it from trace truncation.
    IdleExit,
}

/// A drained trace: the surviving events in record order plus how many
/// older events were overwritten by ring wraparound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in the order they were recorded (oldest first).
    pub events: Vec<TraceEvent>,
    /// Number of events lost to wraparound before `events[0]`.
    pub dropped: u64,
}

struct Ring {
    /// Whether tracing is on. Kept here — not (only) in `SimContext` —
    /// so [`record`] decides and pushes behind one TLS access.
    /// [`enable`]/[`disable`] keep the `SimContext` mirror in sync.
    enabled: bool,
    /// Storage, kept sized to exactly `capacity` (pre-filled at
    /// [`Ring::reset`]) so [`Ring::push`] is always one indexed store —
    /// no `Vec::push` length bookkeeping, no fill-vs-wrap branch.
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to write. The oldest live event sits `len` slots behind
    /// it (mod `capacity`).
    write: usize,
    /// Number of live events (≤ capacity).
    len: usize,
    dropped: u64,
    /// A drained event buffer handed back via [`recycle`], reused by the
    /// next [`Ring::drain`] so steady-state take() allocates nothing.
    spare: Vec<TraceEvent>,
}

/// Placeholder event pre-filling ring slots that have not been written
/// yet; never observable through [`Ring::drain`] (which copies only the
/// `len` live slots).
const FILL_EVENT: TraceEvent = TraceEvent::ProcessLoad { pid: NO_PID };

impl Ring {
    /// Re-arms the ring for a new run, reusing the existing storage when
    /// the capacity is unchanged (the common campaign case: every run
    /// asks for the same capacity).
    fn reset(&mut self, capacity: usize) {
        if capacity != self.buf.len() {
            self.buf.clear();
            self.buf.resize(capacity, FILL_EVENT);
        }
        self.capacity = capacity;
        self.write = 0;
        self.len = 0;
        self.dropped = 0;
    }

    /// One store plus a branchy wrap: capacity need not be a power of
    /// two, and `%` is an integer divide on the hot path. The slot is
    /// taken with `get_mut`, not an index, so the push has no panic edge
    /// and LLVM inlines it, with [`record`], into every call site; the
    /// `None` arm is the capacity-0 ring, which drops every event.
    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        let Some(slot) = self.buf.get_mut(self.write) else {
            self.dropped += 1;
            return;
        };
        *slot = ev;
        self.write += 1;
        if self.write == self.capacity {
            self.write = 0;
        }
        if self.len == self.capacity {
            self.dropped += 1;
        } else {
            self.len += 1;
        }
    }

    fn drain(&mut self) -> Trace {
        // Reuse a recycled buffer when one is parked, and copy the live
        // region out as (at most) two contiguous slices instead of an
        // element-by-element modulo walk.
        let mut events = std::mem::take(&mut self.spare);
        events.clear();
        events.reserve(self.len);
        let head = if self.write >= self.len {
            self.write - self.len
        } else {
            self.write + self.capacity - self.len
        };
        let end = head + self.len;
        if end <= self.capacity {
            events.extend_from_slice(&self.buf[head..end]);
        } else {
            events.extend_from_slice(&self.buf[head..self.capacity]);
            events.extend_from_slice(&self.buf[..end - self.capacity]);
        }
        let dropped = self.dropped;
        self.write = 0;
        self.len = 0;
        self.dropped = 0;
        Trace { events, dropped }
    }
}

thread_local! {
    // The ring lives in its own cell (its `Vec`s cannot join the
    // scalar-only `SimContext`), wrapped in `ManuallyDrop` so the
    // thread-local carries no `Drop` glue: a payload with a destructor
    // forces every access through the registration state machine, which
    // measurably slows the per-event path. The cost of the trade is that
    // a thread which traced and never calls [`release_thread_buffers`]
    // leaks its ring storage at thread exit — bounded by one ring per
    // thread, freed explicitly by the `tt_kernel::pool` workers, and
    // reclaimed at process exit everywhere else.
    static RING: std::cell::RefCell<std::mem::ManuallyDrop<Ring>> = const {
        std::cell::RefCell::new(std::mem::ManuallyDrop::new(Ring {
            enabled: false,
            buf: Vec::new(),
            capacity: 0,
            write: 0,
            len: 0,
            dropped: 0,
            spare: Vec::new(),
        }))
    };
}

/// Frees this thread's ring storage (both the live buffer and the
/// [`recycle`] spare). Long-lived threads that traced should call this
/// before exiting; the work-stealing pool workers do. Tracing state is
/// reset to disabled-with-zero-capacity; a later [`enable`] starts from
/// a fresh allocation.
pub fn release_thread_buffers() {
    RING.with(|r| {
        // Assigning a fresh empty ring drops the old buffers normally —
        // `ManuallyDrop` only suppresses the (never-run) TLS destructor.
        **r.borrow_mut() = Ring {
            enabled: false,
            buf: Vec::new(),
            capacity: 0,
            write: 0,
            len: 0,
            dropped: 0,
            spare: Vec::new(),
        };
    });
    simctx::with(|c| c.trace_enabled.set(false));
}

/// Starts tracing on this thread with a ring of `capacity` events,
/// discarding any previously recorded events. The ring storage from an
/// earlier enable/disable cycle on this thread is reused, so re-enabling
/// with the same (or smaller) capacity allocates nothing.
pub fn enable(capacity: usize) {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        ring.reset(capacity);
        ring.enabled = true;
    });
    simctx::with(|c| c.trace_enabled.set(true));
}

/// Bulk-installs an already-recorded event prefix into the (enabled,
/// empty) ring — the zero-copy half of snapshot restore. Semantically
/// identical to [`record`]ing each event in order, but one `memcpy`
/// behind the write cursor instead of a TLS round-trip per event.
///
/// Panics if tracing is disabled, the ring is not empty, or the prefix
/// exceeds the ring capacity (a captured prefix always fits: capture
/// asserts the ring never wrapped).
pub fn install_prefix(events: &[TraceEvent]) {
    RING.with(|r| assert_eq!(r.borrow().len, 0, "install_prefix on a non-empty ring"));
    extend(events);
}

/// Appends already-recorded events behind the write cursor with one
/// `memcpy` — semantically [`record`]ing each in order. Restore installs
/// a checkpoint's prefix this way, and a scheduled run that rejoined its
/// baseline appends the baseline's suffix.
///
/// Panics if tracing is disabled, or if the events would wrap the ring
/// or it has wrapped already; callers check [`with_events`] first.
pub fn extend(events: &[TraceEvent]) {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        assert!(ring.enabled, "extend on a disabled ring");
        // Nothing dropped means nothing wrapped: the live region starts
        // at slot 0 and ends at `len`.
        let (start, end) = (ring.len, ring.len + events.len());
        assert!(
            ring.dropped == 0 && end <= ring.capacity,
            "{} events after {start} exceed ring capacity {}",
            events.len(),
            ring.capacity
        );
        ring.buf[start..end].copy_from_slice(events);
        ring.len = end;
        ring.write = if end == ring.capacity { 0 } else { end };
    });
}

/// Stops tracing. Events not yet [`take`]n are lost; the ring storage is
/// retained (cleared) so a later [`enable`] on this thread reuses it.
pub fn disable() {
    simctx::with(|c| {
        c.trace_enabled.set(false);
        c.current_pid.set(NO_PID);
    });
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        let capacity = ring.capacity;
        ring.reset(capacity);
        ring.enabled = false;
    });
}

/// Returns `true` if tracing is enabled on this thread.
#[inline]
pub fn is_enabled() -> bool {
    simctx::with(|c| c.trace_enabled.get())
}

/// The capacity of this thread's ring (0 if [`enable`] never ran).
/// `tt_kernel::snapshot` records it at capture so restore can re-arm
/// tracing with the same ring geometry.
pub fn capacity() -> usize {
    RING.with(|r| r.borrow().capacity)
}

/// Records one event. One TLS access either way: the enabled flag lives
/// in the ring's own cell, so the disabled path (the default) is a
/// single flag load and the enabled path checks and pushes behind the
/// same borrow.
///
/// The borrow is a `try_borrow_mut` whose failure calls the cold
/// `reentered`: with no panic edge of its own, the whole push compiles
/// inline at each call site instead of behind one shared, out-of-line
/// `LocalKey::with`. Panics if called from inside [`with_events`].
#[inline]
pub fn record(ev: TraceEvent) {
    RING.with(|r| {
        let Ok(mut ring) = r.try_borrow_mut() else {
            reentered()
        };
        if ring.enabled {
            ring.push(ev);
        }
    });
}

/// The one panic [`record`] can reach, kept out of line so the push's
/// fast path carries no formatting code.
#[cold]
#[inline(never)]
fn reentered() -> ! {
    panic!("trace::record re-entered while the ring is borrowed (inside trace::with_events)")
}

/// Runs `f` over the recorded events (oldest first) *in place*: the
/// live region is presented as two contiguous slices — the second is
/// empty unless the ring wrapped — plus the dropped-event count. Unlike
/// [`take`], nothing is copied and the ring is left untouched. The
/// fleet oracle uses this to compare a run's trace against the
/// reference without paying the per-run drain `memcpy`, then clears the
/// ring via [`disable`] instead of draining it.
pub fn with_events<R>(f: impl FnOnce(&[TraceEvent], &[TraceEvent], u64) -> R) -> R {
    RING.with(|r| {
        let ring = r.borrow();
        let head = if ring.write >= ring.len {
            ring.write - ring.len
        } else {
            ring.write + ring.capacity - ring.len
        };
        let end = head + ring.len;
        if end <= ring.capacity {
            f(&ring.buf[head..end], &[], ring.dropped)
        } else {
            f(
                &ring.buf[head..ring.capacity],
                &ring.buf[..end - ring.capacity],
                ring.dropped,
            )
        }
    })
}

/// Drains the recorded events (oldest first), leaving tracing enabled
/// with an empty ring. The returned buffer comes from the [`recycle`]
/// pool when one is available.
pub fn take() -> Trace {
    RING.with(|r| r.borrow_mut().drain())
}

/// Hands a drained [`Trace`]'s event buffer back for reuse by the next
/// [`take`] on this thread. Callers that fully consume a trace before
/// the next run (the campaign workers do) get allocation-free
/// enable/record/take cycles; traces that outlive the run are simply
/// dropped instead.
pub fn recycle(trace: Trace) {
    let mut events = trace.events;
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        if events.capacity() > ring.spare.capacity() {
            events.clear();
            ring.spare = events;
        }
    });
}

/// Sets the process context attributed to subsequent low-level events
/// (register writes don't know which process they configure; the kernel
/// tells us). Use [`NO_PID`] for "no process".
#[inline]
pub fn set_current_pid(pid: u32) {
    simctx::with(|c| c.current_pid.set(pid));
}

/// Returns the process context last set via [`set_current_pid`].
#[inline]
pub fn current_pid() -> u32 {
    simctx::with(|c| c.current_pid.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(value: u32) -> TraceEvent {
        TraceEvent::RegWrite {
            reg: RegName::Rasr,
            index: 0,
            value,
        }
    }

    #[test]
    fn disabled_by_default_and_record_is_noop() {
        disable();
        assert!(!is_enabled());
        record(ev(1));
        assert_eq!(take(), Trace::default());
    }

    #[test]
    fn records_in_order_below_capacity() {
        enable(8);
        for v in 0..5 {
            record(ev(v));
        }
        let t = take();
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events, (0..5).map(ev).collect::<Vec<_>>());
        // Ring stays enabled and empty after take().
        assert!(is_enabled());
        assert_eq!(take().events, vec![]);
        disable();
    }

    #[test]
    fn wraparound_overwrites_oldest_and_counts_drops() {
        enable(4);
        for v in 0..10 {
            record(ev(v));
        }
        let t = take();
        assert_eq!(t.dropped, 6);
        assert_eq!(t.events, (6..10).map(ev).collect::<Vec<_>>());
        disable();
    }

    #[test]
    fn wraparound_exactly_at_capacity_boundary() {
        enable(3);
        for v in 0..3 {
            record(ev(v));
        }
        let t = take();
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events.len(), 3);
        // One more than capacity drops exactly one.
        for v in 0..4 {
            record(ev(v));
        }
        let t = take();
        assert_eq!(t.dropped, 1);
        assert_eq!(t.events, (1..4).map(ev).collect::<Vec<_>>());
        disable();
    }

    #[test]
    fn ring_reuses_storage_across_take() {
        enable(4);
        for v in 0..3 {
            record(ev(v));
        }
        let _ = take();
        for v in 10..16 {
            record(ev(v));
        }
        let t = take();
        assert_eq!(t.dropped, 2);
        assert_eq!(t.events, (12..16).map(ev).collect::<Vec<_>>());
        disable();
    }

    #[test]
    fn zero_capacity_drops_everything() {
        enable(0);
        record(ev(1));
        record(ev(2));
        let t = take();
        assert_eq!(t.events, vec![]);
        assert_eq!(t.dropped, 2);
        disable();
    }

    #[test]
    fn zero_capacity_after_a_larger_ring_counts_every_record_dropped() {
        // The push takes its slot with `get_mut`: a ring re-armed at
        // capacity 0 has no slot, and every record is a drop.
        enable(8);
        record(ev(1));
        disable();
        enable(0);
        for v in 0..100 {
            record(ev(v));
        }
        with_events(|head, tail, dropped| {
            assert_eq!((head, tail, dropped), (&[][..], &[][..], 100));
        });
        disable();
    }

    #[test]
    fn record_inside_with_events_panics_naming_the_reentry() {
        enable(4);
        let panic = std::panic::catch_unwind(|| with_events(|_, _, _| record(ev(1))))
            .expect_err("a record inside with_events must panic");
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .expect("a string panic message");
        assert!(message.contains("re-entered"), "{message}");
        assert!(message.contains("with_events"), "{message}");
        // The ring is untouched and still records.
        record(ev(2));
        assert_eq!(take().events, vec![ev(2)]);
        disable();
    }

    #[test]
    fn reenable_reuses_the_ring_storage() {
        enable(8);
        for v in 0..5 {
            record(ev(v));
        }
        disable();
        // Disable clears pending events but keeps the allocation.
        enable(8);
        assert_eq!(take(), Trace::default());
        record(ev(9));
        let t = take();
        assert_eq!(t.events, vec![ev(9)]);
        assert_eq!(t.dropped, 0);
        disable();
    }

    #[test]
    fn recycle_feeds_the_next_take() {
        enable(16);
        for v in 0..10 {
            record(ev(v));
        }
        let t = take();
        let ptr = t.events.as_ptr();
        let cap = t.events.capacity();
        recycle(t);
        for v in 10..14 {
            record(ev(v));
        }
        let t2 = take();
        assert_eq!(t2.events, (10..14).map(ev).collect::<Vec<_>>());
        // The recycled buffer (same allocation) backs the second trace.
        assert_eq!(t2.events.as_ptr(), ptr);
        assert_eq!(t2.events.capacity(), cap);
        disable();
    }

    #[test]
    fn recycle_on_a_fresh_thread_does_not_enable_tracing() {
        std::thread::spawn(|| {
            recycle(Trace {
                events: vec![ev(1)],
                dropped: 0,
            });
            assert!(!is_enabled());
            record(ev(2));
            assert_eq!(take(), Trace::default());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn enable_with_larger_capacity_grows_the_reused_ring() {
        enable(2);
        for v in 0..5 {
            record(ev(v));
        }
        disable();
        enable(4);
        for v in 0..5 {
            record(ev(v));
        }
        let t = take();
        assert_eq!(t.dropped, 1);
        assert_eq!(t.events, (1..5).map(ev).collect::<Vec<_>>());
        disable();
    }

    #[test]
    fn install_prefix_matches_per_event_replay() {
        let prefix: Vec<TraceEvent> = (0..6).map(ev).collect();
        // Reference semantics: record each event individually.
        enable(8);
        for e in &prefix {
            record(*e);
        }
        let replayed = take();
        disable();
        // Bulk install must be indistinguishable, including for events
        // recorded after the prefix.
        enable(8);
        install_prefix(&prefix);
        record(ev(100));
        record(ev(101));
        let bulk = take();
        disable();
        assert_eq!(bulk.dropped, 0);
        assert_eq!(&bulk.events[..6], &replayed.events[..]);
        assert_eq!(&bulk.events[6..], &[ev(100), ev(101)]);
    }

    #[test]
    fn install_prefix_at_exact_capacity_wraps_cleanly() {
        let prefix: Vec<TraceEvent> = (0..4).map(ev).collect();
        enable(4);
        install_prefix(&prefix);
        // The ring is full; the next record overwrites the oldest.
        record(ev(9));
        let t = take();
        assert_eq!(t.dropped, 1);
        assert_eq!(t.events, vec![ev(1), ev(2), ev(3), ev(9)]);
        disable();
    }

    #[test]
    fn install_prefix_rejects_oversized_and_disabled() {
        disable();
        assert!(std::panic::catch_unwind(|| install_prefix(&[ev(1)])).is_err());
        enable(2);
        assert!(std::panic::catch_unwind(|| install_prefix(&[ev(1); 3])).is_err());
        disable();
    }

    #[test]
    fn extend_appends_like_records_and_refuses_to_wrap() {
        enable(6);
        record(ev(1));
        extend(&[ev(2), ev(3)]);
        record(ev(4));
        extend(&[ev(5), ev(6)]);
        with_events(|head, tail, dropped| {
            assert_eq!(
                (head, tail, dropped),
                (&(1..7).map(ev).collect::<Vec<_>>()[..], &[][..], 0)
            );
        });
        // Full: one more event would wrap the ring.
        assert!(std::panic::catch_unwind(|| extend(&[ev(7)])).is_err());
        // A wrapped ring takes no bulk append either.
        record(ev(7));
        assert!(std::panic::catch_unwind(|| extend(&[])).is_err());
        disable();
    }

    #[test]
    fn with_events_on_a_completely_full_wrapped_ring() {
        // Fill past capacity so the ring is full *and* wrapped: write has
        // lapped back to the head position (head == write with live data
        // in every slot), the rarest slice shape the streaming oracle can
        // see. capacity 4, 6 records → write = 2, len = 4, head = 2.
        enable(4);
        for v in 0..6 {
            record(ev(v));
        }
        with_events(|a, b, dropped| {
            assert_eq!(dropped, 2);
            assert!(!a.is_empty() && !b.is_empty(), "full ring must wrap");
            assert_eq!(a.len() + b.len(), 4);
            let joined: Vec<TraceEvent> = a.iter().chain(b.iter()).copied().collect();
            assert_eq!(joined, (2..6).map(ev).collect::<Vec<_>>());
        });
        // with_events leaves the ring untouched: draining afterwards sees
        // the identical live region.
        let t = take();
        assert_eq!(t.dropped, 2);
        assert_eq!(t.events, (2..6).map(ev).collect::<Vec<_>>());
        disable();
    }

    #[test]
    fn with_events_on_a_full_unwrapped_ring_uses_one_slice() {
        // Exactly capacity events with write back at 0: full but the live
        // region is contiguous, so the second slice must be empty.
        enable(4);
        for v in 0..4 {
            record(ev(v));
        }
        with_events(|a, b, dropped| {
            assert_eq!(dropped, 0);
            assert_eq!(a, (0..4).map(ev).collect::<Vec<_>>());
            assert!(b.is_empty());
        });
        disable();
    }

    #[test]
    fn enabled_flag_mirrors_into_simctx() {
        enable(4);
        assert!(is_enabled());
        record(ev(1));
        release_thread_buffers();
        // Release resets both the ring flag and the simctx mirror.
        assert!(!is_enabled());
        record(ev(2));
        assert_eq!(take(), Trace::default());
    }

    #[test]
    fn current_pid_roundtrip() {
        assert_eq!(current_pid(), NO_PID);
        set_current_pid(3);
        assert_eq!(current_pid(), 3);
        set_current_pid(NO_PID);
    }
}
