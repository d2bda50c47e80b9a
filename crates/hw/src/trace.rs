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
//! A run resumed from a checkpoint does not copy the trace it resumes
//! after: [`share_prefix`] hands the ring a share of an already-recorded
//! trace as its oldest events, and [`share_suffix`] appends the rest of
//! one behind the live events. The shared events are copied into the
//! ring's slots only when it needs them there (a wrap, a push after a
//! shared suffix, [`take`]); [`with_events`] lends them in place, so
//! every reader sees the trace the copied ring would hold, and
//! [`copied`] counts what was copied after all.
//!
//! Crucially, tracing never calls into [`crate::cycles`]: enabling a
//! trace must not perturb the cycle-accurate cost model that Fig. 11/12
//! experiments depend on.

use std::cell::RefCell;
use std::mem::ManuallyDrop;
use std::rc::Rc;

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
    /// Storage: `capacity` slots plus one spare (pre-filled at
    /// [`Ring::reset`]), so [`Ring::push`] is always one store into a
    /// slot — no `Vec::push` length bookkeeping, no fill-vs-wrap branch.
    /// The spare slot at index `capacity` takes the push that finds the
    /// ring in a state only [`Ring::wrapped`] handles: the capacity-0
    /// ring's, and the first push behind a pending shared part.
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to write. The oldest live event sits `len` slots behind
    /// it (mod `capacity`). It is `capacity`, the spare slot, while a
    /// shared suffix is pending, and once the live events behind a
    /// pending shared prefix fill the ring.
    write: usize,
    /// The cursor value at which the push calls [`Ring::wrapped`]:
    /// `capacity` (at least 1), where the cursor wraps to slot 0, or
    /// `capacity + 1` while a shared part is pending, so that the push
    /// into the spare slot calls it instead.
    wrap_at: usize,
    /// Number of live events (≤ capacity), a pending shared prefix
    /// included and a pending shared suffix not.
    len: usize,
    dropped: u64,
    /// A shared prefix ([`share_prefix`]): slots `0..prefix` hold no
    /// events yet; logically they hold `shared[..prefix]`. Copied in
    /// only when a reader needs the ring's own slots: at the push that
    /// wraps the ring, which overwrites slot 0, and at [`take`].
    /// `prefix` is 0 once copied (or with none shared); the share itself
    /// is let go at the next reset.
    shared: Option<Rc<[TraceEvent]>>,
    prefix: usize,
    /// A shared suffix ([`share_suffix`]): the `suffix_len` events of
    /// `suffix` from `suffix_from` follow the live events logically.
    /// Copied in at the next push or [`take`]; `suffix_len` is 0 once
    /// copied (or with none shared).
    suffix: Option<Rc<[TraceEvent]>>,
    suffix_from: usize,
    suffix_len: usize,
    /// Events copied into or out of the ring since the thread started:
    /// shared parts copied in and drained events ([`copied`]).
    copied: u64,
    /// A drained event buffer handed back via [`recycle`], reused by the
    /// next [`Ring::drain`] so steady-state take() allocates nothing.
    spare: Vec<TraceEvent>,
}

/// Placeholder event pre-filling ring slots that have not been written
/// yet; never observable through [`Ring::drain`] (which copies only the
/// `len` live slots).
const FILL_EVENT: TraceEvent = TraceEvent::ProcessLoad { pid: NO_PID };

/// An empty, disabled ring of capacity 0.
const EMPTY_RING: Ring = Ring {
    enabled: false,
    buf: Vec::new(),
    capacity: 0,
    write: 0,
    wrap_at: 0,
    len: 0,
    dropped: 0,
    shared: None,
    prefix: 0,
    suffix: None,
    suffix_from: 0,
    suffix_len: 0,
    copied: 0,
    spare: Vec::new(),
};

impl Ring {
    /// Re-arms the ring for a new run, reusing the existing storage when
    /// the capacity is unchanged (the common campaign case: every run
    /// asks for the same capacity). Shared parts are let go.
    fn reset(&mut self, capacity: usize) {
        if capacity + 1 != self.buf.len() {
            self.buf.clear();
            self.buf.resize(capacity + 1, FILL_EVENT);
        }
        self.capacity = capacity;
        self.write = 0;
        self.wrap_at = capacity.max(1);
        self.len = 0;
        self.dropped = 0;
        self.shared = None;
        self.prefix = 0;
        self.suffix = None;
        self.suffix_len = 0;
    }

    /// One store plus a branchy wrap: capacity need not be a power of
    /// two, and `%` is an integer divide on the hot path. The slot is
    /// taken with `get_mut`, not an index (the cursor is always on a
    /// slot), so the push has no panic edge and LLVM inlines it, with
    /// [`record`], into every call site, the event built in its slot.
    /// Everything else happens out of line, in [`Ring::wrapped`], at the
    /// one branch a wrap already takes.
    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        let Some(slot) = self.buf.get_mut(self.write) else {
            return;
        };
        *slot = ev;
        self.count();
        self.write += 1;
        if self.write == self.wrap_at {
            self.wrapped();
        }
    }

    /// Counts the event just written: one more live event, or, on a full
    /// ring, one more dropped.
    #[inline]
    fn count(&mut self) {
        if self.len == self.capacity {
            self.dropped += 1;
        } else {
            self.len += 1;
        }
    }

    /// The cursor reached `wrap_at`. With no shared part pending it
    /// wraps to slot 0 (on a capacity-0 ring, whose only slot is the
    /// spare, the event was counted dropped). Else the push just wrote
    /// the spare slot: its count is undone, the shared parts are copied
    /// in, and the event is pushed again into its own slot.
    ///
    /// Cold, so it stays out of line, but `#[inline]`, panic-free and
    /// drop-free, so that each calling crate sees that it cannot unwind:
    /// a call that may unwind while the ring is borrowed needs a cleanup
    /// edge, and with one LLVM stops inlining the push into [`record`]'s
    /// call sites.
    #[cold]
    #[inline]
    fn wrapped(&mut self) {
        if !self.pending() {
            self.write = 0;
            return;
        }
        // A pending suffix means the ring had room, so the push counted
        // a live event; a pending prefix alone that the push filled the
        // ring, so it counted a drop.
        if self.suffix_len > 0 {
            self.len -= 1;
        } else {
            self.dropped -= 1;
        }
        let spare = self.buf.get(self.capacity).copied();
        self.materialise();
        if let (Some(ev), Some(slot)) = (spare, self.buf.get_mut(self.write)) {
            *slot = ev;
            self.count();
            self.write += 1;
            if self.write == self.capacity {
                self.write = 0;
            }
        }
    }

    /// Whether a shared part is not yet copied in. A ring with one never
    /// wrapped.
    #[inline]
    fn pending(&self) -> bool {
        self.prefix > 0 || self.suffix_len > 0
    }

    /// Copies a pending shared prefix into slots `0..prefix`.
    #[inline]
    fn copy_prefix(&mut self) {
        let Some(shared) = self.shared.as_deref() else {
            return;
        };
        let events = shared.iter().take(self.prefix);
        for (slot, ev) in self.buf.iter_mut().zip(events) {
            *slot = *ev;
        }
        self.copied += self.prefix as u64;
        self.prefix = 0;
    }

    /// Copies both pending shared parts into the ring's slots. The ring
    /// never wrapped, so its live region is `0..len` after.
    #[inline]
    fn materialise(&mut self) {
        self.copy_prefix();
        if let Some(suffix) = self.suffix.as_deref() {
            let events = suffix.iter().skip(self.suffix_from).take(self.suffix_len);
            for (slot, ev) in self.buf.iter_mut().skip(self.len).zip(events) {
                *slot = *ev;
            }
            self.copied += self.suffix_len as u64;
            self.len += self.suffix_len;
            self.suffix_len = 0;
        }
        self.write = if self.len == self.capacity {
            0
        } else {
            self.len
        };
        self.wrap_at = self.capacity;
    }

    /// The logical trace in place, oldest first.
    fn events(&self) -> Events<'_> {
        if self.pending() {
            fn part(events: &Option<Rc<[TraceEvent]>>, from: usize, len: usize) -> &[TraceEvent] {
                events.as_deref().map_or(&[], |s| &s[from..from + len])
            }
            let prefix = part(&self.shared, 0, self.prefix);
            let suffix = part(&self.suffix, self.suffix_from, self.suffix_len);
            let live = &self.buf[self.prefix..self.len];
            return Events {
                parts: [prefix, live, &[], suffix],
                dropped: self.dropped,
            };
        }
        let head = if self.write >= self.len {
            self.write - self.len
        } else {
            self.write + self.capacity - self.len
        };
        let end = head + self.len;
        let parts = if end <= self.capacity {
            [&[][..], &self.buf[head..end], &[], &[]]
        } else {
            let (head, tail) = (head..self.capacity, ..end - self.capacity);
            [&[][..], &self.buf[head], &self.buf[tail], &[]]
        };
        Events {
            parts,
            dropped: self.dropped,
        }
    }

    fn drain(&mut self) -> Trace {
        // Copy the shared parts in, reuse a recycled buffer when one is
        // parked, and copy the live region out as (at most) two
        // contiguous slices instead of an element-by-element modulo walk.
        if self.pending() {
            self.materialise();
        }
        let mut events = std::mem::take(&mut self.spare);
        events.clear();
        events.reserve(self.len);
        for part in self.events().parts {
            events.extend_from_slice(part);
        }
        self.copied += self.len as u64;
        let dropped = self.dropped;
        self.write = 0;
        self.len = 0;
        self.dropped = 0;
        Trace { events, dropped }
    }
}

/// A recorded trace lent in place ([`with_events`]), oldest event first:
/// the concatenation of its [`parts`](Events::parts), plus how many older
/// events the ring dropped. Nothing is copied to present it.
#[derive(Debug, Clone, Copy)]
pub struct Events<'a> {
    /// Consecutive runs of events, any of them empty: a shared prefix
    /// not yet copied into the ring ([`share_prefix`]), the ring's live
    /// region in one slice or, once it wrapped, two, and a shared suffix
    /// ([`share_suffix`]). A wrapped ring has no shared part.
    pub parts: [&'a [TraceEvent]; 4],
    /// Events lost to wraparound before the first one.
    pub dropped: u64,
}

impl<'a> Events<'a> {
    /// One contiguous run of events, nothing dropped.
    pub fn of(events: &'a [TraceEvent]) -> Self {
        Events {
            parts: [&[], events, &[], &[]],
            dropped: 0,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events `from..to` (clamped to the trace) as the pieces of the
    /// parts they fall in, in order; the pieces outside are empty.
    pub fn range(&self, from: usize, to: usize) -> impl Iterator<Item = &'a [TraceEvent]> + Clone {
        let mut start = 0;
        self.parts.into_iter().map(move |part| {
            let (lo, hi) = (start, start + part.len());
            start = hi;
            &part[from.clamp(lo, hi) - lo..to.clamp(lo, hi) - lo]
        })
    }

    /// Every event, in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a TraceEvent> + Clone {
        self.parts.into_iter().flatten()
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
    static RING: RefCell<ManuallyDrop<Ring>> = const {
        RefCell::new(ManuallyDrop::new(EMPTY_RING))
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
        let mut ring = r.borrow_mut();
        let copied = ring.copied;
        **ring = Ring {
            copied,
            ..EMPTY_RING
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

/// Installs `events[..len]`, an already-recorded prefix, in the
/// (enabled, empty) ring without copying it: the ring keeps a share of
/// `events` and reads its first `len` events as its oldest ones.
/// Semantically identical to [`record`]ing each event in order. The
/// prefix is copied into the ring's slots only when they are needed:
/// when the write cursor wraps, where its oldest events are the first
/// dropped, and at [`take`]. Snapshot restore installs a rung's prefix
/// this way.
///
/// Panics if tracing is disabled, the ring is not empty, or the prefix
/// exceeds `events` or the ring capacity (a captured prefix always
/// fits: capture asserts the ring never wrapped).
pub fn share_prefix(events: &Rc<[TraceEvent]>, len: usize) {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        assert!(ring.enabled, "share_prefix on a disabled ring");
        assert_eq!(ring.len, 0, "share_prefix on a non-empty ring");
        assert!(
            len <= events.len(),
            "a prefix of {len} events past the trace"
        );
        assert!(
            len <= ring.capacity,
            "a prefix of {len} events exceeds ring capacity {}",
            ring.capacity
        );
        if len == 0 {
            return;
        }
        ring.shared = Some(Rc::clone(events));
        ring.prefix = len;
        ring.len = len;
        ring.write = len;
        ring.wrap_at = ring.capacity + 1;
    });
}

/// Appends `events[from..]`, already-recorded events, behind the live
/// ones without copying them — semantically [`record`]ing each in order.
/// A scheduled run that rejoined its baseline takes the baseline's
/// suffix this way. The suffix is copied into the ring's slots at the
/// next [`record`] or [`take`].
///
/// Panics if tracing is disabled, if the events would wrap the ring or
/// it has wrapped already, or if a suffix is already shared; callers
/// check [`with_events`] first.
pub fn share_suffix(events: &Rc<[TraceEvent]>, from: usize) {
    RING.with(|r| {
        let mut ring = r.borrow_mut();
        assert!(ring.enabled, "share_suffix on a disabled ring");
        assert_eq!(ring.suffix_len, 0, "share_suffix on a shared suffix");
        let count = events.len() - from;
        assert!(
            ring.dropped == 0 && ring.len + count <= ring.capacity,
            "{count} events after {} exceed ring capacity {}",
            ring.len,
            ring.capacity
        );
        if count == 0 {
            return;
        }
        ring.suffix = Some(Rc::clone(events));
        ring.suffix_from = from;
        ring.suffix_len = count;
        ring.write = ring.capacity;
        ring.wrap_at = ring.capacity + 1;
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

/// Runs `f` over the recorded events *in place* ([`Events`]): shared
/// parts are presented where they are, so nothing is copied and the ring
/// is left untouched. The fleet oracle uses this to compare a run's
/// trace against the reference without paying the per-run drain
/// `memcpy`, then clears the ring via [`disable`] instead of draining
/// it.
pub fn with_events<R>(f: impl FnOnce(Events<'_>) -> R) -> R {
    RING.with(|r| f(r.borrow().events()))
}

/// Drains the recorded events (oldest first), leaving tracing enabled
/// with an empty ring. The returned buffer comes from the [`recycle`]
/// pool when one is available. Shared parts are copied in first.
pub fn take() -> Trace {
    RING.with(|r| r.borrow_mut().drain())
}

/// Events copied into or out of this thread's ring since the thread
/// started: shared parts copied into its slots ([`share_prefix`],
/// [`share_suffix`]) and events drained by [`take`]. An exact work
/// count for callers that measure what a run copied.
pub fn copied() -> u64 {
    RING.with(|r| r.borrow().copied)
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
        with_events(|events| {
            assert_eq!((events.len(), events.dropped), (0, 100));
        });
        disable();
    }

    #[test]
    fn record_inside_with_events_panics_naming_the_reentry() {
        enable(4);
        let panic = std::panic::catch_unwind(|| with_events(|_| record(ev(1))))
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

    /// The logical trace [`with_events`] presents: every event and the
    /// dropped count.
    fn logical() -> (Vec<TraceEvent>, u64) {
        with_events(|events| (events.iter().copied().collect(), events.dropped))
    }

    /// `prefix` recorded event by event, then `live`, on a ring of
    /// `capacity`: the copied form a shared prefix must read back as.
    fn recorded(capacity: usize, prefix: &[TraceEvent], live: &[TraceEvent]) -> Trace {
        enable(capacity);
        prefix.iter().chain(live).for_each(|e| record(*e));
        let t = take();
        disable();
        t
    }

    #[test]
    fn a_shared_prefix_reads_back_as_the_recorded_one_at_every_capacity() {
        let prefix: Rc<[TraceEvent]> = (0..6).map(ev).collect();
        for capacity in [6, 7, 8, 11, 64] {
            for live in [0, 1, 2, 5, 13] {
                let live: Vec<TraceEvent> = (100..100 + live).map(ev).collect();
                let want = recorded(capacity, &prefix[..], &live);
                let ctx = format!("capacity {capacity}, {} live", live.len());
                enable(capacity);
                share_prefix(&prefix, prefix.len());
                live.iter().for_each(|e| record(*e));
                // Length, contents and drops, in place and drained.
                assert_eq!(logical(), (want.events.clone(), want.dropped), "{ctx}");
                with_events(|e| assert_eq!(e.len(), want.events.len(), "{ctx}"));
                assert_eq!(take(), want, "{ctx}");
                disable();
            }
        }
    }

    #[test]
    fn a_shared_prefix_past_the_capacity_drops_its_oldest_events_first() {
        let prefix: Rc<[TraceEvent]> = (0..6).map(ev).collect();
        enable(8);
        share_prefix(&prefix, 6);
        let before = copied();
        // The prefix is not copied while the ring has room.
        record(ev(100));
        assert_eq!(copied(), before);
        with_events(|e| assert_eq!(e.parts[0], &prefix[..]));
        // Nor when the ring is full; the push that wraps it copies the
        // prefix in and overwrites its oldest event.
        record(ev(101));
        assert_eq!(copied(), before);
        assert_eq!(logical().1, 0);
        record(ev(102));
        assert_eq!(copied(), before + 6);
        let mut want: Vec<TraceEvent> = (1..6).map(ev).collect();
        want.extend([ev(100), ev(101), ev(102)]);
        assert_eq!(logical(), (want, 1));
        disable();
    }

    #[test]
    fn a_shared_prefix_of_part_of_a_trace_and_of_the_whole_ring() {
        let events: Rc<[TraceEvent]> = (0..10).map(ev).collect();
        enable(16);
        share_prefix(&events, 4);
        record(ev(100));
        assert_eq!(take().events, vec![ev(0), ev(1), ev(2), ev(3), ev(100)]);
        disable();
        // A prefix that fills the ring: the next record copies it in and
        // overwrites its oldest event.
        enable(4);
        share_prefix(&events, 4);
        assert_eq!(logical(), ((0..4).map(ev).collect(), 0));
        record(ev(9));
        assert_eq!(logical(), (vec![ev(1), ev(2), ev(3), ev(9)], 1));
        disable();
    }

    #[test]
    fn share_prefix_rejects_oversized_disabled_and_non_empty_rings() {
        let events: Rc<[TraceEvent]> = (0..3).map(ev).collect();
        disable();
        assert!(std::panic::catch_unwind(|| share_prefix(&events, 1)).is_err());
        enable(2);
        assert!(std::panic::catch_unwind(|| share_prefix(&events, 3)).is_err());
        record(ev(1));
        assert!(std::panic::catch_unwind(|| share_prefix(&events, 1)).is_err());
        disable();
    }

    #[test]
    fn a_shared_suffix_reads_back_as_the_recorded_one() {
        let baseline: Rc<[TraceEvent]> = (0..10).map(ev).collect();
        for capacity in [10, 12, 32] {
            for from in [0, 4, 9, 10] {
                // A shared prefix, live events, then the baseline's suffix.
                let live = [ev(100), ev(101)];
                let mut want: Vec<TraceEvent> = (0..3).map(ev).collect();
                want.extend(live);
                want.extend_from_slice(&baseline[from..]);
                if want.len() > capacity {
                    continue;
                }
                let ctx = format!("capacity {capacity}, suffix from {from}");
                enable(capacity);
                share_prefix(&baseline, 3);
                live.iter().for_each(|e| record(*e));
                let before = copied();
                share_suffix(&baseline, from);
                assert_eq!(copied(), before, "{ctx}: nothing copied");
                assert_eq!(logical(), (want.clone(), 0), "{ctx}");
                let t = take();
                assert_eq!((t.events, t.dropped), (want.clone(), 0), "{ctx}");
                disable();
                // A record after the suffix lands behind it.
                enable(capacity);
                live.iter().for_each(|e| record(*e));
                share_suffix(&baseline, from);
                if 2 + 10 - from < capacity {
                    record(ev(200));
                    let mut want: Vec<TraceEvent> = live.to_vec();
                    want.extend_from_slice(&baseline[from..]);
                    want.push(ev(200));
                    assert_eq!(logical(), (want, 0), "{ctx}");
                }
                disable();
            }
        }
    }

    #[test]
    fn a_suffix_that_fills_the_ring_wraps_like_recorded_events() {
        let baseline: Rc<[TraceEvent]> = (0..6).map(ev).collect();
        enable(4);
        record(ev(100));
        share_suffix(&baseline, 3);
        assert_eq!(logical(), (vec![ev(100), ev(3), ev(4), ev(5)], 0));
        record(ev(101));
        assert_eq!(logical(), (vec![ev(3), ev(4), ev(5), ev(101)], 1));
        disable();
    }

    #[test]
    fn share_suffix_refuses_to_wrap() {
        let baseline: Rc<[TraceEvent]> = (0..6).map(ev).collect();
        enable(6);
        record(ev(1));
        // Full: one more event would wrap the ring.
        assert!(std::panic::catch_unwind(|| share_suffix(&baseline, 0)).is_err());
        share_suffix(&baseline, 1);
        assert_eq!(logical().0.len(), 6);
        disable();
        // A wrapped ring takes no suffix either.
        enable(2);
        (0..3).for_each(|v| record(ev(v)));
        assert!(std::panic::catch_unwind(|| share_suffix(&baseline, 6)).is_err());
        disable();
    }

    #[test]
    fn events_ranges_cut_across_parts() {
        let (a, b, d) = ([ev(0), ev(1)], [ev(2)], [ev(3), ev(4)]);
        let events = Events {
            parts: [&a, &b, &[], &d],
            dropped: 0,
        };
        assert_eq!(events.len(), 5);
        let range = |from, to| {
            events
                .range(from, to)
                .flatten()
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(range(0, 5), (0..5).map(ev).collect::<Vec<_>>());
        assert_eq!(range(1, 4), (1..4).map(ev).collect::<Vec<_>>());
        assert_eq!(range(2, 3), vec![ev(2)]);
        assert_eq!(range(3, 3), vec![]);
        assert_eq!(range(4, 99), vec![ev(4)]);
        assert_eq!(events.range(2, 3).filter(|p| !p.is_empty()).count(), 1);
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
        with_events(|events| {
            let [prefix, a, b, suffix] = events.parts;
            assert_eq!(events.dropped, 2);
            assert!(prefix.is_empty() && suffix.is_empty());
            assert!(!a.is_empty() && !b.is_empty(), "full ring must wrap");
            assert_eq!(a.len() + b.len(), 4);
            let joined: Vec<TraceEvent> = events.iter().copied().collect();
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
        with_events(|events| {
            assert_eq!(events.dropped, 0);
            assert_eq!(events.parts[1], (0..4).map(ev).collect::<Vec<_>>());
            assert!(events.parts[2].is_empty());
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
