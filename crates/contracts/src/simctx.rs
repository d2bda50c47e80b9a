//! The single simulation-context thread-local — the hot-path fast lane.
//!
//! Before the throughput-engine PR, one simulated register write paid up
//! to five separate thread-local lookups: the trace `ENABLED` flag, the
//! trace ring cell, the cycle counter, the cycle-accounting flag and the
//! contract-mode flag — each its own `thread_local!` static with its own
//! initialization check. [`SimContext`] consolidates every per-thread
//! simulator *flag and counter* into **one** thread-local struct, so each
//! event on the hot path (`tt_hw::trace::record`, `tt_hw::cycles::charge`,
//! a `requires!` check) performs a single TLS access for its check, and
//! every disabled path is a single flag load off that one pointer.
//!
//! The struct is deliberately `Copy`-scalars-only (`Cell`s, no heap
//! buffers): a thread-local whose payload needs `Drop` glue loses the
//! const-initialized fast path — every access then goes through the
//! destructor-registration state machine, which measurably doubles the
//! cost of a disabled-path flag load. The *buffers* those flags guard
//! (the trace ring, the §6.2 method records, the violation log) therefore
//! live in companion thread-locals owned by their layers and are touched
//! only when the corresponding flag says the feature is on, where the
//! real work (a ring push, a `Vec` push) dwarfs the second lookup.
//!
//! A hook whose fast path is one check on this context compiles inline
//! at its call site only while nothing in that path can panic: a panic
//! edge (an indexing bounds check, a `RefCell::borrow_mut`) keeps LLVM
//! from inlining the surrounding `LocalKey::with`, and every event then
//! pays a call. So each hook keeps its check here and moves the work
//! behind it out of line (`tt_hw::injection`'s engine lookup) or makes
//! it panic-free (`tt_hw::trace`'s push, whose module docs give the
//! measurement).
//!
//! This crate sits at the bottom of the workspace dependency graph, so
//! the context lives here: contracts keep [`SimContext::mode`] in it,
//! `tt_hw::cycles` the counter and its flags, `tt_hw::trace` its enabled
//! flag and current pid.
//!
//! Everything stays thread-local by design: the work-stealing pool in
//! `tt_kernel::pool` relies on worker runs being bit-identical to serial
//! runs precisely because no simulator state is shared between threads.

use std::cell::Cell;

use crate::Mode;

/// Sentinel pid meaning "no process context" (mirrors
/// `tt_hw::trace::NO_PID`, which this crate cannot reference).
pub const NO_PID: u32 = u32::MAX;

/// Sentinel for [`SimContext::injection_target`] meaning "no injection
/// plan armed". Distinct from [`NO_PID`] *and* from every real pid
/// (small process indices), so a disarmed engine's fast-path compare
/// `current_pid == injection_target` is false in every context.
pub const NO_TARGET: u32 = u32::MAX - 1;

/// Number of fault-injection points (`tt_hw::injection::ALL_POINTS`),
/// the length of the per-point counter arrays below.
pub const INJECTION_POINTS: usize = 6;

/// Sentinel for [`SimContext::injection_next`] meaning "nothing left to
/// fire at this point". A counter's occurrence `u32::MAX` enters the
/// engine either way, which recomputes the entry as the counter wraps.
pub const NOTHING_DUE: u32 = u32::MAX;

/// All per-thread simulator flags and counters, one field per former
/// `thread_local!` static. Plain-`Copy` cells only — see the module docs
/// for why no buffer lives here.
pub struct SimContext {
    /// Contract-checking mode (`requires!`/`ensures!`/`invariant!`).
    pub mode: Cell<Mode>,
    /// The deterministic cycle counter (`tt_hw::cycles`).
    pub cycles: Cell<u64>,
    /// Whether cycle accounting is on (default `true`).
    pub cycles_enabled: Cell<bool>,
    /// Whether §6.2 per-method cycle recording is on (default `false`).
    pub recording: Cell<bool>,
    /// Whether event tracing is on (default `false`).
    pub trace_enabled: Cell<bool>,
    /// Process context attributed to low-level trace events.
    pub current_pid: Cell<u32>,
    /// Mirror of the armed fault-injection plan's target pid
    /// ([`NO_TARGET`] when disarmed), kept in sync by
    /// `tt_hw::injection::{arm, disarm}`. Lets every injection hook
    /// answer "not the victim's context" with the same single TLS access
    /// that already holds `current_pid`, instead of touching the
    /// engine's own (buffer-carrying) thread-local.
    pub injection_target: Cell<u32>,
    /// Occurrences of each injection point seen in the target's context
    /// since the plan was armed, indexed by the point's discriminant.
    /// `tt_hw::injection` owns them: `resume` writes them, every hook in
    /// target context bumps one, and `progress` reads them back.
    pub injection_seen: [Cell<u32>; INJECTION_POINTS],
    /// Per point, the next occurrence at which an unfired injection is
    /// due ([`NOTHING_DUE`] for none). A hook whose occurrence differs
    /// returns without touching the engine; the engine recomputes the
    /// entry each time it is entered.
    pub injection_next: [Cell<u32>; INJECTION_POINTS],
    /// Hooks that reached the injection engine, i.e. fell on a due
    /// occurrence. Monotone for the thread's life, like
    /// [`Self::cycle_samples`]: callers compare two readings.
    pub injection_entries: Cell<u64>,
    /// Whether an interrupt schedule is armed on this thread, kept in
    /// sync by `tt_hw::sched::{arm, disarm}`. Every arrival-point hook in
    /// the kernel answers "no schedule, nothing to do" off this one flag
    /// before touching the engine's own (buffer-carrying) thread-local —
    /// the same fast-path discipline as [`Self::injection_target`].
    pub sched_armed: Cell<bool>,
    /// Reads of [`Self::cycles`] whose value the simulation computes
    /// with (`tt_hw::cycles::sample`). Monotone for the thread's life:
    /// callers compare two readings, never an absolute count.
    pub cycle_samples: Cell<u64>,
}

impl SimContext {
    /// Resets the fields that carry *per-run* state — the cycle counter,
    /// the §6.2 recording flag and the current-pid attribution — to their
    /// boot values. The fields owned by longer-lived scopes (`mode`,
    /// which `with_mode` saves and restores; `cycles_enabled` and
    /// `trace_enabled`, which benchmark harnesses toggle around whole
    /// suites) are deliberately left alone.
    ///
    /// `tt_kernel::snapshot` calls this on restore so a work unit that
    /// leaked a flag (a recording span that never drained, a stale pid
    /// from a panicked run) cannot carry it into the next run on the
    /// same pool worker.
    pub fn reset_run_state(&self) {
        self.cycles.set(0);
        self.recording.set(false);
        self.current_pid.set(NO_PID);
    }

    const fn new() -> Self {
        Self {
            mode: Cell::new(Mode::Enforce),
            cycles: Cell::new(0),
            cycles_enabled: Cell::new(true),
            recording: Cell::new(false),
            trace_enabled: Cell::new(false),
            current_pid: Cell::new(NO_PID),
            injection_target: Cell::new(NO_TARGET),
            injection_seen: [const { Cell::new(0) }; INJECTION_POINTS],
            injection_next: [const { Cell::new(NOTHING_DUE) }; INJECTION_POINTS],
            injection_entries: Cell::new(0),
            sched_armed: Cell::new(false),
            cycle_samples: Cell::new(0),
        }
    }
}

thread_local! {
    static CTX: SimContext = const { SimContext::new() };
}

/// Runs `f` with this thread's [`SimContext`] — the one TLS access every
/// hot-path helper makes.
#[inline]
pub fn with<R>(f: impl FnOnce(&SimContext) -> R) -> R {
    CTX.with(f)
}

/// [`SimContext::reset_run_state`] on this thread's context.
pub fn reset_run_state() {
    with(SimContext::reset_run_state);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_former_statics() {
        with(|c| {
            assert_eq!(c.mode.get(), Mode::Enforce);
            assert_eq!(c.cycles.get(), 0);
            assert!(c.cycles_enabled.get());
            assert!(!c.recording.get());
            assert!(!c.trace_enabled.get());
            assert_eq!(c.current_pid.get(), NO_PID);
            assert_eq!(c.injection_target.get(), NO_TARGET);
            assert!(c.injection_seen.iter().all(|s| s.get() == 0));
            assert!(c.injection_next.iter().all(|n| n.get() == NOTHING_DUE));
            assert!(!c.sched_armed.get());
        });
    }

    #[test]
    fn reset_run_state_clears_only_per_run_fields() {
        with(|c| {
            c.cycles.set(123);
            c.recording.set(true);
            c.current_pid.set(4);
            c.trace_enabled.set(true);
        });
        reset_run_state();
        with(|c| {
            assert_eq!(c.cycles.get(), 0);
            assert!(!c.recording.get());
            assert_eq!(c.current_pid.get(), NO_PID);
            // Owned by the tracing layer, not per-run state.
            assert!(c.trace_enabled.get());
            c.trace_enabled.set(false);
        });
    }

    #[test]
    fn context_is_thread_local() {
        with(|c| c.cycles.set(7));
        std::thread::spawn(|| {
            with(|c| {
                assert_eq!(c.cycles.get(), 0, "fresh thread, fresh context");
                c.cycles.set(99);
            });
        })
        .join()
        .unwrap();
        with(|c| {
            assert_eq!(c.cycles.get(), 7);
            c.cycles.set(0);
        });
    }
}
