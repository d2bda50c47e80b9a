//! Deterministic cycle cost model.
//!
//! The paper instruments Tock and TickTock process-abstraction methods with
//! a CPU cycle counter on the NRF52840 (§6.2, Fig. 11). Our substrate is a
//! simulator, so we substitute a deterministic cost model: each primitive the
//! kernel performs charges a fixed cycle cost to a thread-local counter.
//! Absolute numbers differ from silicon, but the *algorithmic* differences
//! the paper measures — recomputation, redundant MPU reconfiguration, loops
//! vs bitwise arithmetic — show up directly.
//!
//! Costs approximate a Cortex-M4: single-cycle ALU, 2-cycle loads/stores
//! (with flash wait states folded in), 2-cycle taken branches, 12-cycle
//! hardware divide worst case, and slower MMIO writes to the MPU's
//! peripheral bus.

use tt_contracts::simctx;

/// Cycle cost of one primitive operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Register-to-register ALU op (add, sub, and, shift): 1 cycle.
    Alu,
    /// Compare + conditional branch: 2 cycles (pipeline refill).
    Branch,
    /// Memory load: 2 cycles.
    Load,
    /// Memory store: 2 cycles.
    Store,
    /// Integer divide / modulo: 12 cycles (Cortex-M4 worst case).
    Div,
    /// MMIO write to a peripheral register (MPU RBAR/RASR, PMP CSRs): 4 cycles.
    MmioWrite,
    /// MMIO read from a peripheral register: 3 cycles.
    MmioRead,
    /// Function call + return overhead: 4 cycles.
    Call,
    /// Exception entry or return (hardware stacking): 12 cycles.
    Exception,
    /// Raw cycle count for modelled code not broken into primitives.
    Raw(u64),
}

impl Cost {
    /// Returns the cycle cost of the primitive.
    pub const fn cycles(self) -> u64 {
        match self {
            Cost::Alu => 1,
            Cost::Branch => 2,
            Cost::Load => 2,
            Cost::Store => 2,
            Cost::Div => 12,
            Cost::MmioWrite => 4,
            Cost::MmioRead => 3,
            Cost::Call => 4,
            Cost::Exception => 12,
            Cost::Raw(n) => n,
        }
    }
}

/// Charges one primitive to the thread-local cycle counter.
///
/// One [`simctx::SimContext`] access: the enable flag and the counter
/// live in the same thread-local struct, so the disabled path is a
/// single flag load.
#[inline]
pub fn charge(cost: Cost) {
    simctx::with(|c| {
        if c.cycles_enabled.get() {
            c.cycles.set(c.cycles.get().wrapping_add(cost.cycles()));
        }
    });
}

/// Charges `n` repetitions of a primitive.
#[inline]
pub fn charge_n(cost: Cost, n: u64) {
    simctx::with(|c| {
        if c.cycles_enabled.get() {
            c.cycles
                .set(c.cycles.get().wrapping_add(cost.cycles().wrapping_mul(n)));
        }
    });
}

/// Returns the current cycle count.
#[inline]
pub fn now() -> u64 {
    simctx::with(|c| c.cycles.get())
}

/// Reads the counter as a value the simulation computes with — a
/// cycle-derived sensor or ADC reading — and counts the read. A run that
/// makes no such read between two points behaves the same whatever the
/// counter holds there: every other use of the counter only charges it or
/// measures a span. The schedule explorer relies on this to splice a
/// baseline's continuation onto a run whose counter differs
/// (`tt_kernel::campaign`).
#[inline]
pub fn sample() -> u64 {
    simctx::with(|c| {
        c.cycle_samples.set(c.cycle_samples.get() + 1);
        c.cycles.get()
    })
}

/// Counter reads [`sample`] has counted on this thread so far.
pub fn samples() -> u64 {
    simctx::with(|c| c.cycle_samples.get())
}

/// Resets the counter to zero.
pub fn reset() {
    simctx::with(|c| c.cycles.set(0));
}

/// Sets the counter to an absolute value. Used by `tt_kernel::snapshot`
/// to rewind the clock to its capture point, so cycle-derived values
/// (sensor readings, recovery-latency spans) replay exactly as they
/// would on a fresh boot.
pub fn set_now(counter: u64) {
    simctx::with(|c| c.cycles.set(counter));
}

/// Enables or disables accounting (returns the previous state).
pub fn set_enabled(enabled: bool) -> bool {
    simctx::with(|c| c.cycles_enabled.replace(enabled))
}

/// Measures the cycles charged while running `f`.
///
/// Nested measurements compose: the inner span's cycles are also part of the
/// outer span, exactly like reading a hardware cycle counter twice.
///
/// Inline, as [`record_method`] is, so both counter reads compile in
/// place: out of line, each instrumented kernel method reached the
/// `simctx` accessor through an out-of-line `LocalKey::with` call.
#[inline]
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now();
    let value = f();
    (value, now() - start)
}

/// Capacity reserved for the per-method record buffer the first time
/// recording is enabled on a thread: one Fig. 11 run of the 21 release
/// tests plus the stress workload records a few thousand spans, so this
/// never grows in steady state.
const METHOD_RECORD_CAPACITY: usize = 8_192;

thread_local! {
    // The record buffer cannot join the scalar-only `SimContext`; it is
    // wrapped in `ManuallyDrop` so the thread-local carries no `Drop`
    // glue and keeps the const-init fast access path (see
    // `tt_hw::trace::RING` for the full rationale). Threads release the
    // storage explicitly via [`release_thread_buffers`]; the pool
    // workers in `tt_kernel::pool` do so before exiting.
    static METHOD_RECORDS: std::cell::RefCell<std::mem::ManuallyDrop<Vec<(&'static str, u64)>>> =
        const { std::cell::RefCell::new(std::mem::ManuallyDrop::new(Vec::new())) };
}

/// Frees this thread's method-record buffer. Long-lived threads that
/// enabled recording should call this before exiting; the work-stealing
/// pool workers do. Pending records are discarded.
pub fn release_thread_buffers() {
    METHOD_RECORDS.with(|m| {
        // Assigning a fresh `Vec` drops the old buffer normally —
        // `ManuallyDrop` only suppresses the (never-run) TLS destructor.
        **m.borrow_mut() = Vec::new();
    });
}

/// Enables or disables per-method cycle recording (returns previous state).
///
/// This is the reproduction of the paper's §6.2 instrumentation: "we
/// instrumented key methods implemented by the TickTock and Tock process
/// abstractions to count the number of CPU cycles spent in each".
/// Enabling pre-sizes the record buffer so steady-state recording never
/// reallocates.
pub fn set_recording(enabled: bool) -> bool {
    if enabled {
        METHOD_RECORDS.with(|m| {
            let mut records = m.borrow_mut();
            let len = records.len();
            if records.capacity() < METHOD_RECORD_CAPACITY {
                records.reserve(METHOD_RECORD_CAPACITY - len);
            }
        });
    }
    simctx::with(|c| c.recording.replace(enabled))
}

/// Records one timed invocation of an instrumented method. A single
/// [`simctx::SimContext`] flag load when recording is off; the buffer is
/// touched only when it is on.
#[inline]
pub fn record_method(name: &'static str, cycles: u64) {
    if simctx::with(|c| c.recording.get()) {
        METHOD_RECORDS.with(|m| m.borrow_mut().push((name, cycles)));
    }
}

/// Runs `f`, recording its cycle span under `name` when recording is on.
/// Inline for the same reason as [`measure`].
#[inline]
pub fn instrument<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let (value, span) = measure(f);
    record_method(name, span);
    value
}

/// Drains the per-method records collected on this thread.
///
/// The thread-local buffer keeps its capacity (it is cleared, not
/// `mem::take`n), so repeated instrumented runs on one thread reuse one
/// allocation instead of re-growing the buffer every run.
pub fn take_method_records() -> Vec<(&'static str, u64)> {
    METHOD_RECORDS.with(|m| {
        let mut records = m.borrow_mut();
        let out = records.to_vec();
        records.clear();
        out
    })
}

/// A running mean over benchmark samples, as the paper reports ("average of
/// three runs of the 21 tests").
#[derive(Debug, Clone, Default)]
pub struct CycleStats {
    samples: Vec<u64>,
}

impl CycleStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, cycles: u64) {
        self.samples.push(cycles);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean cycles across samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
        }
    }

    /// Minimum sample (0 if empty).
    pub fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        reset();
        charge(Cost::Alu);
        charge(Cost::Div);
        charge_n(Cost::Load, 3);
        assert_eq!(now(), 1 + 12 + 6);
        reset();
        assert_eq!(now(), 0);
    }

    #[test]
    fn measure_returns_span() {
        reset();
        charge(Cost::Alu);
        let ((), span) = measure(|| {
            charge(Cost::MmioWrite);
            charge(Cost::MmioWrite);
        });
        assert_eq!(span, 8);
        assert_eq!(now(), 9);
    }

    #[test]
    fn nested_measures_compose() {
        reset();
        let ((), outer) = measure(|| {
            charge(Cost::Alu);
            let ((), inner) = measure(|| charge(Cost::Branch));
            assert_eq!(inner, 2);
        });
        assert_eq!(outer, 3);
    }

    #[test]
    fn disabled_counter_charges_nothing() {
        reset();
        let prev = set_enabled(false);
        charge(Cost::Exception);
        set_enabled(prev);
        assert_eq!(now(), 0);
    }

    #[test]
    fn stats_mean_min_max() {
        let mut s = CycleStats::new();
        assert_eq!(s.mean(), 0.0);
        s.record(10);
        s.record(20);
        s.record(30);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 20.0);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 30);
    }

    #[test]
    fn raw_cost_passthrough() {
        assert_eq!(Cost::Raw(17).cycles(), 17);
    }

    #[test]
    fn method_recording_captures_instrumented_spans() {
        reset();
        let prev = set_recording(true);
        let v = instrument("brk", || {
            charge(Cost::Div);
            42
        });
        set_recording(prev);
        assert_eq!(v, 42);
        let records = take_method_records();
        assert_eq!(records, vec![("brk", 12)]);
        assert!(take_method_records().is_empty());
    }

    #[test]
    fn recording_disabled_by_default() {
        reset();
        instrument("x", || charge(Cost::Alu));
        assert!(take_method_records().is_empty());
    }
}
