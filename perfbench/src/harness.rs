//! The timing estimator every workload shares.
//!
//! A workload is a fixed, seed-determined list of ops. The harness makes
//! K full passes over that list, each pass starting in its own time slot
//! so the passes spread across the run, and keeps each op's **minimum**
//! latency over the passes. Interference on a shared host (memory
//! pressure from neighbours) only ever slows an op down, so one quiet
//! pass is enough for an op to read true. Every op also reports exact
//! work counts; they must repeat in every pass (the determinism guard),
//! or the run fails instead of printing a number.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Spans;

/// One op's result from one pass.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Host nanoseconds the op took.
    pub ns: u64,
    /// Exact work counts. Every pass, traced or not, must repeat them.
    pub counts: Vec<u64>,
    /// Host-nanosecond self time per layer (traced passes only).
    pub layers: Vec<(&'static str, u64)>,
    /// When not empty, `ns` split at the op's call boundaries: each part
    /// then takes its own minimum over the passes, and the op reads the
    /// sum of those minima.
    pub parts: Vec<u64>,
    /// Whether the op failed its oracle.
    pub failed: bool,
}

/// Per-op minima over the passes made so far.
#[derive(Debug, Default)]
pub struct MinTable {
    /// Passes folded in.
    pub passes: usize,
    /// Minimum host nanoseconds per op.
    pub min_ns: Vec<u64>,
    /// The exact counts of each op (identical in every pass).
    pub counts: Vec<Vec<u64>>,
    /// Whether each op failed.
    pub failed: Vec<bool>,
    /// Minimum self time per layer per op (`u64::MAX` = never reported).
    pub layers: BTreeMap<&'static str, Vec<u64>>,
    /// Each pass's summed op time, ms (a diagnostic: a run slow in every
    /// pass was slow throughout, not in one stretch).
    pub pass_ms: Vec<f64>,
    /// Minimum per part per op, for ops that report parts.
    pub min_parts: Vec<Vec<u64>>,
}

impl MinTable {
    /// Folds one pass in, checking its counts against the first pass.
    pub fn add(&mut self, ops: Vec<Op>) -> Result<(), String> {
        if self.passes == 0 {
            self.min_ns = ops.iter().map(|o| o.ns).collect();
            self.min_parts = ops.iter().map(|o| o.parts.clone()).collect();
            self.counts = ops.iter().map(|o| o.counts.clone()).collect();
            self.failed = ops.iter().map(|o| o.failed).collect();
        } else {
            if ops.len() != self.min_ns.len() {
                return Err(format!(
                    "determinism guard: pass {} ran {} ops, pass 0 ran {}",
                    self.passes,
                    ops.len(),
                    self.min_ns.len()
                ));
            }
            for (i, op) in ops.iter().enumerate() {
                if op.counts != self.counts[i] || op.failed != self.failed[i] {
                    return Err(format!(
                        "determinism guard: op {i} counted {:?} (failed {}) in pass {}, {:?} (failed {}) in pass 0",
                        op.counts, op.failed, self.passes, self.counts[i], self.failed[i]
                    ));
                }
                if op.parts.is_empty() {
                    self.min_ns[i] = self.min_ns[i].min(op.ns);
                } else {
                    let parts = &mut self.min_parts[i];
                    for (m, &p) in parts.iter_mut().zip(&op.parts) {
                        *m = (*m).min(p);
                    }
                    self.min_ns[i] = parts.iter().sum();
                }
            }
        }
        self.pass_ms
            .push(ops.iter().map(|o| o.ns).sum::<u64>() as f64 / 1e6);
        let n = ops.len();
        for (i, op) in ops.iter().enumerate() {
            for &(name, ns) in &op.layers {
                let v = self.layers.entry(name).or_insert_with(|| vec![u64::MAX; n]);
                v[i] = v[i].min(ns);
            }
        }
        self.passes += 1;
        Ok(())
    }

    /// Ops per pass.
    pub fn ops(&self) -> usize {
        self.min_ns.len()
    }

    /// Ops that failed their oracle.
    pub fn failed_ops(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }

    /// Ops per second of summed per-op minima.
    pub fn ops_per_s(&self) -> f64 {
        let total: u64 = self.min_ns.iter().sum();
        self.ops() as f64 / (total.max(1) as f64 / 1e9)
    }

    /// Nearest-rank percentile `q` (0..1] of the per-op minima, in µs.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let mut sorted = self.min_ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, q) as f64 / 1e3
    }

    /// Mean over ops of one layer's per-op minimum self time, in µs.
    /// Ops that never entered the layer count as zero.
    pub fn layer_mean_us(&self, name: &str) -> f64 {
        let Some(v) = self.layers.get(name) else {
            return 0.0;
        };
        let sum: u64 = v
            .iter()
            .map(|&ns| if ns == u64::MAX { 0 } else { ns })
            .sum();
        sum as f64 / v.len().max(1) as f64 / 1e3
    }

    /// Mean over ops of count `k`.
    pub fn count_mean(&self, k: usize) -> f64 {
        let sum: u64 = self.counts.iter().map(|c| c[k]).sum();
        sum as f64 / self.ops().max(1) as f64
    }

    /// Sum over ops of count `k`.
    pub fn count_sum(&self, k: usize) -> u64 {
        self.counts.iter().map(|c| c[k]).sum()
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of readings.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// How much of a run to spend and how.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untraced passes over the op list (K).
    pub passes: usize,
    /// Set-up repetitions (at most `passes`); `setup_s` is their median.
    pub setups: usize,
    /// Seconds the passes spread across.
    pub seconds: f64,
    /// Whether to also make K traced passes for the per-layer metrics.
    pub trace: bool,
}

/// What the passes measured.
pub struct Measured {
    /// Minima over the untraced passes (the end-to-end metrics).
    pub untraced: MinTable,
    /// Minima over the traced passes, when tracing was asked for.
    pub traced: Option<MinTable>,
    /// Each set-up repetition's wall time, seconds.
    pub setup_s: Vec<f64>,
}

/// Sets up and makes the passes: K untraced ones, and with tracing K
/// traced ones interleaved with them. Slot `i` of the run starts no
/// earlier than `i / slots` of `plan.seconds`, so the passes spread over
/// the run however fast each one is. The first `plan.setups` slots each
/// open with a fresh set-up, timed, that replaces the state the passes
/// use; spreading the set-ups the same way keeps their median honest.
pub fn measure<T>(
    plan: &Plan,
    spans: &mut Spans,
    mut setup: impl FnMut() -> Result<T, String>,
    mut pass: impl FnMut(&mut T, Option<&mut Spans>) -> Result<Vec<Op>, String>,
) -> Result<(Measured, T), String> {
    let slots = if plan.trace {
        2 * plan.passes
    } else {
        plan.passes
    };
    let slot = Duration::from_secs_f64(plan.seconds.max(0.0) / slots.max(1) as f64);
    let start = Instant::now();
    let mut state: Option<T> = None;
    let mut setup_s = Vec::new();
    let mut untraced = MinTable::default();
    let mut traced = MinTable::default();
    for i in 0..slots {
        let due = start + slot * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if i < plan.setups.max(1) {
            // Drop the previous state first so the peak holds one copy.
            drop(state.take());
            let t0 = Instant::now();
            state = Some(setup()?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let st = state.as_mut().expect("slot 0 sets up");
        if plan.trace && i % 2 == 1 {
            traced.add(pass(st, Some(&mut *spans))?)?;
        } else {
            untraced.add(pass(st, None)?)?;
        }
    }
    let traced = plan.trace.then_some(traced);
    if let Some(t) = &traced {
        if let Some(i) = (0..t.ops()).find(|&i| t.counts[i] != untraced.counts[i]) {
            return Err(format!(
                "determinism guard: traced op {i} counted {:?}, untraced {:?}",
                t.counts[i], untraced.counts[i]
            ));
        }
    }
    let state = state.expect("at least one slot");
    Ok((
        Measured {
            untraced,
            traced,
            setup_s,
        },
        state,
    ))
}

/// The generator for seed-derived inputs: one stream per `stream` tag.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Shuffles `v` in place (Fisher–Yates).
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ns: u64, counts: &[u64]) -> Op {
        Op {
            ns,
            counts: counts.to_vec(),
            ..Op::default()
        }
    }

    #[test]
    fn minimum_over_passes_and_count_guard() {
        let mut t = MinTable::default();
        t.add(vec![op(10, &[1]), op(30, &[2])]).unwrap();
        t.add(vec![op(7, &[1]), op(40, &[2])]).unwrap();
        assert_eq!(t.min_ns, vec![7, 30]);
        assert!(t.add(vec![op(5, &[1]), op(5, &[3])]).is_err());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&[4], 0.9), 4);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
