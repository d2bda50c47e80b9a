//! Host-side readings: the interference witness and peak memory.
//!
//! The witness times two fixed loops at the start and end of every run.
//! The ALU loop stays within a few per cent on a contended host; the
//! pointer chase, which misses the caches on every step, slows by up to
//! 2.7x when neighbours press on memory. A slow chase next to a normal
//! ALU reading marks a contended run rather than a regression.

use std::hint::black_box;
use std::time::Instant;

use rand::Rng;

/// Chase-table entries (4 Mi `u32` = 16 MiB, larger than the caches).
const CHASE_ENTRIES: usize = 1 << 22;
/// Dependent loads per chase.
const CHASE_STEPS: usize = 1 << 21;
/// Iterations of the ALU loop.
const ALU_ITERS: u64 = 1 << 25;

/// One witness reading.
#[derive(Debug, Clone, Copy)]
pub struct Witness {
    /// Milliseconds for the fixed ALU loop.
    pub alu_ms: f64,
    /// Milliseconds for the fixed pointer chase.
    pub memchase_ms: f64,
}

/// Times both witness loops.
pub fn witness() -> Witness {
    Witness {
        alu_ms: alu_ms(),
        memchase_ms: memchase_ms(),
    }
}

fn alu_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for i in 0..ALU_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

fn memchase_ms() -> f64 {
    // Sattolo's algorithm: one cycle through every entry, so the chase
    // never settles into a short, cache-resident loop.
    let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
    let mut rng = crate::harness::rng(0x5eed, 0xc4a5e);
    for i in (1..CHASE_ENTRIES).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    black_box(at);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
