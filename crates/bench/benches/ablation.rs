//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * **SRD masks, loop vs bitwise** — the paper attributes part of the
//!   Fig. 11 `brk` speedup to "verified bitwise arithmetic (instead of
//!   loops) to set certain fields in the MPU configuration".
//! * **Disagreement recomputation** — what the loader's layout
//!   recomputation costs per process load in the monolithic design.
//! * **Grant path with and without MPU recomputation** — the structural
//!   source of the `allocate_grant` 2×.
//! * **Incremental re-verification** — the cost of re-checking an
//!   unchanged kernel with and without the verification cache.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ticktock::cortexm::CortexMRegion;
use ticktock::mpu::Mpu;
use ticktock::region::RegionDescriptor;
use tt_contracts::span::SourceIndex;
use tt_contracts::vcache::VerdictCache;
use tt_contracts::verifier::Verifier;
use tt_hw::Permissions;
use tt_hw::PtrU8;
use tt_legacy::{BugVariant, LegacyCortexM};

/// Bitwise SRD mask computation (TickTock's replacement).
fn srd_masks_bitwise(enabled: usize) -> (u32, u32) {
    let k0 = enabled.min(8) as u32;
    let k1 = enabled.saturating_sub(8) as u32;
    let m0 = if k0 >= 8 { 0 } else { (!0u32 << k0) & 0xFF };
    let m1 = if k1 >= 8 { 0 } else { (!0u32 << k1) & 0xFF };
    (m0, m1)
}

fn bench_srd_masks(c: &mut Criterion) {
    let mut group = c.benchmark_group("srd_masks");
    group.bench_function("loop(legacy)", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for n in 0..=16usize {
                let (a, bm) = LegacyCortexM::srd_masks_loop(black_box(n));
                acc ^= a ^ bm;
            }
            acc
        })
    });
    group.bench_function("bitwise(ticktock)", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for n in 0..=16usize {
                let (a, bm) = srd_masks_bitwise(black_box(n));
                acc ^= a ^ bm;
            }
            acc
        })
    });
    group.finish();
}

fn bench_disagreement_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("loader_layout");
    // Monolithic: the loader re-derives the split from (start, size).
    group.bench_function("recompute(legacy)", |b| {
        let mpu = LegacyCortexM::with_fresh_hardware(BugVariant::Fixed);
        b.iter(|| {
            let layout = mpu.compute_alloc_layout(black_box(0x2000_0000), 0, 3000, 1024);
            tt_legacy::process::recompute_breaks(
                layout.region_start,
                layout.mem_size_po2,
                3000,
                1024,
            )
        })
    });
    // Granular: the breaks are read straight off the returned regions.
    group.bench_function("derive_from_regions(ticktock)", |b| {
        b.iter(|| {
            let pair = ticktock::cortexm::GranularCortexM::new_regions(
                1,
                PtrU8::new(black_box(0x2000_0000)),
                0x2_0000,
                3000,
                Permissions::ReadWriteOnly,
            )
            .unwrap();
            let start = pair.fst.start().unwrap();
            let size = pair.fst.size().unwrap() + pair.snd.size().unwrap_or(0);
            (start, size)
        })
    });
    group.finish();
}

fn bench_region_decode(c: &mut Criterion) {
    // Decoding start/size out of the raw RBAR/RASR encodings — the §4.4
    // driver obligation — must stay cheap enough to sit on hot paths.
    let region = CortexMRegion::new(0, 0x2000_0000, 4096, 5, Permissions::ReadWriteOnly);
    c.bench_function("region_decode/start_size", |b| {
        b.iter(|| {
            let s = black_box(&region).start().unwrap();
            let z = black_box(&region).size().unwrap();
            (s, z)
        })
    });
}

fn bench_incremental_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_verification");
    group.sample_size(10);
    let build = || {
        let mut r = tt_contracts::obligation::Registry::new();
        ticktock::obligations::register_obligations(&mut r, 2);
        tt_fluxarm::contracts::register_obligations(&mut r, 4);
        r
    };
    group.bench_function("cold(no cache)", |b| {
        let registry = build();
        b.iter(|| {
            let report = Verifier::new().verify(&registry);
            assert!(report.all_verified());
            report
        })
    });
    group.bench_function("warm(cached)", |b| {
        let registry = build();
        let verifier = Verifier::new();
        let (mut cache, index) = (VerdictCache::new(0), SourceIndex::default());
        let _ = verifier.verify_incremental(&registry, &mut cache, &index);
        b.iter(|| {
            let report = verifier.verify_incremental(&registry, &mut cache, &index);
            assert!(report.all_verified());
            report
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_srd_masks,
    bench_disagreement_recompute,
    bench_region_decode,
    bench_incremental_verification
);
criterion_main!(benches);
