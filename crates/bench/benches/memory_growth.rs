//! Criterion bench behind the §6.2 memory microbenchmark: the cost of the
//! grow-by-1-byte-until-failure loop (dominated by the per-`brk` work each
//! kernel does) and of the full release-suite run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tt_kernel::process::Flavor;
use tt_legacy::BugVariant;

fn flavors() -> [(&'static str, Flavor); 2] {
    [
        ("tock", Flavor::Legacy(BugVariant::Fixed)),
        ("ticktock", Flavor::Granular),
    ]
}

fn bench_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("grow_until_failure");
    group.sample_size(10);
    for (name, flavor) in flavors() {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| tt_bench::e62::measure(flavor, 0))
        });
    }
    group.finish();
}

fn bench_release_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("release_suite");
    group.sample_size(10);
    for (name, flavor) in flavors() {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                for test in tt_kernel::apps::release_tests() {
                    let outcome = tt_kernel::differential::run_one_on(
                        &test,
                        flavor,
                        &tt_hw::platform::NRF52840DK,
                    );
                    std::hint::black_box(outcome);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_growth, bench_release_suite);
criterion_main!(benches);
