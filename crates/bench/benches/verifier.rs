//! Criterion micro-benchmarks for the equivalence verifier (paper §4): the
//! cost of a single exact equivalence query for representative identities.
//!
//! The same query pairs ([`quartz_bench::verifier_bench_pairs`]) are timed
//! by perfbench's `library-build` workload, and a `quartz-bench` unit test
//! checks that each pair verifies as equivalent.

use criterion::{criterion_group, criterion_main, Criterion};
use quartz_bench::verifier_bench_pairs;
use quartz_verify::Verifier;

fn bench_verifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("verifier");
    group.sample_size(20);
    for (name, a, b) in verifier_bench_pairs() {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut verifier = Verifier::default();
                std::hint::black_box(verifier.check(&a, &b).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_verifier);
criterion_main!(benches);
