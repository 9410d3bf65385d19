//! Criterion micro-benchmarks for the equivalence verifier (paper §4): the
//! cost of a single exact equivalence query for representative identities,
//! and of the exact arithmetic it runs on (the `arithmetic` group: building
//! each circuit's symbolic unitary, and reducing to trig normal form the
//! entries of a pair's difference `U₁ − U₂` and of `U₁ − e^{i·p0}·U₂`, the
//! check of a parameter-dependent phase candidate).
//!
//! The same query pairs ([`quartz_bench::verifier_bench_pairs`]) are timed
//! by perfbench's `library-build` workload, and a `quartz-bench` unit test
//! checks that each pair verifies as equivalent.

use criterion::{criterion_group, criterion_main, Criterion};
use quartz_bench::verifier_bench_pairs;
use quartz_verify::{symsem, PhaseFactor, Verifier};
use std::hint::black_box;

fn bench_verifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("verifier");
    group.sample_size(20);
    for (name, a, b) in verifier_bench_pairs() {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut verifier = Verifier::default();
                black_box(verifier.check(&a, &b).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_arithmetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("arithmetic");
    group.sample_size(20);
    // e^{i·p0}: its expansion carries s₀², so every entry it multiplies
    // takes the reducing path of the normal form.
    let phase = PhaseFactor {
        param_coeffs: vec![1],
        pi4_units: 0,
    }
    .to_poly();
    for (name, a, b) in verifier_bench_pairs() {
        for (side, circuit) in [("lhs", &a), ("rhs", &b)] {
            group.bench_function(format!("circuit_unitary/{name}/{side}"), |bench| {
                bench.iter(|| black_box(symsem::circuit_unitary(circuit).unwrap()));
            });
        }
        let (u1, u2) = (
            symsem::circuit_unitary(&a).unwrap(),
            symsem::circuit_unitary(&b).unwrap(),
        );
        let difference = u1.sub(&u2);
        let shifted = u1.sub(&u2.map(|p| p.mul(&phase)));
        for (kind, matrix) in [("difference", &difference), ("phase_p0", &shifted)] {
            group.bench_function(format!("trig_normal_form/{name}/{kind}"), |bench| {
                bench.iter(|| {
                    for (_, _, entry) in matrix.entries() {
                        black_box(entry.trig_normal_form());
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_verifier, bench_arithmetic);
criterion_main!(benches);
