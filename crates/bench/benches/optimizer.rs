//! Criterion micro-benchmarks for the optimizer (paper §6): preprocessing,
//! the greedy baseline, and short cost-based searches on a benchmark circuit
//! and on QFT-8, where the dispatch index skips every X-bearing pattern
//! (DESIGN.md §2.2).

use criterion::{criterion_group, criterion_main, Criterion};
use quartz_bench::{build_ecc_set, GateSetKind};
use quartz_circuits::{approximate_qft, suite};
use quartz_opt::{greedy_optimize, preprocess_nam, Optimizer, SearchConfig};
use std::time::Duration;

fn bench_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess");
    group.sample_size(10);
    for name in ["tof_3", "mod5_4", "rc_adder_6"] {
        let circuit = suite::build_clifford_t(name).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(preprocess_nam(&circuit).gate_count()))
        });
    }
    group.finish();
}

fn bench_greedy_baseline(c: &mut Criterion) {
    let circuit = suite::build_clifford_t("tof_5").unwrap();
    c.bench_function("greedy_baseline_tof_5", |b| {
        b.iter(|| std::hint::black_box(greedy_optimize(&circuit).0.gate_count()))
    });
}

fn bench_search_iterations(c: &mut Criterion) {
    let (ecc_set, _) = build_ecc_set(GateSetKind::Nam, 3, 2);
    let optimizer = Optimizer::from_ecc_set(
        &ecc_set,
        SearchConfig {
            timeout: Duration::from_secs(30),
            max_iterations: 5,
            ..SearchConfig::default()
        },
    );
    let circuit = preprocess_nam(&suite::build_clifford_t("tof_3").unwrap());
    let mut group = c.benchmark_group("search");
    group.sample_size(10);
    group.bench_function("tof_3_five_iterations", |b| {
        b.iter(|| std::hint::black_box(optimizer.optimize(&circuit).best_cost))
    });
    group.finish();
}

/// An eight-iteration search on QFT-8, which contains no X gates: the
/// dispatch index must skip transformations (reported alongside the
/// timings).
fn bench_dispatch_qft8(c: &mut Criterion) {
    let (ecc_set, _) = build_ecc_set(GateSetKind::Nam, 2, 2);
    let qft = approximate_qft(8);
    let optimizer = Optimizer::from_ecc_set(
        &ecc_set,
        SearchConfig {
            timeout: Duration::from_secs(120),
            max_iterations: 8,
            ..SearchConfig::default()
        },
    );
    let result = optimizer.optimize(&qft);
    println!(
        "qft_8 dispatch: {} attempts (+{} skipped, {:.1}% skip rate); best cost {}",
        result.match_attempts,
        result.match_skips,
        100.0 * result.dispatch_skip_rate(),
        result.best_cost,
    );
    assert!(result.match_skips > 0);

    let mut group = c.benchmark_group("dispatch_qft_8");
    group.sample_size(10);
    group.bench_function("indexed", |b| {
        b.iter(|| std::hint::black_box(optimizer.optimize(&qft).match_attempts))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_preprocessing,
    bench_greedy_baseline,
    bench_search_iterations,
    bench_dispatch_qft8
);
criterion_main!(benches);
