//! Criterion micro-benchmarks for the optimizer (paper §6): preprocessing,
//! the greedy baseline, one library-wide match walk per search root, and
//! short cost-based searches on a benchmark circuit and on QFT-8, where the
//! dispatch index skips every X-bearing pattern (DESIGN.md §2.2).

use criterion::{criterion_group, criterion_main, Criterion};
use quartz_bench::{build_ecc_set, GateSetKind};
use quartz_circuits::{approximate_qft, suite};
use quartz_gen::{IndexScratch, Library};
use quartz_opt::{
    canonicalize, greedy_optimize, preprocess_nam, MatchContext, MatchScratch, Optimizer,
    SearchConfig,
};
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

/// The matcher layer alone: one dispatch and one library-wide automaton
/// walk over the committed NAM library for each quick-suite search root (the
/// canonicalized, preprocessed circuit a search starts from), counting
/// matches.
fn bench_matcher(c: &mut Criterion) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../libraries/nam_n3_q2.qtzl"
    );
    let (_, index) = Library::load(path)
        .expect("committed NAM library")
        .into_parts();
    let index = index.expect("the committed library embeds its index");
    let contexts: Vec<MatchContext> = suite::quick_suite()
        .iter()
        .map(|(_, circuit)| MatchContext::new(&canonicalize(&preprocess_nam(circuit))))
        .collect();
    let (mut index_scratch, mut ids, mut scratch) =
        (IndexScratch::new(), Vec::new(), MatchScratch::new());
    let mut sweep = || {
        let mut matches = 0usize;
        for ctx in &contexts {
            let dag = ctx.dag();
            index.candidates_into(
                dag.gate_histogram(),
                dag.num_qubits(),
                &mut index_scratch,
                &mut ids,
            );
            ctx.for_each_match(index.automaton(), &ids, &mut scratch, |_, _| matches += 1);
        }
        matches
    };
    println!(
        "matcher: {} matches over the nam-quick roots; {} rules in {} automaton nodes",
        sweep(),
        index.len(),
        index.automaton().num_nodes()
    );
    let mut group = c.benchmark_group("matcher");
    group.sample_size(20);
    group.bench_function("nam_quick_roots", |b| {
        b.iter(|| std::hint::black_box(sweep()))
    });
    group.finish();
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
    bench_matcher,
    bench_search_iterations,
    bench_dispatch_qft8
);
criterion_main!(benches);
