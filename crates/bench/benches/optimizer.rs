//! Criterion micro-benchmarks for the optimizer (paper §6): preprocessing,
//! the greedy baseline, one library-wide match walk per search root, the
//! derive and hash-preview layers over those roots' matches, and
//! short cost-based searches on a benchmark circuit and on QFT-8, where the
//! dispatch index skips every X-bearing pattern (DESIGN.md §2.2), and one
//! multi-circuit batch timed at one and at two threads.

use criterion::{criterion_group, criterion_main, Criterion};
use quartz_bench::{build_ecc_set, GateSetKind};
use quartz_circuits::{approximate_qft, suite};
use quartz_gen::{IndexScratch, Library, TransformationIndex};
use quartz_ir::{Circuit, SpliceDelta, StructuralHash};
use quartz_opt::{
    canonicalize, greedy_optimize, preprocess_nam, MatchContext, MatchScratch, OptimizationService,
    Optimizer, SearchConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// The committed NAM (3,2) library artifact.
const NAM_LIBRARY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../libraries/nam_n3_q2.qtzl"
);

/// The committed NAM library's dispatch index.
fn nam_index() -> TransformationIndex {
    let (_, index) = Library::load(NAM_LIBRARY)
        .expect("committed NAM library")
        .into_parts();
    index.expect("the committed library embeds its index")
}

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

/// The committed NAM library's index and the match context of each
/// quick-suite search root (the canonicalized, preprocessed circuit a search
/// starts from).
fn nam_quick_roots() -> (TransformationIndex, Vec<MatchContext>) {
    let index = nam_index();
    let contexts = suite::quick_suite()
        .iter()
        .map(|(_, circuit)| MatchContext::new(&canonicalize(&preprocess_nam(circuit))))
        .collect();
    (index, contexts)
}

/// Every instantiable match of every dispatched rule on `ctx`, as deltas.
fn root_deltas(index: &TransformationIndex, ctx: &MatchContext) -> Vec<SpliceDelta> {
    let ids = index.candidates_for(ctx.dag().gate_histogram());
    let mut deltas = Vec::new();
    ctx.for_each_match(
        index.automaton(),
        &ids,
        &mut MatchScratch::new(),
        |id, m| {
            deltas.extend(ctx.delta_for(&index.transformations()[id], m));
        },
    );
    deltas
}

/// The matcher layer alone: one dispatch and one library-wide automaton
/// walk over the committed NAM library for each quick-suite search root,
/// counting matches.
fn bench_matcher(c: &mut Criterion) {
    let (index, contexts) = nam_quick_roots();
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

/// The derive layer alone: for each quick-suite search root, clone its
/// match context and splice its first match's rewrite into the clone — the
/// step that builds every dequeued entry's context (DESIGN.md §5).
fn bench_derive(c: &mut Criterion) {
    let (index, contexts) = nam_quick_roots();
    let firsts: Vec<(&MatchContext, SpliceDelta)> = contexts
        .iter()
        .filter_map(|ctx| Some((ctx, root_deltas(&index, ctx).into_iter().next()?)))
        .collect();
    println!("derive: one delta on each of {} roots", firsts.len());
    let mut group = c.benchmark_group("derive");
    group.sample_size(20);
    group.bench_function("nam_quick_roots", |b| {
        b.iter(|| {
            for (ctx, delta) in &firsts {
                std::hint::black_box(ctx.derive(delta));
            }
        })
    });
    group.finish();
}

/// The hash-preview layer alone: the O(footprint) structural-hash preview
/// of every match's successor on each quick-suite search root (DESIGN.md
/// §13).
fn bench_preview(c: &mut Criterion) {
    let (index, contexts) = nam_quick_roots();
    let per_root: Vec<(&MatchContext, StructuralHash, Vec<SpliceDelta>)> = contexts
        .iter()
        .map(|ctx| (ctx, StructuralHash::of(ctx.dag()), root_deltas(&index, ctx)))
        .collect();
    println!(
        "preview: {} deltas over the nam-quick roots",
        per_root.iter().map(|(_, _, d)| d.len()).sum::<usize>()
    );
    let mut group = c.benchmark_group("preview");
    group.sample_size(20);
    group.bench_function("nam_quick_roots", |b| {
        b.iter(|| {
            for (ctx, hash, deltas) in &per_root {
                for delta in deltas {
                    std::hint::black_box(hash.previewed(ctx.dag(), delta));
                }
            }
        })
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

/// The four-circuit full-suite batch (NAM-preprocessed, ten iterations
/// each, on the committed NAM library) that perfbench's `nam-large`
/// workload runs, timed at one and at two threads: what a second thread
/// buys a multi-frontier search step.
fn bench_batch_threads(c: &mut Criterion) {
    let index = Arc::new(nam_index());
    let batch: Vec<Circuit> = ["barenco_tof_4", "barenco_tof_5", "gf2^4_mult", "gf2^5_mult"]
        .iter()
        .map(|name| preprocess_nam(&suite::build_clifford_t(name).unwrap()))
        .collect();
    let mut group = c.benchmark_group("batch_threads");
    group.sample_size(50);
    for threads in [1, 2] {
        let service = OptimizationService::new(Optimizer::with_index(
            Arc::clone(&index),
            SearchConfig {
                timeout: Duration::from_secs(3600),
                max_iterations: 10,
                num_threads: threads,
                ..SearchConfig::default()
            },
        ));
        group.bench_function(format!("nam_large_t{threads}"), |b| {
            b.iter(|| {
                let results = service.optimize_batch(&batch);
                std::hint::black_box(results.iter().map(|r| r.best_cost).sum::<usize>())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_preprocessing,
    bench_greedy_baseline,
    bench_matcher,
    bench_derive,
    bench_preview,
    bench_search_iterations,
    bench_dispatch_qft8,
    bench_batch_threads
);
criterion_main!(benches);
