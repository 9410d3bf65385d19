//! Batch-service throughput driver: optimizes the NAM benchmark suite as
//! one batch through the `OptimizationService` and reports circuits/sec at
//! 1 worker thread vs. all available cores — plus the **startup cost** of
//! the two ways a service can come up:
//!
//! * *generate*: run RepGen + pruning + transformation extraction + index
//!   construction at startup (the historical path);
//! * *load*: read the committed `libraries/<set>_n<N>_q<Q>.qtzl` artifact —
//!   ECC payload and prebuilt index — through the `LibraryCache`
//!   (DESIGN.md §7).
//!
//! Search outcomes and effort counters must be bit-identical across thread
//! counts and startup paths (asserted below), so every column is an
//! apples-to-apples comparison of the same search work. The structural-hash
//! dedup (DESIGN.md §13) must reject at least half of all duplicates on the
//! worker, before any merge, with a zero confirm-mismatch canary.
//!
//! Results are also written to `BENCH_search.json` (see
//! `quartz_bench::report`) so CI archives one machine-readable perf
//! artifact per run and the trajectory is diffable across commits. With
//! `--profile`, the first run additionally records a per-phase timing
//! breakdown (derive/match/delta/γ-precheck/preview/fingerprint/dedup) as
//! the `profile` suite.
//!
//! Usage: `cargo run --release -p quartz-bench --bin service_throughput
//! [-- --quick | --scale full] [--timeout <secs>] [--n <n>] [--q <q>]
//! [--threads <t>] [--profile]`

use quartz_bench::report::{BenchReport, BENCH_SEARCH_FILE};
use quartz_bench::{
    build_ecc_set, library_artifact_path, numeric_flag, or_exit, GateSetKind, Scale,
};
use quartz_ir::Circuit;
use quartz_opt::{
    LibraryCache, LoadedLibrary, OptimizationService, Optimizer, SearchConfig, SearchResult,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deterministic fields of a [`SearchResult`] — identical across thread
/// counts and startup paths (the improvement trace is kept as its cost
/// sequence, timestamps stripped).
#[derive(Debug, PartialEq)]
struct OutcomeSummary {
    best_circuit: Circuit,
    best_cost: usize,
    initial_cost: usize,
    iterations: usize,
    circuits_seen: usize,
    dedup_hits: usize,
    trace_costs: Vec<usize>,
    match_attempts: usize,
    match_skips: usize,
    fp_fast_rejects: usize,
    fp_confirm_mismatches: usize,
}

impl OutcomeSummary {
    fn of(result: &SearchResult) -> Self {
        OutcomeSummary {
            best_circuit: result.best_circuit.clone(),
            best_cost: result.best_cost,
            initial_cost: result.initial_cost,
            iterations: result.iterations,
            circuits_seen: result.circuits_seen,
            dedup_hits: result.dedup_hits,
            trace_costs: result.improvement_trace.iter().map(|&(_, c)| c).collect(),
            match_attempts: result.match_attempts,
            match_skips: result.match_skips,
            fp_fast_rejects: result.fp_fast_rejects,
            fp_confirm_mismatches: result.fp_confirm_mismatches,
        }
    }
}

fn sum(results: &[SearchResult], field: impl Fn(&SearchResult) -> usize) -> usize {
    results.iter().map(field).sum()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = GateSetKind::Nam;
    // `--quick` is the explicit spelling of the default scale (what the CI
    // bench-smoke job passes); Scale::from_args handles the rest.
    let scale = or_exit(Scale::from_args(kind, &args));
    let profile_enabled = args.iter().any(|a| a == "--profile");
    let max_threads = or_exit(numeric_flag(&args, "--threads")).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let mut report = BenchReport::new("service_throughput");

    // -- Startup: generate-at-startup vs. load-a-committed-artifact --------
    let generate_start = Instant::now();
    let (ecc_set, _) = build_ecc_set(kind, scale.ecc_n, scale.ecc_q);
    let generated = Optimizer::from_ecc_set(&ecc_set, SearchConfig::default()).shared_index();
    let generate_startup = generate_start.elapsed();
    report
        .suite("startup")
        .metric("generate_secs", generate_startup.as_secs_f64());

    let artifact = library_artifact_path(kind, scale.ecc_n, scale.ecc_q);
    let loaded: Option<Arc<LoadedLibrary>> = match LibraryCache::new().get_or_load(&artifact) {
        Ok(library) => Some(library),
        Err(e) => {
            println!(
                "note: no loadable artifact for this scale ({e}); startup comparison skipped\n"
            );
            None
        }
    };

    println!("== Service startup: generate vs load ==");
    println!("{:>10} {:>12}   Detail", "Path", "Startup");
    println!(
        "{:>10} {:>12.2?}   RepGen + prune + extract + index build (n={}, q={})",
        "generate", generate_startup, scale.ecc_n, scale.ecc_q
    );
    if let Some(library) = &loaded {
        let load_startup = library.load_time();
        println!(
            "{:>10} {:>12.2?}   {} ({} transformations, index {})",
            "load",
            load_startup,
            library.path().display(),
            library.shared_index().len(),
            if library.index_was_prebuilt() {
                "prebuilt"
            } else {
                "rebuilt"
            }
        );
        let speedup = generate_startup.as_secs_f64() / load_startup.as_secs_f64().max(1e-9);
        println!(
            "{:>10} {:>11.1}x   faster startup from the artifact",
            "", speedup
        );
        report
            .suite("startup")
            .metric("load_secs", load_startup.as_secs_f64())
            .metric("load_speedup", speedup);
        assert!(
            load_startup.saturating_mul(10) <= generate_startup,
            "artifact load ({load_startup:?}) should be at least 10x faster than \
             generate-at-startup ({generate_startup:?})"
        );
        assert_eq!(
            library.shared_index().len(),
            generated.len(),
            "the committed artifact is stale: its index disagrees with the generator \
             (run `quartz-lib generate` to refresh it)"
        );
    }
    println!();

    // -- Startup: lazy open vs eager decode (DESIGN.md §12) ----------------
    // Time the two ways of bringing the committed artifact up cold: a full
    // eager decode of every class and the index, vs. opening the file and
    // parsing only the header + class table (the first step of every
    // `LibraryCache` load). The lazy open must be at least 10x faster and
    // decode zero classes.
    if loaded.is_some() {
        // Best-of-N cold starts: process-fresh I/O effects are not the
        // subject here, decode work is.
        const REPS: usize = 10;
        let mut eager_secs = f64::MAX;
        for _ in 0..REPS {
            let start = Instant::now();
            let eager = quartz_gen::Library::load(&artifact).expect("eager load");
            std::hint::black_box(&eager);
            eager_secs = eager_secs.min(start.elapsed().as_secs_f64());
        }
        let mut lazy_secs = f64::MAX;
        let mut classes_total = 0usize;
        let mut classes_decoded = 0usize;
        for _ in 0..REPS {
            let start = Instant::now();
            let lazy = quartz_gen::LazyLibrary::open(&artifact).expect("lazy open");
            std::hint::black_box(lazy.class_table());
            lazy_secs = lazy_secs.min(start.elapsed().as_secs_f64());
            classes_total = lazy.num_classes();
            classes_decoded = lazy.decoded_classes();
        }
        let lazy_speedup = eager_secs / lazy_secs.max(1e-12);
        println!("== Service startup: eager decode vs lazy open ==");
        println!(
            "{:>10} {:>12.2?}   full decode ({classes_total} classes + index)",
            "eager",
            Duration::from_secs_f64(eager_secs)
        );
        println!(
            "{:>10} {:>12.2?}   header + class table only ({classes_decoded} classes decoded)",
            "lazy",
            Duration::from_secs_f64(lazy_secs)
        );
        println!(
            "{:>10} {:>11.1}x   faster cold start from the lazy reader\n",
            "", lazy_speedup
        );
        assert!(
            lazy_secs * 10.0 <= eager_secs,
            "lazy open ({lazy_secs:.6}s) must be at least 10x faster than the eager \
             decode ({eager_secs:.6}s)"
        );
        assert_eq!(classes_decoded, 0, "opening lazily must decode no classes");
        report
            .suite("startup/v2_lazy")
            .metric("eager_secs", eager_secs)
            .metric("lazy_secs", lazy_secs)
            .metric("lazy_speedup", lazy_speedup)
            .metric("classes_total", classes_total as f64)
            .metric("classes_decoded", classes_decoded as f64);
    }

    let batch: Vec<Circuit> = scale
        .suite
        .iter()
        .map(|(_, clifford_t)| kind.preprocess(clifford_t))
        .collect();
    println!(
        "== Batch service throughput ({} scale: {} circuits, ECC n={}, q={}, \
         {} iterations/circuit) ==",
        scale.label,
        batch.len(),
        scale.ecc_n,
        scale.ecc_q,
        scale.max_iterations
    );

    let run = |index: &Arc<quartz_opt::TransformationIndex>,
               threads: usize|
     -> (Duration, Vec<SearchResult>) {
        // The iteration budget must be the binding constraint: runs cut off
        // by the wall clock are legitimately thread-count-dependent, which
        // would void the bit-identicality assertion below. Leave the timeout
        // an order of magnitude above the per-circuit budgets.
        let config = SearchConfig {
            timeout: scale.search_timeout.saturating_mul(10 * batch.len() as u32),
            max_iterations: scale.max_iterations,
            num_threads: threads,
            profile: profile_enabled,
            ..SearchConfig::default()
        };
        let service = OptimizationService::new(Optimizer::with_index(Arc::clone(index), config));
        let start = Instant::now();
        let results = service.optimize_batch(&batch);
        (start.elapsed(), results)
    };

    let thread_counts: Vec<usize> = if max_threads > 1 {
        vec![1, max_threads]
    } else {
        vec![1]
    };
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>10} {:>8} {:>10}",
        "Threads", "Index", "Elapsed", "Circuits/sec", "Attempts", "Gates", "Speedup"
    );
    let mut baseline_secs = 0.0;
    let mut first: Option<Vec<SearchResult>> = None;
    for &threads in &thread_counts {
        let mut indexes: Vec<(&str, Arc<quartz_opt::TransformationIndex>)> =
            vec![("generated", Arc::clone(&generated))];
        if let Some(library) = &loaded {
            indexes.push(("loaded", library.shared_index()));
        }
        for (label, index) in indexes {
            let (elapsed, results) = run(&index, threads);
            let secs = elapsed.as_secs_f64();
            let total: usize = results.iter().map(|r| r.best_cost).sum();
            let attempts = sum(&results, |r| r.match_attempts);
            if first.is_none() {
                baseline_secs = secs;
            }
            println!(
                "{:>8} {:>10} {:>12.2?} {:>14.2} {:>10} {:>8} {:>9.2}x",
                threads,
                label,
                elapsed,
                batch.len() as f64 / secs,
                attempts,
                total,
                baseline_secs / secs
            );
            report
                .suite(&format!("throughput/t{threads}/{label}"))
                .metric("threads", threads as f64)
                .metric("wall_secs", secs)
                .metric("circuits_per_sec", batch.len() as f64 / secs)
                .metric("iterations", sum(&results, |r| r.iterations) as f64)
                .metric("circuits_seen", sum(&results, |r| r.circuits_seen) as f64)
                .metric("match_attempts", attempts as f64)
                .metric("dedup_hits", sum(&results, |r| r.dedup_hits) as f64)
                .metric(
                    "fp_fast_rejects",
                    sum(&results, |r| r.fp_fast_rejects) as f64,
                )
                .metric(
                    "fp_confirm_mismatches",
                    sum(&results, |r| r.fp_confirm_mismatches) as f64,
                )
                .metric("total_best_cost", total as f64);
            match &first {
                None => first = Some(results),
                Some(expected) => assert_eq!(
                    expected.iter().map(OutcomeSummary::of).collect::<Vec<_>>(),
                    results.iter().map(OutcomeSummary::of).collect::<Vec<_>>(),
                    "search outcomes must be identical across thread counts and startup paths"
                ),
            }
        }
    }
    let first = first.expect("at least one run");
    if profile_enabled {
        let mut profile = quartz_opt::SearchProfile::default();
        for r in &first {
            profile.accumulate(&r.profile);
        }
        let suite = report.suite("profile");
        for (phase, phase_secs) in profile.phases() {
            suite.metric(&format!("{phase}_secs"), phase_secs);
        }
        suite.metric("total_secs", profile.total().as_secs_f64());
    }
    fp_acceptance(&mut report, &first);

    // Verifier query timings (paper §4): the same representative identities
    // `benches/verifier.rs` measures, recorded so the committed perf
    // artifact carries verification cost next to search cost. Keys are
    // timing-shaped (`_secs` / `_per_sec`), which `bench_diff` skips.
    println!("\n== Verifier query cost (paper §4) ==");
    let verifier_suite = report.suite("verifier");
    for (name, a, b) in quartz_bench::verifier_bench_pairs() {
        const QUERIES: u32 = 20;
        let start = Instant::now();
        for _ in 0..QUERIES {
            let mut verifier = quartz_verify::Verifier::default();
            assert!(
                std::hint::black_box(verifier.check(&a, &b).expect("bench pair must verify")),
                "{name}: bench pair must be equivalent"
            );
        }
        let secs = start.elapsed().as_secs_f64() / f64::from(QUERIES);
        println!("{name:>28} {:>12.3?}/query", Duration::from_secs_f64(secs));
        verifier_suite
            .metric(&format!("{name}_secs"), secs)
            .metric(&format!("{name}_per_sec"), 1.0 / secs.max(1e-12));
    }

    match report.write(BENCH_SEARCH_FILE) {
        Ok(()) => println!("Wrote {BENCH_SEARCH_FILE} ({} suites)", report.len()),
        Err(e) => println!("warning: could not write {BENCH_SEARCH_FILE}: {e}"),
    }
}

/// Acceptance for the structural-hash dedup (DESIGN.md §13): at least half
/// of all duplicates die on the worker, by previewing the successor's hash
/// without materializing it, and no dequeued entry's hash contradicts the
/// preview that admitted it.
fn fp_acceptance(report: &mut BenchReport, results: &[SearchResult]) {
    let dedup_hits = sum(results, |r| r.dedup_hits);
    let fast = sum(results, |r| r.fp_fast_rejects);
    let mismatches = sum(results, |r| r.fp_confirm_mismatches);
    assert_eq!(
        mismatches, 0,
        "a structural-hash preview disagreed with its dequeue-time confirmation"
    );
    assert!(
        fast * 2 >= dedup_hits,
        "the preview must reject at least half of all duplicates: {fast} of {dedup_hits}"
    );
    let rate = fast as f64 / (dedup_hits as f64).max(1.0);
    report
        .suite("fp_acceptance")
        .metric("dedup_hits", dedup_hits as f64)
        .metric("fp_fast_rejects", fast as f64)
        .metric("fp_confirm_mismatches", mismatches as f64)
        .metric("fp_fast_reject_rate", rate);
    println!(
        "Structural-hash dedup: {fast} of {dedup_hits} duplicates ({:.1}%) rejected \
         before any merge, 0 confirm mismatches",
        100.0 * rate
    );
}
