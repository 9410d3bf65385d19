//! Optimize a benchmark circuit from the paper's suite end-to-end:
//! Clifford+T input → preprocessing (Toffoli decomposition + rotation
//! merging) → superoptimizer search, for the Nam gate set.
//!
//! Also writes the run's engine counters to `BENCH_search.json`
//! (machine-readable; see `quartz_bench::report`) so ad-hoc benchmark runs
//! contribute to the recorded perf trajectory too.
//!
//! Run with
//! `cargo run --release --example optimize_benchmark [-- <circuit_name>] [--profile]`.
//! `--profile` adds a per-phase wall-time breakdown of the search (matching,
//! delta, γ-precheck, preview, derive, fingerprint, dedup) to the console
//! output and the report.

use quartz::circuits::suite;
use quartz::gen::{GenConfig, Generator};
use quartz::ir::GateSet;
use quartz::opt::{greedy_optimize, preprocess_nam, Optimizer, SearchConfig};
use quartz_bench::report::{BenchReport, BENCH_SEARCH_FILE};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = args.iter().any(|a| a == "--profile");
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "tof_3".to_string());
    let circuit = match suite::build_clifford_t(&name) {
        Some(c) => c,
        None => {
            eprintln!(
                "unknown benchmark {name:?}; available: {:?}",
                suite::BENCHMARK_NAMES
            );
            std::process::exit(1);
        }
    };
    println!(
        "Benchmark {name}: {} Clifford+T gates over {} qubits",
        circuit.gate_count(),
        circuit.num_qubits()
    );

    // Greedy rule-based baseline (the class of optimizer Quartz is compared
    // against in the paper).
    let (greedy, gstats) = greedy_optimize(&circuit);
    println!(
        "Greedy rule-based baseline: {} gates ({} passes)",
        greedy.gate_count(),
        gstats.passes
    );

    // Quartz preprocessing (paper §7.1).
    let preprocessed = preprocess_nam(&circuit);
    println!(
        "Quartz preprocess (Toffoli decomposition + rotation merging): {} gates",
        preprocessed.gate_count()
    );

    // Quartz search with a small learned transformation library (dispatch
    // goes through the transformation index).
    println!("Generating a (3, 2)-complete ECC set for the Nam gate set...");
    let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(3, 2, 2)).run();
    let optimizer = Optimizer::from_ecc_set(
        &ecc_set,
        SearchConfig {
            timeout: Duration::from_secs(10),
            max_iterations: 100,
            profile,
            ..SearchConfig::default()
        },
    );
    let search_start = Instant::now();
    let result = optimizer.optimize(&preprocessed);
    let search_wall = search_start.elapsed();
    println!(
        "Quartz end-to-end: {} gates ({:.1}% reduction over the original, {} search iterations)",
        result.best_cost,
        100.0 * (1.0 - result.best_cost as f64 / circuit.gate_count() as f64),
        result.iterations
    );
    println!(
        "Search engine: {} pattern matches attempted, {} skipped by the index \
         ({:.1}% skip rate), {} duplicate candidates dropped by fingerprint, \
         {} distinct circuits seen",
        result.match_attempts,
        result.match_skips,
        100.0 * result.dispatch_skip_rate(),
        result.dedup_hits,
        result.circuits_seen
    );
    println!(
        "Structural-hash dedup: {} of {} duplicates rejected by the preview \
         before any merge ({:.1}%), {} confirm mismatches",
        result.fp_fast_rejects,
        result.dedup_hits,
        100.0 * result.fp_fast_reject_rate(),
        result.fp_confirm_mismatches
    );
    if profile {
        println!(
            "Search phase breakdown ({:.3}s profiled):",
            result.profile.total().as_secs_f64()
        );
        for (phase, secs) in result.profile.phases() {
            println!("  {phase:>12}  {secs:>9.4}s");
        }
    }

    let mut report = BenchReport::new("optimize_benchmark");
    report
        .suite(&format!("optimize/{name}"))
        .metric("wall_secs", search_wall.as_secs_f64())
        .metric("iterations", result.iterations as f64)
        .metric("best_cost", result.best_cost as f64)
        .metric("match_attempts", result.match_attempts as f64)
        .metric("dispatch_skip_rate", result.dispatch_skip_rate())
        .metric("dedup_hits", result.dedup_hits as f64)
        .metric("fp_fast_rejects", result.fp_fast_rejects as f64)
        .metric("fp_confirm_mismatches", result.fp_confirm_mismatches as f64);
    if profile {
        let suite = report.suite(&format!("optimize/{name}/profile"));
        for (phase, secs) in result.profile.phases() {
            suite.metric(&format!("{phase}_secs"), secs);
        }
        suite.metric("total_secs", result.profile.total().as_secs_f64());
    }
    match report.write(BENCH_SEARCH_FILE) {
        Ok(()) => println!("Wrote {BENCH_SEARCH_FILE}"),
        Err(e) => println!("warning: could not write {BENCH_SEARCH_FILE}: {e}"),
    }
}
