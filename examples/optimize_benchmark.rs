//! Optimize a benchmark circuit from the paper's suite end-to-end:
//! Clifford+T input → preprocessing (Toffoli decomposition + rotation
//! merging) → superoptimizer search, for the Nam gate set.
//!
//! Run with
//! `cargo run --release --example optimize_benchmark [-- <circuit_name>] [--profile]`.
//! `--profile` adds a per-phase wall-time breakdown of the search (matching,
//! delta, γ-precheck, preview, derive, fingerprint, dedup) to the console
//! output.

use quartz::circuits::suite;
use quartz::gen::{GenConfig, Generator};
use quartz::ir::GateSet;
use quartz::opt::{greedy_optimize, preprocess_nam, Optimizer, SearchConfig};
use std::time::Duration;

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
    let result = optimizer.optimize(&preprocessed);
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
        let phases = result.profile.phases();
        let width = phases
            .iter()
            .map(|(phase, _)| phase.len())
            .max()
            .unwrap_or(0);
        for (phase, secs) in phases {
            println!("  {phase:>width$}  {secs:>9.4}s");
        }
    }
}
