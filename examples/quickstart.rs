//! Quickstart: load a pre-generated transformation library (falling back to
//! generating one), optimize a small circuit, and numerically re-check the
//! result.
//!
//! Run with `cargo run --release --example quickstart`.

use quartz::gen::{prune, GenConfig, Generator};
use quartz::ir::{Circuit, Gate, GateSet, Instruction};
use quartz::opt::{LibraryCache, Optimizer, SearchConfig};
use std::path::Path;
use std::time::Duration;

fn main() {
    let config = SearchConfig::with_timeout(Duration::from_secs(5));

    // 1. Load the committed NAM (n=3, q=2) library artifact — ECC payload
    //    plus prebuilt transformation index, so startup is a cold file read
    //    (DESIGN.md §7). Fall back to generating when it is absent (e.g.
    //    when running from outside the repository).
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR")).join("libraries/nam_n3_q2.qtzl");
    let cache = LibraryCache::new();
    let optimizer = match cache.get_or_load(&artifact) {
        Ok(library) => {
            println!(
                "Loaded {} in {:.2?}: {} gate set, {} transformations (index {})",
                library.path().display(),
                library.load_time(),
                library.header().gate_set,
                library.shared_index().len(),
                if library.index_was_prebuilt() {
                    "prebuilt"
                } else {
                    "rebuilt"
                }
            );
            Optimizer::from_library(&library, config)
        }
        Err(e) => {
            // The generate → prune → build pipeline the artifact replaces
            // (this is what `quartz-lib generate` runs offline).
            println!("No committed artifact ({e}); generating instead...");
            let gate_set = GateSet::nam();
            let (ecc_set, stats) = Generator::new(gate_set, GenConfig::standard(3, 2, 2)).run();
            let (pruned, _) = prune(&ecc_set);
            println!(
                "  {} classes, {} transformations, generated in {:.2?}",
                pruned.len(),
                pruned.num_transformations(),
                stats.total_time
            );
            Optimizer::from_ecc_set(&pruned, config)
        }
    };

    // 2. Build a circuit with some obvious redundancy.
    let mut circuit = Circuit::new(2, 0);
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(Gate::H, vec![1], vec![]));
    circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(Gate::H, vec![1], vec![]));
    println!(
        "\nInput circuit ({} gates): {circuit}",
        circuit.gate_count()
    );

    // 3. Optimize with the cost-based backtracking search (paper §6).
    let result = optimizer.optimize(&circuit);
    println!(
        "Optimized circuit ({} gates, {:.1}% reduction after {} search iterations): {}",
        result.best_cost,
        100.0 * result.reduction(),
        result.iterations,
        result.best_circuit
    );
    println!(
        "Structural-hash dedup: {} of {} duplicates rejected before any merge, \
         {} confirm mismatches",
        result.fp_fast_rejects, result.dedup_hits, result.fp_confirm_mismatches
    );

    // 4. Double-check the result numerically.
    let ok = quartz::ir::equivalent_up_to_phase(&circuit, &result.best_circuit, &[], 1e-9);
    println!(
        "Numeric equivalence check (up to global phase): {}",
        if ok { "passed" } else { "FAILED" }
    );
}
