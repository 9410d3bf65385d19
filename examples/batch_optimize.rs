//! Batch optimization through the `OptimizationService`: many circuits,
//! one shared transformation index loaded from a committed library
//! artifact (zero-generation startup), work-stealing across frontiers, and
//! streamed per-circuit improvement events.
//!
//! Run with `cargo run --release --example batch_optimize`.

use quartz::circuits::suite;
use quartz::ir::Circuit;
use quartz::opt::{preprocess_nam, LibraryCache, OptimizationService, SearchConfig};
use std::path::Path;
use std::time::{Duration, Instant};

fn main() {
    // 1. Bring up the service from the committed NAM (n=3, q=2, m=2)
    //    artifact: the ECC payload and the prebuilt transformation index load as
    //    one cold file read, shared across every circuit of every batch
    //    (DESIGN.md §7). Fall back to generating the same library when the
    //    artifact is absent.
    let config = SearchConfig {
        timeout: Duration::from_secs(30),
        max_iterations: 20,
        ..SearchConfig::default()
    };
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR")).join("libraries/nam_n3_q2.qtzl");
    let cache = LibraryCache::new();
    let service = match cache.get_or_load(&artifact) {
        Ok(library) => {
            println!(
                "Loaded {} in {:.2?} (prebuilt index: {})",
                library.path().display(),
                library.load_time(),
                library.index_was_prebuilt()
            );
            OptimizationService::from_library(&library, config)
        }
        Err(e) => {
            println!("No committed artifact ({e}); generating instead...");
            let (ecc_set, _) = quartz::gen::Generator::new(
                quartz::ir::GateSet::nam(),
                quartz::gen::GenConfig::standard(3, 2, 2),
            )
            .run();
            OptimizationService::from_ecc_set(&ecc_set, config)
        }
    };
    println!(
        "Service ready: {} transformations in the shared index",
        service.optimizer().transformations().len()
    );

    // 2. Submit a mixed batch of preprocessed benchmark circuits.
    let names = ["tof_3", "mod5_4", "barenco_tof_3", "tof_4"];
    let batch: Vec<Circuit> = names
        .iter()
        .map(|name| preprocess_nam(&suite::build_clifford_t(name).expect("known benchmark")))
        .collect();
    println!(
        "Optimizing a batch of {} circuits concurrently...\n",
        batch.len()
    );

    // 3. Stream per-circuit improvements while the batch runs.
    let start = Instant::now();
    let results = service.optimize_batch_with_progress(&batch, |event| {
        println!(
            "  [step {:>5}] {:<14} improved to {:>3} gates (iteration {})",
            event.step,
            names[event.request.index()],
            event.best_cost,
            event.iterations
        );
    });
    let elapsed = start.elapsed();

    // 4. Report the batch.
    println!(
        "\n{:<14} {:>6} {:>10} {:>10} {:>11}",
        "Circuit", "Orig.", "Optimized", "Reduction", "Iterations"
    );
    for (name, result) in names.iter().zip(&results) {
        println!(
            "{:<14} {:>6} {:>10} {:>9.1}% {:>11}",
            name,
            result.initial_cost,
            result.best_cost,
            100.0 * result.reduction(),
            result.iterations
        );
    }
    println!(
        "\nBatch finished in {elapsed:.2?} ({:.2} circuits/sec)",
        batch.len() as f64 / elapsed.as_secs_f64()
    );

    // 5. Per-circuit service results are bit-identical to standalone runs.
    let solo = service.optimizer().optimize(&batch[0]);
    assert_eq!(solo.best_circuit, results[0].best_circuit);
    assert_eq!(solo.iterations, results[0].iterations);
    println!("Cross-check against a standalone optimizer run: identical result");
}
