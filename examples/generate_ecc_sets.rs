//! Generate ECC sets for the three gate sets of the paper (Table 1), print
//! the Table-5-style metrics, and save each set twice: as interchange JSON
//! (what the original Quartz tooling reads) and as a binary `QTZL` library
//! artifact with a prebuilt transformation index (what services load at startup;
//! DESIGN.md §7) — the in-code equivalent of `quartz-lib generate`.
//!
//! Run with `cargo run --release --example generate_ecc_sets [-- <max_n>]`.

use quartz::gen::{prune, GenConfig, Generator, Library};
use quartz::ir::GateSet;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let out_dir = std::env::temp_dir().join("quartz_ecc_sets");
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let targets = [
        (GateSet::nam(), 2usize),
        (GateSet::ibm(), 4),
        (GateSet::rigetti(), 2),
    ];
    println!(
        "{:<10} {:>3} {:>10} {:>10} {:>12} {:>12}",
        "gate set", "n", "|T|", "|R_n|", "verify (s)", "total (s)"
    );
    for (gate_set, m) in targets {
        for n in 1..=max_n {
            let config = GenConfig::standard(n, 2, m);
            let (raw, stats) = Generator::new(gate_set.clone(), config).run();
            let (pruned, _) = prune(&raw);
            println!(
                "{:<10} {:>3} {:>10} {:>10} {:>12.2} {:>12.2}",
                gate_set.name(),
                n,
                pruned.num_transformations(),
                stats.num_representatives,
                stats.verification_time.as_secs_f64(),
                stats.total_time.as_secs_f64()
            );
            let stem = format!("{}_n{}_q2", gate_set.name().to_lowercase(), n);
            pruned
                .save(out_dir.join(format!("{stem}.json")))
                .expect("save ECC set as JSON");
            let library = Library::new(gate_set.name(), pruned, true);
            library
                .save(out_dir.join(format!("{stem}.qtzl")))
                .expect("save library artifact");
            // The artifact round-trips losslessly, prebuilt index included.
            let back = Library::load(out_dir.join(format!("{stem}.qtzl")))
                .expect("reload library artifact");
            assert_eq!(back.ecc_set(), library.ecc_set());
            assert!(back.index().is_some());
        }
    }
    println!(
        "\nECC sets written to {} (.json interchange + .qtzl binary artifacts)",
        out_dir.display()
    );
}
