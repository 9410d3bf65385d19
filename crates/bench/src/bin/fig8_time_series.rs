//! Reproduces Figure 8: optimization effectiveness over search time for the
//! Nam gate set at q = 3 and varying n, using the improvement trace recorded
//! by the search.

use quartz_bench::{numeric_flag, or_exit, run_optimization_experiment, GateSetKind, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = GateSetKind::Nam;
    let max_n = or_exit(numeric_flag(&args, "--max-n")).unwrap_or(3);
    let base = or_exit(Scale::from_args(kind, &args));

    println!("Figure 8 (Nam gate set, q fixed): best cost over time per ECC size n");
    println!("Paper reference: an initial burst of improvement followed by a slow tail;");
    println!("small n saturates early, large n starts slower but catches up given time.");
    println!();
    for n in 2..=max_n {
        let mut scale = base.clone();
        scale.ecc_n = n;
        let rows = run_optimization_experiment(kind, &scale);
        println!("-- n = {n} --");
        for row in &rows {
            let trace: Vec<String> = row
                .search
                .improvement_trace
                .iter()
                .map(|(t, cost)| format!("{:.2}s:{}", t.as_secs_f64(), cost))
                .collect();
            println!("{:<16} {}", row.name, trace.join(" -> "));
        }
        println!();
    }
}
