//! Reproduces Table 6: the number of circuits considered by RepGen with and
//! without the pruning passes, compared against the count of all possible
//! sequences.

use quartz_bench::{
    numeric_flag, or_exit, print_pruning_table, run_generator_experiment, GateSetKind,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n: Option<usize> = or_exit(numeric_flag(&args, "--max-n"));
    let q = 3;
    println!("Paper reference (Table 6, Nam, q=3): possible 604 / 11,404 / 198,028 for n = 2/3/4;");
    println!(
        "RepGen considers 400 / 1,180 / 5,178 and pruning reduces further to 50 / 164 / 1,199."
    );
    println!();
    let plans: [(GateSetKind, usize); 3] = [
        (GateSetKind::Nam, max_n.unwrap_or(3)),
        (GateSetKind::Ibm, max_n.unwrap_or(2)),
        (GateSetKind::Rigetti, max_n.unwrap_or(3)),
    ];
    for (kind, n_max) in plans {
        let ns: Vec<usize> = (2..=n_max.max(2)).collect();
        let rows = run_generator_experiment(kind, q, &ns);
        print_pruning_table(kind, &rows);
    }
}
