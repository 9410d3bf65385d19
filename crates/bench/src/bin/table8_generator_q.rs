//! Reproduces Table 8: generator metrics (|T|, verification time, total
//! time) for the Nam gate set across q = 1..4 and increasing n.

use quartz_bench::{
    numeric_flag, or_exit, print_generator_table, run_generator_experiment, GateSetKind,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n = or_exit(numeric_flag(&args, "--max-n")).unwrap_or(3);
    let max_q = or_exit(numeric_flag(&args, "--max-q")).unwrap_or(3);
    println!("Paper reference (Table 8): characteristics 7/16/27/40 for q=1/2/3/4 (Nam, m=2);");
    println!("|T| grows from 14 (q=1, n=2) to 273,532 (q=4, n=6).");
    println!();
    for q in 1..=max_q {
        let ns: Vec<usize> = (1..=max_n).collect();
        let rows = run_generator_experiment(GateSetKind::Nam, q, &ns);
        print_generator_table(GateSetKind::Nam, &rows);
    }
}
