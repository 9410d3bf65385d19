//! Reproduces Table 5: generator and verifier metrics (|T|, |Rₙ|, ch,
//! verification time, total time) for the three gate sets at q = 3 and
//! increasing n.
//!
//! The default n ranges are scaled down so the run completes in minutes;
//! pass `--max-n <n>` to raise the per-gate-set ceiling (the paper uses
//! n ≤ 7 for Nam, n ≤ 5 for IBM, n ≤ 6 for Rigetti on a 128-core machine).

use quartz_bench::{
    numeric_flag, or_exit, print_generator_table, run_generator_experiment, GateSetKind,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n: Option<usize> = or_exit(numeric_flag(&args, "--max-n"));
    let q = 3;
    let plans: [(GateSetKind, usize); 3] = [
        (GateSetKind::Nam, max_n.unwrap_or(3)),
        (GateSetKind::Ibm, max_n.unwrap_or(2)),
        (GateSetKind::Rigetti, max_n.unwrap_or(3)),
    ];
    println!("Paper reference (Table 5): Nam ch=27, IBM ch=1362, Rigetti ch=30 at q=3.");
    println!("Paper |T| at q=3: Nam n=3 → 196, n=6 → 56,152; IBM n=4 → 16,748; Rigetti n=3 → 66.");
    println!();
    for (kind, n_max) in plans {
        let ns: Vec<usize> = (1..=n_max).collect();
        let rows = run_generator_experiment(kind, q, &ns);
        print_generator_table(kind, &rows);
    }
}
