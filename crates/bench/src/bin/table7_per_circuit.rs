//! Reproduces Table 7 (and the per-circuit plots of Figures 9–34): the final
//! gate count of every benchmark circuit for each (n, q) setting of the ECC
//! set, for the Nam gate set.

use quartz_bench::{numeric_flag, or_exit, run_optimization_experiment, GateSetKind, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = GateSetKind::Nam;
    let get = |flag: &str, default: usize| or_exit(numeric_flag(&args, flag)).unwrap_or(default);
    let max_n = get("--max-n", 3);
    let max_q = get("--max-q", 2);
    let base = or_exit(Scale::from_args(kind, &args));

    println!("Table 7 (Nam gate set): per-circuit gate counts for varying (n, q)");
    println!("Paper reference: q=3 with 3 ≤ n ≤ 6 covers the best result for every circuit.");
    println!();
    let mut settings = Vec::new();
    for q in 1..=max_q {
        for n in 1..=max_n {
            settings.push((n, q));
        }
    }
    let mut all_rows = Vec::new();
    for &(n, q) in &settings {
        let mut scale = base.clone();
        scale.ecc_n = n;
        scale.ecc_q = q;
        all_rows.push(run_optimization_experiment(kind, &scale));
    }
    // Header
    print!("{:<16} {:>8}", "Circuit", "Orig.");
    for &(n, q) in &settings {
        print!(" {:>8}", format!("n{n}q{q}"));
    }
    println!();
    let num_circuits = all_rows[0].len();
    for idx in 0..num_circuits {
        print!(
            "{:<16} {:>8}",
            all_rows[0][idx].name, all_rows[0][idx].original
        );
        for rows in &all_rows {
            print!(" {:>8}", rows[idx].quartz);
        }
        println!();
    }
}
