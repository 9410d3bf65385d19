//! Reproduces Figure 7: optimization effectiveness (geometric-mean gate
//! count reduction) as a function of the (n, q) used to generate the ECC
//! set, for the Nam gate set.
//!
//! The default sweep covers n ∈ {0..3}, q ∈ {1..3} with a short search
//! budget; pass `--timeout <secs>` to lengthen the per-circuit search and
//! `--max-n` / `--max-q` to widen the sweep (the paper sweeps n ≤ 7, q ≤ 4
//! with 24-hour searches).

use quartz_bench::{
    geo_mean_reduction, numeric_flag, or_exit, run_optimization_experiment, GateSetKind, Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str, default: usize| or_exit(numeric_flag(&args, flag)).unwrap_or(default);
    let kind = GateSetKind::Nam;
    let max_n = get("--max-n", 3);
    let max_q = get("--max-q", 3);
    let base = or_exit(Scale::from_args(kind, &args));

    println!("Figure 7 (Nam gate set): geo. mean reduction vs (n, q) of the ECC set");
    println!(
        "Paper reference: ~18.6% at n=0 (preprocessing only), rising to ~28.7% at q=3, 3 ≤ n ≤ 6."
    );
    println!();
    println!(
        "{:>3} {:>3} {:>16} {:>14}",
        "q", "n", "transformations", "reduction"
    );
    for q in 1..=max_q {
        for n in 0..=max_n {
            let mut scale = base.clone();
            scale.ecc_n = n;
            scale.ecc_q = q;
            let rows = run_optimization_experiment(kind, &scale);
            let reduction = geo_mean_reduction(&rows, |r| r.quartz);
            let num_xforms: usize = if n == 0 {
                0
            } else {
                quartz_bench::build_ecc_set(kind, n, q)
                    .0
                    .num_transformations()
            };
            println!(
                "{:>3} {:>3} {:>16} {:>13.1}%",
                q,
                n,
                num_xforms,
                100.0 * reduction
            );
        }
    }
}
