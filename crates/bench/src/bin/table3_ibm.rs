//! Reproduces Table 3: gate-count results for the IBM gate set.
//!
//! Usage: `cargo run --release -p quartz-bench --bin table3_ibm [-- --scale full --timeout <secs> --n <n> --q <q>]`

use quartz_bench::{
    or_exit, paper_geo_mean, print_optimization_table, run_optimization_experiment, GateSetKind,
    Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = GateSetKind::Ibm;
    let scale = or_exit(Scale::from_args(kind, &args));
    let rows = run_optimization_experiment(kind, &scale);
    print_optimization_table(kind, &scale, &rows, paper_geo_mean(kind));
}
