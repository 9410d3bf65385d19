//! # quartz-bench
//!
//! Evaluation harness for the Quartz reproduction: shared experiment
//! drivers used by the `table*` / `fig*` binaries (which regenerate every
//! table and figure of the paper's evaluation section) and by the Criterion
//! micro-benchmarks.
//!
//! The paper's experiments ran on a 128-core machine with 24-hour search
//! budgets; the default *quick* scale here uses small (n, q) ECC sets,
//! second-scale search budgets and the smaller benchmark circuits so that
//! every experiment completes on a laptop. Pass `--scale full` to a binary
//! to use the paper's settings (be prepared to wait).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

use quartz_circuits::suite;
use quartz_gen::{prune, EccSet, GenConfig, GenStats, Generator};
use quartz_ir::{Circuit, GateSet};
use quartz_opt::{
    greedy_optimize, preprocess_ibm, preprocess_nam, preprocess_rigetti, Optimizer, SearchConfig,
    SearchResult,
};
use std::time::Duration;

/// The three target gate sets of the evaluation (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateSetKind {
    /// {H, X, Rz, CNOT}.
    Nam,
    /// {U1, U2, U3, CNOT}.
    Ibm,
    /// {Rx(±π/2), Rx(π), Rz, CZ}.
    Rigetti,
}

impl GateSetKind {
    /// The corresponding [`GateSet`].
    pub fn gate_set(self) -> GateSet {
        match self {
            GateSetKind::Nam => GateSet::nam(),
            GateSetKind::Ibm => GateSet::ibm(),
            GateSetKind::Rigetti => GateSet::rigetti(),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            GateSetKind::Nam => "Nam",
            GateSetKind::Ibm => "IBM",
            GateSetKind::Rigetti => "Rigetti",
        }
    }

    /// Number of formal parameters the paper uses for this gate set (§7.1).
    pub fn num_params(self) -> usize {
        match self {
            GateSetKind::Ibm => 4,
            _ => 2,
        }
    }

    /// The (n, q) the paper uses to generate the ECC set for this gate set
    /// (§7.2).
    pub fn paper_ecc_size(self) -> (usize, usize) {
        match self {
            GateSetKind::Nam => (6, 3),
            GateSetKind::Ibm => (4, 3),
            GateSetKind::Rigetti => (3, 3),
        }
    }

    /// Preprocesses a Clifford+T benchmark circuit into this gate set
    /// (paper §7.1).
    pub fn preprocess(self, circuit: &Circuit) -> Circuit {
        match self {
            GateSetKind::Nam => preprocess_nam(circuit),
            GateSetKind::Ibm => preprocess_ibm(circuit),
            GateSetKind::Rigetti => preprocess_rigetti(circuit),
        }
    }

    /// The *unoptimized* translation of a Clifford+T benchmark into this gate
    /// set — the "Orig." column of Tables 2–4. For Nam and IBM the mapping is
    /// one gate to one gate, so the count equals the Clifford+T count; for
    /// Rigetti every CNOT costs H·CZ·H and every H costs three native gates,
    /// which is why the paper's Rigetti originals are several times larger.
    pub fn naive_original(self, circuit: &Circuit) -> Circuit {
        match self {
            GateSetKind::Nam | GateSetKind::Ibm => circuit.clone(),
            GateSetKind::Rigetti => {
                use quartz_ir::{Gate, Instruction, ParamExpr};
                let nam = quartz_opt::clifford_t_to_nam(circuit);
                let mut out = Circuit::new(nam.num_qubits(), nam.num_params());
                let emit_h = |out: &mut Circuit, q: usize| {
                    out.push(Instruction::new(
                        Gate::Rz,
                        vec![q],
                        vec![ParamExpr::constant_pi4(2)],
                    ));
                    out.push(Instruction::new(Gate::Rx90, vec![q], vec![]));
                    out.push(Instruction::new(
                        Gate::Rz,
                        vec![q],
                        vec![ParamExpr::constant_pi4(2)],
                    ));
                };
                for instr in nam.instructions() {
                    match instr.gate {
                        Gate::H => emit_h(&mut out, instr.qubits[0]),
                        Gate::X => {
                            out.push(Instruction::new(Gate::Rx180, instr.qubits.clone(), vec![]))
                        }
                        Gate::Cnot => {
                            let (c, t) = (instr.qubits[0], instr.qubits[1]);
                            emit_h(&mut out, t);
                            out.push(Instruction::new(Gate::Cz, vec![c, t], vec![]));
                            emit_h(&mut out, t);
                        }
                        _ => out.push(instr.clone()),
                    }
                }
                out
            }
        }
    }
}

/// Experiment scale: the knobs that differ between the paper's full runs and
/// the quick reproduction runs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Maximum ECC-set circuit size n.
    pub ecc_n: usize,
    /// ECC-set qubit count q.
    pub ecc_q: usize,
    /// Search budget per circuit.
    pub search_timeout: Duration,
    /// Iteration cap per circuit (`usize::MAX` for none).
    pub max_iterations: usize,
    /// Benchmark circuits to optimize.
    pub suite: Vec<(&'static str, Circuit)>,
    /// Label printed in reports.
    pub label: &'static str,
}

impl Scale {
    /// The quick, laptop-friendly scale: a small ECC set, a few seconds of
    /// search per circuit, and the smaller half of the benchmark suite.
    pub fn quick(kind: GateSetKind) -> Scale {
        let (n, q) = match kind {
            GateSetKind::Nam => (3, 2),
            GateSetKind::Ibm => (2, 2),
            GateSetKind::Rigetti => (2, 2),
        };
        Scale {
            ecc_n: n,
            ecc_q: q,
            search_timeout: Duration::from_secs(2),
            max_iterations: 40,
            suite: suite::quick_suite(),
            label: "quick",
        }
    }

    /// The paper-scale settings (24-hour searches over the full suite with
    /// the paper's (n, q) per gate set).
    pub fn full(kind: GateSetKind) -> Scale {
        let (n, q) = kind.paper_ecc_size();
        Scale {
            ecc_n: n,
            ecc_q: q,
            search_timeout: Duration::from_secs(24 * 3600),
            max_iterations: usize::MAX,
            suite: suite::full_suite(),
            label: "full",
        }
    }

    /// Parses `--scale full|quick`, `--timeout <secs>`, `--n <n>`, `--q <q>`
    /// from command-line arguments, starting from the quick scale. Other
    /// arguments are left to the caller.
    ///
    /// # Errors
    ///
    /// A message naming the flag when `--scale` is neither `full` nor
    /// `quick`, or a numeric flag's value is missing or malformed.
    pub fn from_args(kind: GateSetKind, args: &[String]) -> Result<Scale, String> {
        let mut scale = Scale::quick(kind);
        if let Some(i) = args.iter().rposition(|a| a == "--scale") {
            match args.get(i + 1).map(String::as_str) {
                Some("quick") => {}
                Some("full") => scale = Scale::full(kind),
                other => {
                    return Err(format!(
                        "--scale expects full or quick, got {}",
                        other.map_or("nothing".to_string(), |v| format!("{v:?}"))
                    ))
                }
            }
        }
        if let Some(secs) = numeric_flag(args, "--timeout")? {
            scale.search_timeout = Duration::from_secs(secs);
        }
        if let Some(n) = numeric_flag(args, "--n")? {
            scale.ecc_n = n;
        }
        if let Some(q) = numeric_flag(args, "--q")? {
            scale.ecc_q = q;
        }
        Ok(scale)
    }
}

/// The value of the numeric flag `flag` in `args` (the last occurrence
/// wins), or `None` when the flag is absent.
///
/// # Errors
///
/// A message naming the flag when its value is missing or is not a
/// non-negative integer.
pub fn numeric_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().rposition(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} expects a number, got nothing"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag} expects a number, got {value:?}"))
}

/// The parsed command-line value, or — on a parse error — the error
/// printed to stderr and exit status 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

/// Generates (and prunes) the ECC set for a gate set at the given scale,
/// returning the pruned set and the generation statistics.
pub fn build_ecc_set(kind: GateSetKind, n: usize, q: usize) -> (EccSet, GenStats) {
    let config = GenConfig::standard(n, q, kind.num_params());
    let (raw, stats) = Generator::new(kind.gate_set(), config).run();
    let (pruned, _) = prune(&raw);
    (pruned, stats)
}

/// The workspace's committed pre-generated library artifacts (`libraries/`
/// at the repository root, produced by `quartz-lib generate` and verified in
/// CI; see DESIGN.md §7).
pub fn libraries_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../libraries")
}

/// The representative verifier queries (paper §4) measured both by the
/// criterion micro-benchmark (`benches/verifier.rs`) and by the `verifier`
/// suite `service_throughput` records into `BENCH_search.json`: a
/// parameter-free 2-qubit identity, a parametric rotation merge, and a
/// 3-qubit Toffoli/CCZ identity. Each pair is equivalent, so the timing
/// covers the full prefilter → phase-candidate → exact-polynomial path.
pub fn verifier_bench_pairs() -> Vec<(&'static str, Circuit, Circuit)> {
    use quartz_ir::{Gate, Instruction, ParamExpr};

    // CNOT direction flip via Hadamard conjugation (Figure 3a).
    let mut sandwich = Circuit::new(2, 0);
    for q in [0, 1] {
        sandwich.push(Instruction::new(Gate::H, vec![q], vec![]));
    }
    sandwich.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    for q in [0, 1] {
        sandwich.push(Instruction::new(Gate::H, vec![q], vec![]));
    }
    let mut flipped = Circuit::new(2, 0);
    flipped.push(Instruction::new(Gate::Cnot, vec![1, 0], vec![]));

    // Adjacent rotation merge: Rz(p0) Rz(p1) = Rz(p0 + p1).
    let m = 2;
    let mut two = Circuit::new(1, m);
    two.push(Instruction::new(
        Gate::Rz,
        vec![0],
        vec![ParamExpr::var(0, m)],
    ));
    two.push(Instruction::new(
        Gate::Rz,
        vec![0],
        vec![ParamExpr::var(1, m)],
    ));
    let mut fused = Circuit::new(1, m);
    fused.push(Instruction::new(
        Gate::Rz,
        vec![0],
        vec![ParamExpr::sum_vars(0, 1, m)],
    ));

    // CCX decomposed as H-CCZ-H versus the plain Toffoli.
    let mut hczh = Circuit::new(3, 0);
    hczh.push(Instruction::new(Gate::H, vec![2], vec![]));
    hczh.push(Instruction::new(Gate::Ccz, vec![0, 1, 2], vec![]));
    hczh.push(Instruction::new(Gate::H, vec![2], vec![]));
    let mut toffoli = Circuit::new(3, 0);
    toffoli.push(Instruction::new(Gate::Ccx, vec![0, 1, 2], vec![]));

    vec![
        ("cnot_flip_2q", sandwich, flipped),
        ("rotation_merge_parametric", two, fused),
        ("toffoli_ccz_3q", hczh, toffoli),
    ]
}

/// Conventional artifact path for a gate set at `(n, q)`:
/// `libraries/<gateset>_n<N>_q<Q>.qtzl` (the parameter count `m` is the
/// paper's per-gate-set default, [`GateSetKind::num_params`]).
pub fn library_artifact_path(kind: GateSetKind, n: usize, q: usize) -> std::path::PathBuf {
    libraries_dir().join(format!("{}_n{n}_q{q}.qtzl", kind.name().to_lowercase()))
}

/// One row of a Table 2/3/4-style report.
#[derive(Debug, Clone)]
pub struct CircuitRow {
    /// Benchmark circuit name.
    pub name: &'static str,
    /// Clifford+T gate count of the original circuit ("Orig.").
    pub original: usize,
    /// Gate count after the greedy rule-based baseline (stand-in for the
    /// Qiskit/t|ket⟩ class of optimizers; see DESIGN.md §3).
    pub greedy_baseline: usize,
    /// Gate count after Quartz's preprocessing ("Quartz Preprocess").
    pub preprocessed: usize,
    /// Gate count after preprocessing + the superoptimizer search
    /// ("Quartz End-to-end").
    pub quartz: usize,
    /// Details of the search run.
    pub search: SearchResult,
}

/// Runs the optimization experiment behind Tables 2–4 for one gate set.
pub fn run_optimization_experiment(kind: GateSetKind, scale: &Scale) -> Vec<CircuitRow> {
    let (ecc_set, _) = build_ecc_set(kind, scale.ecc_n, scale.ecc_q);
    let optimizer = Optimizer::from_ecc_set(
        &ecc_set,
        SearchConfig {
            timeout: scale.search_timeout,
            max_iterations: scale.max_iterations,
            ..SearchConfig::default()
        },
    );
    let mut rows = Vec::new();
    for (name, clifford_t) in &scale.suite {
        let original = kind.naive_original(clifford_t);
        let greedy = greedy_optimize(&original).0.gate_count();
        let preprocessed = kind.preprocess(clifford_t);
        let search = optimizer.optimize(&preprocessed);
        rows.push(CircuitRow {
            name,
            original: original.gate_count(),
            greedy_baseline: greedy,
            preprocessed: preprocessed.gate_count(),
            quartz: search.best_cost,
            search,
        });
    }
    rows
}

/// Geometric-mean gate-count reduction of a column relative to the
/// originals, as reported in the bottom row of Tables 2–4.
pub fn geo_mean_reduction(rows: &[CircuitRow], column: impl Fn(&CircuitRow) -> usize) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rows
        .iter()
        .map(|r| {
            let ratio = column(r) as f64 / r.original.max(1) as f64;
            ratio.max(1e-9).ln()
        })
        .sum();
    1.0 - (log_sum / rows.len() as f64).exp()
}

/// Prints a Table 2/3/4-style report.
pub fn print_optimization_table(
    kind: GateSetKind,
    scale: &Scale,
    rows: &[CircuitRow],
    paper_geo_mean: f64,
) {
    println!(
        "== {} gate set ({} scale: ECC n={}, q={}, timeout={:?}) ==",
        kind.name(),
        scale.label,
        scale.ecc_n,
        scale.ecc_q,
        scale.search_timeout
    );
    println!(
        "{:<16} {:>8} {:>14} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "Circuit",
        "Orig.",
        "GreedyRules",
        "Preprocess",
        "Quartz",
        "Reduction",
        "IdxSkip%",
        "DedupHits"
    );
    for r in rows {
        println!(
            "{:<16} {:>8} {:>14} {:>12} {:>12} {:>9.1}% {:>9.1}% {:>10}",
            r.name,
            r.original,
            r.greedy_baseline,
            r.preprocessed,
            r.quartz,
            100.0 * (1.0 - r.quartz as f64 / r.original.max(1) as f64),
            100.0 * r.search.dispatch_skip_rate(),
            r.search.dedup_hits
        );
    }
    let preprocess_red = geo_mean_reduction(rows, |r| r.preprocessed);
    let quartz_red = geo_mean_reduction(rows, |r| r.quartz);
    let greedy_red = geo_mean_reduction(rows, |r| r.greedy_baseline);
    println!(
        "Geo. mean reduction: greedy-rules {:.1}%, preprocess {:.1}%, Quartz end-to-end {:.1}%",
        100.0 * greedy_red,
        100.0 * preprocess_red,
        100.0 * quartz_red
    );
    println!(
        "Paper (full scale, 24h, n={}, q={}): Quartz end-to-end geo. mean reduction {:.1}%",
        kind.paper_ecc_size().0,
        kind.paper_ecc_size().1,
        100.0 * paper_geo_mean
    );
    println!();
}

/// Paper-reported geometric-mean end-to-end reductions (Tables 2–4).
pub fn paper_geo_mean(kind: GateSetKind) -> f64 {
    match kind {
        GateSetKind::Nam => 0.287,
        GateSetKind::Ibm => 0.301,
        GateSetKind::Rigetti => 0.494,
    }
}

/// One row of a Table 5 / Table 6 / Table 8-style generator report.
#[derive(Debug, Clone)]
pub struct GeneratorRow {
    /// Circuit-size bound n.
    pub n: usize,
    /// Qubit count q.
    pub q: usize,
    /// Number of transformations |T| (before pruning, as in Table 5).
    pub transformations: usize,
    /// Representative-set size |Rₙ|.
    pub representatives: usize,
    /// Characteristic ch(G, Σ, q, m).
    pub characteristic: usize,
    /// Circuits considered by RepGen (Table 6 "RepGen" column).
    pub circuits_considered: usize,
    /// Circuits remaining after ECC simplification.
    pub after_simplification: usize,
    /// Circuits remaining after common-subcircuit pruning.
    pub after_common_subcircuit: usize,
    /// All possible sequences (Table 6 "Possible Circuits").
    pub possible_circuits: u128,
    /// Time spent in verification.
    pub verification_time: Duration,
    /// Total generation time.
    pub total_time: Duration,
}

/// Runs the generator for a range of n values and collects the metrics of
/// Tables 5, 6 and 8.
pub fn run_generator_experiment(
    kind: GateSetKind,
    q: usize,
    n_values: &[usize],
) -> Vec<GeneratorRow> {
    let m = kind.num_params();
    let gate_set = kind.gate_set();
    let spec = quartz_ir::ExprSpec::standard(m);
    let mut rows = Vec::new();
    for &n in n_values {
        let config = GenConfig::standard(n, q, m);
        let (raw, stats) = Generator::new(gate_set.clone(), config).run();
        let (_, prune_stats) = prune(&raw);
        let possible = quartz_gen::count_possible_circuits(&gate_set, q, &spec, n);
        rows.push(GeneratorRow {
            n,
            q,
            transformations: raw.num_transformations(),
            representatives: stats.num_representatives,
            characteristic: stats.characteristic,
            circuits_considered: stats.circuits_considered,
            after_simplification: prune_stats.circuits_after_simplification,
            after_common_subcircuit: prune_stats.circuits_after_common_subcircuit,
            possible_circuits: possible,
            verification_time: stats.verification_time,
            total_time: stats.total_time,
        });
    }
    rows
}

/// Prints a Table 5-style generator report.
pub fn print_generator_table(kind: GateSetKind, rows: &[GeneratorRow]) {
    println!(
        "== Generator metrics for the {} gate set (ch = {}) ==",
        kind.name(),
        rows.first().map(|r| r.characteristic).unwrap_or(0)
    );
    println!(
        "{:>3} {:>3} {:>12} {:>12} {:>14} {:>14}",
        "n", "q", "|T|", "|R_n|", "verify (s)", "total (s)"
    );
    for r in rows {
        println!(
            "{:>3} {:>3} {:>12} {:>12} {:>14.2} {:>14.2}",
            r.n,
            r.q,
            r.transformations,
            r.representatives,
            r.verification_time.as_secs_f64(),
            r.total_time.as_secs_f64()
        );
    }
    println!();
}

/// Prints a Table 6-style pruning report.
pub fn print_pruning_table(kind: GateSetKind, rows: &[GeneratorRow]) {
    println!(
        "== Circuits considered for the {} gate set (Table 6) ==",
        kind.name()
    );
    println!(
        "{:>3} {:>18} {:>12} {:>16} {:>18}",
        "n", "Possible", "RepGen", "+ECC Simplify", "+Common Subcircuit"
    );
    for r in rows {
        println!(
            "{:>3} {:>18} {:>12} {:>16} {:>18}",
            r.n,
            r.possible_circuits,
            r.circuits_considered,
            r.after_simplification,
            r.after_common_subcircuit
        );
    }
    println!();
}

#[cfg(test)]
#[path = "../../opt/tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_and_kinds_are_consistent() {
        for kind in [GateSetKind::Nam, GateSetKind::Ibm, GateSetKind::Rigetti] {
            let quick = Scale::quick(kind);
            let full = Scale::full(kind);
            assert!(quick.ecc_n <= full.ecc_n);
            assert!(quick.suite.len() <= full.suite.len());
            assert_eq!(full.ecc_n, kind.paper_ecc_size().0);
            assert!(paper_geo_mean(kind) > 0.2);
        }
    }

    #[test]
    fn args_parsing_overrides_defaults() {
        let args: Vec<String> = ["--timeout", "7", "--n", "4", "--q", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let scale = Scale::from_args(GateSetKind::Nam, &args).unwrap();
        assert_eq!(scale.search_timeout, Duration::from_secs(7));
        assert_eq!(scale.ecc_n, 4);
        assert_eq!(scale.ecc_q, 2);
        // Flags this parser does not own are left alone.
        let args: Vec<String> = ["--quick", "--threads", "2", "--scale", "quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            Scale::from_args(GateSetKind::Nam, &args).unwrap().label,
            "quick"
        );

        // Malformed values are rejected with the flag's name.
        for (bad, flag) in [
            (&["--timeout", "abc"][..], "--timeout"),
            (&["--n", "-1"], "--n"),
            (&["--q", "2.5"], "--q"),
            (&["--timeout"], "--timeout"),
            (&["--scale", "huge"], "--scale"),
            (&["--scale"], "--scale"),
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let err = Scale::from_args(GateSetKind::Nam, &args).unwrap_err();
            assert!(err.starts_with(flag), "{bad:?}: {err}");
        }
        let args = vec!["--max-n".to_string(), "x".to_string()];
        assert!(numeric_flag::<usize>(&args, "--max-n")
            .unwrap_err()
            .contains("--max-n"));
        assert_eq!(numeric_flag::<usize>(&args, "--max-q"), Ok(None));
    }

    #[test]
    fn geo_mean_reduction_basic() {
        let search = SearchResult {
            best_circuit: Circuit::new(1, 0),
            best_cost: 50,
            initial_cost: 100,
            iterations: 0,
            circuits_seen: 0,
            elapsed: Duration::ZERO,
            improvement_trace: vec![],
            match_attempts: 0,
            match_skips: 0,
            dedup_hits: 0,
            fp_fast_rejects: 0,
            fp_confirm_mismatches: 0,
            profile: Default::default(),
        };
        let rows = vec![CircuitRow {
            name: "x",
            original: 100,
            greedy_baseline: 80,
            preprocessed: 70,
            quartz: 50,
            search,
        }];
        let red = geo_mean_reduction(&rows, |r| r.quartz);
        assert!((red - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tiny_generator_experiment_runs() {
        let rows = run_generator_experiment(GateSetKind::Nam, 2, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].transformations >= rows[0].transformations);
        assert!(rows[1].possible_circuits > rows[0].possible_circuits);
    }

    /// Acceptance check for the indexed dispatch layer on QFT-8 (which
    /// contains no X gates): the engine reaches exactly the oracle's
    /// outcome — the oracle scans every transformation on every dequeue and
    /// rebuilds every match context — while attempting strictly fewer
    /// pattern matches.
    #[test]
    fn indexed_dispatch_attempts_fewer_matches_on_qft8() {
        let (ecc_set, _) = build_ecc_set(GateSetKind::Nam, 2, 2);
        let qft = quartz_circuits::approximate_qft(8);
        let config = SearchConfig {
            timeout: Duration::from_secs(600),
            max_iterations: 8,
            ..SearchConfig::default()
        };
        let optimizer = Optimizer::from_ecc_set(&ecc_set, config.clone());
        let indexed = optimizer.optimize(&qft);
        let linear = oracle::run(optimizer.transformations(), &config, &qft);
        oracle::assert_agrees(&indexed, &linear, "qft_8");
        assert!(
            indexed.match_attempts < linear.match_attempts,
            "index did not reduce match attempts: {} vs {}",
            indexed.match_attempts,
            linear.match_attempts
        );
        assert_eq!(
            indexed.match_attempts + indexed.match_skips,
            linear.match_attempts
        );
    }
}
