//! Property-based tests for the optimizer: every rewriting step and every
//! preprocessing pass must preserve circuit semantics up to a global phase.

use proptest::prelude::*;
use quartz_gen::{Ecc, EccSet, GenConfig, Generator, Library};
use quartz_ir::{
    equivalent_up_to_phase, Circuit, CircuitDag, Gate, GateSet, Instruction, ParamExpr,
    StructuralHash,
};
use quartz_opt::{
    cancel_adjacent_inverses, canonicalize, greedy_optimize, merge_rotations, preprocess_nam,
    transformations_from_ecc_set, CostModel, Match, MatchContext, MatchScratch,
    OptimizationService, Optimizer, SearchConfig, Transformation, TransformationIndex,
};
use std::sync::Arc;
use std::time::Duration;

mod oracle;

fn arb_clifford_t_instruction(nq: usize) -> impl Strategy<Value = Instruction> {
    let gates = prop_oneof![
        Just(Gate::H),
        Just(Gate::X),
        Just(Gate::T),
        Just(Gate::Tdg),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::Rz),
        Just(Gate::Cnot),
        Just(Gate::Ccx),
    ];
    (gates, prop::collection::vec(0..nq, 3), -4i32..=4).prop_filter_map(
        "operands must be distinct",
        move |(gate, qs, quarters)| {
            let k = gate.num_qubits();
            let mut ops = Vec::new();
            for &q in &qs {
                if !ops.contains(&q) {
                    ops.push(q);
                }
                if ops.len() == k {
                    break;
                }
            }
            if ops.len() < k {
                return None;
            }
            let params = if gate.num_params() == 1 {
                vec![ParamExpr::constant_pi4(quarters)]
            } else {
                vec![]
            };
            Some(Instruction::new(gate, ops, params))
        },
    )
}

fn arb_clifford_t_circuit(nq: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_clifford_t_instruction(nq), 1..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(nq, 0);
        for i in instrs {
            c.push(i);
        }
        c
    })
}

/// Rebuilds `circuit` in a different topological order of its wire-dependency
/// DAG, choosing among the ready instructions with `picks` (Kahn's algorithm
/// with an arbitrary tie-break). The result is a reordering of the same
/// circuit DAG, so it must canonicalize to the same sequence.
fn random_topological_reorder(circuit: &Circuit, picks: &[usize]) -> Circuit {
    let instrs = circuit.instructions();
    let preds = circuit.wire_predecessors();
    let n = instrs.len();
    let mut indegree = vec![0usize; n];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for p in ps.iter().flatten() {
            indegree[i] += 1;
            successors[*p].push(i);
        }
    }
    let mut available: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut out = Circuit::new(circuit.num_qubits(), circuit.num_params());
    let mut step = 0usize;
    while !available.is_empty() {
        let pick = picks.get(step % picks.len().max(1)).copied().unwrap_or(0) % available.len();
        step += 1;
        let chosen = available.swap_remove(pick);
        out.push(instrs[chosen].clone());
        for &s in &successors[chosen] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                available.push(s);
            }
        }
    }
    out
}

/// One shared NAM (2, 2) transformation index for the engine-equivalence
/// cases, generated once per process instead of once per proptest case.
fn shared_nam_index() -> Arc<quartz_opt::TransformationIndex> {
    use std::sync::OnceLock;
    static INDEX: OnceLock<Arc<quartz_opt::TransformationIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| {
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 1)).run();
        Optimizer::from_ecc_set(&set, SearchConfig::default()).shared_index()
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fingerprint_agrees_with_canonical_form_equality(
        c in arb_clifford_t_circuit(3, 10),
        picks in prop::collection::vec(0usize..64, 16),
    ) {
        // A topological reorder represents the same circuit DAG: canonical
        // forms must coincide exactly (the seen-set soundness property of
        // DESIGN.md §2.1).
        let reordered = random_topological_reorder(&c, &picks);
        let canon_a = canonicalize(&c);
        let canon_b = canonicalize(&reordered);
        prop_assert_eq!(&canon_a, &canon_b);
        // Canonicalization is idempotent.
        prop_assert_eq!(&canon_a, &canonicalize(&canon_a));
    }

    #[test]
    fn canonicalize_preserves_semantics(c in arb_clifford_t_circuit(3, 10)) {
        let canon = canonicalize(&c);
        prop_assert_eq!(canon.gate_count(), c.gate_count());
        prop_assert!(equivalent_up_to_phase(&canon, &c, &[], 1e-8));
    }

    #[test]
    fn cancel_adjacent_inverses_preserves_semantics(c in arb_clifford_t_circuit(3, 12)) {
        let out = cancel_adjacent_inverses(&c);
        prop_assert!(out.gate_count() <= c.gate_count());
        prop_assert!(equivalent_up_to_phase(&out, &c, &[], 1e-8));
    }

    #[test]
    fn rotation_merging_preserves_semantics(c in arb_clifford_t_circuit(3, 12)) {
        // Rotation merging operates on the Nam gate set; convert first.
        let nam = quartz_opt::clifford_t_to_nam(&c);
        let merged = merge_rotations(&nam);
        prop_assert!(merged.gate_count() <= nam.gate_count());
        prop_assert!(equivalent_up_to_phase(&merged, &nam, &[], 1e-8));
    }

    #[test]
    fn greedy_baseline_preserves_semantics_and_never_grows(c in arb_clifford_t_circuit(3, 12)) {
        let (out, stats) = greedy_optimize(&c);
        prop_assert!(out.gate_count() <= c.gate_count());
        prop_assert_eq!(stats.gates_after, out.gate_count());
        prop_assert!(equivalent_up_to_phase(&out, &c, &[], 1e-8));
    }

    #[test]
    fn full_nam_preprocessing_preserves_semantics(c in arb_clifford_t_circuit(3, 8)) {
        let out = preprocess_nam(&c);
        prop_assert!(GateSet::nam().supports_circuit(&out));
        prop_assert!(equivalent_up_to_phase(&out, &c, &[], 1e-8));
    }

    /// A prebuilt index that survived the binary artifact round trip must
    /// drive the search to *bit-identical* results (DESIGN.md §7): same best
    /// circuit, same trajectory, same counters — for random (not necessarily
    /// semantically sound) transformation libraries and random inputs.
    #[test]
    fn loaded_prebuilt_index_searches_bit_identically(
        classes in prop::collection::vec(
            prop::collection::vec(arb_clifford_t_circuit(2, 5), 1..4), 1..5),
        input in arb_clifford_t_circuit(2, 8),
    ) {
        let mut set = EccSet::new(2, 0);
        for circuits in classes {
            set.eccs.push(Ecc::new(circuits));
        }
        let config = SearchConfig {
            timeout: Duration::from_secs(60),
            max_iterations: 6,
            ..SearchConfig::default()
        };
        let fresh = Optimizer::from_ecc_set(&set, config.clone());
        let bytes = Library::new("Test", set, true).to_bytes();
        let loaded_index = Library::from_bytes(&bytes).unwrap().into_parts().1.unwrap();
        let loaded = Optimizer::with_index(Arc::new(loaded_index), config);

        let a = fresh.optimize(&input);
        let b = loaded.optimize(&input);
        prop_assert_eq!(a.best_circuit, b.best_circuit);
        prop_assert_eq!(a.best_cost, b.best_cost);
        prop_assert_eq!(a.initial_cost, b.initial_cost);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.circuits_seen, b.circuits_seen);
        prop_assert_eq!(a.dedup_hits, b.dedup_hits);
        prop_assert_eq!(a.fp_fast_rejects, b.fp_fast_rejects);
        let trace_a: Vec<usize> = a.improvement_trace.iter().map(|&(_, c)| c).collect();
        let trace_b: Vec<usize> = b.improvement_trace.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(trace_a, trace_b);
    }

    /// The structural-hash preview (DESIGN.md §13) must be invisible in
    /// search outcomes: the engine, which keys deduplication on hashes
    /// previewed from the parent and the delta, agrees field by field with
    /// the oracle, which materializes every candidate and hashes it from
    /// scratch — and the dequeue-time confirmation canary stays at zero.
    #[test]
    fn incremental_fingerprint_engine_is_bit_identical_to_materializing(
        input in arb_clifford_t_circuit(3, 10),
    ) {
        let nam = quartz_opt::clifford_t_to_nam(&input);
        let config = SearchConfig {
            timeout: Duration::from_secs(600),
            max_iterations: 8,
            ..SearchConfig::default()
        };
        let engine = Optimizer::with_index(shared_nam_index(), config.clone());
        let a = engine.optimize(&nam);
        let b = oracle::run(engine.transformations(), &config, &nam);
        oracle::assert_agrees(&a, &b, "gate count");
        prop_assert!(a.fp_fast_rejects <= a.dedup_hits);
    }

    /// Deferred materialization (DESIGN.md §13) must be invisible in search
    /// outcomes: admitting first-sight candidates on (cost, hash, delta)
    /// alone and materializing only at dequeue agrees field by field with
    /// the oracle, which materializes every candidate eagerly — for random
    /// circuits, every cost model (including non-additive depth), and any
    /// thread count. Two circuits run as one batch, so with two threads two
    /// frontiers expand at once over the shared index and automaton, and
    /// their derived DAGs share instructions with their parents'.
    #[test]
    fn deferred_engine_is_bit_identical_to_eager(
        input in arb_clifford_t_circuit(3, 10),
        second in arb_clifford_t_circuit(3, 10),
        model_pick in 0usize..4,
        threads in 1usize..3,
    ) {
        let cost_model = [
            CostModel::GateCount,
            CostModel::MultiQubitGateCount,
            CostModel::TCount,
            CostModel::Depth,
        ][model_pick];
        let batch = [
            quartz_opt::clifford_t_to_nam(&input),
            quartz_opt::clifford_t_to_nam(&second),
        ];
        let config = SearchConfig {
            timeout: Duration::from_secs(600),
            max_iterations: 8,
            cost_model,
            num_threads: threads,
            ..SearchConfig::default()
        };
        let service =
            OptimizationService::new(Optimizer::with_index(shared_nam_index(), config.clone()));
        let results = service.optimize_batch(&batch);
        prop_assert_eq!(results.len(), batch.len());
        for (i, (circuit, a)) in batch.iter().zip(&results).enumerate() {
            let b = oracle::run(service.optimizer().transformations(), &config, circuit);
            oracle::assert_agrees(a, &b, &format!("{cost_model:?}, {threads} threads, circuit {i}"));
        }
    }

    #[test]
    fn search_output_is_equivalent_and_no_worse(c in arb_clifford_t_circuit(2, 8)) {
        // A small transformation library; the search must never return a
        // worse or inequivalent circuit.
        let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 1)).run();
        let nam = quartz_opt::clifford_t_to_nam(&c);
        let optimizer = Optimizer::from_ecc_set(
            &ecc_set,
            SearchConfig {
                timeout: Duration::from_millis(300),
                max_iterations: 10,
                ..SearchConfig::default()
            },
        );
        let result = optimizer.optimize(&nam);
        prop_assert!(result.best_cost <= nam.gate_count());
        prop_assert!(equivalent_up_to_phase(&result.best_circuit, &nam, &[], 1e-8));
    }
}

/// The rewrites a context can reach, as a sorted list of canonical circuits.
/// Two contexts for the same circuit DAG must agree on this for every
/// transformation, whatever their node-id layout or sequence representation.
fn reachable_rewrites(ctx: &MatchContext, xforms: &[Transformation]) -> Vec<Circuit> {
    let mut out: Vec<Circuit> = xforms
        .iter()
        .flat_map(|x| ctx.apply_all(x))
        .map(|c| canonicalize(&c))
        .collect();
    out.sort_by(|a, b| a.precedence_cmp(b));
    out
}

/// NAM's gates, as the arbitrary test circuits below draw them.
const NAM_GATES: &[Gate] = &[Gate::H, Gate::X, Gate::Rz, Gate::Rz, Gate::Cnot];

/// The committed libraries, with the gates their arbitrary test circuits
/// draw from (parametric gates listed twice, so that bindings get
/// exercised often). NAM (4,3) has 3-qubit targets of up to 4 gates, so
/// its automaton has deeper paths and nodes that start a new pattern wire
/// below the root.
const COMMITTED: [(&str, &[Gate]); 4] = [
    ("nam_n3_q2", NAM_GATES),
    (
        "ibm_n2_q2",
        &[Gate::U1, Gate::U2, Gate::U2, Gate::U3, Gate::U3, Gate::Cnot],
    ),
    (
        "rigetti_n2_q2",
        &[
            Gate::Rx90,
            Gate::Rx90Neg,
            Gate::Rx180,
            Gate::Rz,
            Gate::Rz,
            Gate::Cz,
        ],
    ),
    ("nam_n4_q3", NAM_GATES),
];

/// The index of `COMMITTED[which]`, parametric rules included,
/// loaded once per process.
fn committed_index(which: usize) -> Arc<TransformationIndex> {
    use std::sync::OnceLock;
    static INDEXES: OnceLock<Vec<Arc<TransformationIndex>>> = OnceLock::new();
    Arc::clone(
        &INDEXES.get_or_init(|| {
            COMMITTED
                .iter()
                .map(|(name, _)| {
                    let path =
                        format!("{}/../../libraries/{name}.qtzl", env!("CARGO_MANIFEST_DIR"));
                    let (_, index) = Library::load(&path).unwrap().into_parts();
                    Arc::new(index.unwrap())
                })
                .collect()
        })[which],
    )
}

/// The committed libraries' automata under canonical labels: node and root
/// counts pinned, so a change to how targets are compiled shows here.
#[test]
fn committed_automata_have_the_pinned_node_and_root_counts() {
    let counts: Vec<(usize, usize, usize)> = (0..COMMITTED.len())
        .map(|which| {
            let index = committed_index(which);
            let automaton = index.automaton();
            (
                automaton.num_rules(),
                automaton.num_nodes(),
                automaton.roots().len(),
            )
        })
        .collect();
    assert_eq!(
        counts,
        [(108, 78, 6), (228, 133, 29), (41, 33, 7), (1836, 832, 6)]
    );
}

/// A gate of `gates` on distinct qubits whose angles are constants or
/// expressions over two symbolic circuit parameters, so that bindings and
/// instantiated rewrites carry nonzero coefficients.
fn arb_library_instruction(
    gates: &'static [Gate],
    nq: usize,
) -> impl Strategy<Value = Instruction> {
    let m = 2;
    let angle = prop_oneof![
        (-4i32..=4).prop_map(ParamExpr::constant_pi4),
        (0..m, -2i32..=2).prop_map(
            move |(i, r)| ParamExpr::var(i, m).add(&ParamExpr::constant_pi4_with_params(r, m))
        ),
        (0..m).prop_map(move |i| ParamExpr::scaled_var(i, 2, m)),
        Just(ParamExpr::sum_vars(0, 1, m)),
    ];
    let gate = (0..gates.len()).prop_map(move |i| gates[i]);
    (gate, 0..nq, 1..nq, prop::collection::vec(angle, 3)).prop_map(
        move |(gate, q, shift, angles)| {
            let qubits = if gate.num_qubits() == 2 {
                vec![q, (q + shift) % nq]
            } else {
                vec![q]
            };
            Instruction::new(gate, qubits, angles[..gate.num_params()].to_vec())
        },
    )
}

fn arb_library_circuit(
    gates: &'static [Gate],
    nq: usize,
    max_len: usize,
) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_library_instruction(gates, nq), 1..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(nq, 2);
        for i in instrs {
            c.push(i);
        }
        c
    })
}

/// The engine's matcher against the oracle's independent `Apply(C, T)` on
/// one committed library, rule by rule. The library-wide walk runs over the
/// whole automaton, as the search runs it; each rule's matches must yield
/// the oracle's multiset of canonical circuits (duplicates count, since
/// `dedup_hits` does) and equal the single-pattern `find_matches`.
fn walk_agrees_with_the_oracle(which: usize, c: &Circuit) -> Result<(), TestCaseError> {
    let index = committed_index(which);
    let xforms = index.transformations();
    let ctx = MatchContext::new(c);
    let mut walked: Vec<Vec<Match>> = vec![Vec::new(); xforms.len()];
    ctx.for_each_match(index.automaton(), &mut MatchScratch::new(), |id, m| {
        walked[id].push(m.clone())
    });
    let by_region = |a: &Match, b: &Match| a.instruction_map.cmp(&b.instruction_map);
    for (id, xform) in xforms.iter().enumerate() {
        let mut reference: Vec<Circuit> =
            oracle::apply(c, xform).iter().map(canonicalize).collect();
        reference.sort_by(|a, b| a.precedence_cmp(b));
        let mut engine: Vec<Circuit> = walked[id]
            .iter()
            .filter_map(|m| ctx.delta_for(xform, m))
            .map(|delta| canonicalize(&ctx.apply_delta(&delta)))
            .collect();
        engine.sort_by(|a, b| a.precedence_cmp(b));
        let library = COMMITTED[which].0;
        prop_assert!(
            engine == reference,
            "{library} rule {id}: walk {engine:?}, oracle {reference:?}"
        );
        let mut single = ctx.find_matches(&xform.target);
        single.sort_by(by_region);
        walked[id].sort_by(by_region);
        prop_assert!(
            single == walked[id],
            "{library} rule {id}: find_matches {single:?}, walk {:?}",
            walked[id]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matcher_agrees_with_the_oracle_matcher_on_the_committed_library(
        c in arb_library_circuit(COMMITTED[0].1, 3, 12),
    ) {
        walk_agrees_with_the_oracle(0, &c)?;
    }

    #[test]
    fn matcher_agrees_with_the_oracle_matcher_on_the_committed_ibm_library(
        c in arb_library_circuit(COMMITTED[1].1, 3, 12),
    ) {
        walk_agrees_with_the_oracle(1, &c)?;
    }

    #[test]
    fn matcher_agrees_with_the_oracle_matcher_on_the_committed_rigetti_library(
        c in arb_library_circuit(COMMITTED[2].1, 3, 12),
    ) {
        walk_agrees_with_the_oracle(2, &c)?;
    }

    #[test]
    fn matcher_agrees_with_the_oracle_matcher_on_nam_n4_q3(
        c in arb_library_circuit(COMMITTED[3].1, 3, 12),
    ) {
        walk_agrees_with_the_oracle(3, &c)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The production search against the oracle's Algorithm 2 on NAM (4,3)
    /// rules, where every dequeue walks 3-qubit targets of up to 4 gates:
    /// short random 3-qubit circuits, a few iterations each, every outcome
    /// field compared.
    #[test]
    fn search_agrees_with_the_oracle_on_nam_n4_q3(
        c in arb_library_circuit(NAM_GATES, 3, 12),
    ) {
        let config = SearchConfig {
            timeout: Duration::from_secs(600),
            max_iterations: 6,
            ..SearchConfig::default()
        };
        let engine = Optimizer::with_index(committed_index(3), config.clone());
        let a = engine.optimize(&c);
        let b = oracle::run(engine.transformations(), &config, &c);
        oracle::assert_agrees(&a, &b, "nam_n4_q3");
    }
}

/// Equivalence of derived and freshly-built match contexts along a search
/// run: starting from a redundant circuit, repeatedly apply the first
/// available rewrite through `MatchContext::derive` and assert after *every*
/// step that the derived context finds exactly the matches a context rebuilt
/// from the rewritten sequence finds (compared through the rewrites they
/// induce, which also pins qubit maps and parameter bindings).
#[test]
fn derived_contexts_match_rebuilt_contexts_along_a_search_run() {
    let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 1)).run();
    let xforms = transformations_from_ecc_set(&ecc_set, true);
    assert!(!xforms.is_empty());

    let mut circuit = Circuit::new(3, 0);
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(
        Gate::Rz,
        vec![1],
        vec![ParamExpr::constant_pi4(1)],
    ));
    circuit.push(Instruction::new(
        Gate::Rz,
        vec![1],
        vec![ParamExpr::constant_pi4(2)],
    ));
    circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    circuit.push(Instruction::new(Gate::X, vec![2], vec![]));
    circuit.push(Instruction::new(Gate::X, vec![2], vec![]));

    let mut ctx = MatchContext::new(&circuit);
    let mut steps = 0;
    'walk: loop {
        let rebuilt = MatchContext::new(&canonicalize(&ctx.to_circuit()));
        assert_eq!(
            reachable_rewrites(&ctx, &xforms),
            reachable_rewrites(&rebuilt, &xforms),
            "derived and rebuilt contexts diverged after {steps} rewrites"
        );
        ctx.dag().validate().expect("derived DAG stays consistent");
        for xform in &xforms {
            // Walk along strictly shrinking rewrites so the run terminates.
            if xform.gate_delta() >= 0 {
                continue;
            }
            if let Some(m) = ctx.find_matches(&xform.target).into_iter().next() {
                let delta = ctx.delta_for(xform, &m).expect("instantiable rewrite");
                ctx = ctx.derive(&delta);
                steps += 1;
                continue 'walk;
            }
        }
        break;
    }
    assert!(
        steps >= 3,
        "expected a multi-step rewrite chain, got {steps}"
    );
}

/// The incremental structural hash threaded along a derive chain (the way
/// the search threads it through `QueueEntry::shash`) must agree at every
/// step with a hash computed from scratch — and, because the hash is
/// order-invariant, with the hash of the freshly *canonicalized* child
/// circuit, which is exactly what the oracle keys on.
#[test]
fn incremental_hashes_track_fresh_hashes_along_a_derive_chain() {
    let index = shared_nam_index();
    let xforms = index.transformations();
    assert!(!xforms.is_empty());

    let mut circuit = Circuit::new(3, 0);
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(
        Gate::Rz,
        vec![1],
        vec![ParamExpr::constant_pi4(1)],
    ));
    circuit.push(Instruction::new(
        Gate::Rz,
        vec![1],
        vec![ParamExpr::constant_pi4(2)],
    ));
    circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    circuit.push(Instruction::new(Gate::X, vec![2], vec![]));
    circuit.push(Instruction::new(Gate::X, vec![2], vec![]));

    let mut ctx = MatchContext::new(&circuit);
    let mut hash = StructuralHash::of(ctx.dag());
    let mut steps = 0;
    'walk: loop {
        // The carried hash equals a from-scratch hash of the current DAG and
        // of the canonicalized sequence the seen-set would materialize.
        assert_eq!(hash.value(), StructuralHash::of(ctx.dag()).value());
        assert_eq!(
            hash.value(),
            StructuralHash::of(&CircuitDag::from_circuit(&canonicalize(&ctx.to_circuit()))).value(),
            "carried hash diverged from the canonicalized circuit after {steps} rewrites"
        );
        for xform in xforms {
            // Walk along strictly shrinking rewrites so the run terminates.
            if xform.gate_delta() >= 0 {
                continue;
            }
            if let Some(m) = ctx.find_matches(&xform.target).into_iter().next() {
                let delta = ctx.delta_for(xform, &m).expect("instantiable rewrite");
                // Carry the previewed hash, as the search does; the loop
                // head checks it against the derived DAG.
                hash = hash.previewed(ctx.dag(), &delta);
                ctx = ctx.derive(&delta);
                steps += 1;
                continue 'walk;
            }
        }
        break;
    }
    assert!(
        steps >= 3,
        "expected a multi-step rewrite chain, got {steps}"
    );
}

#[test]
fn transformations_from_generated_sets_preserve_semantics_when_applied() {
    // Deterministic end-to-end check kept out of the proptest block because
    // it reuses one generated ECC set across many applications.
    let (ecc_set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 1)).run();
    let xforms = transformations_from_ecc_set(&ecc_set, true);
    assert!(!xforms.is_empty());
    let mut circuit = Circuit::new(2, 0);
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(Gate::H, vec![0], vec![]));
    circuit.push(Instruction::new(
        Gate::Rz,
        vec![0],
        vec![ParamExpr::constant_pi4(2)],
    ));
    circuit.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
    let mut applications = 0;
    for xform in &xforms {
        for rewritten in MatchContext::new(&circuit).apply_all(xform) {
            applications += 1;
            assert!(
                equivalent_up_to_phase(&rewritten, &circuit, &[], 1e-8),
                "transformation application changed semantics"
            );
        }
    }
    assert!(
        applications > 0,
        "expected at least one applicable transformation"
    );
}

/// Summarizes a [`quartz_opt::SearchResult`] by its full deterministic
/// outcome field set — everything except wall-clock measurements. Two
/// results with equal summaries are "bit-identical" in the sense of the
/// service determinism contract (DESIGN.md §6/§10).
fn outcome_fields(r: &quartz_opt::SearchResult) -> (Circuit, [usize; 5], Vec<usize>, [usize; 2]) {
    (
        r.best_circuit.clone(),
        [
            r.best_cost,
            r.initial_cost,
            r.iterations,
            r.circuits_seen,
            r.dedup_hits,
        ],
        r.improvement_trace.iter().map(|&(_, c)| c).collect(),
        [r.fp_fast_rejects, r.fp_confirm_mismatches],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The co-tenancy determinism contract, adversarially sampled: a random
    /// mix of requests (random circuits, budgets, priorities), admitted on a
    /// random mid-run schedule into a scheduler running with a random
    /// expansion thread count, must finish with every request's full outcome
    /// field set bit-identical to a standalone `optimize_with_budget` run of
    /// the same circuit under the same budget. Priorities, admission gaps,
    /// and thread counts may change *when* a frontier is served — never what
    /// it computes.
    #[test]
    fn cotenant_scheduler_outcomes_are_bit_identical_to_standalone(
        mix in prop::collection::vec(
            (arb_clifford_t_circuit(2, 8), 4usize..24, 0u8..3, 0usize..4),
            2..5,
        ),
        threads in 1usize..4,
    ) {
        use quartz_opt::{Priority, ServiceRequest, ServiceScheduler};

        let index = shared_nam_index();
        let config = SearchConfig {
            num_threads: threads,
            timeout: Duration::from_secs(600),
            ..SearchConfig::default()
        };
        let priority = |p: u8| match p {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };

        // Serve the whole mix co-tenant, admitting request i only after
        // `gap_i` further global steps (mid-run admission).
        let mut scheduler = ServiceScheduler::new(
            Optimizer::with_index(Arc::clone(&index), config.clone()),
            usize::MAX,
        );
        let mut ids = Vec::new();
        let mut next = 0usize;
        let mut countdown = 0usize;
        loop {
            while next < mix.len() && countdown == 0 {
                let (circuit, budget, prio, gap) = &mix[next];
                let request = ServiceRequest::new(circuit.clone())
                    .with_budget(*budget)
                    .with_priority(priority(*prio));
                ids.push(scheduler.admit(request).expect("unbounded capacity"));
                countdown = *gap;
                next += 1;
            }
            if next >= mix.len() && !scheduler.has_work() {
                break;
            }
            scheduler.step(|_| {});
            countdown = countdown.saturating_sub(1);
        }

        // Every request: bit-identical to its standalone run.
        let standalone_optimizer = Optimizer::with_index(Arc::clone(&index), config);
        for (i, (circuit, budget, _, _)) in mix.iter().enumerate() {
            let served = scheduler.result(ids[i]).expect("finished");
            let standalone = standalone_optimizer.optimize_with_budget(circuit, *budget);
            let (served, standalone) = (outcome_fields(served), outcome_fields(&standalone));
            prop_assert!(
                served == standalone,
                "request {i} diverged from standalone under co-tenancy: {served:?} != {standalone:?}"
            );
        }
    }
}

/// The same NAM (2, 2) library saved as an artifact and loaded back
/// through [`LibraryCache::get_or_load`](quartz_opt::LibraryCache) — so
/// the returned index went through the one load path the daemon uses
/// (lazy open, digest sweep, prebuilt index section).
fn artifact_nam_index() -> Arc<quartz_opt::TransformationIndex> {
    use quartz_opt::LibraryCache;
    use std::sync::OnceLock;
    static INDEX: OnceLock<Arc<quartz_opt::TransformationIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| {
        let (set, _) = Generator::new(GateSet::nam(), GenConfig::standard(2, 2, 1)).run();
        let dir =
            std::env::temp_dir().join(format!("quartz_proptest_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nam_n2_q2.qtzl");
        Library::new("Nam", set, true).save(&path).unwrap();
        let index = LibraryCache::new()
            .get_or_load(&path)
            .unwrap()
            .shared_index();
        let _ = std::fs::remove_dir_all(&dir);
        index
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Artifact loading under co-tenancy: the scheduler serves from an index
    /// loaded out of a saved artifact while the standalone reference runs
    /// against the directly generated index — outcomes must still be
    /// bit-identical. Loading a library from its artifact may change *how*
    /// the index is built, never what the search computes.
    #[test]
    fn artifact_backed_cotenant_outcomes_are_bit_identical_to_direct_loads(
        mix in prop::collection::vec(
            (arb_clifford_t_circuit(2, 8), 4usize..24, 0u8..3, 0usize..4),
            2..5,
        ),
        threads in 1usize..4,
    ) {
        use quartz_opt::{Priority, ServiceRequest, ServiceScheduler};

        let config = SearchConfig {
            num_threads: threads,
            timeout: Duration::from_secs(600),
            ..SearchConfig::default()
        };
        let priority = |p: u8| match p {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };

        let mut scheduler = ServiceScheduler::new(
            Optimizer::with_index(artifact_nam_index(), config.clone()),
            usize::MAX,
        );
        let mut ids = Vec::new();
        let mut next = 0usize;
        let mut countdown = 0usize;
        loop {
            while next < mix.len() && countdown == 0 {
                let (circuit, budget, prio, gap) = &mix[next];
                let request = ServiceRequest::new(circuit.clone())
                    .with_budget(*budget)
                    .with_priority(priority(*prio));
                ids.push(scheduler.admit(request).expect("unbounded capacity"));
                countdown = *gap;
                next += 1;
            }
            if next >= mix.len() && !scheduler.has_work() {
                break;
            }
            scheduler.step(|_| {});
            countdown = countdown.saturating_sub(1);
        }

        let standalone_optimizer = Optimizer::with_index(shared_nam_index(), config);
        for (i, (circuit, budget, _, _)) in mix.iter().enumerate() {
            let served = scheduler.result(ids[i]).expect("finished");
            let standalone = standalone_optimizer.optimize_with_budget(circuit, *budget);
            let (served, standalone) = (outcome_fields(served), outcome_fields(&standalone));
            prop_assert!(
                served == standalone,
                "request {i} diverged: artifact-loaded index != direct index: \
                 {served:?} != {standalone:?}"
            );
        }
    }
}
