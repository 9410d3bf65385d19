//! Property-based tests for the circuit IR: random circuits stay unitary,
//! fingerprints respect equivalence, and structural operations behave.

use proptest::prelude::*;
use quartz_ir::{
    circuit_unitary, equivalent_up_to_phase, Circuit, CircuitDag, FingerprintContext, Gate,
    GateSet, Instruction, ParamExpr, SpliceDelta, StructuralHash,
};

/// Strategy producing a random instruction over `nq` qubits and `m` params
/// drawn from the Clifford+T + Rz vocabulary.
fn arb_instruction(nq: usize, m: usize) -> impl Strategy<Value = Instruction> {
    let gates = prop_oneof![
        Just(Gate::H),
        Just(Gate::X),
        Just(Gate::S),
        Just(Gate::Sdg),
        Just(Gate::T),
        Just(Gate::Tdg),
        Just(Gate::Rz),
        Just(Gate::Cnot),
        Just(Gate::Cz),
    ];
    (gates, 0..nq, 0..nq.max(2), -4i32..=4, 0..m.max(1)).prop_filter_map(
        "operands must be distinct",
        move |(gate, q0, q1_raw, quarters, param)| {
            let q1 = q1_raw % nq;
            match gate.num_qubits() {
                1 => {
                    let params = if gate.num_params() == 1 {
                        if m == 0 {
                            vec![ParamExpr::constant_pi4(quarters)]
                        } else {
                            vec![ParamExpr::var(param % m, m)]
                        }
                    } else {
                        vec![]
                    };
                    Some(Instruction::new(gate, vec![q0], params))
                }
                2 if q0 != q1 => Some(Instruction::new(gate, vec![q0, q1], vec![])),
                _ => None,
            }
        },
    )
}

fn arb_circuit(nq: usize, m: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_instruction(nq, m), 0..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(nq, m);
        for i in instrs {
            c.push(i);
        }
        c
    })
}

/// The gate vocabularies of the paper's three target gate sets (Table 1),
/// kept in sync with `GateSet::nam()` / `ibm()` / `rigetti()` by the
/// `gate_set_vocabularies_match_builtins` test below.
const NAM_GATES: [Gate; 4] = [Gate::H, Gate::X, Gate::Rz, Gate::Cnot];
const IBM_GATES: [Gate; 4] = [Gate::U1, Gate::U2, Gate::U3, Gate::Cnot];
const RIGETTI_GATES: [Gate; 5] = [Gate::Rx90, Gate::Rx90Neg, Gate::Rx180, Gate::Rz, Gate::Cz];

/// Strategy producing a random constant-angle instruction drawn from one of
/// the target gate sets — QASM can only express constant (π/4-multiple)
/// angles, so parametric gates get constants rather than formal parameters.
fn arb_gate_set_instruction(
    gates: &'static [Gate],
    nq: usize,
) -> impl Strategy<Value = Instruction> {
    (
        0..gates.len(),
        0..nq,
        0..nq.max(2),
        prop::collection::vec(-8i32..=8, 3),
    )
        .prop_filter_map(
            "operands must be distinct",
            move |(g, q0, q1_raw, quarters)| {
                let gate = gates[g];
                let q1 = q1_raw % nq;
                let params: Vec<ParamExpr> = quarters
                    .iter()
                    .take(gate.num_params())
                    .map(|&k| ParamExpr::constant_pi4(k))
                    .collect();
                match gate.num_qubits() {
                    1 => Some(Instruction::new(gate, vec![q0], params)),
                    2 if q0 != q1 => Some(Instruction::new(gate, vec![q0, q1], params)),
                    _ => None,
                }
            },
        )
}

fn arb_gate_set_circuit(
    gates: &'static [Gate],
    nq: usize,
    max_len: usize,
) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate_set_instruction(gates, nq), 0..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(nq, 0);
        for i in instrs {
            c.push(i);
        }
        c
    })
}

/// Shared body of the per-gate-set round-trip properties: parsing the
/// printed QASM must reproduce the exact circuit — same gates (fixed
/// rotations must not decay into parametric `rx`), same histogram, and
/// still inside the gate set.
fn assert_qasm_round_trip(c: &Circuit, gate_set: &GateSet) -> Result<(), TestCaseError> {
    let parsed = quartz_ir::parse_qasm(&quartz_ir::to_qasm(c))
        .map_err(|e| TestCaseError::Fail(format!("round trip failed to parse: {e}")))?;
    prop_assert_eq!(&parsed, c);
    prop_assert_eq!(parsed.gate_histogram(), c.gate_histogram());
    prop_assert!(gate_set.supports_circuit(&parsed));
    Ok(())
}

#[test]
fn gate_set_vocabularies_match_builtins() {
    assert_eq!(GateSet::nam().gates(), &NAM_GATES[..]);
    assert_eq!(GateSet::ibm().gates(), &IBM_GATES[..]);
    assert_eq!(GateSet::rigetti().gates(), &RIGETTI_GATES[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qasm_round_trip_nam_circuits(c in arb_gate_set_circuit(&NAM_GATES, 3, 12)) {
        assert_qasm_round_trip(&c, &GateSet::nam())?;
    }

    #[test]
    fn qasm_round_trip_ibm_circuits(c in arb_gate_set_circuit(&IBM_GATES, 3, 12)) {
        assert_qasm_round_trip(&c, &GateSet::ibm())?;
    }

    #[test]
    fn qasm_round_trip_rigetti_circuits(c in arb_gate_set_circuit(&RIGETTI_GATES, 3, 12)) {
        assert_qasm_round_trip(&c, &GateSet::rigetti())?;
    }

    #[test]
    fn random_circuits_have_unitary_semantics(c in arb_circuit(3, 1, 8), p in -3.0f64..3.0) {
        let u = circuit_unitary(&c, &[p]);
        prop_assert!(u.is_unitary(1e-8));
    }

    #[test]
    fn circuit_is_equivalent_to_itself_and_to_its_reverse_inverse(c in arb_circuit(2, 0, 6)) {
        prop_assert!(equivalent_up_to_phase(&c, &c, &[], 1e-9));
    }

    #[test]
    fn fingerprint_is_invariant_under_commuting_disjoint_gates(
        c in arb_circuit(3, 1, 5),
        extra in arb_instruction(3, 1),
    ) {
        // Appending a gate and prepending it produce different circuits in
        // general, but appending the same gate to equal circuits gives equal
        // fingerprints.
        let ctx = FingerprintContext::new(3, 1, 11);
        let a = c.appended(extra.clone());
        let b = c.appended(extra);
        prop_assert!((ctx.fingerprint(&a) - ctx.fingerprint(&b)).abs() < 1e-12);
    }

    #[test]
    fn drop_first_and_last_reduce_gate_count(c in arb_circuit(2, 0, 6)) {
        prop_assume!(!c.is_empty());
        prop_assert_eq!(c.drop_first().gate_count(), c.gate_count() - 1);
        prop_assert_eq!(c.drop_last().gate_count(), c.gate_count() - 1);
    }

    #[test]
    fn precedence_is_a_total_order(a in arb_circuit(2, 0, 4), b in arb_circuit(2, 0, 4)) {
        let ab = a.precedence_cmp(&b);
        let ba = b.precedence_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        prop_assert_eq!(a.precedence_cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn dag_round_trip_is_lossless(c in arb_circuit(3, 1, 10)) {
        // Circuit → CircuitDag → Circuit must reproduce the exact sequence:
        // equal circuits, equal histograms — and the DAG
        // itself must satisfy every structural invariant.
        let dag = CircuitDag::from_circuit(&c);
        prop_assert_eq!(dag.validate(), Ok(()));
        let back = dag.to_circuit();
        prop_assert_eq!(&back, &c);
        prop_assert_eq!(back.gate_histogram(), c.gate_histogram());
        prop_assert_eq!(dag.gate_count(), c.gate_count());
    }

    #[test]
    fn dag_edges_agree_with_wire_predecessors(c in arb_circuit(3, 1, 10)) {
        // from_circuit assigns node ids in sequence order, so the DAG's preds
        // must coincide with the sequence form's wire_predecessors.
        let dag = CircuitDag::from_circuit(&c);
        let preds = c.wire_predecessors();
        for (i, expected) in preds.iter().enumerate() {
            let id = dag.topo_order()[i];
            let got: Vec<Option<usize>> =
                dag.preds(id).iter().map(|p| p.map(|n| n.index())).collect();
            prop_assert_eq!(&got, expected);
        }
    }

    #[test]
    fn qasm_round_trip_for_constant_circuits(c in arb_circuit(3, 0, 8)) {
        let qasm = quartz_ir::to_qasm(&c);
        let parsed = quartz_ir::parse_qasm(&qasm).unwrap();
        prop_assert_eq!(parsed, c);
    }

    #[test]
    fn gate_set_enumeration_has_no_duplicates(nq in 1usize..4) {
        let spec = quartz_ir::ExprSpec::standard(2);
        let instrs = GateSet::nam().enumerate_instructions(nq, &spec);
        let mut seen = std::collections::HashSet::new();
        for i in &instrs {
            prop_assert!(seen.insert(i.clone()), "duplicate instruction {i}");
        }
        prop_assert_eq!(instrs.len(), GateSet::nam().characteristic(nq, &spec));
    }

    /// The structural hash is a function of the circuit *DAG*: any
    /// topological reorder of the sequence (different NodeId assignment,
    /// different cached topo order) must hash identically — the
    /// order-invariance half of the seen-set prefilter soundness argument
    /// (DESIGN.md §9).
    #[test]
    fn structural_hash_is_order_invariant(
        c in arb_circuit(3, 1, 10),
        picks in prop::collection::vec(0usize..64, 16),
    ) {
        let reordered = topological_reorder(&c, &picks);
        let a = StructuralHash::of(&CircuitDag::from_circuit(&c));
        let b = StructuralHash::of(&CircuitDag::from_circuit(&reordered));
        prop_assert_eq!(a.value(), b.value());
    }

    /// `preview` (no mutation) must agree with the hash of the spliced DAG,
    /// read off its maintained wire caches, across chains of random
    /// single-node splices — covering empty replacements (bridged wires),
    /// same-footprint replacements (slot reuse), and wire-subset
    /// replacements.
    #[test]
    fn structural_hash_preview_and_update_track_random_splices(
        c in arb_circuit(3, 0, 10),
        steps in prop::collection::vec((0usize..64, 0usize..4), 1..6),
    ) {
        let mut dag = CircuitDag::from_circuit(&c);
        let mut hash = StructuralHash::of(&dag);
        for (pick, shape) in steps {
            if dag.gate_count() == 0 {
                break;
            }
            let id = dag.topo_order()[pick % dag.gate_count()];
            let qubits = dag.instruction(id).qubits.clone();
            // A replacement drawn from the region's own wires.
            let replacement: Vec<Instruction> = match shape {
                0 => vec![],
                1 => vec![dag.instruction(id).clone()],
                2 => qubits
                    .iter()
                    .map(|&q| Instruction::new(Gate::H, vec![q], vec![]))
                    .collect(),
                _ => {
                    if qubits.len() == 2 {
                        vec![Instruction::new(
                            Gate::Cnot,
                            vec![qubits[1], qubits[0]],
                            vec![],
                        )]
                    } else {
                        vec![Instruction::new(Gate::X, vec![qubits[0]], vec![])]
                    }
                }
            };
            let delta = SpliceDelta { region: vec![id], replacement };
            let previewed = hash.preview(&dag, &delta);
            // The O(footprint) prefix-hash preview must agree with the
            // reference full-rewalk preview on the same unspliced DAG.
            let rewalked = hash.previewed_rewalk(&dag, &delta);
            prop_assert_eq!(rewalked.value(), previewed);
            dag.splice_with_footprint(&delta);
            prop_assert_eq!(dag.validate(), Ok(()));
            hash = StructuralHash::of(&dag);
            prop_assert_eq!(previewed, hash.value());
            // Exactness across representations: the incrementally
            // maintained hash equals a from-scratch hash of the circuit's
            // *canonical* form — the identity the optimizer's seen-set
            // relies on (DESIGN.md §13).
            let canonical = quartz_ir::canonicalize(&dag.to_circuit());
            let canonical_hash = StructuralHash::of(&CircuitDag::from_circuit(&canonical));
            prop_assert_eq!(hash.value(), canonical_hash.value());
        }
    }
}

/// Rebuilds `circuit` in a different topological order of its wire DAG
/// (Kahn's algorithm, tie-broken by `picks`). The result represents the
/// same circuit DAG by construction.
fn topological_reorder(circuit: &Circuit, picks: &[usize]) -> Circuit {
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
