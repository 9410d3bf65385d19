//! A naive reference implementation of Algorithm 2 (paper §6), for tests
//! only: the search engine must reproduce its outcome field by field.
//!
//! It shares none of the engine's machinery. It scans every transformation
//! one by one (no match automaton), matches on the sequence form with its own
//! brute-force `Apply(C, T)` (no DAG, no anchored backtracking, no derived
//! contexts), applies every match to a new sequence circuit and
//! canonicalizes it (no deferred materialization), costs it with
//! [`CostModel::cost`](quartz_opt::CostModel::cost) (no delta costing) and
//! hashes it from scratch (no O(footprint) previews). Its matcher uses only
//! the IR types and `ParamExpr` arithmetic. What it does share is the search
//! policy the engine must implement: γ, the queue prune, the (cost,
//! insertion order) priority, the (cost, hash) candidate order within one
//! expansion, and steps that dequeue one circuit, filter its successors
//! against the state as it was at the dequeue, and merge them against the
//! live state.
//!
//! Included with `#[path]` by every test suite that compares against it.

#![allow(dead_code)]

use quartz_ir::{Circuit, CircuitDag, Instruction, ParamExpr, StructuralHash};
use quartz_opt::{canonicalize, SearchConfig, SearchResult, Transformation};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// The outcome fields of one oracle run.
#[derive(Debug)]
pub struct OracleResult {
    pub best_circuit: Circuit,
    pub best_cost: usize,
    pub initial_cost: usize,
    pub iterations: usize,
    pub circuits_seen: usize,
    pub dedup_hits: usize,
    /// The best cost after the start and after every improvement.
    pub trace: Vec<usize>,
}

/// The dedup identity and tie-break: the structural hash of the
/// canonicalized circuit, computed from scratch.
fn hash_of(circuit: &Circuit) -> u64 {
    StructuralHash::of(&CircuitDag::from_circuit(circuit)).value()
}

/// Runs Algorithm 2 under `config.max_iterations`. The wall-clock timeout is
/// ignored, so compare only runs the iteration budget ends.
pub fn run(
    transformations: &[Transformation],
    config: &SearchConfig,
    input: &Circuit,
) -> OracleResult {
    run_with_budget(transformations, config, input, config.max_iterations)
}

/// Runs Algorithm 2 with an explicit iteration budget.
pub fn run_with_budget(
    transformations: &[Transformation],
    config: &SearchConfig,
    input: &Circuit,
    budget: usize,
) -> OracleResult {
    let cost = |c: &Circuit| config.cost_model.cost(c);
    let initial_cost = cost(input);
    let root = canonicalize(input);
    let mut seen: HashSet<u64> = HashSet::from([hash_of(&root)]);
    // Queued circuits by insertion order; the heap holds (cost, order),
    // lowest first.
    let mut circuits: Vec<Option<Circuit>> = vec![Some(root.clone())];
    let mut queue = BinaryHeap::from([Reverse((initial_cost, 0usize))]);
    let mut out = OracleResult {
        best_circuit: root,
        best_cost: initial_cost,
        initial_cost,
        iterations: 0,
        circuits_seen: 0,
        dedup_hits: 0,
        trace: vec![initial_cost],
    };
    let admits = |c: usize, best: usize| (c as f64) < config.gamma * best as f64;

    while out.iterations < budget {
        let Some(Reverse((_, order))) = queue.pop() else {
            break;
        };
        out.iterations += 1;

        // Expand the dequeued circuit against the state as of the dequeue.
        let circuit = circuits[order].take().expect("popped once");
        let mut successors: Vec<(usize, u64, Circuit)> = Vec::new();
        for xform in transformations {
            for next in apply(&circuit, xform) {
                let next_cost = cost(&next);
                if !admits(next_cost, out.best_cost) {
                    continue;
                }
                let hash = hash_of(&next);
                if seen.contains(&hash) {
                    out.dedup_hits += 1;
                    continue;
                }
                successors.push((next_cost, hash, canonicalize(&next)));
            }
        }
        successors.sort_by_key(|&(c, h, _)| (c, h));

        // Merge in (cost, hash) order against the live state, which the
        // successors merged before have already changed.
        for (next_cost, hash, next) in successors {
            if seen.contains(&hash) {
                out.dedup_hits += 1;
                continue;
            }
            if admits(next_cost, out.best_cost) {
                if next_cost < out.best_cost {
                    out.best_cost = next_cost;
                    out.best_circuit = next.clone();
                    out.trace.push(next_cost);
                }
                seen.insert(hash);
                circuits.push(Some(next));
                queue.push(Reverse((next_cost, circuits.len() - 1)));
            }
        }

        if queue.len() > config.queue_prune_threshold {
            let mut keys: Vec<(usize, usize)> = queue.drain().map(|Reverse(k)| k).collect();
            keys.sort_unstable();
            for &(_, order) in &keys[config.queue_keep.min(keys.len())..] {
                circuits[order] = None;
            }
            keys.truncate(config.queue_keep);
            queue = keys.into_iter().map(Reverse).collect();
        }
    }
    out.circuits_seen = seen.len();
    out
}

/// `Apply(C, T)` (paper §6) on the sequence form: one rewritten circuit per
/// match of `xform.target` in `circuit` whose rewrite instantiates, so a
/// circuit reachable through two matches appears twice.
///
/// A match assigns each target instruction a distinct circuit position with
/// the same gate such that the target's qubits map injectively onto the
/// circuit's, its angles bind (see [`bind_angle`]), the matched gates on
/// every wire are consecutive and in target order, and the matched set is
/// convex. Assignments are enumerated by brute force, pruned only by the
/// qubit map of the assigned prefix.
pub fn apply(circuit: &Circuit, xform: &Transformation) -> Vec<Circuit> {
    let mut out = Vec::new();
    if !xform.target.is_empty() {
        assign(circuit, xform, &mut Vec::new(), &mut out);
    }
    out
}

fn assign(
    circuit: &Circuit,
    xform: &Transformation,
    positions: &mut Vec<usize>,
    out: &mut Vec<Circuit>,
) {
    let target = xform.target.instructions();
    if positions.len() == target.len() {
        out.extend(rewrite_at(circuit, xform, positions));
        return;
    }
    let gate = target[positions.len()].gate;
    for (pos, instr) in circuit.instructions().iter().enumerate() {
        if instr.gate != gate || positions.contains(&pos) {
            continue;
        }
        positions.push(pos);
        if qubit_map(circuit, &xform.target, positions).is_some() {
            assign(circuit, xform, positions, out);
        }
        positions.pop();
    }
}

/// The target-to-circuit qubit map an assignment induces operand by
/// operand, or `None` when it is inconsistent or not injective.
fn qubit_map(
    circuit: &Circuit,
    target: &Circuit,
    positions: &[usize],
) -> Option<Vec<Option<usize>>> {
    let mut map = vec![None; target.num_qubits()];
    for (t, &pos) in target.instructions().iter().zip(positions) {
        for (&tq, &cq) in t.qubits.iter().zip(&circuit.instructions()[pos].qubits) {
            if *map[tq].get_or_insert(cq) != cq {
                return None;
            }
        }
    }
    let images: Vec<usize> = map.iter().flatten().copied().collect();
    let injective = (0..images.len()).all(|i| !images[i + 1..].contains(&images[i]));
    injective.then_some(map)
}

/// The rewritten circuit for a complete assignment, or `None` when the
/// assignment is not a match or the rewrite does not instantiate.
fn rewrite_at(circuit: &Circuit, xform: &Transformation, positions: &[usize]) -> Option<Circuit> {
    let (gates, target) = (circuit.instructions(), xform.target.instructions());
    let map = qubit_map(circuit, &xform.target, positions)?;

    // Wire order: on wire `cq`, the images of the target's gates on `tq`
    // are adjacent and in target order. Injectivity makes them the only
    // matched gates on that wire.
    for (tq, cq) in map.iter().enumerate() {
        let Some(cq) = *cq else { continue };
        let images: Vec<usize> = (0..target.len())
            .filter(|&i| target[i].qubits.contains(&tq))
            .map(|i| positions[i])
            .collect();
        let wire: Vec<usize> = (0..gates.len())
            .filter(|&g| gates[g].qubits.contains(&cq))
            .collect();
        let start = wire.iter().position(|&g| g == images[0])?;
        if wire.get(start..start + images.len()) != Some(&images[..]) {
            return None;
        }
    }

    // Convexity by forward reachability over the sequence: a wire is
    // `after_match` once a matched gate or a gate depending on one has
    // touched it, and `escaped` once an unmatched such gate has. A matched
    // gate on an escaped wire closes a path that leaves the matched set and
    // re-enters it.
    let mut after_match = vec![false; circuit.num_qubits()];
    let mut escaped = vec![false; circuit.num_qubits()];
    let mut descendant = vec![false; gates.len()];
    for (g, instr) in gates.iter().enumerate() {
        let matched = positions.contains(&g);
        let below = instr.qubits.iter().any(|&q| after_match[q]);
        let below_escape = instr.qubits.iter().any(|&q| escaped[q]);
        if matched && below_escape {
            return None;
        }
        descendant[g] = !matched && below;
        for &q in &instr.qubits {
            after_match[q] |= matched || below;
            escaped[q] |= descendant[g];
        }
    }

    // Angles bind in target order, then the rewrite instantiates.
    let n = circuit.num_params();
    let mut bindings = vec![None; xform.target.num_params()];
    for (t, &pos) in target.iter().zip(positions) {
        for (e, c) in t.params.iter().zip(&gates[pos].params) {
            if !bind_angle(e, c, &mut bindings, n) {
                return None;
            }
        }
    }
    let mut replacement = Vec::new();
    for r in xform.rewrite.instructions() {
        let qubits = r
            .qubits
            .iter()
            .map(|&q| *map.get(q)?)
            .collect::<Option<_>>()?;
        let params = r
            .params
            .iter()
            .map(|e| substitute(e, &bindings, n))
            .collect::<Option<_>>()?;
        replacement.push(Instruction::new(r.gate, qubits, params));
    }

    // Emission: unmatched non-descendants, the rewrite, then descendants.
    let mut out = Circuit::new(circuit.num_qubits(), n);
    for g in (0..gates.len()).filter(|&g| !positions.contains(&g) && !descendant[g]) {
        out.push(gates[g].clone());
    }
    for instr in replacement {
        out.push(instr);
    }
    for g in (0..gates.len()).filter(|&g| descendant[g]) {
        out.push(gates[g].clone());
    }
    Some(out)
}

/// Binds the target angle `e` to the circuit angle `c`. An angle may name
/// at most one parameter not bound by an earlier angle (in target order);
/// that parameter is solved exactly from `c`. With none, `e` must equal `c`
/// under the bindings.
fn bind_angle(e: &ParamExpr, c: &ParamExpr, bindings: &mut [Option<ParamExpr>], n: usize) -> bool {
    let fresh: Vec<usize> = e
        .used_params()
        .into_iter()
        .filter(|&i| bindings[i].is_none())
        .collect();
    match fresh[..] {
        [] => substitute(e, bindings, n).is_some_and(|v| c.sub(&v).is_zero()),
        [i] => {
            // Solve c = e[p_i := x] for x: value e at x = 0, then divide.
            bindings[i] = Some(ParamExpr::zero(n));
            let known = substitute(e, bindings, n).expect("every parameter of e is bound");
            bindings[i] = c.sub(&known).div_exact(e.coeffs()[i]);
            bindings[i].is_some()
        }
        _ => false,
    }
}

/// `e` with every parameter replaced by its binding, over the circuit's `n`
/// parameters; `None` when it names an unbound parameter.
fn substitute(e: &ParamExpr, bindings: &[Option<ParamExpr>], n: usize) -> Option<ParamExpr> {
    let mut value = ParamExpr::constant_pi4_with_params(e.const_pi4(), n);
    for i in e.used_params() {
        value = value.add(&bindings.get(i)?.as_ref()?.scale(e.coeffs()[i]));
    }
    Some(value)
}

/// Asserts that an engine result agrees with the oracle on every outcome
/// field, and that the engine's hash-confirmation canary stayed silent.
pub fn assert_agrees(engine: &SearchResult, oracle: &OracleResult, what: &str) {
    assert_eq!(engine.best_cost, oracle.best_cost, "{what}: best cost");
    assert_eq!(
        engine.best_circuit, oracle.best_circuit,
        "{what}: best circuit"
    );
    assert_eq!(
        engine.initial_cost, oracle.initial_cost,
        "{what}: initial cost"
    );
    assert_eq!(engine.iterations, oracle.iterations, "{what}: iterations");
    assert_eq!(
        engine.circuits_seen, oracle.circuits_seen,
        "{what}: circuits seen"
    );
    assert_eq!(engine.dedup_hits, oracle.dedup_hits, "{what}: dedup hits");
    let trace: Vec<usize> = engine.improvement_trace.iter().map(|&(_, c)| c).collect();
    assert_eq!(trace, oracle.trace, "{what}: improvement trace");
    assert_eq!(
        engine.fp_confirm_mismatches, 0,
        "{what}: hash confirmation canary"
    );
}
