//! Pattern matching of transformation targets against subcircuits, and the
//! `Apply(C, T)` operation (paper §6), over the DAG IR.
//!
//! A match is an injective assignment of the pattern's instructions to gate
//! instances (DAG nodes) of the circuit that
//!
//! * preserves gate types,
//! * maps pattern qubits to circuit qubits injectively and consistently,
//! * binds the pattern's symbolic parameters to angle expressions of the
//!   circuit consistently, and
//! * corresponds to a *convex* subcircuit: on every wire the matched gates
//!   are consecutive, and no dependency path leaves the matched set and
//!   re-enters it (the graph-representation convexity of Figure 5).
//!
//! Applying a match yields a [`SpliceDelta`]: the matched region plus the
//! instantiated rewrite instructions. The delta can be turned into a
//! rewritten sequence without mutating anything
//! ([`MatchContext::apply_delta`]), or spliced into a clone of the DAG to
//! *derive* the child circuit's matching state from its parent's in time
//! proportional to the rewrite footprint ([`MatchContext::derive`]) — the
//! incremental path the search layer rides (DESIGN.md §5).

use quartz_gen::Transformation;
use quartz_ir::{
    Circuit, CircuitDag, Gate, Instruction, NodeId, ParamExpr, SpliceDelta, SpliceFootprint,
};
use std::collections::HashSet;

/// A successful match of a pattern against a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// For each pattern instruction (in pattern order), the matched DAG
    /// node. For a context freshly built by [`MatchContext::new`], node
    /// indices coincide with sequence positions.
    pub instruction_map: Vec<NodeId>,
    /// For each pattern qubit, the mapped circuit qubit (`None` if the
    /// pattern never uses that qubit).
    pub qubit_map: Vec<Option<usize>>,
    /// For each pattern parameter, the bound circuit-side expression.
    pub param_bindings: Vec<Option<ParamExpr>>,
}

/// Finds every match of `pattern` inside `circuit`.
///
/// Convenience wrapper building a throwaway [`MatchContext`]; when several
/// patterns are matched against the same circuit (the optimizer's hot path),
/// build one context and reuse it.
pub fn find_matches(circuit: &Circuit, pattern: &Circuit) -> Vec<Match> {
    MatchContext::new(circuit).find_matches(pattern)
}

/// Matching state for one circuit, reusable across patterns and derivable
/// across rewrites.
///
/// The context owns the circuit's [`CircuitDag`] (wire adjacency comes
/// straight from the graph) plus a gate-type → node-id table.
/// [`MatchContext::find_matches`] *anchors* each pattern: the first pattern
/// instruction only tries nodes of the same gate type (instead of scanning
/// the whole circuit), and subsequent pattern instructions only try wire
/// successors of already-matched nodes. This is the anchored entry point the
/// indexed dispatch layer (DESIGN.md §2.2) drives.
///
/// Contexts come from two places:
///
/// * [`MatchContext::new`] builds one from a sequence circuit in O(circuit) —
///   the *rebuild* path, needed only for frontier roots;
/// * [`MatchContext::derive`] builds a child context from a parent context
///   and a [`SpliceDelta`] — a flat clone plus O(rewrite footprint) of
///   actual recomputation, never touching the rest of the circuit
///   (DESIGN.md §5).
#[derive(Debug, Clone)]
pub struct MatchContext {
    dag: CircuitDag,
    /// Live node ids by gate type, each bucket sorted ascending so splices
    /// can maintain it by binary search.
    by_gate: Vec<Vec<NodeId>>,
}

impl MatchContext {
    /// Builds the context for a circuit by constructing its DAG and gate
    /// buckets from scratch (O(circuit); the search does this only for the
    /// frontier root).
    pub fn new(circuit: &Circuit) -> Self {
        let dag = CircuitDag::from_circuit(circuit);
        let mut by_gate: Vec<Vec<NodeId>> = vec![Vec::new(); Gate::COUNT];
        for (id, instr) in dag.nodes() {
            by_gate[instr.gate.index()].push(id);
        }
        // from_circuit assigns ids in sequence order, so buckets are sorted.
        MatchContext { dag, by_gate }
    }

    /// The DAG this context matches against.
    pub fn dag(&self) -> &CircuitDag {
        &self.dag
    }

    /// The circuit in sequence form (a topological emission of the DAG).
    pub fn to_circuit(&self) -> Circuit {
        self.dag.to_circuit()
    }

    /// Finds every match of `pattern` inside the circuit.
    pub fn find_matches(&self, pattern: &Circuit) -> Vec<Match> {
        if pattern.is_empty() || pattern.gate_count() > self.dag.gate_count() {
            return Vec::new();
        }
        let state = MatchState {
            ctx: self,
            pattern,
            pattern_preds: pattern.wire_predecessors(),
        };
        state.search()
    }

    /// Instantiates the transformation's rewrite at a match, producing the
    /// splice plan, or `None` when the rewrite cannot be instantiated (for
    /// example because it uses a parameter the target never bound).
    pub fn delta_for(&self, xform: &Transformation, m: &Match) -> Option<SpliceDelta> {
        let mut replacement = Vec::with_capacity(xform.rewrite.gate_count());
        for instr in xform.rewrite.instructions() {
            let qubits: Option<Vec<usize>> = instr
                .qubits
                .iter()
                .map(|&q| m.qubit_map.get(q).copied().flatten())
                .collect();
            let qubits = qubits?;
            let mut params = Vec::with_capacity(instr.params.len());
            for p in &instr.params {
                params.push(instantiate(p, &m.param_bindings, self.dag.num_params())?);
            }
            replacement.push(Instruction::new(instr.gate, qubits, params));
        }
        Some(SpliceDelta {
            region: m.instruction_map.clone(),
            replacement,
        })
    }

    /// Emits the rewritten circuit a delta describes, without mutating the
    /// context: unmatched non-descendants of the region in their current
    /// order, then the replacement, then unmatched descendants (the
    /// splicing invariant of DESIGN.md §2.4 — convexity of the matched
    /// region guarantees this is a topological order of the new DAG).
    pub fn apply_delta(&self, delta: &SpliceDelta) -> Circuit {
        let region: HashSet<NodeId> = delta.region.iter().copied().collect();
        let descendants = self.dag.descendants(&delta.region);
        let mut out = Circuit::new(self.dag.num_qubits(), self.dag.num_params());
        for (id, instr) in self.dag.nodes() {
            if !region.contains(&id) && !descendants.contains(&id) {
                out.push(instr.clone());
            }
        }
        for instr in &delta.replacement {
            out.push(instr.clone());
        }
        for (id, instr) in self.dag.nodes() {
            if descendants.contains(&id) {
                out.push(instr.clone());
            }
        }
        out
    }

    /// Derives the child circuit's context from this one: a flat clone of
    /// the DAG and buckets, then an in-place splice and a bucket update
    /// touching only the rewrite footprint — no adjacency or bucket is ever
    /// recomputed from the sequence form (DESIGN.md §5). The search derives
    /// every dequeued entry's context this way except the root's.
    pub fn derive(&self, delta: &SpliceDelta) -> MatchContext {
        self.derive_with_footprint(delta).0
    }

    /// Like [`MatchContext::derive`], additionally reporting the splice's
    /// [`SpliceFootprint`] — the exact node set whose local matching state
    /// changed.
    pub fn derive_with_footprint(&self, delta: &SpliceDelta) -> (MatchContext, SpliceFootprint) {
        let mut dag = self.dag.clone();
        let mut by_gate = self.by_gate.clone();
        for &id in &delta.region {
            let gate = self.dag.instruction(id).gate;
            let bucket = &mut by_gate[gate.index()];
            let pos = bucket
                .binary_search(&id)
                .expect("region node is in its gate bucket");
            bucket.remove(pos);
        }
        let footprint = dag.splice_with_footprint(delta);
        for (&id, instr) in footprint.inserted.iter().zip(&delta.replacement) {
            let bucket = &mut by_gate[instr.gate.index()];
            let pos = bucket
                .binary_search(&id)
                .expect_err("inserted node is new to its gate bucket");
            bucket.insert(pos, id);
        }
        (MatchContext { dag, by_gate }, footprint)
    }

    /// Computes `Apply(C, T)` through this context: every circuit obtainable
    /// by applying the transformation at some match (paper §6).
    pub fn apply_all(&self, xform: &Transformation) -> Vec<Circuit> {
        self.find_matches(&xform.target)
            .iter()
            .filter_map(|m| self.delta_for(xform, m))
            .map(|delta| self.apply_delta(&delta))
            .collect()
    }
}

/// Applies a transformation at a specific match, producing the rewritten
/// circuit, or `None` when the rewrite cannot be instantiated.
///
/// The match must come from a context freshly built for `circuit` (as
/// [`find_matches`] does), so its node ids name this circuit's gates.
pub fn apply_at(circuit: &Circuit, xform: &Transformation, m: &Match) -> Option<Circuit> {
    let ctx = MatchContext::new(circuit);
    let delta = ctx.delta_for(xform, m)?;
    Some(ctx.apply_delta(&delta))
}

/// Computes `Apply(C, T)`: every circuit obtainable by applying the
/// transformation at some match (paper §6).
pub fn apply_all(circuit: &Circuit, xform: &Transformation) -> Vec<Circuit> {
    MatchContext::new(circuit).apply_all(xform)
}

/// Substitutes parameter bindings into a pattern-side expression.
fn instantiate(
    expr: &ParamExpr,
    bindings: &[Option<ParamExpr>],
    circuit_num_params: usize,
) -> Option<ParamExpr> {
    let mut acc = ParamExpr::constant_pi4_with_params(expr.const_pi4(), circuit_num_params);
    for (i, &k) in expr.coeffs().iter().enumerate() {
        if k == 0 {
            continue;
        }
        let bound = bindings.get(i)?.as_ref()?;
        acc = acc.add(&bound.scale(k));
    }
    Some(acc)
}

struct MatchState<'a> {
    ctx: &'a MatchContext,
    pattern: &'a Circuit,
    pattern_preds: Vec<Vec<Option<usize>>>,
}

/// Candidate nodes for one pattern position, alloc-free on the matcher hot
/// path: gate buckets are borrowed, wire successors (bounded by gate arity)
/// live in a fixed inline buffer.
enum Candidates<'a> {
    Bucket(&'a [NodeId]),
    Succs {
        buf: [NodeId; MAX_ARITY],
        len: usize,
    },
}

/// Upper bound on gate arity (the largest gate, CCX, has 3 operands).
const MAX_ARITY: usize = 4;

impl Candidates<'_> {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            Candidates::Bucket(ids) => ids,
            Candidates::Succs { buf, len } => &buf[..*len],
        }
    }
}

impl MatchState<'_> {
    /// Candidate DAG nodes for the pattern instruction at `depth`: when the
    /// pattern instruction depends on an already-matched one, only the wire
    /// successors of that matched node can possibly satisfy the wire-order
    /// constraint, so the search is narrowed to them (at most the node's
    /// arity); otherwise the instruction anchors a fresh wire and only nodes
    /// of its own gate type are candidates.
    fn candidates(&self, depth: usize, instruction_map: &[NodeId]) -> Candidates<'_> {
        for pred in self.pattern_preds[depth].iter().flatten() {
            if *pred < instruction_map.len() {
                // Seed value is arbitrary — only `buf[..len]` is ever read.
                let mut buf = [instruction_map[*pred]; MAX_ARITY];
                let mut len = 0;
                for &s in self.ctx.dag.succs(instruction_map[*pred]).iter().flatten() {
                    if !buf[..len].contains(&s) {
                        buf[len] = s;
                        len += 1;
                    }
                }
                return Candidates::Succs { buf, len };
            }
        }
        Candidates::Bucket(&self.ctx.by_gate[self.pattern.instructions()[depth].gate.index()])
    }

    fn search(&self) -> Vec<Match> {
        let mut results = Vec::new();
        let mut instruction_map: Vec<NodeId> = Vec::new();
        let mut qubit_map: Vec<Option<usize>> = vec![None; self.pattern.num_qubits()];
        let mut used_circuit_qubits: HashSet<usize> = HashSet::new();
        let mut param_bindings: Vec<Option<ParamExpr>> = vec![None; self.pattern.num_params()];
        self.extend(
            &mut instruction_map,
            &mut qubit_map,
            &mut used_circuit_qubits,
            &mut param_bindings,
            &mut results,
        );
        results
    }

    fn extend(
        &self,
        instruction_map: &mut Vec<NodeId>,
        qubit_map: &mut Vec<Option<usize>>,
        used_circuit_qubits: &mut HashSet<usize>,
        param_bindings: &mut Vec<Option<ParamExpr>>,
        results: &mut Vec<Match>,
    ) {
        let depth = instruction_map.len();
        if depth == self.pattern.gate_count() {
            if self.ctx.dag.is_convex(instruction_map) {
                results.push(Match {
                    instruction_map: instruction_map.clone(),
                    qubit_map: qubit_map.clone(),
                    param_bindings: param_bindings.clone(),
                });
            }
            return;
        }
        let pattern_instr = &self.pattern.instructions()[depth];
        let candidates = self.candidates(depth, instruction_map);
        'candidates: for &ci in candidates.as_slice() {
            let circuit_instr = self.ctx.dag.instruction(ci);
            if circuit_instr.gate != pattern_instr.gate {
                continue;
            }
            if instruction_map.contains(&ci) {
                continue;
            }
            // Save state for backtracking.
            let saved_qubit_map = qubit_map.clone();
            let saved_used = used_circuit_qubits.clone();
            let saved_bindings = param_bindings.clone();

            // Qubit consistency.
            for (op, &pq) in pattern_instr.qubits.iter().enumerate() {
                let cq = circuit_instr.qubits[op];
                match qubit_map[pq] {
                    Some(existing) if existing != cq => {
                        *qubit_map = saved_qubit_map;
                        *used_circuit_qubits = saved_used;
                        *param_bindings = saved_bindings;
                        continue 'candidates;
                    }
                    Some(_) => {}
                    None => {
                        if used_circuit_qubits.contains(&cq) {
                            *qubit_map = saved_qubit_map;
                            *used_circuit_qubits = saved_used;
                            *param_bindings = saved_bindings;
                            continue 'candidates;
                        }
                        qubit_map[pq] = Some(cq);
                        used_circuit_qubits.insert(cq);
                    }
                }
            }

            // Wire-order consistency: the circuit predecessor of this node
            // on each shared wire must be exactly the match of the pattern
            // predecessor (or a node outside the match when the pattern wire
            // starts here).
            for (op, pred) in self.pattern_preds[depth].iter().enumerate() {
                let circuit_pred = self.ctx.dag.preds(ci)[op];
                match pred {
                    Some(pattern_pred_idx) => {
                        let expected = instruction_map[*pattern_pred_idx];
                        // The pattern predecessor's operand position may
                        // differ; compare nodes only.
                        if circuit_pred != Some(expected) {
                            *qubit_map = saved_qubit_map;
                            *used_circuit_qubits = saved_used;
                            *param_bindings = saved_bindings;
                            continue 'candidates;
                        }
                    }
                    None => {
                        // The wire enters the pattern here: the circuit-side
                        // predecessor (if any) must not be a matched node,
                        // otherwise the matched gates would not be
                        // consecutive on the wire.
                        if let Some(cp) = circuit_pred {
                            if instruction_map.contains(&cp) {
                                *qubit_map = saved_qubit_map;
                                *used_circuit_qubits = saved_used;
                                *param_bindings = saved_bindings;
                                continue 'candidates;
                            }
                        }
                    }
                }
            }

            // Parameter binding.
            let mut ok = true;
            for (p_expr, c_expr) in pattern_instr.params.iter().zip(circuit_instr.params.iter()) {
                if !bind_params(p_expr, c_expr, param_bindings, self.ctx.dag.num_params()) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                *qubit_map = saved_qubit_map;
                *used_circuit_qubits = saved_used;
                *param_bindings = saved_bindings;
                continue 'candidates;
            }

            instruction_map.push(ci);
            self.extend(
                instruction_map,
                qubit_map,
                used_circuit_qubits,
                param_bindings,
                results,
            );
            instruction_map.pop();
            *qubit_map = saved_qubit_map;
            *used_circuit_qubits = saved_used;
            *param_bindings = saved_bindings;
        }
    }
}

/// Attempts to bind the pattern expression to the circuit expression,
/// updating `bindings`. Supports expressions with at most one unbound
/// parameter (which covers the paper's Σ: pᵢ, 2pᵢ, pᵢ+pⱼ).
fn bind_params(
    pattern_expr: &ParamExpr,
    circuit_expr: &ParamExpr,
    bindings: &mut [Option<ParamExpr>],
    circuit_num_params: usize,
) -> bool {
    // residual = circuit_expr − (const + Σ_bound k_i·binding_i)
    let mut residual = circuit_expr.sub(&ParamExpr::constant_pi4_with_params(
        pattern_expr.const_pi4(),
        circuit_num_params,
    ));
    let mut unbound: Vec<(usize, i32)> = Vec::new();
    for (i, &k) in pattern_expr.coeffs().iter().enumerate() {
        if k == 0 {
            continue;
        }
        match &bindings[i] {
            Some(b) => residual = residual.sub(&b.scale(k)),
            None => unbound.push((i, k)),
        }
    }
    match unbound.len() {
        0 => residual.is_zero(),
        1 => {
            let (idx, k) = unbound[0];
            match residual.div_exact(k) {
                Some(value) => {
                    bindings[idx] = Some(value);
                    true
                }
                None => false,
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xform::{canonicalize, instruction};
    use quartz_ir::{equivalent_up_to_phase, Gate};

    fn h(q: usize) -> Instruction {
        instruction(Gate::H, &[q])
    }

    fn hh_to_empty() -> Transformation {
        let mut hh = Circuit::new(1, 0);
        hh.push(h(0));
        hh.push(h(0));
        Transformation {
            target: hh,
            rewrite: Circuit::new(1, 0),
        }
    }

    #[test]
    fn match_two_adjacent_hadamards() {
        let mut c = Circuit::new(2, 0);
        c.push(h(0));
        c.push(h(0));
        c.push(h(1));
        let t = hh_to_empty();
        let matches = find_matches(&c, &t.target);
        assert_eq!(matches.len(), 1);
        let rewritten = apply_at(&c, &t, &matches[0]).unwrap();
        assert_eq!(rewritten.gate_count(), 1);
        assert!(equivalent_up_to_phase(&rewritten, &c, &[], 1e-10));
    }

    #[test]
    fn no_match_when_gate_in_between() {
        // H X H on the same qubit: the two H's are not adjacent on the wire.
        let mut c = Circuit::new(1, 0);
        c.push(h(0));
        c.push(instruction(Gate::X, &[0]));
        c.push(h(0));
        let t = hh_to_empty();
        assert!(find_matches(&c, &t.target).is_empty());
    }

    #[test]
    fn match_respects_qubit_injectivity() {
        // Pattern CNOT(0,1) CNOT(0,1) must not match CNOT(0,1) CNOT(0,2).
        let mut pattern = Circuit::new(2, 0);
        pattern.push(instruction(Gate::Cnot, &[0, 1]));
        pattern.push(instruction(Gate::Cnot, &[0, 1]));
        let mut c = Circuit::new(3, 0);
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::Cnot, &[0, 2]));
        assert!(find_matches(&c, &pattern).is_empty());
        let mut c2 = Circuit::new(3, 0);
        c2.push(instruction(Gate::Cnot, &[0, 1]));
        c2.push(instruction(Gate::Cnot, &[0, 1]));
        assert_eq!(find_matches(&c2, &pattern).len(), 1);
    }

    #[test]
    fn convexity_rejects_interleaved_dependencies() {
        // Pattern: CNOT(0,1); CNOT(0,1) — matching the outer pair in
        // CNOT(0,1); H(1); CNOT(0,1) is rejected: the H sits on a path
        // between them.
        let mut pattern = Circuit::new(2, 0);
        pattern.push(instruction(Gate::Cnot, &[0, 1]));
        pattern.push(instruction(Gate::Cnot, &[0, 1]));
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(h(1));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        assert!(find_matches(&c, &pattern).is_empty());
    }

    #[test]
    fn parametric_pattern_binds_concrete_angles() {
        // Pattern: Rz(p0) Rz(p1) → Rz(p0+p1). Circuit: Rz(π/4) Rz(π/2).
        let m = 2;
        let mut target = Circuit::new(1, m);
        target.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::var(0, m)],
        ));
        target.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::var(1, m)],
        ));
        let mut rewrite = Circuit::new(1, m);
        rewrite.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::sum_vars(0, 1, m)],
        ));
        let xform = Transformation { target, rewrite };

        let mut c = Circuit::new(1, 0);
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(1)],
        ));
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(2)],
        ));
        let outs = apply_all(&c, &xform);
        assert!(!outs.is_empty());
        let merged = &outs[0];
        assert_eq!(merged.gate_count(), 1);
        assert_eq!(merged.instructions()[0].params[0].const_pi4(), 3);
    }

    #[test]
    fn pattern_with_scaled_parameter_requires_divisibility() {
        // Pattern Rz(2·p0) only matches even multiples of π/4.
        let m = 1;
        let mut target = Circuit::new(1, m);
        target.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::scaled_var(0, 2, m)],
        ));
        let rewrite = target.clone();
        let xform = Transformation { target, rewrite };
        let mut even = Circuit::new(1, 0);
        even.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(2)],
        ));
        assert_eq!(find_matches(&even, &xform.target).len(), 1);
        let mut odd = Circuit::new(1, 0);
        odd.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(1)],
        ));
        assert!(find_matches(&odd, &xform.target).is_empty());
    }

    #[test]
    fn apply_preserves_semantics_on_cnot_flip() {
        // Transformation from Figure 3c: H H on both qubits around a CNOT
        // flips its direction.
        let mut target = Circuit::new(2, 0);
        target.push(h(0));
        target.push(h(1));
        target.push(instruction(Gate::Cnot, &[0, 1]));
        target.push(h(0));
        target.push(h(1));
        let mut rewrite = Circuit::new(2, 0);
        rewrite.push(instruction(Gate::Cnot, &[1, 0]));
        let xform = Transformation { target, rewrite };

        let mut c = Circuit::new(3, 0);
        c.push(instruction(Gate::X, &[2]));
        c.push(h(0));
        c.push(h(1));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(h(0));
        c.push(h(1));
        c.push(instruction(Gate::T, &[2]));

        let outs = apply_all(&c, &xform);
        assert_eq!(outs.len(), 1);
        let out = &outs[0];
        assert_eq!(out.gate_count(), 3);
        assert!(equivalent_up_to_phase(out, &c, &[], 1e-10));
    }

    #[test]
    fn matches_middle_of_larger_circuit_preserving_order() {
        let t = hh_to_empty();
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::T, &[0]));
        c.push(h(0));
        c.push(h(0));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        let outs = apply_all(&c, &t);
        assert_eq!(outs.len(), 1);
        assert!(equivalent_up_to_phase(&outs[0], &c, &[], 1e-10));
        assert_eq!(outs[0].gate_count(), 2);
    }

    /// A derived context must behave exactly like a context rebuilt from the
    /// rewritten circuit: same DAG invariants, same matches, same rewrites.
    #[test]
    fn derived_context_equals_rebuilt_context() {
        let t = hh_to_empty();
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::T, &[0]));
        c.push(h(0));
        c.push(h(0));
        c.push(h(1));
        c.push(h(1));
        c.push(instruction(Gate::Cnot, &[0, 1]));

        let ctx = MatchContext::new(&c);
        let matches = ctx.find_matches(&t.target);
        assert_eq!(matches.len(), 2);
        for m in &matches {
            let delta = ctx.delta_for(&t, m).unwrap();
            let child_seq = ctx.apply_delta(&delta);
            let derived = ctx.derive(&delta);
            derived.dag().validate().unwrap();

            // The derived DAG and the applied sequence are the same circuit.
            assert_eq!(
                canonicalize(&derived.to_circuit()),
                canonicalize(&child_seq)
            );

            // Same match sets (compared through the rewrites they induce).
            let rebuilt = MatchContext::new(&child_seq);
            let mut from_derived: Vec<Circuit> =
                derived.apply_all(&t).iter().map(canonicalize).collect();
            let mut from_rebuilt: Vec<Circuit> =
                rebuilt.apply_all(&t).iter().map(canonicalize).collect();
            from_derived.sort_by(|a, b| a.precedence_cmp(b));
            from_rebuilt.sort_by(|a, b| a.precedence_cmp(b));
            assert_eq!(from_derived, from_rebuilt);
        }
    }

    /// Deriving through a chain of rewrites keeps the context consistent
    /// even as node slots are freed and reused.
    #[test]
    fn derivation_chain_reuses_slots_consistently() {
        let t = hh_to_empty();
        let mut c = Circuit::new(1, 0);
        for _ in 0..6 {
            c.push(h(0));
        }
        let mut ctx = MatchContext::new(&c);
        for expected_len in [4, 2, 0] {
            let m = ctx.find_matches(&t.target).into_iter().next().unwrap();
            let delta = ctx.delta_for(&t, &m).unwrap();
            ctx = ctx.derive(&delta);
            ctx.dag().validate().unwrap();
            assert_eq!(ctx.dag().gate_count(), expected_len);
        }
        assert!(ctx.find_matches(&t.target).is_empty());
    }
}
