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
//! There is one matcher: a backtracking walk of a [`MatchAutomaton`], the
//! prefix tree of a whole library's target patterns under canonical labels
//! (DESIGN.md §2.6). [`MatchContext::for_each_match`] walks it once for
//! every dispatched rule, binding an instruction prefix that several rules
//! share — up to a renaming of qubits and parameters — once for all of
//! them, skipping subtrees that hold no dispatched rule, and streaming
//! `(rule id, match)` to a callback. The walk binds canonical labels and
//! relabels each emitted match through the rule's
//! [`quartz_gen::RuleLabels`], so the callback sees it in the rule's own
//! labels. [`MatchContext::find_matches`] is the same walk over a
//! one-pattern automaton.
//!
//! Applying a match yields a [`SpliceDelta`]: the matched region plus the
//! instantiated rewrite instructions. [`MatchContext::delta_into`] builds
//! it into a reused [`DeltaScratch`], which is what the search does per
//! match; [`MatchContext::delta_for`] returns an owned one. The delta can
//! be turned into a rewritten sequence without mutating anything
//! ([`MatchContext::apply_delta`]), or spliced into a clone of the DAG to
//! *derive* the child circuit's matching state from its parent's in time
//! proportional to the rewrite footprint ([`MatchContext::derive`]) — the
//! incremental path the search layer rides (DESIGN.md §5).

use quartz_gen::{AutomatonNode, MatchAutomaton, Transformation};
use quartz_ir::{
    Circuit, CircuitDag, ConvexityScratch, EpochSet, Gate, Instruction, NodeId, ParamExpr,
    SpliceDelta, SpliceFootprint,
};

/// A successful match of a pattern against a circuit.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Matching state for one circuit, reusable across patterns and derivable
/// across rewrites.
///
/// The context owns the circuit's [`CircuitDag`] (wire adjacency comes
/// straight from the graph) plus a gate-type → node-id table. The walk
/// *anchors* each pattern instruction: one that starts all of its pattern
/// wires only tries nodes of the same gate type (instead of scanning the
/// whole circuit), and any other only tries the one wire successor of its
/// pattern predecessor's match. The indexed dispatch layer (DESIGN.md §2.2)
/// names the rules to walk for.
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

    /// Finds every match of `pattern` inside the circuit: the library-wide
    /// walk of [`MatchContext::for_each_match`] over a one-pattern
    /// automaton.
    pub fn find_matches(&self, pattern: &Circuit) -> Vec<Match> {
        let automaton = MatchAutomaton::new([pattern]);
        let mut matches = Vec::new();
        self.for_each_match(&automaton, &[0], &mut MatchScratch::new(), |_, m| {
            matches.push(m.clone())
        });
        matches
    }

    /// Streams every match of every rule in `rules` (ids into `automaton`)
    /// to `emit` as `(rule id, match)`, in one walk over the automaton.
    ///
    /// An instruction prefix shared by several dispatched rules is bound
    /// once for all of them; subtrees holding no rule of `rules` are never
    /// entered, and a rule outside `rules` is never emitted. Each match
    /// equals one that [`MatchContext::find_matches`] returns for the rule's
    /// target; the order of the stream is unspecified.
    pub fn for_each_match(
        &self,
        automaton: &MatchAutomaton,
        rules: &[usize],
        scratch: &mut MatchScratch,
        emit: impl FnMut(usize, &Match),
    ) {
        scratch.begin(automaton, rules);
        Walk {
            ctx: self,
            automaton,
            scratch,
            emit,
        }
        .descend(automaton.roots());
    }

    /// Instantiates the transformation's rewrite at a match, producing the
    /// splice plan, or `None` when the rewrite cannot be instantiated (for
    /// example because it uses a parameter the target never bound). The
    /// owned form of [`MatchContext::delta_into`].
    pub fn delta_for(&self, xform: &Transformation, m: &Match) -> Option<SpliceDelta> {
        let mut scratch = DeltaScratch::new();
        self.delta_into(xform, m, &mut scratch)
            .then_some(scratch.delta)
    }

    /// Instantiates the transformation's rewrite at a match into
    /// `scratch`'s reused [`SpliceDelta`], returning `false` when the
    /// rewrite cannot be instantiated (the delta is then unspecified). The
    /// search's per-match path: once `scratch` is warm, this allocates
    /// nothing for a circuit without symbolic parameters.
    pub fn delta_into(
        &self,
        xform: &Transformation,
        m: &Match,
        scratch: &mut DeltaScratch,
    ) -> bool {
        let DeltaScratch { delta, spare } = scratch;
        delta.region.clear();
        delta.region.extend_from_slice(&m.instruction_map);
        spare.append(&mut delta.replacement);
        for instr in xform.rewrite.instructions() {
            let mut out = spare.pop().unwrap_or_else(|| Instruction {
                gate: instr.gate,
                qubits: Vec::new(),
                params: Vec::new(),
            });
            if instantiate_instruction(instr, m, self.dag.num_params(), &mut out).is_none() {
                spare.push(out);
                return false;
            }
            delta.replacement.push(out);
        }
        true
    }

    /// Emits the rewritten circuit a delta describes, without mutating the
    /// context: unmatched non-descendants of the region in their current
    /// order, then the replacement, then unmatched descendants (the
    /// splicing invariant of DESIGN.md §2.4 — convexity of the matched
    /// region guarantees this is a topological order of the new DAG).
    pub fn apply_delta(&self, delta: &SpliceDelta) -> Circuit {
        let descendants = self.dag.descendants(&delta.region);
        let mut out = Circuit::new(self.dag.num_qubits(), self.dag.num_params());
        for (id, instr) in self.dag.nodes() {
            if !delta.region.contains(&id) && !descendants.contains(&id) {
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

/// Overwrites `out` with the rewrite instruction `instr` instantiated at
/// match `m`, reusing `out`'s operand buffers; `None` when `instr` uses a
/// qubit or parameter `m` did not bind.
fn instantiate_instruction(
    instr: &Instruction,
    m: &Match,
    circuit_num_params: usize,
    out: &mut Instruction,
) -> Option<()> {
    out.gate = instr.gate;
    out.qubits.clear();
    for &q in &instr.qubits {
        out.qubits.push(m.qubit_map.get(q).copied().flatten()?);
    }
    out.params.clear();
    for p in &instr.params {
        out.params
            .push(instantiate(p, &m.param_bindings, circuit_num_params)?);
    }
    Some(())
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

/// Reusable state for [`MatchContext::for_each_match`], one per thread:
/// the epoch-stamped mask of dispatched rules and of the automaton nodes on
/// their root paths, the partial match the walk binds in place (in the
/// automaton's canonical labels), the match it reports to the callback (in
/// the rule's own labels), and the convexity check's visited buffer. Any
/// scratch works with any automaton and context; the walk allocates nothing
/// once it is warm.
#[derive(Debug, Default)]
pub struct MatchScratch {
    live_nodes: EpochSet,
    live_rules: EpochSet,
    partial: Match,
    emitted: Match,
    convexity: ConvexityScratch,
}

impl MatchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Starts a walk: marks the dispatched `rules` and every node on the
    /// path from each one's terminal to the root, so the walk skips every
    /// subtree that holds no dispatched rule, and empties the partial match.
    fn begin(&mut self, automaton: &MatchAutomaton, rules: &[usize]) {
        self.live_nodes.reset(automaton.num_nodes());
        self.live_rules.reset(automaton.num_rules());
        for &rule in rules {
            self.live_rules.insert(rule);
            let mut at = automaton.terminal(rule);
            while let Some(node) = at {
                if !self.live_nodes.insert(node) {
                    break;
                }
                at = automaton.node(node).parent();
            }
        }
        let (num_qubits, num_params) = automaton.max_shape();
        let partial = &mut self.partial;
        partial.instruction_map.clear();
        partial.qubit_map.clear();
        partial.qubit_map.resize(num_qubits, None);
        partial.param_bindings.clear();
        partial.param_bindings.resize(num_params, None);
    }
}

/// A reusable [`SpliceDelta`] for [`MatchContext::delta_into`], one per
/// thread. Replacement instructions the current delta does not need are
/// kept, with their operand buffers, for the next one.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    delta: SpliceDelta,
    spare: Vec<Instruction>,
}

impl DeltaScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DeltaScratch::default()
    }

    /// The delta the last successful [`MatchContext::delta_into`] built.
    pub fn delta(&self) -> &SpliceDelta {
        &self.delta
    }
}

/// One library-wide walk: a depth-first descent of the automaton in which
/// each node extends the partial match by one bound circuit gate. Each
/// candidate binds into the scratch's partial match and records what it
/// bound in a [`Trail`], and backtracking unbinds exactly that.
struct Walk<'a, F> {
    ctx: &'a MatchContext,
    automaton: &'a MatchAutomaton,
    scratch: &'a mut MatchScratch,
    emit: F,
}

/// Upper bound on gate arity (the largest gates, CCX and CCZ, have 3
/// operands).
const MAX_ARITY: usize = 4;

/// Upper bound on a gate's parameter count (U3 has 3).
const MAX_PARAMS: usize = 3;

/// What one candidate bound: each operand binds at most one pattern qubit
/// and each angle at most one parameter, so fixed arrays suffice.
#[derive(Default)]
struct Trail {
    qubits: [usize; MAX_ARITY],
    num_qubits: usize,
    params: [usize; MAX_PARAMS],
    num_params: usize,
}

impl<'a, F: FnMut(usize, &Match)> Walk<'a, F> {
    /// Tries every live node in `nodes` against its candidate circuit
    /// gates. A node anchored on a wire edge has exactly one candidate: the
    /// circuit successor, on that wire, of its pattern predecessor's match.
    /// A node that starts all of its wires tries every gate of its type.
    fn descend(&mut self, nodes: &'a [usize]) {
        let ctx: &'a MatchContext = self.ctx;
        for &id in nodes {
            if !self.scratch.live_nodes.contains(id) {
                continue;
            }
            let node = self.automaton.node(id);
            match node.anchor() {
                Some((depth, op)) => {
                    let pred = self.scratch.partial.instruction_map[depth];
                    if let Some(ci) = ctx.dag.succs(pred)[op] {
                        self.extend(node, ci);
                    }
                }
                None => {
                    for &ci in &ctx.by_gate[node.instruction().gate.index()] {
                        self.extend(node, ci);
                    }
                }
            }
        }
    }

    /// Binds `ci` as the match of `node`; on success emits the rules ending
    /// at `node` and descends into its children, then unbinds.
    fn extend(&mut self, node: &'a AutomatonNode, ci: NodeId) {
        let mut trail = Trail::default();
        if self.bind(node, ci, &mut trail) {
            self.scratch.partial.instruction_map.push(ci);
            if !node.rules().is_empty() {
                self.emit_rules(node);
            }
            self.descend(node.children());
            self.scratch.partial.instruction_map.pop();
        }
        let partial = &mut self.scratch.partial;
        for &pq in &trail.qubits[..trail.num_qubits] {
            partial.qubit_map[pq] = None;
        }
        for &p in &trail.params[..trail.num_params] {
            partial.param_bindings[p] = None;
        }
    }

    /// Emits the complete match to every dispatched rule ending at `node`,
    /// after one convexity check shared by all of them. The walk binds
    /// canonical labels; each rule sees the match relabeled through its
    /// [`quartz_gen::RuleLabels`], with its own qubit and parameter map
    /// widths. The bindings are moved into the emitted match and back, so
    /// relabeling allocates nothing.
    fn emit_rules(&mut self, node: &AutomatonNode) {
        let mut convex = None;
        for &rule in node.rules() {
            let scratch = &mut *self.scratch;
            if !scratch.live_rules.contains(rule) {
                continue;
            }
            let convex = *convex.get_or_insert_with(|| {
                self.ctx
                    .dag
                    .is_convex_with(&scratch.partial.instruction_map, &mut scratch.convexity)
            });
            if !convex {
                return;
            }
            let labels = self.automaton.rule_labels(rule);
            let (partial, emitted) = (&mut scratch.partial, &mut scratch.emitted);
            emitted.qubit_map.clear();
            emitted.qubit_map.extend(
                labels
                    .qubits
                    .iter()
                    .map(|label| label.and_then(|c| partial.qubit_map[c])),
            );
            emitted.param_bindings.clear();
            emitted.param_bindings.extend(
                labels
                    .params
                    .iter()
                    .map(|label| label.and_then(|c| partial.param_bindings[c].take())),
            );
            std::mem::swap(&mut emitted.instruction_map, &mut partial.instruction_map);
            (self.emit)(rule, emitted);
            std::mem::swap(&mut emitted.instruction_map, &mut partial.instruction_map);
            for (label, bound) in labels.params.iter().zip(&mut emitted.param_bindings) {
                if let Some(c) = *label {
                    partial.param_bindings[c] = bound.take();
                }
            }
        }
    }

    /// Checks node `ci` as the match of the pattern instruction at `node`,
    /// binding its new pattern qubits and parameters in place and recording
    /// them in `trail`. Returns `false` at the first failed check; the
    /// caller unbinds `trail` either way.
    fn bind(&mut self, node: &AutomatonNode, ci: NodeId, trail: &mut Trail) -> bool {
        let (dag, pattern_instr) = (&self.ctx.dag, node.instruction());
        let partial = &mut self.scratch.partial;
        let circuit_instr = dag.instruction(ci);
        if circuit_instr.gate != pattern_instr.gate || partial.instruction_map.contains(&ci) {
            return false;
        }
        // Wire order: on each wire the circuit predecessor must be the match
        // of the pattern predecessor (operand positions may differ, so nodes
        // are compared), or, where the pattern wire starts here, not a
        // matched node — otherwise the matched gates would not be
        // consecutive on the wire.
        for (op, pred) in node.wire_preds().iter().enumerate() {
            let circuit_pred = dag.preds(ci)[op];
            let in_order = match pred {
                Some(p) => circuit_pred == Some(partial.instruction_map[*p]),
                None => circuit_pred.is_none_or(|cp| !partial.instruction_map.contains(&cp)),
            };
            if !in_order {
                return false;
            }
        }
        // Qubits: consistent with earlier bindings and injective, checked by
        // a scan of the (≤ q-entry) qubit map.
        for (&pq, &cq) in pattern_instr.qubits.iter().zip(&circuit_instr.qubits) {
            match partial.qubit_map[pq] {
                Some(existing) if existing != cq => return false,
                Some(_) => {}
                None if partial.qubit_map.contains(&Some(cq)) => return false,
                None => {
                    partial.qubit_map[pq] = Some(cq);
                    trail.qubits[trail.num_qubits] = pq;
                    trail.num_qubits += 1;
                }
            }
        }
        for (p_expr, c_expr) in pattern_instr.params.iter().zip(&circuit_instr.params) {
            match bind_params(
                p_expr,
                c_expr,
                &mut partial.param_bindings,
                dag.num_params(),
            ) {
                None => return false,
                Some(None) => {}
                Some(Some(bound)) => {
                    trail.params[trail.num_params] = bound;
                    trail.num_params += 1;
                }
            }
        }
        true
    }
}

/// Matches the pattern expression against the circuit expression under
/// `bindings`. Supports expressions with at most one unbound parameter
/// (which covers the paper's Σ: pᵢ, 2pᵢ, pᵢ+pⱼ), binding it in place.
/// Returns `None` on a mismatch, otherwise the index it bound, if any.
fn bind_params(
    pattern_expr: &ParamExpr,
    circuit_expr: &ParamExpr,
    bindings: &mut [Option<ParamExpr>],
    circuit_num_params: usize,
) -> Option<Option<usize>> {
    // residual = circuit_expr − (const + Σ_bound k_i·binding_i)
    let mut residual = circuit_expr.sub(&ParamExpr::constant_pi4_with_params(
        pattern_expr.const_pi4(),
        circuit_num_params,
    ));
    let mut unbound = None;
    for (i, &k) in pattern_expr.coeffs().iter().enumerate() {
        if k == 0 {
            continue;
        }
        match &bindings[i] {
            Some(b) => residual = residual.sub(&b.scale(k)),
            None if unbound.is_none() => unbound = Some((i, k)),
            None => return None,
        }
    }
    match unbound {
        None => residual.is_zero().then_some(None),
        Some((i, k)) => {
            bindings[i] = Some(residual.div_exact(k)?);
            Some(Some(i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{canonicalize, equivalent_up_to_phase, Gate};

    fn instruction(gate: Gate, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec(), vec![])
    }

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
        let ctx = MatchContext::new(&c);
        let matches = ctx.find_matches(&t.target);
        assert_eq!(matches.len(), 1);
        let rewritten = ctx.apply_delta(&ctx.delta_for(&t, &matches[0]).unwrap());
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
        assert!(MatchContext::new(&c).find_matches(&t.target).is_empty());
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
        assert!(MatchContext::new(&c).find_matches(&pattern).is_empty());
        let mut c2 = Circuit::new(3, 0);
        c2.push(instruction(Gate::Cnot, &[0, 1]));
        c2.push(instruction(Gate::Cnot, &[0, 1]));
        assert_eq!(MatchContext::new(&c2).find_matches(&pattern).len(), 1);
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
        assert!(MatchContext::new(&c).find_matches(&pattern).is_empty());
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
        let outs = MatchContext::new(&c).apply_all(&xform);
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
        assert_eq!(
            MatchContext::new(&even).find_matches(&xform.target).len(),
            1
        );
        let mut odd = Circuit::new(1, 0);
        odd.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(1)],
        ));
        assert!(MatchContext::new(&odd)
            .find_matches(&xform.target)
            .is_empty());
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

        let outs = MatchContext::new(&c).apply_all(&xform);
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
        let outs = MatchContext::new(&c).apply_all(&t);
        assert_eq!(outs.len(), 1);
        assert!(equivalent_up_to_phase(&outs[0], &c, &[], 1e-10));
        assert_eq!(outs[0].gate_count(), 2);
    }

    /// Backtracking must unbind what a failed candidate bound. The first Rz
    /// binds pattern qubit 0 to wire 0 and p0 to π/4, then fails one level
    /// deeper (no H follows it); the second Rz matches only if both
    /// bindings were undone.
    #[test]
    fn failed_candidate_unbinds_its_qubit_and_parameter() {
        let m = 1;
        let mut pattern = Circuit::new(1, m);
        pattern.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::var(0, m)],
        ));
        pattern.push(h(0));
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(1)],
        ));
        c.push(Instruction::new(
            Gate::Rz,
            vec![1],
            vec![ParamExpr::constant_pi4(2)],
        ));
        c.push(h(1));
        let matches = MatchContext::new(&c).find_matches(&pattern);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].qubit_map, vec![Some(1)]);
        assert_eq!(
            matches[0].param_bindings,
            vec![Some(ParamExpr::constant_pi4(2))]
        );
    }

    #[test]
    fn trail_bounds_cover_every_gate() {
        for gate in quartz_ir::ALL_GATES {
            assert!(gate.num_qubits() <= MAX_ARITY, "{gate:?} arity");
            assert!(gate.num_params() <= MAX_PARAMS, "{gate:?} parameters");
        }
    }

    /// `n` Hadamards on one wire.
    fn hs(n: usize) -> Circuit {
        let mut c = Circuit::new(1, 0);
        for _ in 0..n {
            c.push(h(0));
        }
        c
    }

    /// The context's nodes at sequence positions `positions`.
    fn nodes(ctx: &MatchContext, positions: &[usize]) -> Vec<NodeId> {
        positions
            .iter()
            .map(|&i| ctx.dag().topo_order()[i])
            .collect()
    }

    /// The regions of every match the library walk emits over `rules`,
    /// grouped by rule id, each group sorted.
    fn walk(ctx: &MatchContext, automaton: &MatchAutomaton, rules: &[usize]) -> Vec<Vec<Match>> {
        let mut out = vec![Vec::new(); automaton.num_rules()];
        ctx.for_each_match(automaton, rules, &mut MatchScratch::new(), |rule, m| {
            out[rule].push(m.clone())
        });
        for matches in &mut out {
            matches.sort_by(|a: &Match, b: &Match| a.instruction_map.cmp(&b.instruction_map));
        }
        out
    }

    fn regions(matches: &[Match]) -> Vec<Vec<NodeId>> {
        matches.iter().map(|m| m.instruction_map.clone()).collect()
    }

    #[test]
    fn a_target_that_prefixes_another_ends_at_an_interior_node() {
        let automaton = MatchAutomaton::new([&hs(3), &hs(2)]);
        let ctx = MatchContext::new(&hs(3));
        let got = walk(&ctx, &automaton, &[0, 1]);
        assert_eq!(regions(&got[0]), vec![nodes(&ctx, &[0, 1, 2])]);
        assert_eq!(
            regions(&got[1]),
            vec![nodes(&ctx, &[0, 1]), nodes(&ctx, &[1, 2])]
        );
    }

    #[test]
    fn identical_targets_both_get_every_match() {
        let automaton = MatchAutomaton::new([&hs(2), &hs(2)]);
        let ctx = MatchContext::new(&hs(3));
        let got = walk(&ctx, &automaton, &[0, 1]);
        assert_eq!(
            regions(&got[0]),
            vec![nodes(&ctx, &[0, 1]), nodes(&ctx, &[1, 2])]
        );
        assert_eq!(got[0], got[1]);
    }

    #[test]
    fn an_undispatched_rule_on_a_dispatched_path_is_not_emitted() {
        let hhx = hs(2).appended(instruction(Gate::X, &[0]));
        let automaton = MatchAutomaton::new([&hs(2), &hhx]);
        let ctx = MatchContext::new(&hhx);
        // H H ends inside H H X's path, but only H H X is dispatched.
        let got = walk(&ctx, &automaton, &[1]);
        assert!(got[0].is_empty());
        assert_eq!(regions(&got[1]), vec![nodes(&ctx, &[0, 1, 2])]);
        // And the other way round: H H X's subtree is not entered.
        let got = walk(&ctx, &automaton, &[0]);
        assert_eq!(regions(&got[0]), vec![nodes(&ctx, &[0, 1])]);
        assert!(got[1].is_empty());
        assert!(walk(&ctx, &automaton, &[]).iter().all(Vec::is_empty));
    }

    #[test]
    fn a_target_longer_than_the_circuit_never_matches() {
        let automaton = MatchAutomaton::new([&hs(3), &hs(2)]);
        let ctx = MatchContext::new(&hs(2));
        let got = walk(&ctx, &automaton, &[0, 1]);
        assert!(got[0].is_empty());
        assert_eq!(regions(&got[1]), vec![nodes(&ctx, &[0, 1])]);
        assert!(ctx.find_matches(&hs(3)).is_empty());
        assert!(ctx.find_matches(&Circuit::new(1, 0)).is_empty());
    }

    /// Rules of different widths share a prefix; each sees its own qubit
    /// and parameter map widths, exactly as `find_matches` reports them.
    #[test]
    fn find_matches_equals_the_walk_restricted_to_one_rule() {
        let rz = |q: usize, p: ParamExpr| Instruction::new(Gate::Rz, vec![q], vec![p]);
        let mut narrow = Circuit::new(1, 1);
        narrow.push(rz(0, ParamExpr::var(0, 1)));
        narrow.push(h(0));
        let mut wide = Circuit::new(2, 2);
        wide.push(rz(0, ParamExpr::var(0, 2)));
        wide.push(h(0));
        wide.push(instruction(Gate::Cnot, &[0, 1]));
        let mut wide_same_prefix = Circuit::new(2, 1);
        wide_same_prefix.push(rz(0, ParamExpr::var(0, 1)));
        wide_same_prefix.push(h(0));
        wide_same_prefix.push(instruction(Gate::Cnot, &[1, 0]));
        let rules = [&narrow, &wide, &wide_same_prefix];
        let automaton = MatchAutomaton::new(rules);

        let mut c = Circuit::new(3, 0);
        c.push(rz(2, ParamExpr::constant_pi4(1)));
        c.push(h(2));
        c.push(instruction(Gate::Cnot, &[2, 0]));
        c.push(rz(1, ParamExpr::constant_pi4(3)));
        c.push(h(1));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        let ctx = MatchContext::new(&c);
        let got = walk(&ctx, &automaton, &[0, 1, 2]);
        for (rule, pattern) in rules.iter().enumerate() {
            let mut single = ctx.find_matches(pattern);
            single.sort_by(|a, b| a.instruction_map.cmp(&b.instruction_map));
            assert_eq!(got[rule], single, "rule {rule}");
        }
        assert_eq!(got[0].len(), 2);
        assert_eq!(got[0][0].qubit_map, vec![Some(2)]);
        assert_eq!(
            got[0][0].param_bindings,
            vec![Some(ParamExpr::constant_pi4(1))]
        );
        assert_eq!(got[1].len(), 1);
        assert_eq!(got[1][0].qubit_map, vec![Some(2), Some(0)]);
        assert_eq!(got[1][0].param_bindings.len(), 2);
        assert_eq!(got[2].len(), 1);
        assert_eq!(got[2][0].qubit_map, vec![Some(1), Some(0)]);
    }

    /// A rule whose target starts on q1 with p1 is compiled under canonical
    /// labels (q1 and p1 become label 0), sharing every node with a rule on
    /// q0 and p0, yet it is reported in its own labels: its qubit map and
    /// bindings have the rule's widths and positions, so its rewrite
    /// instantiates exactly as the oracle's `Apply(C, T)` does.
    #[test]
    fn a_rule_starting_on_q1_with_p1_is_emitted_in_its_own_labels() {
        let rz =
            |q: usize, p: usize| Instruction::new(Gate::Rz, vec![q], vec![ParamExpr::var(p, 2)]);
        let mut plain = Circuit::new(2, 2);
        plain.push(rz(0, 0));
        plain.push(instruction(Gate::Cnot, &[0, 1]));
        plain.push(rz(1, 1));
        let mut target = Circuit::new(2, 2);
        target.push(rz(1, 1));
        target.push(instruction(Gate::Cnot, &[1, 0]));
        target.push(rz(0, 0));
        // Rz on the control commutes through the CNOT.
        let mut rewrite = Circuit::new(2, 2);
        rewrite.push(instruction(Gate::Cnot, &[1, 0]));
        rewrite.push(rz(1, 1));
        rewrite.push(rz(0, 0));
        let xform = Transformation { target, rewrite };
        let automaton = MatchAutomaton::new([&plain, &xform.target]);
        assert_eq!(automaton.num_nodes(), 3);
        assert_eq!(automaton.terminal(0), automaton.terminal(1));

        let angle = |quarters: i32| {
            Instruction::new(Gate::Rz, vec![2], vec![ParamExpr::constant_pi4(quarters)])
        };
        let mut c = Circuit::new(3, 0);
        c.push(h(1));
        c.push(angle(1));
        c.push(instruction(Gate::Cnot, &[2, 0]));
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(2)],
        ));
        let ctx = MatchContext::new(&c);
        let got = walk(&ctx, &automaton, &[0, 1]);
        assert_eq!(got[0].len(), 1);
        assert_eq!(got[0][0].qubit_map, vec![Some(2), Some(0)]);
        assert_eq!(
            got[0][0].param_bindings,
            vec![
                Some(ParamExpr::constant_pi4(1)),
                Some(ParamExpr::constant_pi4(2))
            ]
        );
        assert_eq!(got[1].len(), 1);
        assert_eq!(got[1][0].instruction_map, got[0][0].instruction_map);
        assert_eq!(got[1][0].qubit_map, vec![Some(0), Some(2)]);
        assert_eq!(
            got[1][0].param_bindings,
            vec![
                Some(ParamExpr::constant_pi4(2)),
                Some(ParamExpr::constant_pi4(1))
            ]
        );
        assert_eq!(ctx.find_matches(&xform.target), got[1]);

        let rewritten: Vec<Circuit> = got[1]
            .iter()
            .map(|m| canonicalize(&ctx.apply_delta(&ctx.delta_for(&xform, m).unwrap())))
            .collect();
        let reference: Vec<Circuit> = crate::oracle::apply(&c, &xform)
            .iter()
            .map(canonicalize)
            .collect();
        assert_eq!(rewritten, reference);
        assert!(equivalent_up_to_phase(&rewritten[0], &c, &[], 1e-10));
    }

    /// A qubit or parameter the target never uses stays unbound in the
    /// reported match, at the rule's own position.
    #[test]
    fn unused_qubits_and_parameters_are_reported_unbound() {
        let mut target = Circuit::new(3, 2);
        target.push(Instruction::new(
            Gate::Rz,
            vec![2],
            vec![ParamExpr::var(1, 2)],
        ));
        let mut c = Circuit::new(1, 0);
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(3)],
        ));
        let matches = MatchContext::new(&c).find_matches(&target);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].qubit_map, vec![None, None, Some(0)]);
        assert_eq!(
            matches[0].param_bindings,
            vec![None, Some(ParamExpr::constant_pi4(3))]
        );
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
