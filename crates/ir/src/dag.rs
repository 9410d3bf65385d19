//! The graph representation of circuits (paper §3.1, Figure 5): a DAG whose
//! nodes are gate instances and whose edges are qubit wires.
//!
//! The sequence form ([`Circuit`]) is what RepGen enumerates and what the
//! seen-set fingerprints; the DAG form is what the optimizer *rewrites*. A
//! [`CircuitDag`] gives every gate instance a stable [`NodeId`] (slab-style,
//! with a free list so ids survive unrelated rewrites) and supports in-place
//! [`CircuitDag::splice`]: replacing a convex region with new instructions by
//! rewiring its boundary, in time proportional to the rewrite footprint
//! rather than the circuit size. `quartz-opt`'s `MatchContext` derives a
//! child circuit's matching state from its parent's through exactly this
//! operation (DESIGN.md §5).
//!
//! Conversion is lossless: [`CircuitDag::from_circuit`] followed by
//! [`CircuitDag::to_circuit`] reproduces the sequence bit-for-bit (same
//! instruction order, same [`Circuit::fingerprint`], same
//! [`GateHistogram`]) because the DAG caches a topological order seeded with
//! the original sequence and maintained across splices.
//!
//! The DAG also carries the wire-hash caches behind
//! [`crate::StructuralHash`]'s O(footprint) previews (DESIGN.md §13): a
//! polynomial chain hash and instruction count per wire
//! ([`CircuitDag::wire_chain`] / [`CircuitDag::wire_len`]) and a
//! `(position, prefix)` cursor per node per operand wire
//! ([`CircuitDag::wire_cursor`]), built by [`CircuitDag::from_circuit`] and
//! maintained through [`CircuitDag::splice_with_footprint`].

use crate::circuit::{Circuit, Instruction};
use crate::gate::GateHistogram;
use crate::shash;
use std::collections::HashSet;
use std::fmt;

/// Stable identifier of a gate instance inside a [`CircuitDag`].
///
/// Ids are slab indices: they are never renumbered by splices elsewhere in
/// the circuit, and the slot of a removed node may be reused by a later
/// insertion. An id is only meaningful relative to the DAG (or clone
/// lineage) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The raw slab index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A planned rewrite of a [`CircuitDag`]: remove the (convex, per-wire
/// contiguous) `region` and splice `replacement` into its place.
///
/// The replacement instructions are fully instantiated — their qubit
/// operands are circuit qubits (a subset of the wires the region touches)
/// and their parameters are circuit-side expressions. `quartz-opt`'s
/// `MatchContext::delta_for` builds deltas from pattern matches; the delta is
/// also the unit the search layer threads from parent to child frontier
/// entries so contexts can be derived instead of rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub struct SpliceDelta {
    /// Nodes to remove. Must be non-empty, live, convex, and contiguous on
    /// every wire they touch.
    pub region: Vec<NodeId>,
    /// Instantiated instructions to insert, in execution order, using only
    /// wires touched by `region`.
    pub replacement: Vec<Instruction>,
}

/// The footprint of one applied [`SpliceDelta`]: every node whose local
/// matching state (instruction, wire predecessors, or wire successors)
/// changed when the splice was performed.
///
/// Consumers that cache per-node derived data invalidate exactly this set:
/// anything outside it kept its instruction *and* its wire adjacency
/// bit-for-bit, so locally-checkable facts about it are still true in the
/// spliced DAG.
#[derive(Debug, Clone, Default)]
pub struct SpliceFootprint {
    /// The removed region's node ids. Dead in the spliced DAG — but their
    /// slots may have been reused by `inserted` nodes, so stale references
    /// to them must be dropped, not just ignored.
    pub removed: Vec<NodeId>,
    /// Ids of the replacement nodes, in replacement order (what
    /// [`CircuitDag::splice`] returns).
    pub inserted: Vec<NodeId>,
    /// Live nodes *outside* the region whose wire adjacency was rewired:
    /// the entry predecessor and exit successor of the region on each
    /// touched wire. Deduplicated, in ascending id order.
    pub boundary: Vec<NodeId>,
}

impl SpliceFootprint {
    /// The live nodes of the footprint (inserted ∪ boundary), deduplicated:
    /// every node of the spliced DAG whose local state differs from the
    /// pre-splice DAG. New locally-checkable facts can only involve these.
    pub fn live_dirty(&self) -> Vec<NodeId> {
        let mut out = self.inserted.clone();
        for &id in &self.boundary {
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    /// Total number of distinct nodes in the footprint (removed slots that
    /// were reused by an insertion count once).
    pub fn len(&self) -> usize {
        let mut all: Vec<NodeId> = self
            .removed
            .iter()
            .chain(&self.inserted)
            .chain(&self.boundary)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// Returns `true` when the footprint is empty (never the case for a
    /// footprint produced by an actual splice: the region is non-empty).
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.inserted.is_empty() && self.boundary.is_empty()
    }
}

/// One gate instance and its wire endpoints.
#[derive(Debug, Clone)]
struct Node {
    instr: Instruction,
    /// Previous node on each operand's wire (`None` at the circuit input).
    preds: Vec<Option<NodeId>>,
    /// Next node on each operand's wire (`None` at the circuit output).
    succs: Vec<Option<NodeId>>,
    /// Per operand wire: this node's 0-based position on the wire and the
    /// wire's polynomial chain hash up to and *including* this node (the
    /// prefix hash the structural-hash preview algebra cuts at).
    cursors: Vec<(u32, u64)>,
}

/// A circuit in graph representation: nodes are gate instances, edges are
/// qubit wires (paper Figure 5).
///
/// # Examples
///
/// ```
/// use quartz_ir::{Circuit, CircuitDag, Gate, Instruction, SpliceDelta};
///
/// let mut c = Circuit::new(1, 0);
/// c.push(Instruction::new(Gate::H, vec![0], vec![]));
/// c.push(Instruction::new(Gate::H, vec![0], vec![]));
/// c.push(Instruction::new(Gate::X, vec![0], vec![]));
///
/// let mut dag = CircuitDag::from_circuit(&c);
/// assert_eq!(dag.to_circuit(), c); // lossless round-trip
///
/// // Cancel the two Hadamards in place; the X keeps its identity.
/// let hh: Vec<_> = dag.nodes().take(2).map(|(id, _)| id).collect();
/// dag.splice(&SpliceDelta { region: hh, replacement: vec![] });
/// assert_eq!(dag.to_circuit().to_string(), "x q0");
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    num_qubits: usize,
    num_params: usize,
    /// Slab of nodes; `None` marks a free slot.
    slots: Vec<Option<Node>>,
    /// Indices of free slots, reused LIFO by insertions.
    free: Vec<u32>,
    /// First node on each qubit wire.
    first_on_qubit: Vec<Option<NodeId>>,
    /// Last node on each qubit wire.
    last_on_qubit: Vec<Option<NodeId>>,
    /// Cached topological order of the live nodes. Seeded with the source
    /// sequence order by [`CircuitDag::from_circuit`] and maintained across
    /// splices, so [`CircuitDag::to_circuit`] is a plain emission.
    topo: Vec<NodeId>,
    /// Position of each live node in `topo`, slab-indexed (stale for free
    /// slots). Because `topo` is a topological order, positions strictly
    /// increase along every wire edge — the fact the windowed convexity
    /// check exploits.
    position: Vec<u32>,
    /// Number of instructions on each qubit wire.
    wire_len: Vec<u32>,
    /// Polynomial chain hash of each qubit wire's content sequence (the
    /// full-wire prefix; see `crate::shash`). `0` for an empty wire.
    wire_chain: Vec<u64>,
    /// Gate-type multiset, maintained incrementally.
    histogram: GateHistogram,
}

impl CircuitDag {
    /// Builds the DAG of a sequence circuit. Node ids are assigned in
    /// sequence order (`NodeId` index = instruction position), which makes
    /// the cached topological order the input sequence itself.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.gate_count();
        let mut slots: Vec<Option<Node>> = Vec::with_capacity(n);
        let mut last_on_qubit: Vec<Option<NodeId>> = vec![None; circuit.num_qubits()];
        let mut first_on_qubit: Vec<Option<NodeId>> = vec![None; circuit.num_qubits()];
        let mut wire_len: Vec<u32> = vec![0; circuit.num_qubits()];
        let mut wire_chain: Vec<u64> = vec![0; circuit.num_qubits()];
        for (i, instr) in circuit.instructions().iter().enumerate() {
            let id = NodeId(i as u32);
            debug_assert!(!instr.qubits.is_empty(), "instruction touches no wire");
            let term = shash::term(instr);
            let mut preds = Vec::with_capacity(instr.qubits.len());
            let mut cursors = Vec::with_capacity(instr.qubits.len());
            for &q in &instr.qubits {
                let pred = last_on_qubit[q];
                if let Some(p) = pred {
                    let op = slots[p.index()]
                        .as_ref()
                        .expect("predecessor is live")
                        .instr
                        .qubits
                        .iter()
                        .position(|&pq| pq == q)
                        .expect("predecessor acts on the shared wire");
                    slots[p.index()].as_mut().expect("live").succs[op] = Some(id);
                } else {
                    first_on_qubit[q] = Some(id);
                }
                preds.push(pred);
                last_on_qubit[q] = Some(id);
                wire_chain[q] = wire_chain[q].wrapping_mul(shash::BASE).wrapping_add(term);
                cursors.push((wire_len[q], wire_chain[q]));
                wire_len[q] += 1;
            }
            let arity = instr.qubits.len();
            slots.push(Some(Node {
                instr: instr.clone(),
                preds,
                succs: vec![None; arity],
                cursors,
            }));
        }
        CircuitDag {
            num_qubits: circuit.num_qubits(),
            num_params: circuit.num_params(),
            slots,
            free: Vec::new(),
            first_on_qubit,
            last_on_qubit,
            topo: (0..n as u32).map(NodeId).collect(),
            position: (0..n as u32).collect(),
            wire_len,
            wire_chain,
            histogram: *circuit.gate_histogram(),
        }
    }

    /// Emits the cached topological order as a sequence circuit.
    ///
    /// For a DAG straight out of [`CircuitDag::from_circuit`] this is the
    /// original sequence exactly; after splices it is a valid topological
    /// order of the rewritten DAG.
    pub fn to_circuit(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits, self.num_params);
        for &id in &self.topo {
            out.push(self.node(id).instr.clone());
        }
        out
    }

    /// Number of qubit wires.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of formal parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of live gate instances.
    pub fn gate_count(&self) -> usize {
        self.topo.len()
    }

    /// Returns `true` when the DAG has no gates.
    pub fn is_empty(&self) -> bool {
        self.topo.is_empty()
    }

    /// The gate-type multiset of the live nodes, maintained incrementally.
    pub fn gate_histogram(&self) -> &GateHistogram {
        &self.histogram
    }

    /// Returns `true` when `id` names a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slots
            .get(id.index())
            .is_some_and(|slot| slot.is_some())
    }

    fn node(&self, id: NodeId) -> &Node {
        self.slots[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("node {id} is not live"))
    }

    /// The instruction of a live node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn instruction(&self, id: NodeId) -> &Instruction {
        &self.node(id).instr
    }

    /// Wire predecessors of a node, one per qubit operand (`None` where the
    /// wire comes straight from the circuit input).
    pub fn preds(&self, id: NodeId) -> &[Option<NodeId>] {
        &self.node(id).preds
    }

    /// Wire successors of a node, one per qubit operand (`None` where the
    /// wire runs straight to the circuit output).
    pub fn succs(&self, id: NodeId) -> &[Option<NodeId>] {
        &self.node(id).succs
    }

    /// The cached topological order of the live nodes.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Position of a live node in the cached topological order. Positions
    /// strictly increase along wire edges, which incremental consumers (the
    /// depth delta-coster's propagation heap) rely on.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn topo_position(&self, id: NodeId) -> u32 {
        let _ = self.node(id);
        self.position[id.index()]
    }

    /// Polynomial chain hash of wire `q`'s content sequence (`0` when the
    /// wire is empty). Maintained through splices; the cache behind
    /// [`crate::StructuralHash::of`].
    pub fn wire_chain(&self, q: usize) -> u64 {
        self.wire_chain[q]
    }

    /// Number of instructions on wire `q`. Maintained through splices.
    pub fn wire_len(&self, q: usize) -> u32 {
        self.wire_len[q]
    }

    /// The wire-hash cursor of a live node on wire `q`: its 0-based position
    /// on the wire and the wire's chain hash up to and including it. The
    /// prefix the structural-hash preview algebra cuts at.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live or does not act on wire `q`.
    pub fn wire_cursor(&self, id: NodeId, q: usize) -> (u32, u64) {
        let op = self.wire_operand(id, q);
        self.node(id).cursors[op]
    }

    /// Live nodes with their instructions, in topological order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Instruction)> {
        self.topo.iter().map(|&id| (id, &self.node(id).instr))
    }

    /// Every live node reachable from `region` along wire successors,
    /// excluding the region itself.
    pub fn descendants(&self, region: &[NodeId]) -> HashSet<NodeId> {
        self.closure(region, |dag, id| dag.node(id).succs.iter().flatten())
    }

    /// Every live node reaching `region` along wire predecessors, excluding
    /// the region itself.
    pub fn ancestors(&self, region: &[NodeId]) -> HashSet<NodeId> {
        self.closure(region, |dag, id| dag.node(id).preds.iter().flatten())
    }

    fn closure<'a, I>(
        &'a self,
        region: &[NodeId],
        step: impl Fn(&'a CircuitDag, NodeId) -> I,
    ) -> HashSet<NodeId>
    where
        I: Iterator<Item = &'a NodeId>,
    {
        let in_region: HashSet<NodeId> = region.iter().copied().collect();
        let mut out = HashSet::new();
        let mut stack: Vec<NodeId> = region.to_vec();
        while let Some(u) = stack.pop() {
            for &v in step(self, u) {
                if !in_region.contains(&v) && out.insert(v) {
                    stack.push(v);
                }
            }
        }
        out
    }

    /// Returns `true` when `region` is convex: no node outside it lies on a
    /// dependency path between two of its members (paper Figure 5; the
    /// precondition of [`CircuitDag::splice`]).
    ///
    /// Checked through the cached topological order: positions strictly
    /// increase along wire edges, so any path that leaves the region and
    /// re-enters it runs entirely through nodes whose position is below the
    /// region's maximum. The search therefore explores only the region's
    /// position *window* instead of the whole reachable set — for the
    /// wire-local regions the matcher produces this is near-constant, where
    /// the naive descendants ∩ ancestors intersection walks O(circuit).
    /// This check sits on the optimizer's hottest path (once per cached or
    /// enumerated structural match).
    pub fn is_convex(&self, region: &[NodeId]) -> bool {
        let hi = region
            .iter()
            .map(|id| self.position[id.index()])
            .max()
            .unwrap_or(0);
        // Walk forward from the region's outside successors, bounded by the
        // window; reaching any region node means a path left and re-entered.
        let mut visited: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &id in region {
            for &s in self.node(id).succs.iter().flatten() {
                if region.contains(&s) {
                    continue;
                }
                if self.position[s.index()] < hi && visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        while let Some(u) = stack.pop() {
            for &v in self.node(u).succs.iter().flatten() {
                if region.contains(&v) {
                    return false;
                }
                if self.position[v.index()] < hi && visited.insert(v) {
                    stack.push(v);
                }
            }
        }
        true
    }

    /// Replaces `delta.region` with `delta.replacement` in place, rewiring
    /// the boundary, and returns the ids of the inserted nodes (in
    /// replacement order). Nodes outside the region keep their ids; the
    /// freed slots may be reused by the insertion.
    ///
    /// The cached topological order is maintained by the splicing invariant
    /// of DESIGN.md §2.4/§5: non-descendants of the region (in their old
    /// relative order), then the replacement, then descendants (in their old
    /// relative order).
    ///
    /// # Panics
    ///
    /// Panics if the region is empty, contains a dead node, is not
    /// contiguous on one of its wires, or if the replacement uses a wire the
    /// region does not touch. Convexity of the region is debug-asserted.
    pub fn splice(&mut self, delta: &SpliceDelta) -> Vec<NodeId> {
        self.splice_with_footprint(delta).inserted
    }

    /// Like [`CircuitDag::splice`], additionally reporting the full
    /// [`SpliceFootprint`]: removed and inserted ids plus the boundary nodes
    /// whose wire adjacency the splice rewired.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CircuitDag::splice`].
    pub fn splice_with_footprint(&mut self, delta: &SpliceDelta) -> SpliceFootprint {
        assert!(!delta.region.is_empty(), "cannot splice an empty region");
        let region: HashSet<NodeId> = delta.region.iter().copied().collect();
        for &id in &delta.region {
            assert!(self.contains(id), "splice region node {id} is not live");
        }
        debug_assert!(
            self.is_convex(&delta.region),
            "splice region must be convex"
        );
        // Descendants must be computed before any unlinking.
        let descendants = self.descendants(&delta.region);

        // Boundary of the region per wire: the last node before it and the
        // first node after it. Contiguity means each touched wire has
        // exactly one entry and one exit.
        let mut entry: Vec<Option<Option<NodeId>>> = vec![None; self.num_qubits];
        let mut exit: Vec<Option<Option<NodeId>>> = vec![None; self.num_qubits];
        for &id in &delta.region {
            let node = self.node(id);
            for (op, &q) in node.instr.qubits.iter().enumerate() {
                let pred = node.preds[op];
                if pred.is_none_or(|p| !region.contains(&p)) {
                    assert!(
                        entry[q].is_none(),
                        "splice region is not contiguous on wire q{q}"
                    );
                    entry[q] = Some(pred);
                }
                let succ = node.succs[op];
                if succ.is_none_or(|s| !region.contains(&s)) {
                    assert!(
                        exit[q].is_none(),
                        "splice region is not contiguous on wire q{q}"
                    );
                    exit[q] = Some(succ);
                }
            }
        }

        // The boundary is exactly the set of live out-of-region nodes whose
        // pred/succ arrays the wire reconnections below mutate.
        let mut boundary: Vec<NodeId> = entry
            .iter()
            .chain(exit.iter())
            .filter_map(|slot| slot.flatten())
            .collect();
        boundary.sort_unstable();
        boundary.dedup();

        // Remove the region.
        for &id in &delta.region {
            let node = self.slots[id.index()].take().expect("checked live");
            self.histogram.remove(node.instr.gate);
            self.free.push(id.index() as u32);
        }

        // Insert the replacement, chaining nodes along each touched wire.
        // `tail[q]` is the most recent node on wire q (starting at the entry
        // boundary), as (id, operand position).
        let mut tail: Vec<Option<(NodeId, usize)>> = vec![None; self.num_qubits];
        let mut inserted = Vec::with_capacity(delta.replacement.len());
        for instr in &delta.replacement {
            let id = match self.free.pop() {
                Some(slot) => NodeId(slot),
                None => {
                    self.slots.push(None);
                    NodeId((self.slots.len() - 1) as u32)
                }
            };
            let arity = instr.qubits.len();
            let mut preds = Vec::with_capacity(arity);
            for (op, &q) in instr.qubits.iter().enumerate() {
                assert!(
                    entry[q].is_some(),
                    "replacement uses wire q{q} outside the spliced region"
                );
                let pred = match tail[q] {
                    Some((prev, prev_op)) => {
                        self.slots[prev.index()].as_mut().expect("live").succs[prev_op] = Some(id);
                        Some(prev)
                    }
                    None => {
                        let pred = entry[q].expect("checked touched");
                        match pred {
                            Some(p) => {
                                let pop = self.wire_operand(p, q);
                                self.slots[p.index()].as_mut().expect("live").succs[pop] = Some(id);
                            }
                            None => self.first_on_qubit[q] = Some(id),
                        }
                        pred
                    }
                };
                preds.push(pred);
                tail[q] = Some((id, op));
            }
            debug_assert!(arity > 0, "instruction touches no wire");
            self.histogram.add(instr.gate);
            self.slots[id.index()] = Some(Node {
                instr: instr.clone(),
                preds,
                succs: vec![None; arity],
                // Placeholder; the touched-wire rewalk below fills these in
                // once the wires are fully reconnected.
                cursors: vec![(0, 0); arity],
            });
            inserted.push(id);
        }

        // Close each touched wire: connect its current tail to its exit.
        for q in 0..self.num_qubits {
            let Some(exit_succ) = exit[q] else { continue };
            let tail_id = match tail[q] {
                Some((id, op)) => {
                    self.slots[id.index()].as_mut().expect("live").succs[op] = exit_succ;
                    Some(id)
                }
                None => {
                    let pred = entry[q].expect("entry and exit are paired");
                    match pred {
                        Some(p) => {
                            let pop = self.wire_operand(p, q);
                            self.slots[p.index()].as_mut().expect("live").succs[pop] = exit_succ;
                        }
                        None => self.first_on_qubit[q] = exit_succ,
                    }
                    pred
                }
            };
            match exit_succ {
                Some(s) => {
                    let sop = self.wire_operand(s, q);
                    self.slots[s.index()].as_mut().expect("live").preds[sop] = tail_id;
                }
                None => self.last_on_qubit[q] = tail_id,
            }
        }

        // Maintain the wire-hash caches: every touched wire's chain changed
        // from its entry point onward, so re-fold each from its (unchanged)
        // entry prefix to the wire tail, updating the node cursors along the
        // way. Untouched wires keep their caches bit-for-bit.
        for (q, touched) in entry.iter().enumerate() {
            if let Some(pred) = *touched {
                self.refold_wire(q, pred);
            }
        }

        // Maintain the topological order (DESIGN.md §5): non-descendants
        // keep their relative order, then the replacement, then descendants.
        let mut new_topo = Vec::with_capacity(self.topo.len() + inserted.len());
        new_topo.extend(
            self.topo
                .iter()
                .copied()
                .filter(|id| !region.contains(id) && !descendants.contains(id)),
        );
        new_topo.extend(inserted.iter().copied());
        new_topo.extend(
            self.topo
                .iter()
                .copied()
                .filter(|id| descendants.contains(id)),
        );
        self.topo = new_topo;
        self.position.resize(self.slots.len(), 0);
        for (pos, &id) in self.topo.iter().enumerate() {
            self.position[id.index()] = pos as u32;
        }
        SpliceFootprint {
            removed: delta.region.clone(),
            inserted,
            boundary,
        }
    }

    /// Every live node within `radius` undirected wire-adjacency hops of a
    /// seed, seeds included. "Undirected" means both wire predecessors and
    /// wire successors count as one hop, so the ball bounds where any
    /// wire-connected subcircuit of diameter ≤ `radius` touching a seed can
    /// live. A general locality query for footprint-anchored analyses.
    ///
    /// # Panics
    ///
    /// Panics if a seed is not live.
    pub fn neighborhood(&self, seeds: &[NodeId], radius: usize) -> HashSet<NodeId> {
        let mut out: HashSet<NodeId> = seeds.iter().copied().collect();
        for &seed in seeds {
            assert!(self.contains(seed), "neighborhood seed {seed} is not live");
        }
        let mut frontier: Vec<NodeId> = seeds.to_vec();
        for _ in 0..radius {
            let mut next = Vec::new();
            for &u in &frontier {
                let node = self.node(u);
                for &v in node.preds.iter().chain(node.succs.iter()).flatten() {
                    if out.insert(v) {
                        next.push(v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }

    /// Re-folds wire `q`'s chain hash and node cursors from the node after
    /// `start_after` (the whole wire when `None`) to the wire tail, and
    /// refreshes [`CircuitDag::wire_chain`] / [`CircuitDag::wire_len`].
    /// `start_after`'s own cursor must still be valid.
    fn refold_wire(&mut self, q: usize, start_after: Option<NodeId>) {
        let (mut pos, mut chain, mut cursor) = match start_after {
            Some(p) => {
                let op = self.wire_operand(p, q);
                let (ppos, pprefix) = self.node(p).cursors[op];
                (ppos + 1, pprefix, self.node(p).succs[op])
            }
            None => (0, 0u64, self.first_on_qubit[q]),
        };
        while let Some(id) = cursor {
            let op = self.wire_operand(id, q);
            let next = self.node(id).succs[op];
            let term = shash::term(&self.node(id).instr);
            chain = chain.wrapping_mul(shash::BASE).wrapping_add(term);
            self.slots[id.index()].as_mut().expect("live").cursors[op] = (pos, chain);
            pos += 1;
            cursor = next;
        }
        self.wire_len[q] = pos;
        self.wire_chain[q] = chain;
    }

    /// Operand position of wire `q` in the (live) node `id`.
    fn wire_operand(&self, id: NodeId, q: usize) -> usize {
        self.node(id)
            .instr
            .qubits
            .iter()
            .position(|&nq| nq == q)
            .unwrap_or_else(|| panic!("node {id} does not act on wire q{q}"))
    }

    /// Checks every internal invariant — edge mutuality, wire endpoints, the
    /// cached topological order, histogram consistency — returning a
    /// description of the first violation. A testing aid: splice-heavy tests
    /// call this after every mutation.
    pub fn validate(&self) -> Result<(), String> {
        let live: HashSet<NodeId> = self.topo.iter().copied().collect();
        if live.len() != self.topo.len() {
            return Err("topological order repeats a node".into());
        }
        let slab_live = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| NodeId(i as u32))
            .collect::<HashSet<_>>();
        if slab_live != live {
            return Err("topological order disagrees with the slab".into());
        }
        let mut position = vec![usize::MAX; self.slots.len()];
        for (pos, &id) in self.topo.iter().enumerate() {
            position[id.index()] = pos;
            if self.position.get(id.index()).copied() != Some(pos as u32) {
                return Err(format!(
                    "cached position of {id} disagrees with the topological order"
                ));
            }
        }
        let mut recount = GateHistogram::new();
        let mut last_seen: Vec<Option<NodeId>> = vec![None; self.num_qubits];
        let mut walk_len: Vec<u32> = vec![0; self.num_qubits];
        let mut walk_chain: Vec<u64> = vec![0; self.num_qubits];
        for &id in &self.topo {
            let node = self.node(id);
            recount.add(node.instr.gate);
            if node.preds.len() != node.instr.qubits.len()
                || node.succs.len() != node.instr.qubits.len()
                || node.cursors.len() != node.instr.qubits.len()
            {
                return Err(format!("node {id} has mismatched edge arity"));
            }
            let term = shash::term(&node.instr);
            for (op, &q) in node.instr.qubits.iter().enumerate() {
                if node.preds[op] != last_seen[q] {
                    return Err(format!(
                        "node {id} operand {op}: pred {:?} but wire q{q} last saw {:?}",
                        node.preds[op], last_seen[q]
                    ));
                }
                walk_chain[q] = walk_chain[q].wrapping_mul(shash::BASE).wrapping_add(term);
                if node.cursors[op] != (walk_len[q], walk_chain[q]) {
                    return Err(format!(
                        "node {id} wire-hash cursor on q{q} is {:?}, expected {:?}",
                        node.cursors[op],
                        (walk_len[q], walk_chain[q])
                    ));
                }
                walk_len[q] += 1;
                if let Some(p) = node.preds[op] {
                    if position[p.index()] >= position[id.index()] {
                        return Err(format!("edge {p} → {id} violates the cached order"));
                    }
                    let pop = self.wire_operand(p, q);
                    if self.node(p).succs[pop] != Some(id) {
                        return Err(format!("edge {p} → {id} is not mutual"));
                    }
                } else if self.first_on_qubit[q] != Some(id) {
                    return Err(format!("node {id} should head wire q{q}"));
                }
                last_seen[q] = Some(id);
            }
        }
        for (q, &seen_tail) in last_seen.iter().enumerate() {
            if self.last_on_qubit[q] != seen_tail {
                return Err(format!(
                    "wire q{q} tail is {:?} but the walk ended at {:?}",
                    self.last_on_qubit[q], seen_tail
                ));
            }
            if seen_tail.is_none() && self.first_on_qubit[q].is_some() {
                return Err(format!("wire q{q} has a head but no nodes"));
            }
            if (self.wire_len[q], self.wire_chain[q]) != (walk_len[q], walk_chain[q]) {
                return Err(format!(
                    "wire q{q} cached (len, chain) is {:?}, expected {:?}",
                    (self.wire_len[q], self.wire_chain[q]),
                    (walk_len[q], walk_chain[q])
                ));
            }
        }
        for &id in &self.topo {
            let node = self.node(id);
            for (op, &q) in node.instr.qubits.iter().enumerate() {
                if let Some(s) = node.succs[op] {
                    if !live.contains(&s) {
                        return Err(format!("node {id} succ {s} on q{q} is dead"));
                    }
                    let sop = self.wire_operand(s, q);
                    if self.node(s).preds[sop] != Some(id) {
                        return Err(format!("edge {id} → {s} is not mutual"));
                    }
                }
            }
        }
        if recount != self.histogram {
            return Err("histogram disagrees with a recount".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::param::ParamExpr;

    fn h(q: usize) -> Instruction {
        Instruction::new(Gate::H, vec![q], vec![])
    }

    fn cnot(c: usize, t: usize) -> Instruction {
        Instruction::new(Gate::Cnot, vec![c, t], vec![])
    }

    fn rz(q: usize, quarters: i32) -> Instruction {
        Instruction::new(Gate::Rz, vec![q], vec![ParamExpr::constant_pi4(quarters)])
    }

    fn sample() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.push(h(0));
        c.push(cnot(0, 1));
        c.push(rz(1, 2));
        c.push(cnot(1, 2));
        c.push(h(2));
        c
    }

    #[test]
    fn round_trip_is_lossless() {
        let c = sample();
        let dag = CircuitDag::from_circuit(&c);
        dag.validate().unwrap();
        let back = dag.to_circuit();
        assert_eq!(back, c);
        assert_eq!(back.fingerprint(), c.fingerprint());
        assert_eq!(back.gate_histogram(), c.gate_histogram());
    }

    #[test]
    fn edges_follow_the_wires() {
        let dag = CircuitDag::from_circuit(&sample());
        let ids: Vec<NodeId> = dag.topo_order().to_vec();
        // cnot(0,1) follows h(0) on wire 0 and heads wire 1.
        assert_eq!(dag.preds(ids[1]), &[Some(ids[0]), None]);
        assert_eq!(dag.succs(ids[0]), &[Some(ids[1])]);
        // rz(1) sits between the two CNOTs on wire 1.
        assert_eq!(dag.preds(ids[2]), &[Some(ids[1])]);
        assert_eq!(dag.succs(ids[2]), &[Some(ids[3])]);
    }

    #[test]
    fn splice_removes_and_rewires() {
        let mut c = Circuit::new(2, 0);
        c.push(h(0));
        c.push(h(0));
        c.push(cnot(0, 1));
        let mut dag = CircuitDag::from_circuit(&c);
        let hh: Vec<NodeId> = dag.topo_order()[..2].to_vec();
        let inserted = dag.splice(&SpliceDelta {
            region: hh,
            replacement: vec![],
        });
        assert!(inserted.is_empty());
        dag.validate().unwrap();
        assert_eq!(dag.to_circuit().to_string(), "cx q0, q1");
        assert_eq!(dag.gate_count(), 1);
    }

    #[test]
    fn splice_replacement_joins_the_boundary() {
        // Replace the middle rz of h; rz; h with two rz's: the wire must
        // thread h → rz → rz → h.
        let mut c = Circuit::new(1, 0);
        c.push(h(0));
        c.push(rz(0, 4));
        c.push(h(0));
        let mut dag = CircuitDag::from_circuit(&c);
        let mid = dag.topo_order()[1];
        let inserted = dag.splice(&SpliceDelta {
            region: vec![mid],
            replacement: vec![rz(0, 1), rz(0, 3)],
        });
        assert_eq!(inserted.len(), 2);
        dag.validate().unwrap();
        assert_eq!(
            dag.to_circuit().to_string(),
            "h q0; rz(pi/4) q0; rz(3*pi/4) q0; h q0"
        );
    }

    #[test]
    fn splice_reuses_freed_slots_and_keeps_other_ids() {
        let mut dag = CircuitDag::from_circuit(&sample());
        let before: Vec<NodeId> = dag.topo_order().to_vec();
        let slots_before = dag.slots.len();
        let rz_node = before[2];
        dag.splice(&SpliceDelta {
            region: vec![rz_node],
            replacement: vec![rz(1, 1)],
        });
        dag.validate().unwrap();
        // The slab did not grow: the freed slot was reused.
        assert_eq!(dag.slots.len(), slots_before);
        // Unrelated nodes keep their ids and instructions.
        for &id in [&before[0], &before[1], &before[3], &before[4]] {
            assert!(dag.contains(id));
        }
        assert_eq!(dag.instruction(before[0]), &h(0));
    }

    #[test]
    fn splice_on_a_wire_subset_leaves_the_rest_connected() {
        // Region cnot(0,1) replaced by a gate on wire 1 only: wire 0 must
        // reconnect h(0) straight to the output.
        let mut c = Circuit::new(2, 0);
        c.push(h(0));
        c.push(cnot(0, 1));
        c.push(h(1));
        let mut dag = CircuitDag::from_circuit(&c);
        let cx = dag.topo_order()[1];
        dag.splice(&SpliceDelta {
            region: vec![cx],
            replacement: vec![h(1)],
        });
        dag.validate().unwrap();
        assert_eq!(dag.to_circuit().to_string(), "h q0; h q1; h q1");
    }

    #[test]
    fn chained_splices_stay_consistent() {
        let mut dag = CircuitDag::from_circuit(&sample());
        // Replace cnot(1,2) with h(1); h(2) — wait, h takes one wire each.
        let cx12 = dag.topo_order()[3];
        let ins = dag.splice(&SpliceDelta {
            region: vec![cx12],
            replacement: vec![h(1), h(2)],
        });
        dag.validate().unwrap();
        // Then cancel the inserted h(2) against the original trailing h(2).
        let trailing_h = *dag.topo_order().last().unwrap();
        dag.splice(&SpliceDelta {
            region: vec![ins[1], trailing_h],
            replacement: vec![],
        });
        dag.validate().unwrap();
        assert_eq!(
            dag.to_circuit().to_string(),
            "h q0; cx q0, q1; rz(pi/2) q1; h q1"
        );
    }

    #[test]
    fn splice_footprint_reports_removed_inserted_and_boundary() {
        // h(0); cnot(0,1); rz(1); cnot(1,2); h(2) — replace the rz.
        let mut dag = CircuitDag::from_circuit(&sample());
        let ids = dag.topo_order().to_vec();
        let fp = dag.splice_with_footprint(&SpliceDelta {
            region: vec![ids[2]],
            replacement: vec![rz(1, 1)],
        });
        dag.validate().unwrap();
        assert_eq!(fp.removed, vec![ids[2]]);
        assert_eq!(fp.inserted.len(), 1);
        // Boundary on wire 1: cnot(0,1) before and cnot(1,2) after.
        assert_eq!(fp.boundary, vec![ids[1], ids[3]]);
        // The freed slot is reused, so the distinct-node count is 3, not 4.
        assert_eq!(fp.inserted, fp.removed);
        assert_eq!(fp.len(), 3);
        assert!(!fp.is_empty());
        // live_dirty = inserted ∪ boundary, deduplicated.
        let live = fp.live_dirty();
        assert_eq!(live.len(), 3);
        assert!(live.contains(&fp.inserted[0]));
        assert!(live.contains(&ids[1]) && live.contains(&ids[3]));
    }

    #[test]
    fn splice_footprint_boundary_covers_wire_reconnections() {
        // Removing the middle cnot(0,1) with an empty replacement rewires
        // h(0) (entry on wire 0) and h(1) (exit on wire 1).
        let mut c = Circuit::new(2, 0);
        c.push(h(0));
        c.push(cnot(0, 1));
        c.push(h(1));
        let mut dag = CircuitDag::from_circuit(&c);
        let ids = dag.topo_order().to_vec();
        let fp = dag.splice_with_footprint(&SpliceDelta {
            region: vec![ids[1]],
            replacement: vec![],
        });
        dag.validate().unwrap();
        assert!(fp.inserted.is_empty());
        assert_eq!(fp.boundary, vec![ids[0], ids[2]]);
        assert_eq!(fp.live_dirty(), vec![ids[0], ids[2]]);
    }

    #[test]
    fn splice_footprint_records_bridged_boundary_pairs() {
        // h(0); rz(0); h(0): removing the middle rz with an empty
        // replacement connects the two h's directly.
        let mut c = Circuit::new(1, 0);
        c.push(h(0));
        c.push(rz(0, 1));
        c.push(h(0));
        let mut dag = CircuitDag::from_circuit(&c);
        let ids = dag.topo_order().to_vec();
        let fp = dag.splice_with_footprint(&SpliceDelta {
            region: vec![ids[1]],
            replacement: vec![],
        });
        dag.validate().unwrap();
        // Both ends of the bypassed wire are the footprint's boundary, and
        // they are now directly adjacent.
        assert_eq!(fp.boundary, vec![ids[0], ids[2]]);
        assert_eq!(dag.preds(ids[2]), &[Some(ids[0])]);
        assert_eq!(dag.succs(ids[0]), &[Some(ids[2])]);
    }

    #[test]
    fn neighborhood_walks_wires_both_ways() {
        let dag = CircuitDag::from_circuit(&sample());
        let ids = dag.topo_order().to_vec();
        // Radius 0: just the seed.
        assert_eq!(
            dag.neighborhood(&[ids[2]], 0),
            [ids[2]].into_iter().collect()
        );
        // Radius 1 around rz(1): both CNOTs.
        assert_eq!(
            dag.neighborhood(&[ids[2]], 1),
            [ids[1], ids[2], ids[3]].into_iter().collect()
        );
        // Radius 2 reaches everything in this 5-gate chain.
        assert_eq!(dag.neighborhood(&[ids[2]], 2).len(), 5);
        // A huge radius saturates at the live node set.
        assert_eq!(dag.neighborhood(&[ids[0]], 100).len(), 5);
    }

    #[test]
    fn descendants_ancestors_and_convexity() {
        let dag = CircuitDag::from_circuit(&sample());
        let ids = dag.topo_order().to_vec();
        let desc = dag.descendants(&[ids[1]]);
        assert!(desc.contains(&ids[2]) && desc.contains(&ids[3]));
        assert!(!desc.contains(&ids[0]));
        let anc = dag.ancestors(&[ids[3]]);
        assert!(anc.contains(&ids[0]) && anc.contains(&ids[1]) && anc.contains(&ids[2]));
        // {cnot01, cnot12} skips the rz in between: not convex.
        assert!(!dag.is_convex(&[ids[1], ids[3]]));
        assert!(dag.is_convex(&[ids[1], ids[2]]));
    }

    /// The windowed convexity check must agree with the definitional
    /// descendants ∩ ancestors formulation on every 2-subset of a circuit
    /// with a branchy dependency structure — including after splices, when
    /// cached positions are no longer the original sequence order.
    #[test]
    fn windowed_convexity_agrees_with_closure_intersection() {
        let mut c = Circuit::new(4, 0);
        c.push(h(0));
        c.push(cnot(0, 1));
        c.push(cnot(1, 2));
        c.push(cnot(2, 3));
        c.push(h(3));
        c.push(rz(1, 1));
        c.push(cnot(0, 1));
        let mut dag = CircuitDag::from_circuit(&c);
        let reference = |dag: &CircuitDag, region: &[NodeId]| {
            let descendants = dag.descendants(region);
            let ancestors = dag.ancestors(region);
            ancestors.intersection(&descendants).next().is_none()
        };
        let check_all_pairs = |dag: &CircuitDag| {
            let ids = dag.topo_order().to_vec();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i..] {
                    let region = if a == b { vec![a] } else { vec![a, b] };
                    assert_eq!(
                        dag.is_convex(&region),
                        reference(dag, &region),
                        "windowed check diverged on {a}, {b}"
                    );
                }
            }
        };
        check_all_pairs(&dag);
        // Splice the middle CNOT away and re-check: positions are rebuilt.
        let mid = dag.topo_order()[2];
        dag.splice(&SpliceDelta {
            region: vec![mid],
            replacement: vec![rz(1, 2)],
        });
        dag.validate().unwrap();
        check_all_pairs(&dag);
    }

    // Non-contiguity on a wire always implies non-convexity (the skipped
    // node is both ancestor and descendant of the region), so the convexity
    // debug-assert fires first; the contiguity assert remains as the
    // release-build guard.
    #[test]
    #[should_panic(expected = "convex")]
    fn splice_rejects_non_contiguous_regions() {
        let mut c = Circuit::new(1, 0);
        c.push(h(0));
        c.push(rz(0, 1));
        c.push(h(0));
        let mut dag = CircuitDag::from_circuit(&c);
        let ids = dag.topo_order().to_vec();
        dag.splice(&SpliceDelta {
            region: vec![ids[0], ids[2]],
            replacement: vec![],
        });
    }

    #[test]
    #[should_panic(expected = "outside the spliced region")]
    fn splice_rejects_replacement_on_untouched_wires() {
        let mut dag = CircuitDag::from_circuit(&sample());
        let first = dag.topo_order()[0]; // h(0) touches only wire 0
        dag.splice(&SpliceDelta {
            region: vec![first],
            replacement: vec![h(2)],
        });
    }

    #[test]
    fn empty_wires_round_trip() {
        let c = Circuit::new(4, 1);
        let dag = CircuitDag::from_circuit(&c);
        dag.validate().unwrap();
        assert_eq!(dag.to_circuit(), c);
        assert!(dag.is_empty());
    }
}
