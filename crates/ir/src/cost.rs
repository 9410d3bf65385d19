//! Cost models for the optimizer's search (paper §6).
//!
//! The paper's evaluation uses total gate count; alternative metrics (CNOT
//! count, T count, depth) are provided because the search algorithm is
//! generic in the cost function (footnote 2 of the paper).
//!
//! [`CostModel`] lives in the IR crate (rather than `quartz-opt`, where the
//! search that consumes it runs) because it is a pure function of circuits
//! and instructions: the library auditor in `quartz-gen` uses it to prove
//! rewrite rules dead under the additive models without depending on the
//! optimizer. `quartz-opt` re-exports it, so optimizer-facing code is
//! unaffected by the move.
//!
//! [`DeltaCoster`] computes the **exact** cost a circuit would have after a
//! [`SpliceDelta`] without materializing the spliced circuit — for the
//! additive models by instruction-cost bookkeeping over the delta, and for
//! depth by propagating longest-path changes from the splice boundary
//! through only the nodes whose depth actually changes (DESIGN.md §13).
//! This is what lets the optimizer's γ-precheck and duplicate prefilter run
//! ahead of materialization under *every* cost model, depth included.

use crate::dag::{CircuitDag, NodeId, SpliceDelta};
use crate::fx::{FxHashMap, FxHashSet};
use crate::{Circuit, Gate};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A cost model mapping circuits to a non-negative cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostModel {
    /// Total number of gates (the metric used in the paper's evaluation).
    #[default]
    GateCount,
    /// Number of two-qubit (and larger) gates.
    MultiQubitGateCount,
    /// Number of T/T† gates.
    TCount,
    /// Circuit depth.
    Depth,
}

impl CostModel {
    /// The models that are additive over gates, i.e. exactly those for which
    /// [`CostModel::is_additive`] holds. The optimizer's γ-precheck and the
    /// auditor's dead-rule lint quantify over this set.
    pub const ADDITIVE: [CostModel; 3] = [
        CostModel::GateCount,
        CostModel::MultiQubitGateCount,
        CostModel::TCount,
    ];

    /// The cost of a circuit under this model.
    pub fn cost(&self, circuit: &Circuit) -> usize {
        match self {
            CostModel::GateCount => circuit.gate_count(),
            CostModel::MultiQubitGateCount => circuit.multi_qubit_gate_count(),
            CostModel::TCount => circuit.count_gate(Gate::T) + circuit.count_gate(Gate::Tdg),
            CostModel::Depth => circuit.depth(),
        }
    }

    /// Whether this model is additive over gates
    /// ([`CostModel::instruction_cost`] returns `Some` for every
    /// instruction).
    pub fn is_additive(&self) -> bool {
        !matches!(self, CostModel::Depth)
    }

    /// The cost contribution of a single instruction, for models that are
    /// additive over gates — `None` for models that are not (depth). When
    /// `Some`, `cost(circuit) == Σ instruction_cost(instr)`, which lets the
    /// search compute a rewrite candidate's cost in O(rewrite footprint)
    /// from its parent's cost and γ-reject it *before* materializing and
    /// canonicalizing the candidate circuit.
    pub fn instruction_cost(&self, instr: &crate::Instruction) -> Option<usize> {
        match self {
            CostModel::GateCount => Some(1),
            CostModel::MultiQubitGateCount => Some(usize::from(instr.gate.num_qubits() >= 2)),
            CostModel::TCount => Some(usize::from(matches!(instr.gate, Gate::T | Gate::Tdg))),
            CostModel::Depth => None,
        }
    }

    /// A [`DeltaCoster`] over `dag`: one O(circuit) preparation pass, then
    /// exact [`DeltaCoster::cost_after`] answers per candidate splice. The
    /// optimizer builds one per expanded frontier entry and prices every
    /// candidate rewrite of that entry through it.
    pub fn delta_coster<'a>(&self, dag: &'a CircuitDag) -> DeltaCoster<'a> {
        DeltaCoster::new(*self, dag)
    }

    /// One-shot convenience for [`DeltaCoster::cost_after`]: the exact cost
    /// the circuit would have after applying `delta` to `dag`. Prefer
    /// [`CostModel::delta_coster`] when pricing many deltas of one DAG.
    pub fn delta_cost(&self, dag: &CircuitDag, delta: &SpliceDelta) -> usize {
        self.delta_coster(dag).cost_after(delta)
    }
}

/// Longest-path state for depth delta-costing: per-node depths (counting
/// nodes, so a single gate has depth 1 — the same layering as
/// [`Circuit::depth`]) plus a depth-descending node order for O(changed)
/// post-splice maxima.
#[derive(Debug)]
struct DepthScratch {
    /// Slab-indexed node depth: `1 + max(preds' depth)` (stale for free
    /// slots).
    d: Vec<u32>,
    /// Live nodes sorted by depth, descending.
    by_depth: Vec<NodeId>,
}

impl DepthScratch {
    fn new(dag: &CircuitDag) -> Self {
        let mut d = vec![
            0u32;
            dag.topo_order()
                .iter()
                .map(|id| id.index() + 1)
                .max()
                .unwrap_or(0)
        ];
        for &id in dag.topo_order() {
            let best = dag
                .preds(id)
                .iter()
                .flatten()
                .map(|p| d[p.index()])
                .max()
                .unwrap_or(0);
            d[id.index()] = best + 1;
        }
        let mut by_depth: Vec<NodeId> = dag.topo_order().to_vec();
        by_depth.sort_by_key(|id| Reverse(d[id.index()]));
        DepthScratch { d, by_depth }
    }
}

/// Prices [`SpliceDelta`]s against a fixed parent DAG *exactly*, without
/// materializing the spliced circuit, under any [`CostModel`].
///
/// For the additive models a delta's cost is parent cost + replacement costs
/// − region costs, O(footprint). For [`CostModel::Depth`] the coster runs
/// the replacement through the region's boundary depths and propagates
/// changes to descendants in topological-position order, stopping as soon as
/// a node's depth is unchanged — O(changed region of the depth relation),
/// which for the local rewrites the optimizer applies is usually far smaller
/// than the circuit.
///
/// # Examples
///
/// ```
/// use quartz_ir::{Circuit, CircuitDag, CostModel, Gate, Instruction, SpliceDelta};
///
/// let mut c = Circuit::new(1, 0);
/// c.push(Instruction::new(Gate::H, vec![0], vec![]));
/// c.push(Instruction::new(Gate::H, vec![0], vec![]));
/// let dag = CircuitDag::from_circuit(&c);
/// let delta = SpliceDelta { region: dag.topo_order().to_vec(), replacement: vec![] };
///
/// let coster = CostModel::Depth.delta_coster(&dag);
/// assert_eq!(coster.parent_cost(), 2);
/// assert_eq!(coster.cost_after(&delta), 0);
/// ```
#[derive(Debug)]
pub struct DeltaCoster<'a> {
    model: CostModel,
    dag: &'a CircuitDag,
    parent_cost: usize,
    depth: Option<DepthScratch>,
}

impl<'a> DeltaCoster<'a> {
    fn new(model: CostModel, dag: &'a CircuitDag) -> Self {
        let (parent_cost, depth) = if model.is_additive() {
            let total = dag
                .nodes()
                .map(|(_, instr)| model.instruction_cost(instr).expect("additive"))
                .sum();
            (total, None)
        } else {
            let scratch = DepthScratch::new(dag);
            let max = scratch
                .by_depth
                .first()
                .map_or(0, |id| scratch.d[id.index()] as usize);
            (max, Some(scratch))
        };
        DeltaCoster {
            model,
            dag,
            parent_cost,
            depth,
        }
    }

    /// The cost of the (unspliced) parent DAG — equal to
    /// `model.cost(&dag.to_circuit())`.
    pub fn parent_cost(&self) -> usize {
        self.parent_cost
    }

    /// The exact cost the circuit would have after applying `delta`, under
    /// this coster's model. Equal to `model.cost()` of the materialized
    /// spliced circuit (property-tested), but computed without splicing.
    ///
    /// # Panics
    ///
    /// Panics if a region node of `delta` is not live. Region validity
    /// (convexity, per-wire contiguity) is the caller's obligation, exactly
    /// as for [`CircuitDag::splice`].
    pub fn cost_after(&self, delta: &SpliceDelta) -> usize {
        match &self.depth {
            None => {
                let added: usize = delta
                    .replacement
                    .iter()
                    .map(|i| self.model.instruction_cost(i).expect("additive"))
                    .sum();
                let removed: usize = delta
                    .region
                    .iter()
                    .map(|&id| {
                        self.model
                            .instruction_cost(self.dag.instruction(id))
                            .expect("additive")
                    })
                    .sum();
                // Add before subtracting: a cost-increasing delta must not
                // underflow on the way through.
                self.parent_cost + added - removed
            }
            Some(scratch) => self.depth_after(scratch, delta),
        }
    }

    fn depth_after(&self, scratch: &DepthScratch, delta: &SpliceDelta) -> usize {
        let dag = self.dag;
        let in_region = |id: NodeId| delta.region.contains(&id);
        // Per touched wire: the running tail depth, seeded with the entry
        // predecessor's depth (0 at the wire head) — plus the out-of-region
        // exit successors the new depths must be pushed into.
        let mut tails: Vec<(usize, u32)> = Vec::new();
        let mut exit_succs: Vec<(usize, NodeId)> = Vec::new();
        for &id in &delta.region {
            let instr = dag.instruction(id);
            for (op, &q) in instr.qubits.iter().enumerate() {
                let pred = dag.preds(id)[op];
                if pred.is_none_or(|p| !in_region(p)) {
                    tails.push((q, pred.map_or(0, |p| scratch.d[p.index()])));
                }
                if let Some(s) = dag.succs(id)[op] {
                    if !in_region(s) {
                        exit_succs.push((q, s));
                    }
                }
            }
        }
        // Run the replacement through the wire tails (its own internal
        // longest paths), tracking its deepest node.
        let mut rep_max = 0u32;
        for instr in &delta.replacement {
            let tail_of = |q: usize| {
                tails
                    .iter()
                    .find(|&&(tq, _)| tq == q)
                    .expect("replacement wires are region wires")
                    .1
            };
            let d = 1 + instr.qubits.iter().map(|&q| tail_of(q)).max().unwrap_or(0);
            for &q in &instr.qubits {
                let slot = tails
                    .iter_mut()
                    .find(|&&mut (tq, _)| tq == q)
                    .expect("replacement wires are region wires");
                slot.1 = d;
            }
            rep_max = rep_max.max(d);
        }
        // What each exit successor now sees on its rewired operand: the
        // final tail depth of that wire (last replacement node on it, or the
        // bridged-through entry predecessor).
        let mut boundary_pred_d: FxHashMap<(NodeId, usize), u32> = FxHashMap::default();
        let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
        let mut queued: FxHashSet<NodeId> = FxHashSet::default();
        for &(q, s) in &exit_succs {
            let tail_d = tails
                .iter()
                .find(|&&(tq, _)| tq == q)
                .expect("exit wires are region wires")
                .1;
            boundary_pred_d.insert((s, q), tail_d);
            if queued.insert(s) {
                heap.push(Reverse((dag.topo_position(s), s)));
            }
        }
        // Propagate in topological-position order: positions strictly
        // increase along wire edges, and every node a pop can push sits at a
        // larger position than the popped node, so all of a node's changed
        // predecessors are finalized before it pops. Convexity keeps region
        // nodes out of the walk (a descendant's successor cannot be in the
        // region).
        let mut changed: FxHashMap<NodeId, u32> = FxHashMap::default();
        while let Some(Reverse((_, id))) = heap.pop() {
            let mut best = 0u32;
            for (op, &q) in dag.instruction(id).qubits.iter().enumerate() {
                let contribution = if let Some(&b) = boundary_pred_d.get(&(id, q)) {
                    b
                } else if let Some(pred) = dag.preds(id)[op] {
                    changed
                        .get(&pred)
                        .copied()
                        .unwrap_or(scratch.d[pred.index()])
                } else {
                    0
                };
                best = best.max(contribution);
            }
            let new_d = best + 1;
            if new_d != scratch.d[id.index()] {
                changed.insert(id, new_d);
                for &s in dag.succs(id).iter().flatten() {
                    if queued.insert(s) {
                        heap.push(Reverse((dag.topo_position(s), s)));
                    }
                }
            }
        }
        // max over the spliced circuit = max over (untouched nodes, changed
        // nodes, replacement nodes). The depth-descending order makes the
        // untouched maximum an O(region ∪ changed) prefix scan.
        let mut result = rep_max;
        for &v in changed.values() {
            result = result.max(v);
        }
        for &id in &scratch.by_depth {
            if !in_region(id) && !changed.contains_key(&id) {
                result = result.max(scratch.d[id.index()]);
                break;
            }
        }
        result as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instruction;

    #[test]
    fn cost_models_disagree_where_expected() {
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(Gate::T, vec![0], vec![]));
        c.push(Instruction::new(Gate::T, vec![1], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        assert_eq!(CostModel::GateCount.cost(&c), 3);
        assert_eq!(CostModel::MultiQubitGateCount.cost(&c), 1);
        assert_eq!(CostModel::TCount.cost(&c), 2);
        assert_eq!(CostModel::Depth.cost(&c), 2);
        assert_eq!(CostModel::default(), CostModel::GateCount);
    }

    #[test]
    fn additive_list_matches_predicate() {
        for model in CostModel::ADDITIVE {
            assert!(model.is_additive(), "{model:?}");
        }
        assert!(!CostModel::Depth.is_additive());
    }

    #[test]
    fn additive_models_sum_instruction_costs() {
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(Gate::T, vec![0], vec![]));
        c.push(Instruction::new(Gate::Tdg, vec![1], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        c.push(Instruction::new(Gate::H, vec![0], vec![]));
        for model in [
            CostModel::GateCount,
            CostModel::MultiQubitGateCount,
            CostModel::TCount,
        ] {
            let summed: usize = c
                .instructions()
                .iter()
                .map(|i| model.instruction_cost(i).expect("additive"))
                .sum();
            assert_eq!(summed, model.cost(&c), "{model:?}");
        }
        assert_eq!(
            CostModel::Depth.instruction_cost(&c.instructions()[0]),
            None,
            "depth is not additive over gates"
        );
    }

    const ALL_MODELS: [CostModel; 4] = [
        CostModel::GateCount,
        CostModel::MultiQubitGateCount,
        CostModel::TCount,
        CostModel::Depth,
    ];

    /// Applies `delta` to a clone and checks every model's delta-coster
    /// against the materialized circuit's cost. Returns the spliced DAG so
    /// callers can chain splices.
    fn check_delta(dag: &CircuitDag, delta: &SpliceDelta) -> CircuitDag {
        let mut spliced = dag.clone();
        spliced.splice(delta);
        spliced.validate().unwrap();
        let after = spliced.to_circuit();
        let before = dag.to_circuit();
        for model in ALL_MODELS {
            let coster = model.delta_coster(dag);
            assert_eq!(coster.parent_cost(), model.cost(&before), "{model:?}");
            assert_eq!(coster.cost_after(delta), model.cost(&after), "{model:?}");
            assert_eq!(
                model.delta_cost(dag, delta),
                model.cost(&after),
                "{model:?}"
            );
        }
        spliced
    }

    #[test]
    fn delta_cost_matches_materialized_cost_for_all_models() {
        let mut c = Circuit::new(3, 0);
        c.push(Instruction::new(Gate::H, vec![0], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        c.push(Instruction::new(Gate::T, vec![1], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![1, 2], vec![]));
        c.push(Instruction::new(Gate::H, vec![2], vec![]));
        let dag = CircuitDag::from_circuit(&c);
        let ids = dag.topo_order().to_vec();

        // Replace the T with two T† (cost up under TCount, flat elsewhere).
        let dag2 = check_delta(
            &dag,
            &SpliceDelta {
                region: vec![ids[2]],
                replacement: vec![
                    Instruction::new(Gate::Tdg, vec![1], vec![]),
                    Instruction::new(Gate::Tdg, vec![1], vec![]),
                ],
            },
        );

        // Remove a two-node region with an empty replacement (bridges a
        // wire; depth shrinks and the change propagates to descendants).
        let ids2 = dag2.topo_order().to_vec();
        check_delta(
            &dag2,
            &SpliceDelta {
                region: vec![ids2[1], ids2[2]],
                replacement: vec![],
            },
        );

        // Replace the two-qubit middle with a deeper single-wire ladder.
        check_delta(
            &dag,
            &SpliceDelta {
                region: vec![ids[1]],
                replacement: vec![
                    Instruction::new(Gate::H, vec![0], vec![]),
                    Instruction::new(Gate::Cnot, vec![1, 0], vec![]),
                    Instruction::new(Gate::H, vec![1], vec![]),
                ],
            },
        );
    }

    /// Depth changes that ripple through a long descendant chain (and then
    /// stop) are priced exactly: the propagation must follow the chain,
    /// re-shorten it, and still see the untouched deep wire's maximum.
    #[test]
    fn depth_delta_propagates_through_descendants() {
        let mut c = Circuit::new(3, 0);
        // Wire 0: a 4-deep ladder feeding a CNOT chain into wires 1, 2.
        for _ in 0..4 {
            c.push(Instruction::new(Gate::H, vec![0], vec![]));
        }
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![1, 2], vec![]));
        // Wire 2 keeps going afterwards.
        c.push(Instruction::new(Gate::X, vec![2], vec![]));
        let dag = CircuitDag::from_circuit(&c);
        let ids = dag.topo_order().to_vec();
        assert_eq!(CostModel::Depth.cost(&c), 7);

        // Cancel two of the leading Hadamards: every descendant's depth
        // drops by 2.
        check_delta(
            &dag,
            &SpliceDelta {
                region: vec![ids[0], ids[1]],
                replacement: vec![],
            },
        );

        // Replace one Hadamard with a 3-gate ladder: depth grows and the
        // growth reaches the tail of wire 2.
        check_delta(
            &dag,
            &SpliceDelta {
                region: vec![ids[2]],
                replacement: vec![
                    Instruction::new(Gate::H, vec![0], vec![]),
                    Instruction::new(Gate::X, vec![0], vec![]),
                    Instruction::new(Gate::H, vec![0], vec![]),
                ],
            },
        );
    }

    /// The depth coster's boundary handling covers head-of-wire regions,
    /// multi-wire regions, and exit successors seen on several wires.
    #[test]
    fn depth_delta_handles_boundary_shapes() {
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(Gate::H, vec![0], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        let dag = CircuitDag::from_circuit(&c);
        let ids = dag.topo_order().to_vec();

        // Head region (no entry predecessors).
        check_delta(
            &dag,
            &SpliceDelta {
                region: vec![ids[0]],
                replacement: vec![],
            },
        );
        // Two-wire region whose exit successor sits on both wires.
        check_delta(
            &dag,
            &SpliceDelta {
                region: vec![ids[1]],
                replacement: vec![Instruction::new(Gate::Cnot, vec![1, 0], vec![])],
            },
        );
        // Whole-circuit region, empty replacement: depth 0.
        check_delta(
            &dag,
            &SpliceDelta {
                region: ids.clone(),
                replacement: vec![],
            },
        );
    }
}
