//! Indexed transformation dispatch (DESIGN.md §2.2).
//!
//! The search dequeues a circuit and must decide which transformations to
//! attempt. The naive approach — run the pattern matcher for *every*
//! transformation — wastes most of its time on patterns that cannot possibly
//! match. [`TransformationIndex`] prunes that set with cheap filters before
//! any matching happens:
//!
//! 1. **Per-circuit re-anchoring.** Every transformation is reachable
//!    through a bucket for each gate type its target pattern uses. Candidate
//!    selection walks the circuit's present gate types *rarest first* (by
//!    this circuit's histogram, not a global frequency), so every
//!    transformation is examined exactly once — through the pattern gate
//!    that is most selective *for this circuit* — and a single count
//!    comparison on that gate rejects most of them before the full
//!    histogram check. Transformations none of whose pattern gates occur in
//!    the circuit are never touched at all.
//! 2. **Qubit-span filter.** A pattern using more distinct qubits than the
//!    circuit has wires cannot match; one integer comparison.
//! 3. **Histogram subsumption.** A pattern can only match a circuit when its
//!    gate-type multiset is a subset of the circuit's
//!    ([`quartz_ir::GateHistogram::is_subset_of`]). Candidates surviving the
//!    cheaper filters are checked against the circuit's
//!    incrementally-maintained histogram in O([`Gate::COUNT`]).
//!
//! All filters are *sound*: a skipped transformation is guaranteed to have
//! zero matches, so the surviving candidate list — returned in original
//! transformation order — produces exactly the same rewrites as the full
//! linear scan, and the search explores an identical state space.
//!
//! The hot loop reuses an [`IndexScratch`] (an epoch-stamped visited set)
//! across dequeues so candidate selection allocates nothing in steady state.
//!
//! The index lives in `quartz-gen` (next to the ECC sets it is derived from)
//! so that persisted library artifacts ([`crate::library`], DESIGN.md §7)
//! can embed the extracted transformation list and services skip
//! generation at startup; the optimizer crate re-exports it. Only the
//! transformation list is serialized: every piece of metadata below is
//! derived from it by [`TransformationIndex::new`], at pack and at load
//! alike.

use crate::automaton::MatchAutomaton;
use crate::xform::Transformation;
use quartz_ir::{EpochSet, Gate, GateHistogram};
use std::sync::OnceLock;

/// Per-pattern metadata precomputed at index construction.
#[derive(Debug, Clone)]
struct PatternMeta {
    /// Gate-type multiset of the target pattern.
    histogram: GateHistogram,
    /// Number of distinct qubits the pattern touches.
    qubit_span: u32,
}

/// Reusable scratch state for [`TransformationIndex::candidates_into`]: an
/// epoch-stamped visited set plus a sort buffer, so the per-dequeue hot path allocates nothing
/// once warm. One scratch per thread; any scratch works with any index of
/// the same size (the visited stamps reset logically on every call).
#[derive(Debug, Default)]
pub struct IndexScratch {
    visited: EpochSet,
    /// (circuit count, gate) pairs, sorted ascending — the per-circuit
    /// rarity order of the present gate types.
    rarity: Vec<(u32, Gate)>,
}

impl IndexScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        IndexScratch::default()
    }
}

/// An index over a transformation library, grouping transformations by
/// pattern gate type and pattern gate-type multiset.
#[derive(Debug, Clone)]
pub struct TransformationIndex {
    transformations: Vec<Transformation>,
    metas: Vec<PatternMeta>,
    /// Transformation ids bucketed by every gate type their pattern uses
    /// (multi-membership), each bucket ascending.
    gate_buckets: Vec<Vec<usize>>,
    /// The target patterns compiled into one prefix tree, built on first
    /// use so loading a library or booting a daemon never pays for it.
    automaton: OnceLock<MatchAutomaton>,
}

impl TransformationIndex {
    /// Builds the index: each pattern's gate histogram and qubit span, and
    /// the per-gate-type buckets that candidate selection walks.
    /// Transformations with an empty target pattern are rejected upstream
    /// (see [`crate::transformations_from_ecc_set`]); if one slips through
    /// it sits in no bucket and is never attempted.
    pub fn new(transformations: Vec<Transformation>) -> Self {
        let mut metas = Vec::with_capacity(transformations.len());
        let mut gate_buckets: Vec<Vec<usize>> = vec![Vec::new(); Gate::COUNT];
        for (id, xform) in transformations.iter().enumerate() {
            let target = &xform.target;
            let histogram = *target.gate_histogram();
            let mut qubits_used: Vec<usize> = Vec::new();
            for instr in target.instructions() {
                for &q in &instr.qubits {
                    if !qubits_used.contains(&q) {
                        qubits_used.push(q);
                    }
                }
            }
            for gate in histogram.present_gates() {
                gate_buckets[gate.index()].push(id);
            }
            metas.push(PatternMeta {
                histogram,
                qubit_span: qubits_used.len() as u32,
            });
        }
        TransformationIndex {
            transformations,
            metas,
            gate_buckets,
            automaton: OnceLock::new(),
        }
    }

    /// The indexed transformations, in their original order.
    pub fn transformations(&self) -> &[Transformation] {
        &self.transformations
    }

    /// The transformations' target patterns as one prefix-sharing match
    /// automaton (DESIGN.md §2.6), rule ids being transformation ids.
    ///
    /// Compiled on the first call and kept for the index's lifetime, so
    /// every optimizer, service slot and worker thread sharing this index
    /// shares one copy, and only an index that is actually searched with
    /// builds one.
    pub fn automaton(&self) -> &MatchAutomaton {
        self.automaton
            .get_or_init(|| MatchAutomaton::new(self.transformations.iter().map(|x| &x.target)))
    }

    /// Number of indexed transformations.
    pub fn len(&self) -> usize {
        self.transformations.len()
    }

    /// Returns `true` when the index holds no transformations.
    pub fn is_empty(&self) -> bool {
        self.transformations.is_empty()
    }

    /// Ids of the transformations that can possibly match a circuit with the
    /// given gate histogram, in ascending (original) order — so dispatching
    /// through the index visits the same transformations in the same order as
    /// the linear scan, minus the provably-futile ones.
    ///
    /// Convenience wrapper over [`TransformationIndex::candidates_into`]
    /// with a throwaway scratch and no qubit bound; the optimizer's hot loop
    /// uses the scratch variant directly.
    pub fn candidates_for(&self, circuit_histogram: &GateHistogram) -> Vec<usize> {
        let mut ids = Vec::new();
        self.candidates_into(
            circuit_histogram,
            usize::MAX,
            &mut IndexScratch::new(),
            &mut ids,
        );
        ids
    }

    /// Fills `out` with the ids of every transformation that can possibly
    /// match a circuit with the given gate histogram over `num_qubits`
    /// wires, ascending. Alloc-free once `scratch`/`out` are warm.
    ///
    /// Present gate types are walked rarest-in-this-circuit first, so each
    /// transformation is examined exactly once, through its most selective
    /// pattern gate *for this circuit* (the per-circuit re-anchoring pass of
    /// DESIGN.md §2.2), and a single count comparison on that gate rejects
    /// most non-candidates before the full histogram subsumption check.
    pub fn candidates_into(
        &self,
        circuit_histogram: &GateHistogram,
        num_qubits: usize,
        scratch: &mut IndexScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        scratch.visited.reset(self.transformations.len());
        scratch.rarity.clear();
        for gate in circuit_histogram.present_gates() {
            scratch
                .rarity
                .push((circuit_histogram.count(gate) as u32, gate));
        }
        scratch
            .rarity
            .sort_unstable_by_key(|&(n, g)| (n, g.index()));
        let rarity = std::mem::take(&mut scratch.rarity);
        for &(count, gate) in &rarity {
            for &id in &self.gate_buckets[gate.index()] {
                if !scratch.visited.insert(id) {
                    continue;
                }
                let meta = &self.metas[id];
                // `gate` is this pattern's rarest present gate type, so the
                // single-count check is the most selective one available.
                if meta.qubit_span as usize <= num_qubits
                    && meta.histogram.count(gate) <= count as usize
                    && meta.histogram.is_subset_of(circuit_histogram)
                {
                    out.push(id);
                }
            }
        }
        scratch.rarity = rarity;
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xform::instruction;
    use quartz_ir::{Circuit, Gate};

    fn xform(target_gates: &[(Gate, usize)], rewrite_gates: &[(Gate, usize)]) -> Transformation {
        let build = |gates: &[(Gate, usize)]| {
            let mut c = Circuit::new(2, 0);
            for &(g, q) in gates {
                if g.num_qubits() == 2 {
                    c.push(instruction(g, &[q, 1 - q]));
                } else {
                    c.push(instruction(g, &[q]));
                }
            }
            c
        };
        Transformation {
            target: build(target_gates),
            rewrite: build(rewrite_gates),
        }
    }

    #[test]
    fn candidates_are_filtered_and_ordered() {
        let xforms = vec![
            xform(&[(Gate::H, 0), (Gate::H, 0)], &[]), // 0: needs H,H
            xform(&[(Gate::X, 0), (Gate::X, 0)], &[]), // 1: needs X,X
            xform(&[(Gate::H, 0), (Gate::Cnot, 0)], &[(Gate::H, 0)]), // 2: needs H,CNOT
            xform(&[(Gate::Cnot, 0), (Gate::Cnot, 0)], &[]), // 3: needs CNOT,CNOT
        ];
        let index = TransformationIndex::new(xforms);
        assert_eq!(index.len(), 4);

        // Circuit with two H's and one CNOT: the X-pattern and the
        // double-CNOT pattern are pruned.
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[1]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        assert_eq!(index.candidates_for(c.gate_histogram()), vec![0, 2]);

        // An all-X circuit only consults the X pattern.
        let mut xs = Circuit::new(2, 0);
        xs.push(instruction(Gate::X, &[0]));
        xs.push(instruction(Gate::X, &[0]));
        assert_eq!(index.candidates_for(xs.gate_histogram()), vec![1]);

        // The empty circuit matches nothing.
        assert!(index
            .candidates_for(Circuit::new(2, 0).gate_histogram())
            .is_empty());
    }

    #[test]
    fn multiplicity_matters_not_just_presence() {
        let xforms = vec![xform(&[(Gate::H, 0), (Gate::H, 0)], &[])];
        let index = TransformationIndex::new(xforms);
        let mut one_h = Circuit::new(2, 0);
        one_h.push(instruction(Gate::H, &[0]));
        assert!(index.candidates_for(one_h.gate_histogram()).is_empty());
        let two_h = one_h.appended(instruction(Gate::H, &[1]));
        assert_eq!(index.candidates_for(two_h.gate_histogram()), vec![0]);
    }

    #[test]
    fn scratch_variant_agrees_and_applies_the_qubit_filter() {
        let xforms = vec![
            xform(&[(Gate::H, 0), (Gate::H, 0)], &[]), // 1 qubit... built on 2
            xform(&[(Gate::Cnot, 0), (Gate::Cnot, 0)], &[]), // spans 2 qubits
            xform(&[(Gate::H, 0), (Gate::Cnot, 0)], &[(Gate::H, 0)]), // spans 2 qubits
        ];
        let index = TransformationIndex::new(xforms);
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[1]));
        c.push(instruction(Gate::Cnot, &[0, 1]));
        c.push(instruction(Gate::Cnot, &[0, 1]));

        let mut scratch = IndexScratch::new();
        let mut ids = Vec::new();
        index.candidates_into(c.gate_histogram(), 2, &mut scratch, &mut ids);
        assert_eq!(ids, index.candidates_for(c.gate_histogram()));
        assert_eq!(ids, vec![0, 1, 2]);

        // On a 1-wire circuit the 2-qubit-span patterns are pruned by span
        // alone (the histogram is forged to still contain their gates).
        index.candidates_into(c.gate_histogram(), 1, &mut scratch, &mut ids);
        assert_eq!(ids, vec![0]);

        // The scratch is reusable across calls (epoch reset, not realloc).
        index.candidates_into(c.gate_histogram(), 2, &mut scratch, &mut ids);
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
