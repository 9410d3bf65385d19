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
//! can embed a *prebuilt* index section and services can skip both
//! generation and index construction at startup; the optimizer crate
//! re-exports it. The serialized form (per-pattern histograms + global
//! anchor buckets) is unchanged since format version 1: the per-circuit
//! metadata below is cheap and recomputed at load time.

use crate::automaton::MatchAutomaton;
use crate::xform::Transformation;
use quartz_ir::{EpochSet, Gate, GateHistogram, ALL_GATES};
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
    /// Transformation ids bucketed by *global* anchor gate index; each id
    /// appears in exactly one bucket. This is the assignment persisted in
    /// library artifacts (format version 1); dispatch itself re-anchors per
    /// circuit through `gate_buckets`.
    buckets: Vec<Vec<usize>>,
    /// Transformation ids bucketed by every gate type their pattern uses
    /// (multi-membership), each bucket ascending. Derived, never serialized.
    gate_buckets: Vec<Vec<usize>>,
    /// The target patterns compiled into one prefix tree, built on first
    /// use so loading a library or booting a daemon never pays for it.
    automaton: OnceLock<MatchAutomaton>,
}

impl TransformationIndex {
    /// Builds the index. Transformations with an empty target pattern are
    /// rejected upstream (see [`crate::transformations_from_ecc_set`]); if
    /// one slips through it is bucketed under an arbitrary anchor and always
    /// attempted.
    pub fn new(transformations: Vec<Transformation>) -> Self {
        // Global frequency of each gate type across all target patterns,
        // used to pick the most selective anchor per pattern.
        let mut global_counts = [0usize; Gate::COUNT];
        for xform in &transformations {
            for instr in xform.target.instructions() {
                global_counts[instr.gate.index()] += 1;
            }
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); Gate::COUNT];
        for (id, xform) in transformations.iter().enumerate() {
            let anchor = xform
                .target
                .instructions()
                .iter()
                .map(|i| i.gate)
                .min_by_key(|g| (global_counts[g.index()], g.index()))
                .unwrap_or(Gate::H);
            buckets[anchor.index()].push(id);
        }
        TransformationIndex::assemble(transformations, buckets)
    }

    /// Computes the derived per-pattern metadata and gate buckets shared by
    /// every constructor (fresh build and artifact load alike).
    fn assemble(transformations: Vec<Transformation>, buckets: Vec<Vec<usize>>) -> Self {
        let mut metas = Vec::with_capacity(transformations.len());
        let mut gate_buckets: Vec<Vec<usize>> = vec![Vec::new(); Gate::COUNT];
        for (id, xform) in transformations.iter().enumerate() {
            let target = &xform.target;
            let histogram = *target.gate_histogram();
            let mut gate_mask = 0u32;
            let mut qubits_used: Vec<usize> = Vec::new();
            for instr in target.instructions() {
                gate_mask |= 1 << instr.gate.index();
                for &q in &instr.qubits {
                    if !qubits_used.contains(&q) {
                        qubits_used.push(q);
                    }
                }
            }
            for gate in ALL_GATES {
                if gate_mask & (1 << gate.index()) != 0 {
                    gate_buckets[gate.index()].push(id);
                }
            }
            metas.push(PatternMeta {
                histogram,
                qubit_span: qubits_used.len() as u32,
            });
        }
        TransformationIndex {
            transformations,
            metas,
            buckets,
            gate_buckets,
            automaton: OnceLock::new(),
        }
    }

    /// Reassembles an index from its serialized parts (the prebuilt-index
    /// section of a library artifact, DESIGN.md §7) without re-deriving the
    /// anchor assignment.
    ///
    /// The parts are validated structurally — per-transformation histograms
    /// must match each target's gate multiset, and the buckets must form a
    /// partition of the transformation ids — so a corrupted or stale section
    /// is rejected instead of silently changing dispatch behavior.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn from_parts(
        transformations: Vec<Transformation>,
        histograms: Vec<GateHistogram>,
        buckets: Vec<Vec<usize>>,
    ) -> Result<Self, String> {
        if histograms.len() != transformations.len() {
            return Err(format!(
                "index has {} transformations but {} pattern histograms",
                transformations.len(),
                histograms.len()
            ));
        }
        if buckets.len() != Gate::COUNT {
            return Err(format!(
                "index has {} anchor buckets, expected one per gate type ({})",
                buckets.len(),
                Gate::COUNT
            ));
        }
        for (id, (xform, histogram)) in transformations.iter().zip(&histograms).enumerate() {
            if xform.target.gate_histogram() != histogram {
                return Err(format!(
                    "stored histogram of transformation {id} does not match its target pattern"
                ));
            }
        }
        let mut seen = vec![false; transformations.len()];
        for bucket in &buckets {
            for &id in bucket {
                if id >= transformations.len() {
                    return Err(format!(
                        "bucket refers to transformation {id}, only {} exist",
                        transformations.len()
                    ));
                }
                if seen[id] {
                    return Err(format!("transformation {id} appears in two anchor buckets"));
                }
                seen[id] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!(
                "transformation {missing} is missing from every anchor bucket"
            ));
        }
        Ok(TransformationIndex::assemble(transformations, buckets))
    }

    /// The indexed transformations, in their original order.
    pub fn transformations(&self) -> &[Transformation] {
        &self.transformations
    }

    /// Per-transformation target-pattern histograms, in transformation order
    /// (what the histogram-subsumption filter consults; serialized into the
    /// prebuilt-index section).
    pub fn pattern_histograms(&self) -> impl Iterator<Item = &GateHistogram> + '_ {
        self.metas.iter().map(|m| &m.histogram)
    }

    /// The anchor buckets, one per [`Gate`] in [`quartz_ir::ALL_GATES`]
    /// order: the transformation ids anchored on that gate type.
    pub fn anchor_buckets(&self) -> &[Vec<usize>] {
        &self.buckets
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

    #[test]
    fn from_parts_round_trips_and_rejects_inconsistencies() {
        let xforms = vec![
            xform(&[(Gate::H, 0), (Gate::H, 0)], &[]),
            xform(&[(Gate::X, 0)], &[(Gate::H, 0)]),
        ];
        let built = TransformationIndex::new(xforms);
        let histograms: Vec<GateHistogram> = built.pattern_histograms().copied().collect();
        let buckets = built.anchor_buckets().to_vec();
        let rebuilt = TransformationIndex::from_parts(
            built.transformations().to_vec(),
            histograms.clone(),
            buckets.clone(),
        )
        .unwrap();
        let mut c = Circuit::new(2, 0);
        c.push(instruction(Gate::H, &[0]));
        c.push(instruction(Gate::H, &[1]));
        assert_eq!(
            built.candidates_for(c.gate_histogram()),
            rebuilt.candidates_for(c.gate_histogram())
        );

        // Histogram mismatch is rejected.
        let mut bad_histograms = histograms.clone();
        bad_histograms.swap(0, 1);
        assert!(TransformationIndex::from_parts(
            built.transformations().to_vec(),
            bad_histograms,
            buckets.clone(),
        )
        .is_err());

        // A duplicated bucket id is rejected.
        let mut dup = buckets.clone();
        let id = dup.iter().position(|b| !b.is_empty()).unwrap();
        let first = dup[id][0];
        dup[id].push(first);
        assert!(TransformationIndex::from_parts(
            built.transformations().to_vec(),
            histograms.clone(),
            dup,
        )
        .is_err());

        // A missing id is rejected.
        let mut missing = buckets;
        let id = missing.iter().position(|b| !b.is_empty()).unwrap();
        missing[id].clear();
        assert!(TransformationIndex::from_parts(
            built.transformations().to_vec(),
            histograms,
            missing,
        )
        .is_err());
    }
}
