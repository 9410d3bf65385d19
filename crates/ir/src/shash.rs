//! An order-invariant, **exact**, incrementally updatable structural hash
//! over [`CircuitDag`]s (DESIGN.md §9, §13).
//!
//! The optimizer's seen-set keys circuits by this hash. It hashes the
//! *labeled DAG* rather than any particular sequence order: one positional
//! polynomial chain hash per qubit wire, folded over the contents (gate,
//! operand wires, parameters) of the wire's instructions in wire order,
//! combined with the wire lengths and the circuit shape into a single
//! 64-bit value.
//!
//! Per-wire content sequences are a **complete invariant** of the labeled
//! DAG: an instruction's content includes its exact operand wires, and two
//! same-content instructions must appear in the same relative order on every
//! wire they share (the opposite order would be a cycle), so the wire
//! sequences determine every wire adjacency. Every ingredient is a function
//! of the DAG itself — never of node ids, slab layout, or the cached
//! topological order — so **any two DAGs with the same canonical form hash
//! identically**, and distinct canonical forms collide only with the
//! ≈ 2⁻⁶⁴ probability of a 64-bit hash collision (the risk class the search
//! accepted when it keyed the seen-set on 64-bit canonical fingerprints).
//! That is what makes the hash an *identity*, not merely a prefilter: the
//! search admits, orders, and deduplicates candidates on it, and the
//! materialized form is only re-hashed as a runtime canary
//! (`fp_confirm_mismatches`).
//!
//! Completeness is not a luxury. An earlier design summed independent
//! per-node terms over radius-1 wire neighborhoods — updatable in strict
//! O(footprint), but *systematically* collision-prone: real NAM-gate-set
//! searches reached pairs of distinct canonical forms that differ by two
//! symmetric commutation moves (an Rz slid across a CNOT control at two
//! sites with identical radius-1 surroundings, in opposite directions), and
//! any commutative aggregation of bounded-radius terms is blind to exactly
//! that — the first move shifts the term multiset by +Δ, the second by −Δ.
//! Optimization benchmarks repeat their motifs, so those collisions happen
//! in practice (14 times within 40 iterations on `barenco_tof_3`), at any
//! fixed radius. Hashing each wire's full ordered sequence removes the
//! entire class.
//!
//! # The polynomial chain and O(footprint) previews
//!
//! A wire carrying instruction contents `c₁ … c_L` hashes to the Horner
//! evaluation `H = Σ m(cᵢ)·B^(L−i) (mod 2⁶⁴)`, where `B` is a fixed odd
//! constant and `m(c)` is the splitmix64-finalized content hash of one
//! instruction (finalization decorrelates the linear structure). Because the
//! chain is a polynomial, a contiguous segment can be *cut out and replaced
//! algebraically*: with `P` the cached prefix hash at a node (the chain of
//! the wire up to and including it) and `Lₛ` the number of instructions
//! after the region on the wire,
//!
//! ```text
//! suffix  S  = H − P(exit)·B^Lₛ
//! new     H' = (Horner of the replacement, seeded from P(entry)) ·B^Lₛ + S
//! ```
//!
//! [`CircuitDag`] caches `(position, prefix)` per node per operand wire and
//! `(length, chain)` per wire — built by `from_circuit` and maintained
//! through `splice_with_footprint` — so [`StructuralHash::preview`] touches
//! only the region's boundary cursors and the replacement: O(footprint),
//! not O(touched wires), and nowhere near the O(circuit) materialize +
//! canonicalize path it stands in for. The per-wire chains are themselves
//! combined as a wrapping *sum* of per-wire finalized commitments (wire
//! index, chain, length), so patching a wire's contribution is O(1) too.
//! The old commitment of a touched wire is read off the same caches, so a
//! [`StructuralHash`] is that 64-bit sum alone: it copies no per-wire state.
//!
//! [`StructuralHash::previewed`] returns the same result as a carryable
//! hash, and [`StructuralHash::previewed_rewalk`] recomputes a preview by
//! re-walking the touched wires end-to-end (the reference implementation
//! the O(footprint) algebra is property-tested against). The hash of an
//! already-spliced DAG is [`StructuralHash::of`], a read of its maintained
//! caches.

use crate::circuit::Instruction;
use crate::dag::{CircuitDag, NodeId, SpliceDelta};

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// The polynomial base of the per-wire chain hashes: a fixed odd constant,
/// so multiplication by `B` is invertible mod 2⁶⁴ and prefix algebra loses
/// no information.
pub(crate) const BASE: u64 = 0xd6e8_feb8_6659_fd93;

/// Salt separating the wire-index contribution of a wire commitment.
const WIRE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Salt separating the wire-length contribution of a wire commitment.
const LEN_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;
/// Salt separating the circuit-shape (wire count, parameter count) term.
const SHAPE_SALT: u64 = 0x1656_67b1_9e37_79f9;

#[inline]
fn mix(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h ^= byte as u64;
        *h = h.wrapping_mul(PRIME);
    }
}

/// Finalization avalanche (splitmix64): spreads the combined value over all
/// 64 bits.
#[inline]
fn finalize(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// FNV-1a hash of one instruction's content: gate index, qubit operands,
/// then each parameter as (constant, length-prefixed coefficients).
fn content_hash(instr: &Instruction) -> u64 {
    let mut h = OFFSET;
    mix(&mut h, instr.gate.index() as u64);
    for &q in &instr.qubits {
        mix(&mut h, q as u64);
    }
    for p in &instr.params {
        mix(&mut h, p.const_pi4() as i64 as u64);
        mix(&mut h, p.coeffs().len() as u64);
        for &c in p.coeffs() {
            mix(&mut h, c as i64 as u64);
        }
    }
    h
}

/// The polynomial coefficient of one instruction: its content hash pushed
/// through the splitmix64 avalanche, so the linear chain structure never
/// sees raw FNV state. This is the `m(c)` of the module docs; the
/// [`CircuitDag`] wire caches fold exactly this value.
pub(crate) fn term(instr: &Instruction) -> u64 {
    finalize(content_hash(instr))
}

/// `BASE^exp mod 2⁶⁴` (binary exponentiation, O(log exp)).
#[inline]
pub(crate) fn pow_base(exp: u32) -> u64 {
    BASE.wrapping_pow(exp)
}

/// The finalized commitment of one wire: mixes the wire index, its chain
/// hash, and its instruction count. The total hash is a wrapping sum of
/// these, so replacing one wire's commitment is O(1).
#[inline]
fn wire_term(q: usize, chain: u64, len: u32) -> u64 {
    let v = finalize(chain ^ (q as u64 + 1).wrapping_mul(WIRE_SALT));
    finalize(v ^ (len as u64).wrapping_mul(LEN_SALT))
}

/// The circuit-shape commitment (wire count, formal parameter count).
#[inline]
fn shape_term(num_qubits: usize, num_params: usize) -> u64 {
    finalize((num_qubits as u64).wrapping_mul(SHAPE_SALT) ^ (num_params as u64).rotate_left(32))
}

/// One wire's post-splice replacement chain, as computed by the preview
/// algebra or the reference rewalk.
#[derive(Debug, PartialEq, Eq)]
struct WirePatch {
    q: usize,
    chain: u64,
    len: u32,
}

/// The order-invariant structural hash of a [`CircuitDag`], with O(footprint)
/// incremental preview and update paths (see the module docs).
///
/// # Examples
///
/// Two sequence orders of the same DAG hash identically:
///
/// ```
/// use quartz_ir::{Circuit, CircuitDag, Gate, Instruction, StructuralHash};
///
/// let mut a = Circuit::new(2, 0);
/// a.push(Instruction::new(Gate::H, vec![0], vec![]));
/// a.push(Instruction::new(Gate::X, vec![1], vec![]));
/// let mut b = Circuit::new(2, 0);
/// b.push(Instruction::new(Gate::X, vec![1], vec![]));
/// b.push(Instruction::new(Gate::H, vec![0], vec![]));
///
/// let ha = StructuralHash::of(&CircuitDag::from_circuit(&a));
/// let hb = StructuralHash::of(&CircuitDag::from_circuit(&b));
/// assert_eq!(ha.value(), hb.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructuralHash {
    /// Wrapping sum of the shape term and every wire commitment — the
    /// pre-finalization state, kept so previews can patch it in O(1) per
    /// touched wire.
    inner: u64,
}

impl StructuralHash {
    /// Reads the hash off a DAG's maintained wire caches: O(num qubits),
    /// no traversal. ([`CircuitDag::from_circuit`] builds the caches;
    /// `splice_with_footprint` maintains them.)
    pub fn of(dag: &CircuitDag) -> Self {
        let mut inner = shape_term(dag.num_qubits(), dag.num_params());
        for q in 0..dag.num_qubits() {
            inner = inner.wrapping_add(wire_term(q, dag.wire_chain(q), dag.wire_len(q)));
        }
        StructuralHash { inner }
    }

    /// The 64-bit hash value.
    pub fn value(&self) -> u64 {
        finalize(self.inner)
    }

    /// Calls `f` with the post-splice `(wire, chain, len)` of every wire
    /// `delta` touches, computed algebraically from the DAG's cached
    /// per-node wire cursors in O(footprint): only the region, its boundary
    /// nodes and the replacement instructions are visited, never the wire
    /// interiors, and nothing is allocated. Wires come in the order the
    /// region enters them.
    ///
    /// # Panics
    ///
    /// Panics if a region node is not live. Region validity (convexity,
    /// per-wire contiguity, replacement wires ⊆ region wires) is
    /// debug-asserted; callers uphold it the same way they do for
    /// [`CircuitDag::splice`].
    fn for_each_patch(dag: &CircuitDag, delta: &SpliceDelta, mut f: impl FnMut(WirePatch)) {
        let in_region = |id: NodeId| delta.region.contains(&id);
        // Operand position of wire `q` in `id`, if `id` acts on it.
        let operand =
            |id: NodeId, q: usize| dag.instruction(id).qubits.iter().position(|&w| w == q);
        #[cfg(debug_assertions)]
        for instr in &delta.replacement {
            for &q in &instr.qubits {
                debug_assert!(
                    delta.region.iter().any(|&id| operand(id, q).is_some()),
                    "replacement uses wire q{q} outside the spliced region"
                );
            }
        }
        for &id in &delta.region {
            for (op, &q) in dag.instruction(id).qubits.iter().enumerate() {
                // The entry predecessor: the last node before the region on
                // wire q (`None` at the wire head).
                let pred = dag.preds(id)[op];
                if pred.is_some_and(in_region) {
                    continue;
                }
                // Contiguity: the region enters and leaves wire q once each.
                #[cfg(debug_assertions)]
                {
                    let crossings = |step: fn(&CircuitDag, NodeId) -> &[Option<NodeId>]| {
                        let leaves = |r: NodeId| {
                            operand(r, q)
                                .is_some_and(|o| step(dag, r)[o].is_none_or(|n| !in_region(n)))
                        };
                        delta.region.iter().filter(|&&r| leaves(r)).count()
                    };
                    debug_assert!(
                        crossings(CircuitDag::preds) == 1 && crossings(CircuitDag::succs) == 1,
                        "splice region is not contiguous on wire q{q}"
                    );
                }
                // The exit: the last region node on wire q, reached by
                // following the wire through the region.
                let (mut exit, mut exit_op) = (id, op);
                while let Some(next) = dag.succs(exit)[exit_op].filter(|&s| in_region(s)) {
                    exit_op = operand(next, q).expect("a wire successor acts on the wire");
                    exit = next;
                }
                let (entry_prefix, before_len) = match pred {
                    Some(p) => {
                        let (pos, prefix) = dag.wire_cursor(p, q);
                        (prefix, pos + 1)
                    }
                    None => (0, 0),
                };
                let (exit_pos, exit_prefix) = dag.wire_cursor(exit, q);
                // Cut the suffix after the region off the full chain ...
                let suffix_len = dag.wire_len(q) - exit_pos - 1;
                let shift = pow_base(suffix_len);
                let suffix = dag
                    .wire_chain(q)
                    .wrapping_sub(exit_prefix.wrapping_mul(shift));
                // ... run the replacement's Horner fold from the entry
                // prefix, and reattach the suffix.
                let mut chain = entry_prefix;
                let mut rep_len = 0u32;
                for instr in delta.replacement.iter().filter(|r| r.qubits.contains(&q)) {
                    chain = chain.wrapping_mul(BASE).wrapping_add(term(instr));
                    rep_len += 1;
                }
                f(WirePatch {
                    q,
                    chain: chain.wrapping_mul(shift).wrapping_add(suffix),
                    len: before_len + rep_len + suffix_len,
                });
            }
        }
    }

    /// The hash value the DAG *would* have after applying `delta` — computed
    /// without mutating (or cloning) `dag`, in O(footprint): boundary
    /// cursors and replacement only, via the cached prefix algebra.
    ///
    /// `self` must be the hash of `dag`. Equals [`StructuralHash::of`] on
    /// the spliced DAG (property-tested, and checked at runtime by the
    /// search layer's confirmation canary).
    ///
    /// # Panics
    ///
    /// Panics if a region node of `delta` is not live in `dag`.
    pub fn preview(&self, dag: &CircuitDag, delta: &SpliceDelta) -> u64 {
        self.previewed(dag, delta).value()
    }

    /// The full successor hash [`StructuralHash::preview`] is the value of:
    /// the hash the DAG would have after applying `delta`, carryable so the
    /// successor's own previews need no rehash. Same cost and contract as
    /// `preview`; allocates nothing.
    pub fn previewed(&self, dag: &CircuitDag, delta: &SpliceDelta) -> StructuralHash {
        debug_assert_eq!(*self, StructuralHash::of(dag), "self must hash dag");
        let mut hash = *self;
        StructuralHash::for_each_patch(dag, delta, |p| hash.patch(dag, &p));
        hash
    }

    /// Replaces the commitment of patched wire `p.q`: the old one is read
    /// off `dag`'s wire caches, which `self` hashes.
    fn patch(&mut self, dag: &CircuitDag, p: &WirePatch) {
        self.inner = self
            .inner
            .wrapping_sub(wire_term(p.q, dag.wire_chain(p.q), dag.wire_len(p.q)))
            .wrapping_add(wire_term(p.q, p.chain, p.len));
    }

    /// Reference implementation of [`StructuralHash::previewed`]: re-walks
    /// every touched wire end-to-end on the *unspliced* `dag`, substituting
    /// the replacement for the region — O(total length of the touched
    /// wires), no reliance on the cached prefix algebra. The O(footprint)
    /// paths are property-tested against this.
    pub fn previewed_rewalk(&self, dag: &CircuitDag, delta: &SpliceDelta) -> StructuralHash {
        debug_assert_eq!(*self, StructuralHash::of(dag), "self must hash dag");
        let mut hash = *self;
        for p in StructuralHash::rewalk_patches(dag, delta) {
            hash.patch(dag, &p);
        }
        hash
    }

    /// The per-wire result of [`StructuralHash::previewed_rewalk`]: the
    /// same `(wire, chain, len)` list [`StructuralHash::for_each_patch`]
    /// computes algebraically, folded from a walk of each touched wire, in
    /// ascending wire order.
    fn rewalk_patches(dag: &CircuitDag, delta: &SpliceDelta) -> Vec<WirePatch> {
        let in_region = |id: NodeId| delta.region.contains(&id);
        // The touched wires, each with one region node on it to anchor the
        // wire walk.
        let mut anchors: Vec<(usize, NodeId)> = Vec::new();
        for &id in &delta.region {
            for &q in &dag.instruction(id).qubits {
                if !anchors.iter().any(|&(w, _)| w == q) {
                    anchors.push((q, id));
                }
            }
        }
        anchors.sort_unstable_by_key(|&(q, _)| q);
        let rep_terms: Vec<u64> = delta.replacement.iter().map(term).collect();
        let operand = |id: NodeId, q: usize| {
            dag.instruction(id)
                .qubits
                .iter()
                .position(|&iq| iq == q)
                .expect("node is on the wire it was reached from")
        };
        let mut patches = Vec::with_capacity(anchors.len());
        for (q, anchor) in anchors {
            // Back up from the anchor to the head of wire q, then walk the
            // wire front to back, substituting the replacement's
            // instructions (in replacement order) for the region's.
            let mut head = anchor;
            while let Some(p) = dag.preds(head)[operand(head, q)] {
                head = p;
            }
            let mut chain = 0u64;
            let mut len = 0u32;
            let mut fold = |t: u64| {
                chain = chain.wrapping_mul(BASE).wrapping_add(t);
                len += 1;
            };
            let mut cursor = Some(head);
            // 0 = before the region, 1 = inside it, 2 = past it.
            let mut phase = 0u8;
            while let Some(id) = cursor {
                if in_region(id) {
                    debug_assert!(phase != 2, "region is not contiguous on wire q{q}");
                    if phase == 0 {
                        phase = 1;
                        for (instr, &t) in delta.replacement.iter().zip(&rep_terms) {
                            if instr.qubits.contains(&q) {
                                fold(t);
                            }
                        }
                    }
                } else {
                    if phase == 1 {
                        phase = 2;
                    }
                    fold(term(dag.instruction(id)));
                }
                cursor = dag.succs(id)[operand(id, q)];
            }
            patches.push(WirePatch { q, chain, len });
        }
        patches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::Gate;
    use crate::param::ParamExpr;

    fn h(q: usize) -> Instruction {
        Instruction::new(Gate::H, vec![q], vec![])
    }

    fn x(q: usize) -> Instruction {
        Instruction::new(Gate::X, vec![q], vec![])
    }

    fn cnot(c: usize, t: usize) -> Instruction {
        Instruction::new(Gate::Cnot, vec![c, t], vec![])
    }

    fn rz(q: usize, quarters: i32) -> Instruction {
        Instruction::new(Gate::Rz, vec![q], vec![ParamExpr::constant_pi4(quarters)])
    }

    fn circuit(nq: usize, instrs: Vec<Instruction>) -> Circuit {
        let mut c = Circuit::new(nq, 0);
        for i in instrs {
            c.push(i);
        }
        c
    }

    fn shash(c: &Circuit) -> u64 {
        StructuralHash::of(&CircuitDag::from_circuit(c)).value()
    }

    /// Commuting-disjoint reorderings are the same DAG and must hash
    /// identically, independent of NodeId assignment and sequence order.
    #[test]
    fn disjoint_reorderings_hash_identically() {
        let a = circuit(3, vec![h(0), x(1), h(2)]);
        let b = circuit(3, vec![h(2), h(0), x(1)]);
        let c = circuit(3, vec![x(1), h(2), h(0)]);
        assert_eq!(shash(&a), shash(&b));
        assert_eq!(shash(&b), shash(&c));
    }

    /// Different gates, operand orders, or widths must hash apart.
    #[test]
    fn inequivalent_circuits_hash_apart() {
        let base_c = circuit(2, vec![h(0), x(1)]);
        assert_ne!(shash(&base_c), shash(&circuit(2, vec![h(0), h(1)])));
        assert_ne!(shash(&base_c), shash(&circuit(2, vec![h(1), x(0)])));
        assert_ne!(shash(&base_c), shash(&circuit(3, vec![h(0), x(1)])));
        assert_ne!(shash(&circuit(1, vec![])), shash(&circuit(2, vec![])));
        // Parameter values discriminate.
        assert_ne!(
            shash(&circuit(1, vec![rz(0, 1)])),
            shash(&circuit(1, vec![rz(0, 2)]))
        );
    }

    /// The case that defeats a content-only hash: H·B·H·C·H vs H·C·H·B·H on
    /// wire 0, with B = cnot(0,1) and C = cnot(0,2). Both circuits have the
    /// same node-content *multiset*; only wire 0's order tells them apart.
    #[test]
    fn wire_order_discriminates_equal_content_multisets() {
        let a = circuit(3, vec![h(0), cnot(0, 1), h(0), cnot(0, 2), h(0)]);
        let b = circuit(3, vec![h(0), cnot(0, 2), h(0), cnot(0, 1), h(0)]);
        assert_ne!(shash(&a), shash(&b));
    }

    /// Regression for the collision class that sank the radius-1 term-sum
    /// design: two canonical forms that differ by *two* symmetric
    /// commutation moves (an Rz slid across a CNOT control at two sites
    /// with identical bounded-radius surroundings, in opposite directions)
    /// preserve any bounded-radius term multiset, but not the wire
    /// sequences. Observed live on `barenco_tof_3` under NAM rewrites.
    #[test]
    fn symmetric_commutation_move_pairs_hash_apart() {
        let block = |early: bool| {
            let mut seq = vec![cnot(1, 2)];
            if early {
                seq.push(rz(1, 1));
            }
            seq.extend([rz(2, -1), cnot(0, 2), rz(2, 1), cnot(1, 2)]);
            if !early {
                seq.push(rz(1, 1));
            }
            seq
        };
        let mut a = block(true);
        a.extend(block(false));
        let mut b = block(false);
        b.extend(block(true));
        assert_ne!(shash(&circuit(3, a)), shash(&circuit(3, b)));
    }

    /// Wires that carry the same instruction count but different content
    /// positions — and wires whose *lengths* differ while the combined
    /// content coincides — must stay apart (the commitment mixes both).
    #[test]
    fn wire_length_and_index_enter_the_commitment() {
        // Same multiset, gates on different wires.
        assert_ne!(
            shash(&circuit(2, vec![h(0), h(0)])),
            shash(&circuit(2, vec![h(0), h(1)]))
        );
        // Same single-wire content shifted to another wire index.
        assert_ne!(
            shash(&circuit(2, vec![h(0)])),
            shash(&circuit(2, vec![h(1)]))
        );
    }

    /// Exercises `preview`, `previewed` and `previewed_rewalk` against the
    /// actually spliced DAG, across a chain of splices that cover slot
    /// reuse, multi-wire regions, empty replacements, and bridged wires.
    /// The prefix algebra and the rewalk must agree wire by wire, and each
    /// patched wire must equal the spliced DAG's maintained wire cache.
    fn check_splice(
        dag: &mut CircuitDag,
        hash: StructuralHash,
        delta: &SpliceDelta,
    ) -> StructuralHash {
        let previewed = hash.preview(dag, delta);
        let full = hash.previewed(dag, delta);
        let rewalk = hash.previewed_rewalk(dag, delta);
        let mut algebra = Vec::new();
        StructuralHash::for_each_patch(dag, delta, |p| algebra.push(p));
        algebra.sort_unstable_by_key(|p| p.q);
        assert_eq!(
            algebra,
            StructuralHash::rewalk_patches(dag, delta),
            "prefix algebra and rewalk disagree on a wire"
        );
        dag.splice_with_footprint(delta);
        dag.validate().unwrap();
        for p in &algebra {
            assert_eq!(
                (p.chain, p.len),
                (dag.wire_chain(p.q), dag.wire_len(p.q)),
                "patched wire q{} diverged from the spliced DAG",
                p.q
            );
        }
        let from_scratch = StructuralHash::of(dag);
        assert_eq!(previewed, from_scratch.value(), "preview diverged");
        assert_eq!(full, from_scratch, "previewed diverged");
        assert_eq!(rewalk, from_scratch, "rewalk reference diverged");
        from_scratch
    }

    #[test]
    fn preview_and_updated_match_from_scratch_hashes() {
        let c = circuit(3, vec![h(0), cnot(0, 1), rz(1, 2), cnot(1, 2), h(2)]);
        let mut dag = CircuitDag::from_circuit(&c);
        let mut hash = StructuralHash::of(&dag);

        // Replace the middle rz by two rz's (wire 1 only).
        let delta = SpliceDelta {
            region: vec![dag.topo_order()[2]],
            replacement: vec![rz(1, 1), rz(1, 1)],
        };
        hash = check_splice(&mut dag, hash, &delta);

        // Remove a two-node region spanning wires 0..2 with an empty
        // replacement (bridges wires, boundary rewired on several sides).
        let ids = dag.topo_order().to_vec();
        let delta = SpliceDelta {
            region: vec![ids[1], ids[2]], // cnot(0,1); rz(1,1)
            replacement: vec![],
        };
        hash = check_splice(&mut dag, hash, &delta);

        // Replace a cnot by a cnot the other way (slot reuse, same wires).
        let ids = dag.topo_order().to_vec();
        let cx = ids
            .iter()
            .find(|&&id| dag.instruction(id).gate == Gate::Cnot)
            .copied()
            .expect("a cnot survives");
        let delta = SpliceDelta {
            region: vec![cx],
            replacement: vec![cnot(2, 1), h(1)],
        };
        check_splice(&mut dag, hash, &delta);
    }

    /// A region at the very head and the very tail of a wire exercises the
    /// `entry = None` / empty-suffix corners of the prefix algebra.
    #[test]
    fn preview_handles_wire_head_and_tail_regions() {
        let c = circuit(2, vec![h(0), cnot(0, 1), h(1)]);
        let mut dag = CircuitDag::from_circuit(&c);
        let hash = StructuralHash::of(&dag);

        // Head of wire 0: replace the leading h.
        let head = dag.topo_order()[0];
        let delta = SpliceDelta {
            region: vec![head],
            replacement: vec![x(0), h(0)],
        };
        let hash = check_splice(&mut dag, hash, &delta);

        // Tail of wire 1: drop the trailing h (empty suffix, empty
        // replacement on that wire).
        let tail = *dag.topo_order().last().unwrap();
        let delta = SpliceDelta {
            region: vec![tail],
            replacement: vec![],
        };
        check_splice(&mut dag, hash, &delta);
    }

    /// The hash is invariant under where nodes live in the slab: building
    /// the same circuit via different splice histories gives the same value.
    #[test]
    fn hash_ignores_slab_layout_and_topo_caching() {
        // Path A: direct construction.
        let target = circuit(2, vec![h(0), cnot(0, 1), h(1)]);
        let direct = shash(&target);

        // Path B: build a larger circuit, then splice it down to the target.
        let start = circuit(2, vec![h(0), x(0), x(0), cnot(0, 1), h(1)]);
        let mut dag = CircuitDag::from_circuit(&start);
        let ids = dag.topo_order().to_vec();
        dag.splice(&SpliceDelta {
            region: vec![ids[1], ids[2]],
            replacement: vec![],
        });
        dag.validate().unwrap();
        assert_eq!(StructuralHash::of(&dag).value(), direct);
    }
}
