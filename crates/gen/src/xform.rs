//! Circuit transformations extracted from ECC sets (paper §6).
//!
//! A transformation library *is* an ECC set viewed operationally: each class
//! with representative C₁ and members C₂..Cₓ yields the rewrite rules
//! C₁→Cᵢ and Cᵢ→C₁. This module hosts the [`Transformation`] pair type and
//! the extraction routine; it lives in `quartz-gen` (rather than the
//! optimizer crate) so that persisted library artifacts
//! ([`crate::library`]) can carry a ready-to-search transformation list —
//! and its prebuilt index — without a dependency cycle.

use crate::ecc::EccSet;
use quartz_ir::{canonicalize, Circuit};

/// A circuit transformation (C_T, C_R): replace a subcircuit matching the
/// target pattern with the rewrite circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Transformation {
    /// The target pattern C_T.
    pub target: Circuit,
    /// The rewrite circuit C_R.
    pub rewrite: Circuit,
}

impl Transformation {
    /// Change in gate count when the transformation is applied
    /// (negative means the circuit shrinks).
    pub fn gate_delta(&self) -> isize {
        self.rewrite.gate_count() as isize - self.target.gate_count() as isize
    }
}

/// Extracts the transformation list from an ECC set, as the optimizer does
/// (paper §6): for each class with representative C₁ and members C₂..Cₓ it
/// yields C₁→Cᵢ and Cᵢ→C₁ — at most 2(x−1) transformations per class.
///
/// A member Cᵢ with `canonicalize(Cᵢ) == canonicalize(C₁)` — the same gate
/// DAG, e.g. two gates on disjoint qubits in swapped order — yields
/// nothing: both of its rules would rewrite every match into the circuit
/// it came from, a child the search has always seen already.
///
/// Transformations whose target pattern is empty are dropped (an empty
/// pattern matches everywhere and only ever increases cost), and when
/// `prune_common_subcircuits` is set, pairs sharing a first or last gate are
/// dropped too (paper §5.2). Identical (target, rewrite) pairs — which arise
/// when ECC classes overlap — are emitted once, keeping the first
/// occurrence's position, so duplicated classes no longer multiply the
/// search's matching work.
pub fn transformations_from_ecc_set(
    set: &EccSet,
    prune_common_subcircuits: bool,
) -> Vec<Transformation> {
    let mut out = Vec::new();
    let mut emitted: std::collections::HashSet<(Circuit, Circuit)> =
        std::collections::HashSet::new();
    let mut push_unique = |out: &mut Vec<Transformation>, target: &Circuit, rewrite: &Circuit| {
        if emitted.insert((target.clone(), rewrite.clone())) {
            out.push(Transformation {
                target: target.clone(),
                rewrite: rewrite.clone(),
            });
        }
    };
    for ecc in &set.eccs {
        let rep = ecc.representative().clone();
        let rep_canon = canonicalize(&rep);
        for other in ecc.circuits().iter().skip(1) {
            if prune_common_subcircuits && shares_boundary_gate(&rep, other) {
                continue;
            }
            if canonicalize(other) == rep_canon {
                continue;
            }
            if !other.is_empty() {
                push_unique(&mut out, other, &rep);
            }
            if !rep.is_empty() {
                push_unique(&mut out, &rep, other);
            }
        }
    }
    out
}

fn shares_boundary_gate(a: &Circuit, b: &Circuit) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    a.instructions()[0] == b.instructions()[0] || a.instructions().last() == b.instructions().last()
}

/// Convenience constructor used by this crate's tests.
#[cfg(test)]
pub(crate) fn instruction(gate: quartz_ir::Gate, qubits: &[usize]) -> quartz_ir::Instruction {
    quartz_ir::Instruction::new(gate, qubits.to_vec(), vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::Ecc;
    use quartz_ir::{Gate, Instruction};

    fn h(q: usize) -> Instruction {
        instruction(Gate::H, &[q])
    }

    #[test]
    fn transformations_are_bidirectional() {
        let mut hh = Circuit::new(1, 0);
        hh.push(h(0));
        hh.push(h(0));
        let empty = Circuit::new(1, 0);
        let mut set = EccSet::new(1, 0);
        set.eccs.push(Ecc::new(vec![hh.clone(), empty.clone()]));
        let xforms = transformations_from_ecc_set(&set, false);
        // empty → HH is dropped (empty target), HH → empty is kept.
        assert_eq!(xforms.len(), 1);
        assert_eq!(xforms[0].target, hh);
        assert_eq!(xforms[0].rewrite, empty);
        assert_eq!(xforms[0].gate_delta(), -2);
    }

    #[test]
    fn non_empty_classes_give_two_directions() {
        let mut a = Circuit::new(2, 0);
        a.push(instruction(Gate::Cnot, &[0, 1]));
        a.push(instruction(Gate::Cnot, &[1, 0]));
        let mut b = Circuit::new(2, 0);
        b.push(instruction(Gate::Cnot, &[1, 0]));
        b.push(instruction(Gate::Cnot, &[0, 1]));
        let mut set = EccSet::new(2, 0);
        set.eccs.push(Ecc::new(vec![a, b]));
        let xforms = transformations_from_ecc_set(&set, false);
        assert_eq!(xforms.len(), 2);
    }

    #[test]
    fn members_equal_to_the_representative_up_to_commutation_are_skipped() {
        let mut h01 = Circuit::new(2, 0);
        h01.push(h(0));
        h01.push(h(1));
        let mut h10 = Circuit::new(2, 0);
        h10.push(h(1));
        h10.push(h(0));
        let mut set = EccSet::new(2, 0);
        set.eccs.push(Ecc::new(vec![h01.clone(), h10]));
        assert!(transformations_from_ecc_set(&set, false).is_empty());

        // A genuinely different member of the same class still yields both
        // directions; only the commuted copy is skipped.
        let mut other = h01.clone();
        other.push(instruction(Gate::X, &[0]));
        other.push(instruction(Gate::X, &[0]));
        set.eccs[0].insert(other.clone());
        let rep = set.eccs[0].representative();
        let xforms = transformations_from_ecc_set(&set, false);
        assert_eq!(xforms.len(), 2);
        assert_eq!((&xforms[0].target, &xforms[0].rewrite), (&other, rep));
        assert_eq!((&xforms[1].target, &xforms[1].rewrite), (rep, &other));
    }

    #[test]
    fn overlapping_classes_do_not_duplicate_transformations() {
        // Two ECCs containing the same pair of circuits: the (target, rewrite)
        // pairs coincide and must be emitted once.
        let mut hh = Circuit::new(1, 0);
        hh.push(h(0));
        hh.push(h(0));
        let mut xx = Circuit::new(1, 0);
        xx.push(instruction(Gate::X, &[0]));
        xx.push(instruction(Gate::X, &[0]));
        let mut set = EccSet::new(1, 0);
        set.eccs.push(Ecc::new(vec![hh.clone(), xx.clone()]));
        set.eccs.push(Ecc::new(vec![hh.clone(), xx.clone()]));
        let xforms = transformations_from_ecc_set(&set, false);
        assert_eq!(
            xforms.len(),
            2,
            "duplicated ECC must not duplicate transformations"
        );
        // A distinct pair in a third class still comes through.
        let mut zz = Circuit::new(1, 0);
        zz.push(instruction(Gate::Z, &[0]));
        zz.push(instruction(Gate::Z, &[0]));
        set.eccs.push(Ecc::new(vec![hh.clone(), zz]));
        assert_eq!(transformations_from_ecc_set(&set, false).len(), 4);
    }

    #[test]
    fn common_boundary_pruning_drops_pairs() {
        let mut a = Circuit::new(1, 0);
        a.push(h(0));
        a.push(instruction(Gate::X, &[0]));
        let mut b = Circuit::new(1, 0);
        b.push(h(0));
        b.push(instruction(Gate::Z, &[0]));
        // Not actually equivalent, but that is irrelevant for this unit test
        // of the pruning predicate: they share the leading H.
        let mut set = EccSet::new(1, 0);
        set.eccs.push(Ecc::new(vec![a, b]));
        assert_eq!(transformations_from_ecc_set(&set, true).len(), 0);
        assert_eq!(transformations_from_ecc_set(&set, false).len(), 2);
    }
}
