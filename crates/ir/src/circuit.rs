//! The sequence representation of (symbolic) quantum circuits (paper §3.1).
//!
//! A [`Circuit`] is a list of [`Instruction`]s over a fixed number of qubits
//! and formal parameters. The sequence order is a topological order of the
//! gate dependencies; the same circuit may have several sequence
//! representations, which RepGen handles through its representative
//! mechanism.

use crate::gate::{Gate, GateHistogram};
use crate::param::ParamExpr;
use std::cmp::Ordering;
use std::fmt;

/// A single gate application: the gate, its qubit operands, and its
/// parameter-expression arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Instruction {
    /// The gate type.
    pub gate: Gate,
    /// Qubit operands (length [`Gate::num_qubits`]). Order matters for
    /// non-symmetric gates such as CNOT.
    pub qubits: Vec<usize>,
    /// Parameter arguments (length [`Gate::num_params`]).
    pub params: Vec<ParamExpr>,
}

impl Instruction {
    /// Creates an instruction, checking arities.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits or parameters does not match the gate,
    /// or if a qubit operand is repeated.
    pub fn new(gate: Gate, qubits: Vec<usize>, params: Vec<ParamExpr>) -> Self {
        assert_eq!(
            qubits.len(),
            gate.num_qubits(),
            "wrong number of qubit operands for {gate}"
        );
        assert_eq!(
            params.len(),
            gate.num_params(),
            "wrong number of parameters for {gate}"
        );
        for (i, q) in qubits.iter().enumerate() {
            assert!(
                !qubits[..i].contains(q),
                "repeated qubit operand {q} for gate {gate}"
            );
        }
        Instruction {
            gate,
            qubits,
            params,
        }
    }

    /// Parameter indices used by this instruction's arguments.
    pub fn used_params(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.params.iter().flat_map(|p| p.used_params()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.gate)?;
        if !self.params.is_empty() {
            let params: Vec<String> = self.params.iter().map(|p| p.to_string()).collect();
            write!(f, "({})", params.join(", "))?;
        }
        let qubits: Vec<String> = self.qubits.iter().map(|q| format!("q{q}")).collect();
        write!(f, " {}", qubits.join(", "))
    }
}

/// A symbolic quantum circuit in sequence representation.
///
/// # Examples
///
/// ```
/// use quartz_ir::{Circuit, Gate, Instruction};
///
/// let mut c = Circuit::new(2, 0);
/// c.push(Instruction::new(Gate::H, vec![0], vec![]));
/// c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
/// assert_eq!(c.gate_count(), 2);
/// assert_eq!(c.to_string(), "h q0; cx q0, q1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Circuit {
    num_qubits: usize,
    num_params: usize,
    instructions: Vec<Instruction>,
    /// Gate-type multiset of `instructions`, maintained incrementally on
    /// every mutation. Derived data: always equal to recounting, so the
    /// derived `PartialEq`/`Hash` stay consistent.
    histogram: GateHistogram,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits and `num_params`
    /// formal parameters.
    pub fn new(num_qubits: usize, num_params: usize) -> Self {
        Circuit {
            num_qubits,
            num_params,
            instructions: Vec::new(),
            histogram: GateHistogram::new(),
        }
    }

    /// Assembles a circuit from parts, recounting the histogram.
    fn from_parts(num_qubits: usize, num_params: usize, instructions: Vec<Instruction>) -> Self {
        let histogram = GateHistogram::from_gates(instructions.iter().map(|i| i.gate));
        Circuit {
            num_qubits,
            num_params,
            instructions,
            histogram,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of formal parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of gates (|L| in the paper).
    pub fn gate_count(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction references a qubit outside the circuit.
    pub fn push(&mut self, instr: Instruction) {
        for &q in &instr.qubits {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range for circuit with {} qubits",
                self.num_qubits
            );
        }
        self.histogram.add(instr.gate);
        self.instructions.push(instr);
    }

    /// The gate-type multiset of the circuit, maintained incrementally.
    pub fn gate_histogram(&self) -> &GateHistogram {
        &self.histogram
    }

    /// A cheap 64-bit structural fingerprint of the circuit: FNV-1a over the
    /// exact sequence form (qubit/parameter counts, gate types, operands, and
    /// parameter expressions).
    ///
    /// Two circuits are equal **as sequences** iff their encodings are equal,
    /// so equal circuits always have equal fingerprints and distinct circuits
    /// collide with probability ≈ 2⁻⁶⁴. Different sequence representations of
    /// the same circuit DAG hash differently — canonicalize first (see
    /// `quartz-opt`'s `canonicalize`) to fingerprint circuits up to
    /// commuting-gate reordering. The optimizer's seen-set stores these
    /// fingerprints instead of whole circuit clones (DESIGN.md §2.1).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        #[inline]
        fn mix(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h ^= byte as u64;
                *h = h.wrapping_mul(PRIME);
            }
        }
        let mut h = OFFSET;
        mix(&mut h, self.num_qubits as u64);
        mix(&mut h, self.num_params as u64);
        mix(&mut h, self.instructions.len() as u64);
        for instr in &self.instructions {
            mix(&mut h, instr.gate.index() as u64);
            for &q in &instr.qubits {
                mix(&mut h, q as u64);
            }
            for p in &instr.params {
                mix(&mut h, p.const_pi4() as i64 as u64);
                // Length-prefix the variable-length coefficient list so the
                // whole encoding stays injective.
                mix(&mut h, p.coeffs().len() as u64);
                for &c in p.coeffs() {
                    mix(&mut h, c as i64 as u64);
                }
            }
        }
        h
    }

    /// Returns a new circuit equal to this one with `instr` appended
    /// (the `L.(g ι)` operation of the paper).
    pub fn appended(&self, instr: Instruction) -> Circuit {
        let mut c = self.clone();
        c.push(instr);
        c
    }

    /// The suffix with the first gate removed (`DropFirst` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is empty.
    pub fn drop_first(&self) -> Circuit {
        assert!(!self.is_empty(), "drop_first on an empty circuit");
        let mut c = self.clone();
        let removed = c.instructions.remove(0);
        c.histogram.remove(removed.gate);
        c
    }

    /// The prefix with the last gate removed (`DropLast` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the circuit is empty.
    pub fn drop_last(&self) -> Circuit {
        assert!(!self.is_empty(), "drop_last on an empty circuit");
        let mut c = self.clone();
        let removed = c.instructions.pop().expect("non-empty");
        c.histogram.remove(removed.gate);
        c
    }

    /// Number of gates of each type matching a predicate.
    pub fn count_gates_where(&self, pred: impl Fn(&Instruction) -> bool) -> usize {
        self.instructions.iter().filter(|i| pred(i)).count()
    }

    /// Indices of qubits that are acted on by at least one gate.
    pub fn used_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for instr in &self.instructions {
            for &q in &instr.qubits {
                used[q] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of formal parameters used by at least one gate argument.
    pub fn used_params(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_params];
        for instr in &self.instructions {
            for p in instr.used_params() {
                if p < self.num_params {
                    used[p] = true;
                }
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| i)
            .collect()
    }

    /// Returns `true` if appending an instruction using parameters
    /// `new_params` would violate the single-use restriction.
    pub fn params_conflict(&self, new_params: &[usize]) -> bool {
        let used = self.used_params();
        new_params.iter().any(|p| used.contains(p))
    }

    /// Produces a new circuit with qubits renamed according to `mapping`
    /// (old index → new index), over `new_num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if a used qubit maps out of range.
    pub fn remap_qubits(&self, mapping: &[usize], new_num_qubits: usize) -> Circuit {
        let instructions = self
            .instructions
            .iter()
            .map(|instr| {
                let qubits = instr
                    .qubits
                    .iter()
                    .map(|&q| {
                        let nq = mapping[q];
                        assert!(nq < new_num_qubits, "qubit remap out of range");
                        nq
                    })
                    .collect();
                Instruction {
                    gate: instr.gate,
                    qubits,
                    params: instr.params.clone(),
                }
            })
            .collect();
        Circuit::from_parts(new_num_qubits, self.num_params, instructions)
    }

    /// Produces a new circuit with parameters renamed according to `mapping`.
    pub fn remap_params(&self, mapping: &[usize], new_num_params: usize) -> Circuit {
        let instructions = self
            .instructions
            .iter()
            .map(|instr| Instruction {
                gate: instr.gate,
                qubits: instr.qubits.clone(),
                params: instr
                    .params
                    .iter()
                    .map(|p| p.remap_params(mapping, new_num_params))
                    .collect(),
            })
            .collect();
        Circuit::from_parts(self.num_qubits, new_num_params, instructions)
    }

    /// Concatenates another circuit after this one (qubit and parameter
    /// counts must match).
    ///
    /// # Panics
    ///
    /// Panics if the circuits have different numbers of qubits.
    pub fn concat(&self, other: &Circuit) -> Circuit {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "cannot concatenate circuits over different qubit counts"
        );
        let mut c = self.clone();
        c.num_params = self.num_params.max(other.num_params);
        for instr in &other.instructions {
            c.histogram.add(instr.gate);
            c.instructions.push(instr.clone());
        }
        c
    }

    /// The circuit precedence relation ≺ of Definition 3: first by gate
    /// count, then lexicographically on the instruction sequence.
    pub fn precedes(&self, other: &Circuit) -> bool {
        self.precedence_cmp(other) == Ordering::Less
    }

    /// Total order used for representative selection (Definition 3).
    pub fn precedence_cmp(&self, other: &Circuit) -> Ordering {
        self.gate_count()
            .cmp(&other.gate_count())
            .then_with(|| self.instructions.cmp(&other.instructions))
    }

    /// For each instruction, the index of the previous instruction acting on
    /// each of its qubit operands (`None` when the operand wire comes
    /// directly from the circuit input).
    pub fn wire_predecessors(&self) -> Vec<Vec<Option<usize>>> {
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; self.num_qubits];
        let mut preds = Vec::with_capacity(self.instructions.len());
        for (idx, instr) in self.instructions.iter().enumerate() {
            let p = instr.qubits.iter().map(|&q| last_on_qubit[q]).collect();
            preds.push(p);
            for &q in &instr.qubits {
                last_on_qubit[q] = Some(idx);
            }
        }
        preds
    }

    /// Depth of the circuit (longest chain of dependent gates).
    pub fn depth(&self) -> usize {
        let mut depth_on_qubit = vec![0usize; self.num_qubits];
        for instr in &self.instructions {
            let d = instr
                .qubits
                .iter()
                .map(|&q| depth_on_qubit[q])
                .max()
                .unwrap_or(0)
                + 1;
            for &q in &instr.qubits {
                depth_on_qubit[q] = d;
            }
        }
        depth_on_qubit.into_iter().max().unwrap_or(0)
    }

    /// Counts gates of a specific type.
    pub fn count_gate(&self, gate: Gate) -> usize {
        self.count_gates_where(|i| i.gate == gate)
    }

    /// Counts two-or-more-qubit gates.
    pub fn multi_qubit_gate_count(&self) -> usize {
        self.count_gates_where(|i| i.gate.num_qubits() >= 2)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.instructions.is_empty() {
            return write!(f, "(empty over {} qubits)", self.num_qubits);
        }
        let parts: Vec<String> = self.instructions.iter().map(|i| i.to_string()).collect();
        write!(f, "{}", parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnot(c: usize, t: usize) -> Instruction {
        Instruction::new(Gate::Cnot, vec![c, t], vec![])
    }

    fn h(q: usize) -> Instruction {
        Instruction::new(Gate::H, vec![q], vec![])
    }

    #[test]
    fn push_and_counts() {
        let mut c = Circuit::new(3, 0);
        c.push(h(0));
        c.push(cnot(0, 1));
        c.push(cnot(1, 2));
        assert_eq!(c.gate_count(), 3);
        assert_eq!(c.count_gate(Gate::Cnot), 2);
        assert_eq!(c.multi_qubit_gate_count(), 2);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.used_qubits(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_bad_qubit() {
        let mut c = Circuit::new(1, 0);
        c.push(h(3));
    }

    #[test]
    #[should_panic(expected = "repeated qubit")]
    fn instruction_rejects_repeated_qubits() {
        let _ = Instruction::new(Gate::Cnot, vec![1, 1], vec![]);
    }

    #[test]
    fn drop_first_and_last() {
        let mut c = Circuit::new(2, 0);
        c.push(h(0));
        c.push(h(1));
        c.push(cnot(0, 1));
        assert_eq!(c.drop_first().instructions()[0], h(1));
        assert_eq!(c.drop_last().gate_count(), 2);
        assert_eq!(c.drop_first().drop_last().gate_count(), 1);
    }

    #[test]
    fn precedence_smaller_circuits_first() {
        let mut small = Circuit::new(2, 0);
        small.push(h(0));
        let mut large = Circuit::new(2, 0);
        large.push(h(0));
        large.push(h(1));
        assert!(small.precedes(&large));
        assert!(!large.precedes(&small));
        // same size → lexicographic on instructions
        let mut a = Circuit::new(2, 0);
        a.push(h(0));
        let mut b = Circuit::new(2, 0);
        b.push(h(1));
        assert!(a.precedes(&b));
    }

    #[test]
    fn used_params_and_conflicts() {
        let mut c = Circuit::new(1, 2);
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::var(0, 2)],
        ));
        assert_eq!(c.used_params(), vec![0]);
        assert!(c.params_conflict(&[0]));
        assert!(!c.params_conflict(&[1]));
    }

    #[test]
    fn remap_qubits() {
        let mut c = Circuit::new(3, 0);
        c.push(cnot(0, 2));
        let r = c.remap_qubits(&[1, 0, 0], 2);
        assert_eq!(r.instructions()[0].qubits, vec![1, 0]);
        assert_eq!(r.num_qubits(), 2);
    }

    #[test]
    fn wire_predecessors() {
        let mut c = Circuit::new(2, 0);
        c.push(h(0));
        c.push(cnot(0, 1));
        c.push(h(1));
        let preds = c.wire_predecessors();
        assert_eq!(preds[0], vec![None]);
        assert_eq!(preds[1], vec![Some(0), None]);
        assert_eq!(preds[2], vec![Some(1)]);
    }

    #[test]
    fn display() {
        let mut c = Circuit::new(2, 1);
        c.push(Instruction::new(
            Gate::Rz,
            vec![1],
            vec![ParamExpr::var(0, 1)],
        ));
        c.push(cnot(0, 1));
        assert_eq!(c.to_string(), "rz(p0) q1; cx q0, q1");
        assert_eq!(Circuit::new(2, 0).to_string(), "(empty over 2 qubits)");
    }

    #[test]
    fn concat() {
        let mut a = Circuit::new(2, 0);
        a.push(h(0));
        let mut b = Circuit::new(2, 0);
        b.push(h(1));
        let c = a.concat(&b);
        assert_eq!(c.gate_count(), 2);
    }

    /// The incrementally-maintained histogram must always agree with a fresh
    /// recount, across every mutating operation.
    #[test]
    fn histogram_tracks_all_mutations() {
        let recount =
            |c: &Circuit| crate::GateHistogram::from_gates(c.instructions().iter().map(|i| i.gate));
        let mut c = Circuit::new(3, 0);
        c.push(h(0));
        c.push(cnot(0, 1));
        c.push(cnot(1, 2));
        assert_eq!(*c.gate_histogram(), recount(&c));
        assert_eq!(c.gate_histogram().count(Gate::Cnot), 2);
        assert_eq!(c.gate_histogram().count(Gate::H), 1);
        assert_eq!(c.gate_histogram().count(Gate::X), 0);
        assert_eq!(c.gate_histogram().total(), 3);

        for derived in [
            c.drop_first(),
            c.drop_last(),
            c.appended(h(2)),
            c.concat(&c),
            c.remap_qubits(&[2, 1, 0], 3),
        ] {
            assert_eq!(*derived.gate_histogram(), recount(&derived));
        }
    }

    #[test]
    fn histogram_subset_reflects_multiset_inclusion() {
        let mut small = Circuit::new(2, 0);
        small.push(cnot(0, 1));
        let mut big = Circuit::new(2, 0);
        big.push(h(0));
        big.push(cnot(0, 1));
        big.push(cnot(1, 0));
        assert!(small.gate_histogram().is_subset_of(big.gate_histogram()));
        assert!(!big.gate_histogram().is_subset_of(small.gate_histogram()));
        let present: Vec<Gate> = big.gate_histogram().present_gates().collect();
        assert_eq!(present, vec![Gate::H, Gate::Cnot]);
    }

    #[test]
    fn fingerprint_separates_structure_and_respects_equality() {
        let mut a = Circuit::new(2, 0);
        a.push(h(0));
        a.push(cnot(0, 1));
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Operand, gate-type, order and arity changes all change the hash.
        let mut flipped = Circuit::new(2, 0);
        flipped.push(h(1));
        flipped.push(cnot(0, 1));
        assert_ne!(a.fingerprint(), flipped.fingerprint());
        let mut reordered = Circuit::new(2, 0);
        reordered.push(cnot(0, 1));
        reordered.push(h(0));
        assert_ne!(a.fingerprint(), reordered.fingerprint());
        assert_ne!(
            Circuit::new(2, 0).fingerprint(),
            Circuit::new(3, 0).fingerprint()
        );

        // Parameter expressions are part of the structure.
        let mut rz1 = Circuit::new(1, 0);
        rz1.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(1)],
        ));
        let mut rz2 = Circuit::new(1, 0);
        rz2.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::constant_pi4(2)],
        ));
        assert_ne!(rz1.fingerprint(), rz2.fingerprint());
    }
}
