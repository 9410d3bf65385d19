//! Gate sets (paper Table 1) and the enumeration of single-gate circuits
//! used by the generator.

use crate::circuit::{Circuit, Instruction};
use crate::gate::Gate;
use crate::param::{ExprSpec, ParamExpr};
use std::fmt;

/// A named set of gates available on a target device.
///
/// # Examples
///
/// ```
/// use quartz_ir::{GateSet, Gate};
///
/// let nam = GateSet::nam();
/// assert!(nam.contains(Gate::Rz));
/// assert!(!nam.contains(Gate::U3));
/// assert_eq!(nam.name(), "Nam");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateSet {
    name: String,
    gates: Vec<Gate>,
}

impl GateSet {
    /// Creates a custom gate set.
    pub fn new(name: impl Into<String>, gates: Vec<Gate>) -> Self {
        GateSet {
            name: name.into(),
            gates,
        }
    }

    /// The Nam gate set {H, X, Rz(λ), CNOT} (Nam et al. / voqc).
    pub fn nam() -> Self {
        GateSet::new("Nam", vec![Gate::H, Gate::X, Gate::Rz, Gate::Cnot])
    }

    /// The IBM gate set {U1, U2, U3, CNOT} (IBMQX5).
    pub fn ibm() -> Self {
        GateSet::new("IBM", vec![Gate::U1, Gate::U2, Gate::U3, Gate::Cnot])
    }

    /// The Rigetti Agave gate set {Rx(π/2), Rx(−π/2), Rx(π), Rz(λ), CZ}.
    pub fn rigetti() -> Self {
        GateSet::new(
            "Rigetti",
            vec![Gate::Rx90, Gate::Rx90Neg, Gate::Rx180, Gate::Rz, Gate::Cz],
        )
    }

    /// The Clifford+T input gate set {H, T, T†, S, S†, X, CNOT} used by the
    /// benchmark circuits, plus CCX/CCZ which the preprocessor decomposes.
    pub fn clifford_t() -> Self {
        GateSet::new(
            "CliffordT",
            vec![
                Gate::H,
                Gate::T,
                Gate::Tdg,
                Gate::S,
                Gate::Sdg,
                Gate::X,
                Gate::Cnot,
                Gate::Ccx,
                Gate::Ccz,
            ],
        )
    }

    /// The gate set's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gates in the set.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Returns `true` if the gate belongs to the set.
    pub fn contains(&self, gate: Gate) -> bool {
        self.gates.contains(&gate)
    }

    /// Returns `true` if every gate of the circuit belongs to the set.
    pub fn supports_circuit(&self, circuit: &Circuit) -> bool {
        circuit.instructions().iter().all(|i| self.contains(i.gate))
    }

    /// Enumerates all possible single instructions over `num_qubits` qubits
    /// with parameter expressions drawn from `spec` — the set C^(1,q) of the
    /// paper minus the empty circuit. The enumeration order is deterministic
    /// and defines the total order on single-gate circuits used by ≺.
    pub fn enumerate_instructions(&self, num_qubits: usize, spec: &ExprSpec) -> Vec<Instruction> {
        let mut out = Vec::new();
        for &gate in &self.gates {
            let nq = gate.num_qubits();
            if nq > num_qubits {
                continue;
            }
            let qubit_tuples = ordered_tuples(num_qubits, nq);
            let param_tuples = expr_tuples(spec, gate.num_params());
            for qubits in &qubit_tuples {
                for params in &param_tuples {
                    out.push(Instruction::new(gate, qubits.clone(), params.clone()));
                }
            }
        }
        out
    }

    /// The *characteristic* ch(G, Σ, q, m) of the paper (§3.3): the number of
    /// possible single-gate circuits, which bounds the number of extensions
    /// considered per representative in each RepGen round.
    pub fn characteristic(&self, num_qubits: usize, spec: &ExprSpec) -> usize {
        self.enumerate_instructions(num_qubits, spec).len()
    }
}

impl fmt::Display for GateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.gates.iter().map(|g| g.name()).collect();
        write!(f, "{} {{{}}}", self.name, names.join(", "))
    }
}

/// All ordered tuples of `k` distinct qubits out of `n`.
fn ordered_tuples(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(n: usize, k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for q in 0..n {
            if !current.contains(&q) {
                current.push(q);
                rec(n, k, current, out);
                current.pop();
            }
        }
    }
    rec(n, k, &mut current, &mut out);
    out
}

/// All tuples of `k` parameter expressions from the specification. The
/// single-use restriction additionally forbids reusing a parameter *within*
/// the same instruction.
fn expr_tuples(spec: &ExprSpec, k: usize) -> Vec<Vec<ParamExpr>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut current: Vec<ParamExpr> = Vec::with_capacity(k);
    fn rec(spec: &ExprSpec, k: usize, current: &mut Vec<ParamExpr>, out: &mut Vec<Vec<ParamExpr>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for expr in &spec.expressions {
            if spec.single_use {
                let used: Vec<usize> = current.iter().flat_map(|e| e.used_params()).collect();
                if expr.used_params().iter().any(|p| used.contains(p)) {
                    continue;
                }
            }
            current.push(expr.clone());
            rec(spec, k, current, out);
            current.pop();
        }
    }
    rec(spec, k, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_sets_match_paper_table_1() {
        assert_eq!(GateSet::nam().gates().len(), 4);
        assert_eq!(GateSet::ibm().gates().len(), 4);
        assert_eq!(GateSet::rigetti().gates().len(), 5);
        assert!(GateSet::ibm().contains(Gate::U2));
        assert!(GateSet::rigetti().contains(Gate::Cz));
        assert!(!GateSet::rigetti().contains(Gate::Cnot));
    }

    #[test]
    fn ordered_tuples_counts() {
        assert_eq!(ordered_tuples(3, 1).len(), 3);
        assert_eq!(ordered_tuples(3, 2).len(), 6);
        assert_eq!(ordered_tuples(4, 3).len(), 24);
        assert_eq!(ordered_tuples(2, 3).len(), 0);
    }

    #[test]
    fn nam_characteristic_matches_paper() {
        // Paper Table 8: the characteristic for the Nam gate set with m = 2
        // and q = 1, 2, 3, 4 is 7, 16, 27, 40.
        let spec = ExprSpec::standard(2);
        let nam = GateSet::nam();
        assert_eq!(nam.characteristic(1, &spec), 7);
        assert_eq!(nam.characteristic(2, &spec), 16);
        assert_eq!(nam.characteristic(3, &spec), 27);
        assert_eq!(nam.characteristic(4, &spec), 40);
    }

    #[test]
    fn rigetti_characteristic_matches_paper() {
        // Paper Table 5: ch = 30 for Rigetti with q = 3, m = 2.
        let spec = ExprSpec::standard(2);
        assert_eq!(GateSet::rigetti().characteristic(3, &spec), 30);
    }

    #[test]
    fn ibm_characteristic_matches_paper() {
        // Paper Table 5: ch = 1362 for IBM with q = 3, m = 4.
        let spec = ExprSpec::standard(4);
        assert_eq!(GateSet::ibm().characteristic(3, &spec), 1362);
    }

    #[test]
    fn enumerate_respects_qubit_count() {
        let spec = ExprSpec::standard(1);
        let nam = GateSet::nam();
        let instrs = nam.enumerate_instructions(1, &spec);
        assert!(instrs.iter().all(|i| i.gate != Gate::Cnot));
    }

    #[test]
    fn supports_circuit() {
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(Gate::H, vec![0], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        assert!(GateSet::nam().supports_circuit(&c));
        assert!(!GateSet::rigetti().supports_circuit(&c));
    }

    #[test]
    fn display() {
        assert_eq!(GateSet::nam().to_string(), "Nam {h, x, rz, cx}");
    }
}
