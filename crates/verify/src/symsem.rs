//! Exact symbolic semantics: a circuit's unitary as a matrix of polynomials
//! over ℚ(ζ₈) in the cos/sin of the half-parameters (paper §4).

use quartz_ir::{Circuit, Instruction, UnsupportedAngleError};
use quartz_math::{Matrix, Poly};
use std::collections::HashMap;
use std::fmt;

/// The embedded symbolic matrix of every instruction seen so far, one map
/// per circuit width. A [`crate::Verifier`] keeps one for its lifetime, so
/// its size is bounded by the distinct instructions the verifier has
/// seen: during generation, the gate set's instruction alphabet.
#[derive(Clone, Default)]
pub(crate) struct GateMemo {
    by_width: HashMap<usize, HashMap<Instruction, Matrix<Poly>>>,
}

impl GateMemo {
    /// The embedding of `instr` into `num_qubits` qubits, built on first
    /// use.
    fn embedded(
        &mut self,
        instr: &Instruction,
        num_qubits: usize,
    ) -> Result<&Matrix<Poly>, UnsupportedAngleError> {
        let memo = self.by_width.entry(num_qubits).or_default();
        if !memo.contains_key(instr) {
            memo.insert(instr.clone(), instruction_unitary(instr, num_qubits)?);
        }
        Ok(&memo[instr])
    }
}

impl fmt::Debug for GateMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: usize = self.by_width.values().map(HashMap::len).sum();
        write!(f, "GateMemo({entries} matrices)")
    }
}

/// Computes the full 2ⁿ×2ⁿ symbolic unitary of a single instruction embedded
/// into a circuit over `num_qubits` qubits.
///
/// # Errors
///
/// Returns an error if a parameter expression cannot be represented exactly
/// (see [`quartz_ir::ParamExpr::half_angle`]).
pub fn instruction_unitary(
    instr: &Instruction,
    num_qubits: usize,
) -> Result<Matrix<Poly>, UnsupportedAngleError> {
    let local = instr.gate.symbolic_matrix(&instr.params)?;
    let dim = 1usize << num_qubits;
    let k = instr.gate.num_qubits();
    let local_dim = 1usize << k;
    let qubits = &instr.qubits;
    let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();

    let mut full: Matrix<Poly> = Matrix::zeros(dim, dim);
    for col in 0..dim {
        let rest = col & !mask;
        let mut local_col = 0usize;
        for (t, &q) in qubits.iter().enumerate() {
            if (col >> q) & 1 == 1 {
                local_col |= 1 << t;
            }
        }
        for local_row in 0..local_dim {
            let entry = local.get(local_row, local_col);
            if entry.is_zero() {
                continue;
            }
            let mut row = rest;
            for (t, &q) in qubits.iter().enumerate() {
                if (local_row >> t) & 1 == 1 {
                    row |= 1 << q;
                }
            }
            full[(row, col)] = entry.clone();
        }
    }
    Ok(full)
}

/// Computes the full symbolic unitary ⟦C⟧ of a circuit as a matrix of
/// polynomials.
///
/// The composition follows the paper's semantics: sequential gates multiply,
/// parallel gates tensor (realized here by embedding each gate into the full
/// qubit space and multiplying in sequence order).
///
/// # Errors
///
/// Returns an error if any instruction's parameters cannot be represented
/// exactly.
pub fn circuit_unitary(circuit: &Circuit) -> Result<Matrix<Poly>, UnsupportedAngleError> {
    circuit_unitary_memoized(circuit, &mut GateMemo::default())
}

/// [`circuit_unitary`], taking each instruction's embedded matrix from
/// `memo`.
pub(crate) fn circuit_unitary_memoized(
    circuit: &Circuit,
    memo: &mut GateMemo,
) -> Result<Matrix<Poly>, UnsupportedAngleError> {
    let mut total: Option<Matrix<Poly>> = None;
    for instr in circuit.instructions() {
        let u = memo.embedded(instr, circuit.num_qubits())?;
        // The instruction acts after everything already accumulated.
        total = Some(match total {
            None => u.clone(),
            Some(acc) => u.matmul(&acc),
        });
    }
    Ok(total.unwrap_or_else(|| Matrix::identity(1usize << circuit.num_qubits())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{circuit_unitary as numeric_unitary, Circuit, Gate, Instruction, ParamExpr};
    use quartz_math::Complex64;

    fn check_against_numeric(circuit: &Circuit, params: &[f64]) {
        let sym = circuit_unitary(circuit).expect("symbolic unitary");
        let num = numeric_unitary(circuit, params);
        let halves: Vec<f64> = params.iter().map(|p| p / 2.0).collect();
        for (r, c, p) in sym.entries() {
            let v = p.eval_f64(&halves);
            assert!(
                v.approx_eq(*num.get(r, c), 1e-9),
                "entry ({r},{c}): symbolic {v} vs numeric {}",
                num.get(r, c)
            );
        }
    }

    #[test]
    fn bell_circuit_matches_numeric() {
        let mut c = Circuit::new(2, 0);
        c.push(Instruction::new(Gate::H, vec![0], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        check_against_numeric(&c, &[]);
    }

    #[test]
    fn parametric_circuit_matches_numeric() {
        let mut c = Circuit::new(2, 2);
        c.push(Instruction::new(
            Gate::Rz,
            vec![0],
            vec![ParamExpr::var(0, 2)],
        ));
        c.push(Instruction::new(Gate::H, vec![1], vec![]));
        c.push(Instruction::new(Gate::Cnot, vec![1, 0], vec![]));
        c.push(Instruction::new(
            Gate::Rz,
            vec![1],
            vec![ParamExpr::var(1, 2)],
        ));
        for params in [[0.3, -1.2], [0.0, 0.0], [2.5, 0.7]] {
            check_against_numeric(&c, &params);
        }
    }

    #[test]
    fn three_qubit_toffoli_matches_numeric() {
        let mut c = Circuit::new(3, 0);
        c.push(Instruction::new(Gate::Ccx, vec![2, 0, 1], vec![]));
        c.push(Instruction::new(Gate::H, vec![1], vec![]));
        check_against_numeric(&c, &[]);
    }

    #[test]
    fn empty_circuit_is_identity() {
        let c = Circuit::new(2, 0);
        let u = circuit_unitary(&c).unwrap();
        for (r, c_idx, p) in u.entries() {
            let expected = if r == c_idx {
                Complex64::one()
            } else {
                Complex64::zero()
            };
            assert!(p.eval_f64(&[]).approx_eq(expected, 1e-12));
        }
    }

    #[test]
    fn the_memo_holds_one_matrix_per_instruction_and_width() {
        let entries = |memo: &GateMemo| memo.by_width.values().map(HashMap::len).sum::<usize>();
        let h = Instruction::new(Gate::H, vec![0], vec![]);
        let mut two = Circuit::new(2, 0);
        for instr in [&h, &Instruction::new(Gate::Cnot, vec![0, 1], vec![]), &h] {
            two.push(instr.clone());
        }
        let mut three = Circuit::new(3, 0);
        three.push(h);

        let mut memo = GateMemo::default();
        for _ in 0..2 {
            let warm = circuit_unitary_memoized(&two, &mut memo).unwrap();
            assert_eq!(warm, circuit_unitary(&two).unwrap());
            assert_eq!(entries(&memo), 2);
        }
        // The same gate on a wider circuit is embedded anew.
        let warm = circuit_unitary_memoized(&three, &mut memo).unwrap();
        assert_eq!(warm, circuit_unitary(&three).unwrap());
        assert_eq!(entries(&memo), 3);
    }

    #[test]
    fn gate_order_matters() {
        // X then H is not the same as H then X on the same qubit.
        let mut xh = Circuit::new(1, 0);
        xh.push(Instruction::new(Gate::X, vec![0], vec![]));
        xh.push(Instruction::new(Gate::H, vec![0], vec![]));
        let mut hx = Circuit::new(1, 0);
        hx.push(Instruction::new(Gate::H, vec![0], vec![]));
        hx.push(Instruction::new(Gate::X, vec![0], vec![]));
        let a = circuit_unitary(&xh).unwrap();
        let b = circuit_unitary(&hx).unwrap();
        let diff_is_zero = a
            .entries()
            .all(|(r, c, p)| p.sub(b.get(r, c)).is_zero_mod_trig());
        assert!(!diff_is_zero);
    }
}
