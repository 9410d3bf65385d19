//! Quantum gate definitions: names, arities, and numeric/symbolic matrix
//! semantics.
//!
//! Every gate used by the three gate sets of the Quartz paper (Table 1), by
//! the Clifford+T input format, and by the preprocessing passes is defined
//! here. Each gate provides two matrix semantics over its *local* qubits:
//!
//! * [`Gate::numeric_matrix`] — a `Matrix<Complex64>` for fast evaluation
//!   (fingerprints, phase-factor candidate search, simulation tests);
//! * [`Gate::symbolic_matrix`] — a `Matrix<Poly>` of exact polynomials over
//!   ℚ(ζ₈) in the cos/sin of the half-parameters, used by the verifier.
//!
//! Local basis convention: for a gate applied to operands `[q₀, …, q_{k−1}]`,
//! local basis index `j` assigns bit `(j >> t) & 1` to operand `q_t`
//! (operand 0 is the least-significant bit).

use crate::param::{ParamExpr, UnsupportedAngleError};
use quartz_math::{Complex64, Cyclotomic, Matrix, Poly};
use std::fmt;

/// A quantum gate type.
///
/// Parametric gates ([`Gate::Rx`], [`Gate::Ry`], [`Gate::Rz`], [`Gate::U1`],
/// [`Gate::U2`], [`Gate::U3`]) take [`ParamExpr`] arguments when they appear
/// in a circuit; all other gates are fixed unitaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Gate {
    /// Hadamard.
    H,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S† = diag(1, −i).
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T† = diag(1, e^{−iπ/4}).
    Tdg,
    /// Fixed rotation Rx(π/2) (Rigetti).
    Rx90,
    /// Fixed rotation Rx(−π/2) (Rigetti).
    Rx90Neg,
    /// Fixed rotation Rx(π) (Rigetti; equals X up to global phase).
    Rx180,
    /// Parametric rotation about the x-axis.
    Rx,
    /// Parametric rotation about the y-axis.
    Ry,
    /// Parametric rotation about the z-axis, diag(e^{−iθ/2}, e^{iθ/2}).
    Rz,
    /// IBM U1(θ) = diag(1, e^{iθ}).
    U1,
    /// IBM U2(φ, λ).
    U2,
    /// IBM U3(θ, φ, λ).
    U3,
    /// Controlled-NOT (operand 0 is the control, operand 1 the target).
    Cnot,
    /// Controlled-Z.
    Cz,
    /// Swap.
    Swap,
    /// Toffoli / CCX (operands 0 and 1 are controls, operand 2 the target).
    Ccx,
    /// Doubly-controlled Z.
    Ccz,
}

/// All gate variants, in the canonical (derive `Ord`) order.
pub const ALL_GATES: [Gate; 22] = [
    Gate::H,
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::S,
    Gate::Sdg,
    Gate::T,
    Gate::Tdg,
    Gate::Rx90,
    Gate::Rx90Neg,
    Gate::Rx180,
    Gate::Rx,
    Gate::Ry,
    Gate::Rz,
    Gate::U1,
    Gate::U2,
    Gate::U3,
    Gate::Cnot,
    Gate::Cz,
    Gate::Swap,
    Gate::Ccx,
    Gate::Ccz,
];

impl Gate {
    /// Number of gate variants (the length of [`ALL_GATES`]).
    pub const COUNT: usize = ALL_GATES.len();

    /// Dense index of the gate in [`ALL_GATES`] order, usable as an array
    /// index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of qubit operands.
    pub fn num_qubits(self) -> usize {
        match self {
            Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx90
            | Gate::Rx90Neg
            | Gate::Rx180
            | Gate::Rx
            | Gate::Ry
            | Gate::Rz
            | Gate::U1
            | Gate::U2
            | Gate::U3 => 1,
            Gate::Cnot | Gate::Cz | Gate::Swap => 2,
            Gate::Ccx | Gate::Ccz => 3,
        }
    }

    /// Number of parameter arguments.
    pub fn num_params(self) -> usize {
        match self {
            Gate::Rx | Gate::Ry | Gate::Rz | Gate::U1 => 1,
            Gate::U2 => 2,
            Gate::U3 => 3,
            _ => 0,
        }
    }

    /// Returns `true` if the gate takes at least one parameter.
    pub fn is_parametric(self) -> bool {
        self.num_params() > 0
    }

    /// Canonical lowercase name (matches OpenQASM where applicable).
    pub fn name(self) -> &'static str {
        match self {
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx90 => "rx90",
            Gate::Rx90Neg => "rx90neg",
            Gate::Rx180 => "rx180",
            Gate::Rx => "rx",
            Gate::Ry => "ry",
            Gate::Rz => "rz",
            Gate::U1 => "u1",
            Gate::U2 => "u2",
            Gate::U3 => "u3",
            Gate::Cnot => "cx",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
            Gate::Ccx => "ccx",
            Gate::Ccz => "ccz",
        }
    }

    /// Looks a gate up by its canonical name.
    pub fn from_name(name: &str) -> Option<Gate> {
        ALL_GATES.iter().copied().find(|g| g.name() == name)
    }

    /// Returns `true` if the gate's unitary is diagonal in the computational
    /// basis (useful to several optimization passes).
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz
                | Gate::U1
                | Gate::Cz
                | Gate::Ccz
        )
    }

    /// The inverse gate, if it is itself a gate in this enumeration and needs
    /// no parameters to express (self-inverse gates return themselves).
    pub fn fixed_inverse(self) -> Option<Gate> {
        match self {
            Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::Cnot
            | Gate::Cz
            | Gate::Swap
            | Gate::Ccx
            | Gate::Ccz => Some(self),
            Gate::S => Some(Gate::Sdg),
            Gate::Sdg => Some(Gate::S),
            Gate::T => Some(Gate::Tdg),
            Gate::Tdg => Some(Gate::T),
            Gate::Rx90 => Some(Gate::Rx90Neg),
            Gate::Rx90Neg => Some(Gate::Rx90),
            _ => None,
        }
    }

    /// The 2ᵏ×2ᵏ numeric unitary of the gate on its local qubits.
    ///
    /// # Panics
    ///
    /// Panics if the number of supplied parameter values does not match
    /// [`Gate::num_params`].
    pub fn numeric_matrix(self, params: &[f64]) -> Matrix<Complex64> {
        assert_eq!(
            params.len(),
            self.num_params(),
            "wrong number of parameters for {self}"
        );
        let c = Complex64::new;
        let i = Complex64::i();
        let one = Complex64::one();
        let zero = Complex64::zero();
        let isq2 = std::f64::consts::FRAC_1_SQRT_2;
        match self {
            Gate::H => Matrix::from_rows(vec![
                vec![c(isq2, 0.0), c(isq2, 0.0)],
                vec![c(isq2, 0.0), c(-isq2, 0.0)],
            ]),
            Gate::X => Matrix::from_rows(vec![vec![zero, one], vec![one, zero]]),
            Gate::Y => Matrix::from_rows(vec![vec![zero, -i], vec![i, zero]]),
            Gate::Z => Matrix::from_rows(vec![vec![one, zero], vec![zero, -one]]),
            Gate::S => Matrix::from_rows(vec![vec![one, zero], vec![zero, i]]),
            Gate::Sdg => Matrix::from_rows(vec![vec![one, zero], vec![zero, -i]]),
            Gate::T => Matrix::from_rows(vec![
                vec![one, zero],
                vec![
                    zero,
                    Complex64::from_polar_unit(std::f64::consts::FRAC_PI_4),
                ],
            ]),
            Gate::Tdg => Matrix::from_rows(vec![
                vec![one, zero],
                vec![
                    zero,
                    Complex64::from_polar_unit(-std::f64::consts::FRAC_PI_4),
                ],
            ]),
            Gate::Rx90 => Self::rx_numeric(std::f64::consts::FRAC_PI_2),
            Gate::Rx90Neg => Self::rx_numeric(-std::f64::consts::FRAC_PI_2),
            Gate::Rx180 => Self::rx_numeric(std::f64::consts::PI),
            Gate::Rx => Self::rx_numeric(params[0]),
            Gate::Ry => {
                let (s, co) = (params[0] / 2.0).sin_cos();
                Matrix::from_rows(vec![
                    vec![c(co, 0.0), c(-s, 0.0)],
                    vec![c(s, 0.0), c(co, 0.0)],
                ])
            }
            Gate::Rz => {
                let half = params[0] / 2.0;
                Matrix::from_rows(vec![
                    vec![Complex64::from_polar_unit(-half), zero],
                    vec![zero, Complex64::from_polar_unit(half)],
                ])
            }
            Gate::U1 => Matrix::from_rows(vec![
                vec![one, zero],
                vec![zero, Complex64::from_polar_unit(params[0])],
            ]),
            Gate::U2 => {
                let (phi, lam) = (params[0], params[1]);
                Matrix::from_rows(vec![
                    vec![c(isq2, 0.0), Complex64::from_polar_unit(lam) * (-isq2)],
                    vec![
                        Complex64::from_polar_unit(phi) * isq2,
                        Complex64::from_polar_unit(phi + lam) * isq2,
                    ],
                ])
            }
            Gate::U3 => {
                let (theta, phi, lam) = (params[0], params[1], params[2]);
                let (s, co) = (theta / 2.0).sin_cos();
                Matrix::from_rows(vec![
                    vec![c(co, 0.0), Complex64::from_polar_unit(lam) * (-s)],
                    vec![
                        Complex64::from_polar_unit(phi) * s,
                        Complex64::from_polar_unit(phi + lam) * co,
                    ],
                ])
            }
            Gate::Cnot => {
                // Operand 0 (bit 0) is the control, operand 1 (bit 1) the target.
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = one;
                m[(3, 1)] = one;
                m[(2, 2)] = one;
                m[(1, 3)] = one;
                m
            }
            Gate::Cz => {
                let mut m = Matrix::identity(4);
                m[(3, 3)] = -one;
                m
            }
            Gate::Swap => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = one;
                m[(2, 1)] = one;
                m[(1, 2)] = one;
                m[(3, 3)] = one;
                m
            }
            Gate::Ccx => {
                // Operands 0,1 (bits 0,1) are controls; operand 2 (bit 2) the target.
                let mut m = Matrix::zeros(8, 8);
                for col in 0..8usize {
                    let row = if col & 0b011 == 0b011 {
                        col ^ 0b100
                    } else {
                        col
                    };
                    m[(row, col)] = one;
                }
                m
            }
            Gate::Ccz => {
                let mut m = Matrix::identity(8);
                m[(7, 7)] = -one;
                m
            }
        }
    }

    fn rx_numeric(theta: f64) -> Matrix<Complex64> {
        let (s, c) = (theta / 2.0).sin_cos();
        let mi = Complex64::new(0.0, -1.0);
        Matrix::from_rows(vec![
            vec![Complex64::new(c, 0.0), mi * s],
            vec![mi * s, Complex64::new(c, 0.0)],
        ])
    }

    /// The exact symbolic unitary of the gate on its local qubits, as
    /// polynomials over ℚ(ζ₈) in the cos/sin of the half-parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if a parameter expression cannot be represented
    /// exactly (see [`ParamExpr::half_angle`]).
    pub fn symbolic_matrix(
        self,
        params: &[ParamExpr],
    ) -> Result<Matrix<Poly>, UnsupportedAngleError> {
        assert_eq!(
            params.len(),
            self.num_params(),
            "wrong number of parameters for {self}"
        );
        let one = Poly::one;
        let zero = Poly::zero;
        let ci = |k: i64| Poly::constant(Cyclotomic::root_of_unity(k));
        let inv_sqrt2 = Poly::constant(Cyclotomic::inv_sqrt2());
        let m = match self {
            Gate::H => Matrix::from_rows(vec![
                vec![inv_sqrt2.clone(), inv_sqrt2.clone()],
                vec![inv_sqrt2.clone(), inv_sqrt2.neg()],
            ]),
            Gate::X => Matrix::from_rows(vec![vec![zero(), one()], vec![one(), zero()]]),
            Gate::Y => Matrix::from_rows(vec![
                vec![zero(), Poly::constant(-Cyclotomic::i())],
                vec![Poly::constant(Cyclotomic::i()), zero()],
            ]),
            Gate::Z => Matrix::from_rows(vec![vec![one(), zero()], vec![zero(), one().neg()]]),
            Gate::S => Matrix::from_rows(vec![vec![one(), zero()], vec![zero(), ci(2)]]),
            Gate::Sdg => Matrix::from_rows(vec![vec![one(), zero()], vec![zero(), ci(-2)]]),
            Gate::T => Matrix::from_rows(vec![vec![one(), zero()], vec![zero(), ci(1)]]),
            Gate::Tdg => Matrix::from_rows(vec![vec![one(), zero()], vec![zero(), ci(-1)]]),
            Gate::Rx90 => Self::rx_symbolic_const(1),
            Gate::Rx90Neg => Self::rx_symbolic_const(-1),
            Gate::Rx180 => Self::rx_symbolic_const(2),
            Gate::Rx => {
                let (hc, r) = params[0].half_angle()?;
                Self::rx_symbolic(&hc, r)
            }
            Gate::Ry => {
                let (hc, r) = params[0].half_angle()?;
                let cos = Poly::cos_angle(&hc, r);
                let sin = Poly::sin_angle(&hc, r);
                Matrix::from_rows(vec![vec![cos.clone(), sin.neg()], vec![sin, cos]])
            }
            Gate::Rz => {
                let (hc, r) = params[0].half_angle()?;
                let neg: Vec<i64> = hc.iter().map(|&k| -k).collect();
                Matrix::from_rows(vec![
                    vec![Poly::exp_i_angle(&neg, -r), zero()],
                    vec![zero(), Poly::exp_i_angle(&hc, r)],
                ])
            }
            Gate::U1 => {
                let (hc, r) = params[0].full_angle();
                Matrix::from_rows(vec![
                    vec![one(), zero()],
                    vec![zero(), Poly::exp_i_angle(&hc, r)],
                ])
            }
            Gate::U2 => {
                let (phc, pr) = params[0].full_angle();
                let (lhc, lr) = params[1].full_angle();
                let sum_hc: Vec<i64> = {
                    let n = phc.len().max(lhc.len());
                    (0..n)
                        .map(|i| {
                            phc.get(i).copied().unwrap_or(0) + lhc.get(i).copied().unwrap_or(0)
                        })
                        .collect()
                };
                let e_lam = Poly::exp_i_angle(&lhc, lr);
                let e_phi = Poly::exp_i_angle(&phc, pr);
                let e_sum = Poly::exp_i_angle(&sum_hc, pr + lr);
                Matrix::from_rows(vec![
                    vec![inv_sqrt2.clone(), e_lam.mul(&inv_sqrt2).neg()],
                    vec![e_phi.mul(&inv_sqrt2), e_sum.mul(&inv_sqrt2)],
                ])
            }
            Gate::U3 => {
                let (thc, tr) = params[0].half_angle()?;
                let (phc, pr) = params[1].full_angle();
                let (lhc, lr) = params[2].full_angle();
                let sum_hc: Vec<i64> = {
                    let n = phc.len().max(lhc.len());
                    (0..n)
                        .map(|i| {
                            phc.get(i).copied().unwrap_or(0) + lhc.get(i).copied().unwrap_or(0)
                        })
                        .collect()
                };
                let cos = Poly::cos_angle(&thc, tr);
                let sin = Poly::sin_angle(&thc, tr);
                let e_lam = Poly::exp_i_angle(&lhc, lr);
                let e_phi = Poly::exp_i_angle(&phc, pr);
                let e_sum = Poly::exp_i_angle(&sum_hc, pr + lr);
                Matrix::from_rows(vec![
                    vec![cos.clone(), e_lam.mul(&sin).neg()],
                    vec![e_phi.mul(&sin), e_sum.mul(&cos)],
                ])
            }
            Gate::Cnot => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = one();
                m[(3, 1)] = one();
                m[(2, 2)] = one();
                m[(1, 3)] = one();
                m
            }
            Gate::Cz => {
                let mut m = Matrix::identity(4);
                m[(3, 3)] = one().neg();
                m
            }
            Gate::Swap => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = one();
                m[(2, 1)] = one();
                m[(1, 2)] = one();
                m[(3, 3)] = one();
                m
            }
            Gate::Ccx => {
                let mut m = Matrix::zeros(8, 8);
                for col in 0..8usize {
                    let row = if col & 0b011 == 0b011 {
                        col ^ 0b100
                    } else {
                        col
                    };
                    m[(row, col)] = one();
                }
                m
            }
            Gate::Ccz => {
                let mut m = Matrix::identity(8);
                m[(7, 7)] = one().neg();
                m
            }
        };
        Ok(m)
    }

    /// Rx for a constant angle of `quarter_pi_half_units`·π/4 *as the half
    /// angle* (i.e. the full rotation angle is twice that).
    fn rx_symbolic_const(half_angle_pi4: i64) -> Matrix<Poly> {
        let cos = Poly::cos_angle(&[], half_angle_pi4);
        let sin = Poly::sin_angle(&[], half_angle_pi4);
        let minus_i = Poly::constant(-Cyclotomic::i());
        Matrix::from_rows(vec![
            vec![cos.clone(), minus_i.mul(&sin)],
            vec![minus_i.mul(&sin), cos],
        ])
    }

    fn rx_symbolic(half_coeffs: &[i64], pi4: i64) -> Matrix<Poly> {
        let cos = Poly::cos_angle(half_coeffs, pi4);
        let sin = Poly::sin_angle(half_coeffs, pi4);
        let minus_i = Poly::constant(-Cyclotomic::i());
        Matrix::from_rows(vec![
            vec![cos.clone(), minus_i.mul(&sin)],
            vec![minus_i.mul(&sin), cos],
        ])
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A multiset of gate types: how many times each [`Gate`] occurs.
///
/// A pattern can only match a circuit when its histogram is a subset of
/// the circuit's (every gate the pattern needs occurs at least as often in
/// the circuit). Circuits maintain their histogram incrementally, so the
/// subset test is O([`Gate::COUNT`]) with no circuit traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GateHistogram {
    counts: [u32; Gate::COUNT],
}

impl GateHistogram {
    /// The empty histogram.
    pub fn new() -> Self {
        GateHistogram::default()
    }

    /// The histogram of a sequence of gate types.
    pub fn from_gates(gates: impl IntoIterator<Item = Gate>) -> Self {
        let mut h = GateHistogram::new();
        for g in gates {
            h.add(g);
        }
        h
    }

    /// Records one more occurrence of `gate`.
    pub fn add(&mut self, gate: Gate) {
        self.counts[gate.index()] += 1;
    }

    /// Removes one occurrence of `gate`.
    ///
    /// # Panics
    ///
    /// Panics if the count for `gate` is zero.
    pub fn remove(&mut self, gate: Gate) {
        assert!(
            self.counts[gate.index()] > 0,
            "removing {gate} from a histogram without it"
        );
        self.counts[gate.index()] -= 1;
    }

    /// Number of occurrences of `gate`.
    pub fn count(&self, gate: Gate) -> usize {
        self.counts[gate.index()] as usize
    }

    /// Total number of gate occurrences.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Returns `true` when every gate type occurs in `other` at least as
    /// often as here (multiset inclusion).
    pub fn is_subset_of(&self, other: &GateHistogram) -> bool {
        self.counts
            .iter()
            .zip(other.counts.iter())
            .all(|(mine, theirs)| mine <= theirs)
    }

    /// Gate types with a nonzero count, in [`ALL_GATES`] order.
    pub fn present_gates(&self) -> impl Iterator<Item = Gate> + '_ {
        ALL_GATES
            .iter()
            .copied()
            .filter(|g| self.counts[g.index()] > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe(r: i32) -> ParamExpr {
        ParamExpr::constant_pi4(r)
    }

    #[test]
    fn arities() {
        assert_eq!(Gate::H.num_qubits(), 1);
        assert_eq!(Gate::Cnot.num_qubits(), 2);
        assert_eq!(Gate::Ccx.num_qubits(), 3);
        assert_eq!(Gate::U3.num_params(), 3);
        assert_eq!(Gate::Rz.num_params(), 1);
        assert_eq!(Gate::H.num_params(), 0);
        assert!(Gate::Rz.is_parametric());
        assert!(!Gate::Cz.is_parametric());
    }

    #[test]
    fn names_round_trip() {
        for g in ALL_GATES {
            assert_eq!(Gate::from_name(g.name()), Some(g));
        }
        assert_eq!(Gate::from_name("nope"), None);
    }

    #[test]
    fn all_fixed_gates_are_unitary() {
        for g in ALL_GATES {
            if g.num_params() == 0 {
                let m = g.numeric_matrix(&[]);
                assert!(m.is_unitary(1e-12), "{g} should be unitary");
            }
        }
    }

    #[test]
    fn parametric_gates_are_unitary_for_sample_angles() {
        let angles = [0.0, 0.3, std::f64::consts::FRAC_PI_4, -1.7, 3.0];
        for &a in &angles {
            for &b in &angles {
                for &c in &angles {
                    assert!(Gate::Rx.numeric_matrix(&[a]).is_unitary(1e-12));
                    assert!(Gate::Ry.numeric_matrix(&[a]).is_unitary(1e-12));
                    assert!(Gate::Rz.numeric_matrix(&[a]).is_unitary(1e-12));
                    assert!(Gate::U1.numeric_matrix(&[a]).is_unitary(1e-12));
                    assert!(Gate::U2.numeric_matrix(&[a, b]).is_unitary(1e-12));
                    assert!(Gate::U3.numeric_matrix(&[a, b, c]).is_unitary(1e-12));
                }
            }
        }
    }

    #[test]
    fn known_identities_numeric() {
        // H·H = I
        let h = Gate::H.numeric_matrix(&[]);
        assert!(h.matmul(&h).approx_eq(&Matrix::identity(2), 1e-12));
        // S·S = Z
        let s = Gate::S.numeric_matrix(&[]);
        assert!(s.matmul(&s).approx_eq(&Gate::Z.numeric_matrix(&[]), 1e-12));
        // T·T = S
        let t = Gate::T.numeric_matrix(&[]);
        assert!(t.matmul(&t).approx_eq(&s, 1e-12));
        // CNOT² = I
        let cx = Gate::Cnot.numeric_matrix(&[]);
        assert!(cx.matmul(&cx).approx_eq(&Matrix::identity(4), 1e-12));
        // CCX² = I
        let ccx = Gate::Ccx.numeric_matrix(&[]);
        assert!(ccx.matmul(&ccx).approx_eq(&Matrix::identity(8), 1e-12));
    }

    #[test]
    fn u1_equals_rz_up_to_phase_numeric() {
        let theta = 0.918;
        let u1 = Gate::U1.numeric_matrix(&[theta]);
        let rz = Gate::Rz.numeric_matrix(&[theta]);
        let phase = Complex64::from_polar_unit(theta / 2.0);
        assert!(u1.approx_eq(&rz.scale(&phase), 1e-12));
    }

    #[test]
    fn rigetti_fixed_rotations_match_parametric_rx() {
        let pairs = [
            (Gate::Rx90, std::f64::consts::FRAC_PI_2),
            (Gate::Rx90Neg, -std::f64::consts::FRAC_PI_2),
            (Gate::Rx180, std::f64::consts::PI),
        ];
        for (g, angle) in pairs {
            let fixed = g.numeric_matrix(&[]);
            let parametric = Gate::Rx.numeric_matrix(&[angle]);
            assert!(fixed.approx_eq(&parametric, 1e-12), "{g}");
        }
    }

    #[test]
    fn symbolic_matches_numeric_for_fixed_gates() {
        for g in ALL_GATES {
            if g.num_params() > 0 {
                continue;
            }
            let num = g.numeric_matrix(&[]);
            let sym = g.symbolic_matrix(&[]).unwrap();
            for (r, c, p) in sym.entries() {
                let v = p.eval_f64(&[]);
                assert!(
                    v.approx_eq(*num.get(r, c), 1e-12),
                    "{g} entry ({r},{c}): symbolic {v} vs numeric {}",
                    num.get(r, c)
                );
            }
        }
    }

    #[test]
    fn symbolic_matches_numeric_for_parametric_gates() {
        // Use p0 (and p1, p2) as the arguments; evaluate at several angles.
        let check = |g: Gate, exprs: &[ParamExpr], values: &[f64]| {
            let sym = g.symbolic_matrix(exprs).unwrap();
            let gate_args: Vec<f64> = exprs.iter().map(|e| e.eval(values)).collect();
            let num = g.numeric_matrix(&gate_args);
            // Half-parameters are half the parameter values.
            let halves: Vec<f64> = values.iter().map(|v| v / 2.0).collect();
            for (r, c, p) in sym.entries() {
                let v = p.eval_f64(&halves);
                assert!(
                    v.approx_eq(*num.get(r, c), 1e-9),
                    "{g} entry ({r},{c}): symbolic {v} vs numeric {}",
                    num.get(r, c)
                );
            }
        };
        let m = 3;
        let p0 = ParamExpr::var(0, m);
        let p1 = ParamExpr::var(1, m);
        let p2 = ParamExpr::var(2, m);
        for &a in &[0.0, 0.7, -2.3] {
            check(Gate::Rz, std::slice::from_ref(&p0), &[a, 0.0, 0.0]);
            check(Gate::Rx, std::slice::from_ref(&p0), &[a, 0.0, 0.0]);
            check(Gate::Ry, std::slice::from_ref(&p0), &[a, 0.0, 0.0]);
            check(Gate::U1, std::slice::from_ref(&p0), &[a, 0.0, 0.0]);
            check(Gate::U2, &[p0.clone(), p1.clone()], &[a, 1.1, 0.0]);
            check(
                Gate::U3,
                &[p0.clone(), p1.clone(), p2.clone()],
                &[a, 1.1, -0.4],
            );
        }
    }

    #[test]
    fn symbolic_constant_u1_is_t_gate() {
        let sym_t = Gate::U1.symbolic_matrix(&[pe(1)]).unwrap();
        let t = Gate::T.symbolic_matrix(&[]).unwrap();
        for (r, c, p) in sym_t.entries() {
            assert!(p.sub(t.get(r, c)).is_zero_mod_trig());
        }
    }

    #[test]
    fn halving_odd_quarter_pi_is_rejected() {
        let err = Gate::Rz.symbolic_matrix(&[pe(1)]);
        assert!(err.is_err());
        // Even multiples are fine: Rz(π/2).
        assert!(Gate::Rz.symbolic_matrix(&[pe(2)]).is_ok());
    }

    #[test]
    fn fixed_inverses_are_correct() {
        for g in ALL_GATES {
            if let Some(inv) = g.fixed_inverse() {
                let prod = g.numeric_matrix(&[]).matmul(&inv.numeric_matrix(&[]));
                let n = prod.rows();
                assert!(prod.approx_eq(&Matrix::identity(n), 1e-12), "{g} inverse");
            }
        }
    }

    #[test]
    fn diagonal_flag_matches_matrices() {
        for g in ALL_GATES {
            if g.num_params() > 0 || !g.is_diagonal() {
                continue;
            }
            let m = g.numeric_matrix(&[]);
            for (r, c, v) in m.entries() {
                if r != c {
                    assert!(
                        v.norm() < 1e-12,
                        "{g} flagged diagonal but has off-diagonal entry"
                    );
                }
            }
        }
    }
}
