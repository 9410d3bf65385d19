//! Phase-factor candidate search (paper §4, eq. 5).
//!
//! To eliminate the existential quantification over the global phase β in
//! Definition 1, the verifier searches a finite space of linear phase
//! factors β(p⃗) = a⃗·p⃗ + b, with a⃗ ∈ {−k..k}^m and b a multiple of π/4.
//! Candidates are found numerically at a random evaluation point and then
//! checked exactly by the verifier.

use quartz_ir::{Circuit, FingerprintContext};
use quartz_math::Poly;
use std::fmt;

/// A linear phase factor β(p⃗) = Σᵢ aᵢ·pᵢ + b·π/4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhaseFactor {
    /// Integer coefficients a⃗ of the formal parameters.
    pub param_coeffs: Vec<i64>,
    /// Constant term b in units of π/4.
    pub pi4_units: i64,
}

impl PhaseFactor {
    /// The constant phase factor b·π/4.
    pub fn constant(pi4_units: i64) -> Self {
        PhaseFactor {
            param_coeffs: Vec::new(),
            pi4_units,
        }
    }

    /// The trivial phase factor β = 0.
    pub fn identity() -> Self {
        PhaseFactor::constant(0)
    }

    /// Returns `true` if the phase does not depend on the parameters.
    pub fn is_constant(&self) -> bool {
        self.param_coeffs.iter().all(|&c| c == 0)
    }

    /// The value of β at a concrete parameter assignment.
    pub fn eval(&self, param_values: &[f64]) -> f64 {
        let mut total = self.pi4_units as f64 * std::f64::consts::FRAC_PI_4;
        for (i, &a) in self.param_coeffs.iter().enumerate() {
            total += a as f64 * param_values.get(i).copied().unwrap_or(0.0);
        }
        total
    }

    /// e^{iβ} as an exact polynomial over the half-parameters.
    pub fn to_poly(&self) -> Poly {
        // β = Σ aᵢ·pᵢ + b·π/4 = Σ (2aᵢ)·hᵢ + b·π/4.
        let half_coeffs: Vec<i64> = self.param_coeffs.iter().map(|&a| 2 * a).collect();
        Poly::exp_i_angle(&half_coeffs, self.pi4_units)
    }
}

impl fmt::Display for PhaseFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for (i, &a) in self.param_coeffs.iter().enumerate() {
            match a {
                0 => {}
                1 => parts.push(format!("p{i}")),
                -1 => parts.push(format!("-p{i}")),
                _ => parts.push(format!("{a}*p{i}")),
            }
        }
        if self.pi4_units != 0 || parts.is_empty() {
            parts.push(format!("{}*pi/4", self.pi4_units));
        }
        write!(f, "exp(i*({}))", parts.join(" + "))
    }
}

/// Enumerates all coefficient vectors a⃗ ∈ {−max..=max}^m.
fn coefficient_vectors(num_params: usize, max: i64) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::new()];
    for _ in 0..num_params {
        let mut next = Vec::new();
        for prefix in &out {
            for a in -max..=max {
                let mut v = prefix.clone();
                v.push(a);
                next.push(v);
            }
        }
        out = next;
    }
    out
}

/// Finds candidate phase factors β such that
/// ⟨ψ₀|⟦C₁⟧(p⃗₀)|ψ₁⟩ ≈ e^{iβ(p⃗₀)}·⟨ψ₀|⟦C₂⟧(p⃗₀)|ψ₁⟩ (eq. 5).
///
/// When the reference amplitude of `c2` is too small to determine the phase
/// numerically, all constant phase factors are returned as candidates (the
/// exact check then decides).
pub fn candidate_phases(
    c1: &Circuit,
    c2: &Circuit,
    ctx: &FingerprintContext,
    num_params: usize,
    max_coeff: i64,
    tolerance: f64,
) -> Vec<PhaseFactor> {
    let a1 = ctx.amplitude(c1);
    let a2 = ctx.amplitude(c2);

    if a2.norm() < tolerance.max(1e-9) {
        // The phase cannot be read off numerically; fall back to all constant
        // candidates (and the trivial parameter-dependent ones if requested).
        return (0..8).map(PhaseFactor::constant).collect();
    }

    let ratio = a1 * a2.recip();
    if (ratio.norm() - 1.0).abs() > 10.0 * tolerance {
        return Vec::new();
    }
    let target_angle = ratio.arg();

    let mut out = Vec::new();
    for coeffs in coefficient_vectors(num_params, max_coeff) {
        for b in 0..8i64 {
            let phase = PhaseFactor {
                param_coeffs: coeffs.clone(),
                pi4_units: b,
            };
            let beta = phase.eval(&ctx.param_values);
            let diff = angle_distance(beta, target_angle);
            if diff < 10.0 * tolerance {
                out.push(phase);
            }
        }
    }
    out
}

/// Distance between two angles modulo 2π.
fn angle_distance(a: f64, b: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut d = (a - b) % two_pi;
    if d < 0.0 {
        d += two_pi;
    }
    d.min(two_pi - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{Gate, Instruction};
    use quartz_math::Complex64;

    #[test]
    fn phase_factor_eval_and_poly_agree() {
        let phase = PhaseFactor {
            param_coeffs: vec![1, -2],
            pi4_units: 3,
        };
        let params = [0.7, -1.1];
        let beta = phase.eval(&params);
        let expected = Complex64::from_polar_unit(beta);
        let halves: Vec<f64> = params.iter().map(|p| p / 2.0).collect();
        let got = phase.to_poly().eval_f64(&halves);
        assert!(got.approx_eq(expected, 1e-12));
    }

    #[test]
    fn coefficient_vector_counts() {
        assert_eq!(coefficient_vectors(0, 2).len(), 1);
        assert_eq!(coefficient_vectors(2, 2).len(), 25);
        assert_eq!(coefficient_vectors(3, 1).len(), 27);
        assert_eq!(coefficient_vectors(2, 0), vec![vec![0, 0]]);
    }

    #[test]
    fn angle_distance_wraps() {
        assert!(angle_distance(0.1, std::f64::consts::TAU + 0.1) < 1e-12);
        assert!((angle_distance(0.0, std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-12);
        assert!(angle_distance(-0.05, 0.05) - 0.1 < 1e-12);
    }

    #[test]
    fn constant_phase_recovered_for_t_vs_identity_phase() {
        // S·S·S·S = identity with phase 0; X·T·X·T = e^{iπ/4} identity.
        let ctx = FingerprintContext::new(1, 0, 5);
        let mut lhs = Circuit::new(1, 0);
        for g in [Gate::X, Gate::T, Gate::X, Gate::T] {
            lhs.push(Instruction::new(g, vec![0], vec![]));
        }
        let id = Circuit::new(1, 0);
        let candidates = candidate_phases(&lhs, &id, &ctx, 0, 0, 1e-7);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0], PhaseFactor::constant(1));
    }

    #[test]
    fn no_candidates_when_moduli_differ() {
        let ctx = FingerprintContext::new(1, 0, 5);
        let mut h = Circuit::new(1, 0);
        h.push(Instruction::new(Gate::H, vec![0], vec![]));
        let id = Circuit::new(1, 0);
        let candidates = candidate_phases(&h, &id, &ctx, 0, 2, 1e-7);
        assert!(candidates.is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PhaseFactor::identity().to_string(), "exp(i*(0*pi/4))");
        let p = PhaseFactor {
            param_coeffs: vec![2, 0],
            pi4_units: 1,
        };
        assert_eq!(p.to_string(), "exp(i*(2*p0 + 1*pi/4))");
    }
}
