//! Multivariate polynomials over ℚ(ζ₈) with trigonometric-ideal reduction.
//!
//! The Quartz verifier (paper §4) reduces circuit equivalence to identities
//! among `sin` and `cos` of the circuit parameters. Following the paper's own
//! reduction, every matrix entry becomes a polynomial in the variables
//! `c_i = cos(h_i)` and `s_i = sin(h_i)` (where `h_i` is the *half* of the
//! i-th symbolic parameter) with coefficients in ℚ(ζ₈). Two entries are equal
//! for **all** real parameter values iff their difference lies in the ideal
//! generated by `c_i² + s_i² − 1`. Because each generator involves a distinct
//! pair of variables, the substitution `s_i² → 1 − c_i²` terminates in a
//! unique normal form (every `s_i`-degree ≤ 1), and a polynomial is in the
//! ideal iff its normal form is identically zero. [`Poly::is_zero_mod_trig`]
//! is therefore an exact decision procedure for the verification conditions
//! Quartz generates — the role played by Z3 in the original system.

use crate::cyclotomic::Cyclotomic;
use crate::rational::Rational;
use crate::ring::Ring;
use crate::Complex64;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// A monomial: exponents of the variables, with trailing zeros trimmed.
///
/// Variable `2i` is `c_i = cos(h_i)` and variable `2i+1` is `s_i = sin(h_i)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial(Vec<u16>);

impl Monomial {
    /// The empty (constant) monomial.
    pub fn unit() -> Self {
        Monomial(Vec::new())
    }

    /// A single variable with exponent one.
    pub fn var(index: usize) -> Self {
        let mut exps = vec![0u16; index + 1];
        exps[index] = 1;
        Monomial(exps)
    }

    fn from_exps(mut exps: Vec<u16>) -> Self {
        while exps.last() == Some(&0) {
            exps.pop();
        }
        Monomial(exps)
    }

    /// Exponent of variable `index`.
    pub fn exponent(&self, index: usize) -> u16 {
        self.0.get(index).copied().unwrap_or(0)
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.0.iter().map(|&e| e as u32).sum()
    }

    /// Product of two monomials (exponent-wise sum).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let n = self.0.len().max(other.0.len());
        let mut exps = vec![0u16; n];
        for (i, e) in exps.iter_mut().enumerate() {
            *e = self.exponent(i) + other.exponent(i);
        }
        Monomial::from_exps(exps)
    }
}

/// A multivariate polynomial over ℚ(ζ₈).
///
/// # Examples
///
/// ```
/// use quartz_math::{Poly, Cyclotomic};
///
/// // c₀² + s₀² − 1 reduces to zero modulo the trig ideal.
/// let c = Poly::var_cos(0);
/// let s = Poly::var_sin(0);
/// let expr = &(&(&c * &c) + &(&s * &s)) - &Poly::one();
/// assert!(expr.is_zero_mod_trig());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    /// Terms keyed by monomial; no zero coefficients are stored.
    terms: BTreeMap<Monomial, Cyclotomic>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly {
            terms: BTreeMap::new(),
        }
    }

    /// The constant polynomial one.
    pub fn one() -> Self {
        Poly::constant(Cyclotomic::one())
    }

    /// A constant polynomial.
    pub fn constant(c: Cyclotomic) -> Self {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(Monomial::unit(), c);
        }
        Poly { terms }
    }

    /// The variable `c_i = cos(h_i)` for half-parameter `i`.
    pub fn var_cos(param: usize) -> Self {
        Poly::from_monomial(Monomial::var(2 * param), Cyclotomic::one())
    }

    /// The variable `s_i = sin(h_i)` for half-parameter `i`.
    pub fn var_sin(param: usize) -> Self {
        Poly::from_monomial(Monomial::var(2 * param + 1), Cyclotomic::one())
    }

    /// A polynomial with a single term.
    pub fn from_monomial(m: Monomial, c: Cyclotomic) -> Self {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(m, c);
        }
        Poly { terms }
    }

    /// Returns `true` if the polynomial has no terms (syntactic zero).
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total degree (0 for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.keys().map(Monomial::degree).max().unwrap_or(0)
    }

    /// Iterates over `(monomial, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &Cyclotomic)> {
        self.terms.iter()
    }

    fn insert_term(&mut self, m: Monomial, c: Cyclotomic) {
        if c.is_zero() {
            return;
        }
        match self.terms.entry(m) {
            Entry::Occupied(mut existing) => {
                *existing.get_mut() += &c;
                if existing.get().is_zero() {
                    existing.remove();
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(c);
            }
        }
    }

    /// Adds the term `c·m` (`c` nonzero), cloning the monomial and
    /// coefficient only when the monomial is new.
    fn add_term(&mut self, m: &Monomial, c: &Cyclotomic) {
        match self.terms.get_mut(m) {
            Some(existing) => {
                *existing += c;
                if existing.is_zero() {
                    self.terms.remove(m);
                }
            }
            None => {
                self.terms.insert(m.clone(), c.clone());
            }
        }
    }

    /// Polynomial addition.
    pub fn add(&self, rhs: &Poly) -> Poly {
        let mut out = self.clone();
        out += rhs;
        out
    }

    /// Polynomial subtraction.
    pub fn sub(&self, rhs: &Poly) -> Poly {
        let mut out = self.clone();
        out -= rhs;
        out
    }

    /// Polynomial multiplication.
    pub fn mul(&self, rhs: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                out.insert_term(ma.mul(mb), ca * cb);
            }
        }
        out
    }

    /// Additive inverse.
    pub fn neg(&self) -> Poly {
        let terms = self
            .terms
            .iter()
            .map(|(m, c)| (m.clone(), -c.clone()))
            .collect();
        Poly { terms }
    }

    /// Multiplies by a scalar from ℚ(ζ₈).
    pub fn scale(&self, s: &Cyclotomic) -> Poly {
        if s.is_zero() {
            return Poly::zero();
        }
        let terms = self.terms.iter().map(|(m, c)| (m.clone(), c * s)).collect();
        Poly { terms }
    }

    /// Raises to a small non-negative power.
    pub fn pow(&self, exp: u32) -> Poly {
        let mut acc = Poly::one();
        for _ in 0..exp {
            acc = acc.mul(self);
        }
        acc
    }

    /// e^{iθ} for the angle θ = Σ kᵢ·hᵢ + r·π/4, expressed as a polynomial in
    /// the cos/sin variables of the half-parameters (paper §4: Euler's
    /// formula plus the angle-sum identities, applied exactly).
    ///
    /// `half_coeffs[i]` is the integer coefficient kᵢ of half-parameter hᵢ and
    /// `pi_over_4_units` is r.
    pub fn exp_i_angle(half_coeffs: &[i64], pi_over_4_units: i64) -> Poly {
        let mut acc = Poly::constant(Cyclotomic::root_of_unity(pi_over_4_units));
        for (i, &k) in half_coeffs.iter().enumerate() {
            if k == 0 {
                continue;
            }
            // e^{i·k·h_i} = (c_i + i·s_i)^k ; for k < 0 use the conjugate,
            // which equals the inverse on the unit circle.
            let c = Poly::var_cos(i);
            let s_times_i = Poly::var_sin(i).scale(&Cyclotomic::i());
            let base = if k > 0 {
                c.add(&s_times_i)
            } else {
                c.sub(&s_times_i)
            };
            acc = acc.mul(&base.pow(k.unsigned_abs() as u32));
        }
        acc
    }

    /// cos θ for θ = Σ kᵢ·hᵢ + r·π/4, as `(e^{iθ} + e^{−iθ})/2`.
    pub fn cos_angle(half_coeffs: &[i64], pi_over_4_units: i64) -> Poly {
        let pos = Poly::exp_i_angle(half_coeffs, pi_over_4_units);
        let neg_coeffs: Vec<i64> = half_coeffs.iter().map(|&k| -k).collect();
        let neg = Poly::exp_i_angle(&neg_coeffs, -pi_over_4_units);
        pos.add(&neg)
            .scale(&Cyclotomic::from_rational(Rational::new(1, 2)))
    }

    /// sin θ for θ = Σ kᵢ·hᵢ + r·π/4, as `(e^{iθ} − e^{−iθ})/(2i)`.
    pub fn sin_angle(half_coeffs: &[i64], pi_over_4_units: i64) -> Poly {
        let pos = Poly::exp_i_angle(half_coeffs, pi_over_4_units);
        let neg_coeffs: Vec<i64> = half_coeffs.iter().map(|&k| -k).collect();
        let neg = Poly::exp_i_angle(&neg_coeffs, -pi_over_4_units);
        // 1/(2i) = −i/2
        let half_over_i = Cyclotomic::i().scale(&Rational::new(-1, 2));
        pos.sub(&neg).scale(&half_over_i)
    }

    /// Rewrites the polynomial into its normal form modulo the trig ideal
    /// generated by `c_i² + s_i² − 1`: every `s_i`-exponent is reduced below 2
    /// using `s_i² = 1 − c_i²`.
    ///
    /// Every term is added into one output map, so the cost is linear in the
    /// number of terms produced. A monomial already in normal form passes
    /// straight through.
    pub fn trig_normal_form(&self) -> Poly {
        let mut out = Poly::zero();
        for (m, coeff) in &self.terms {
            if m.0.iter().skip(1).step_by(2).all(|&e| e < 2) {
                out.add_term(m, coeff);
            } else {
                out += &Self::reduce_monomial(m, coeff);
            }
        }
        out
    }

    fn reduce_monomial(m: &Monomial, coeff: &Cyclotomic) -> Poly {
        // Split s_i^e into (1 − c_i²)^⌊e/2⌋ · s_i^{e mod 2} for every i.
        let mut acc = Poly::constant(coeff.clone());
        let len = m.0.len();
        let mut residual_exps: Vec<u16> = vec![0; len];
        for (idx, residual) in residual_exps.iter_mut().enumerate() {
            let e = m.exponent(idx);
            if e == 0 {
                continue;
            }
            if idx % 2 == 0 {
                // cosine variable: left untouched
                *residual = e;
            } else {
                let half = e / 2;
                let rem = e % 2;
                *residual = rem;
                if half > 0 {
                    let param = idx / 2;
                    let one_minus_c2 = Poly::one().sub(&Poly::var_cos(param).pow(2));
                    acc = acc.mul(&one_minus_c2.pow(half as u32));
                }
            }
        }
        let residual = Monomial::from_exps(residual_exps);
        acc.mul(&Poly::from_monomial(residual, Cyclotomic::one()))
    }

    /// Returns `true` iff the polynomial is zero modulo the trig ideal,
    /// i.e. it vanishes for every real assignment of the half-parameters.
    pub fn is_zero_mod_trig(&self) -> bool {
        self.trig_normal_form().is_zero()
    }

    /// Evaluates numerically, assigning `h_i = half_params[i]` (so `c_i = cos
    /// h_i`, `s_i = sin h_i`). Variables beyond the provided assignment are
    /// treated as having angle zero.
    pub fn eval_f64(&self, half_params: &[f64]) -> Complex64 {
        let mut total = Complex64::zero();
        for (m, coeff) in &self.terms {
            let (re, im) = coeff.to_complex_f64();
            let mut val = Complex64::new(re, im);
            for idx in 0..m.0.len() {
                let e = m.exponent(idx);
                if e == 0 {
                    continue;
                }
                let h = half_params.get(idx / 2).copied().unwrap_or(0.0);
                let base = if idx % 2 == 0 { h.cos() } else { h.sin() };
                for _ in 0..e {
                    val = val * base;
                }
            }
            total += val;
        }
        total
    }
}

impl Ring for Poly {
    fn zero() -> Self {
        Poly::zero()
    }
    fn one() -> Self {
        Poly::one()
    }
    fn add(&self, rhs: &Self) -> Self {
        Poly::add(self, rhs)
    }
    fn add_assign(&mut self, rhs: &Self) {
        *self += rhs;
    }
    fn mul(&self, rhs: &Self) -> Self {
        Poly::mul(self, rhs)
    }
    fn neg(&self) -> Self {
        Poly::neg(self)
    }
    fn is_zero(&self) -> bool {
        Poly::is_zero(self)
    }
}

impl std::ops::AddAssign<&Poly> for Poly {
    fn add_assign(&mut self, rhs: &Poly) {
        for (m, c) in &rhs.terms {
            self.add_term(m, c);
        }
    }
}

impl std::ops::SubAssign<&Poly> for Poly {
    fn sub_assign(&mut self, rhs: &Poly) {
        for (m, c) in &rhs.terms {
            self.add_term(m, &-c);
        }
    }
}

impl std::ops::Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        Poly::add(self, rhs)
    }
}

impl std::ops::Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        Poly::sub(self, rhs)
    }
}

impl std::ops::Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        Poly::mul(self, rhs)
    }
}

impl std::ops::Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        Poly::neg(self)
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "({c})")?;
            for idx in 0..m.0.len() {
                let e = m.exponent(idx);
                if e == 0 {
                    continue;
                }
                let name = if idx % 2 == 0 { "c" } else { "s" };
                write!(f, "·{}{}", name, idx / 2)?;
                if e > 1 {
                    write!(f, "^{e}")?;
                }
            }
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pythagorean_identity_reduces_to_zero() {
        for param in 0..3 {
            let c = Poly::var_cos(param);
            let s = Poly::var_sin(param);
            let expr = c.pow(2).add(&s.pow(2)).sub(&Poly::one());
            assert!(!expr.is_zero(), "syntactically nonzero");
            assert!(expr.is_zero_mod_trig(), "zero modulo the trig ideal");
        }
    }

    #[test]
    fn nonidentities_are_not_zero() {
        let c = Poly::var_cos(0);
        let s = Poly::var_sin(0);
        assert!(!c.sub(&s).is_zero_mod_trig());
        assert!(!c.pow(2).sub(&s.pow(2)).is_zero_mod_trig());
        assert!(!Poly::one().sub(&c).is_zero_mod_trig());
    }

    #[test]
    fn euler_formula_consistency() {
        // e^{iθ}·e^{−iθ} = 1
        let pos = Poly::exp_i_angle(&[2], 0);
        let neg = Poly::exp_i_angle(&[-2], 0);
        assert!(pos.mul(&neg).sub(&Poly::one()).is_zero_mod_trig());
        // e^{iπ/4}^8 = 1
        let z = Poly::exp_i_angle(&[], 1);
        assert!(z.pow(8).sub(&Poly::one()).is_zero_mod_trig());
    }

    #[test]
    fn angle_sum_identity() {
        // cos(a+b) = cos a cos b − sin a sin b, with a = h0, b = h1.
        let lhs = Poly::cos_angle(&[1, 1], 0);
        let rhs = Poly::cos_angle(&[1], 0)
            .mul(&Poly::cos_angle(&[0, 1], 0))
            .sub(&Poly::sin_angle(&[1], 0).mul(&Poly::sin_angle(&[0, 1], 0)));
        assert!(lhs.sub(&rhs).is_zero_mod_trig());
    }

    #[test]
    fn double_angle_identity() {
        // sin(2h) = 2 sin h cos h
        let lhs = Poly::sin_angle(&[2], 0);
        let rhs = Poly::sin_angle(&[1], 0)
            .mul(&Poly::cos_angle(&[1], 0))
            .scale(&Cyclotomic::from_i64(2));
        assert!(lhs.sub(&rhs).is_zero_mod_trig());
        // cos(2h) = 1 − 2 sin² h
        let lhs = Poly::cos_angle(&[2], 0);
        let rhs = Poly::one().sub(
            &Poly::sin_angle(&[1], 0)
                .pow(2)
                .scale(&Cyclotomic::from_i64(2)),
        );
        assert!(lhs.sub(&rhs).is_zero_mod_trig());
    }

    #[test]
    fn constant_angles_evaluate_exactly() {
        // cos(π/4) = √2/2
        let c = Poly::cos_angle(&[], 1);
        let expected = Poly::constant(Cyclotomic::inv_sqrt2());
        assert!(c.sub(&expected).is_zero_mod_trig());
        // sin(π/2) = 1
        let s = Poly::sin_angle(&[], 2);
        assert!(s.sub(&Poly::one()).is_zero_mod_trig());
        // cos(π) = −1
        let c = Poly::cos_angle(&[], 4);
        assert!(c.add(&Poly::one()).is_zero_mod_trig());
    }

    #[test]
    fn numeric_evaluation_matches_symbolic() {
        let theta = 0.7391;
        let phi = -1.234;
        let p = Poly::cos_angle(&[2, 1], 3); // cos(2h0 + h1 + 3π/4)
        let expected = (2.0 * theta + phi + 3.0 * std::f64::consts::FRAC_PI_4).cos();
        let got = p.eval_f64(&[theta, phi]);
        assert!((got.re - expected).abs() < 1e-12);
        assert!(got.im.abs() < 1e-12);
    }

    #[test]
    fn normal_form_is_idempotent_and_sound() {
        let messy = Poly::var_sin(0)
            .pow(5)
            .mul(&Poly::var_cos(1).pow(2))
            .add(&Poly::var_sin(1).pow(4));
        let nf = messy.trig_normal_form();
        assert_eq!(nf.trig_normal_form(), nf);
        // The normal form agrees numerically with the original.
        for &(a, b) in &[(0.3, 1.1), (-0.9, 2.5), (0.0, 0.0)] {
            let x = messy.eval_f64(&[a, b]);
            let y = nf.eval_f64(&[a, b]);
            assert!((x.re - y.re).abs() < 1e-9 && (x.im - y.im).abs() < 1e-9);
        }
    }

    #[test]
    fn ring_trait_for_poly() {
        let a = Poly::var_cos(0);
        let b = Poly::var_sin(0);
        assert_eq!(Ring::add(&a, &b), a.add(&b));
        assert_eq!(Ring::mul(&a, &b), a.mul(&b));
        assert!(Ring::is_zero(&Poly::zero()));
    }
}
