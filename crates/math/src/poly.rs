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
use std::cmp::Ordering;
use std::fmt;

/// Exponents a [`Monomial`] holds without a heap allocation: the variables
/// of four half-parameters.
const INLINE_VARS: usize = 8;

/// A monomial: the exponents of the variables.
///
/// Variable `2i` is `c_i = cos(h_i)` and variable `2i+1` is `s_i = sin(h_i)`.
/// Monomials over the first eight variables (`INLINE_VARS`) keep their
/// exponents inline (zero-padded); wider ones keep them on the heap with
/// trailing zeros trimmed. Either way the order is the lexicographic order
/// of the exponent lists with trailing zeros trimmed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Monomial(Exps);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Exps {
    /// The first [`INLINE_VARS`] exponents; every later one is zero.
    Inline([u16; INLINE_VARS]),
    /// More than [`INLINE_VARS`] exponents, the last one nonzero.
    Wide(Box<[u16]>),
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::unit()
    }
}

impl Monomial {
    /// The empty (constant) monomial.
    pub fn unit() -> Self {
        Monomial(Exps::Inline([0; INLINE_VARS]))
    }

    /// A single variable with exponent one.
    pub fn var(index: usize) -> Self {
        let mut exps = vec![0u16; index + 1];
        exps[index] = 1;
        Monomial::from_exponents(&exps)
    }

    /// The monomial with exponent `exps[i]` on variable `i`.
    pub fn from_exponents(exps: &[u16]) -> Self {
        let len = exps.iter().rposition(|&e| e != 0).map_or(0, |i| i + 1);
        if len <= INLINE_VARS {
            let mut inline = [0; INLINE_VARS];
            inline[..len].copy_from_slice(&exps[..len]);
            Monomial(Exps::Inline(inline))
        } else {
            Monomial(Exps::Wide(exps[..len].into()))
        }
    }

    /// The stored exponents: every exponent up to the last nonzero one,
    /// possibly followed by zeros.
    fn exps(&self) -> &[u16] {
        match &self.0 {
            Exps::Inline(exps) => exps,
            Exps::Wide(exps) => exps,
        }
    }

    /// Exponent of variable `index`.
    pub fn exponent(&self, index: usize) -> u16 {
        self.exps().get(index).copied().unwrap_or(0)
    }

    /// Total degree.
    pub fn degree(&self) -> u32 {
        self.exps().iter().map(|&e| e as u32).sum()
    }

    /// Whether every `s_i`-exponent is below 2 (the trig normal form).
    fn is_trig_normal(&self) -> bool {
        self.exps().iter().skip(1).step_by(2).all(|&e| e < 2)
    }

    /// Product of two monomials (exponent-wise sum).
    pub fn mul(&self, other: &Monomial) -> Monomial {
        match (&self.0, &other.0) {
            (Exps::Inline(a), Exps::Inline(b)) => {
                Monomial(Exps::Inline(std::array::from_fn(|i| a[i] + b[i])))
            }
            _ => {
                let n = self.exps().len().max(other.exps().len());
                let exps: Vec<u16> = (0..n)
                    .map(|i| self.exponent(i) + other.exponent(i))
                    .collect();
                Monomial::from_exponents(&exps)
            }
        }
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // Zero padding does not change the lexicographic order of
            // trimmed lists: where one list ends, the other is either done
            // too or continues with something nonzero.
            (Exps::Inline(a), Exps::Inline(b)) => a.cmp(b),
            _ => {
                let n = self.exps().len().max(other.exps().len());
                (0..n)
                    .map(|i| self.exponent(i).cmp(&other.exponent(i)))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            }
        }
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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
    /// Terms in strictly ascending monomial order; no zero coefficients are
    /// stored.
    terms: Vec<(Monomial, Cyclotomic)>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { terms: Vec::new() }
    }

    /// The constant polynomial one.
    pub fn one() -> Self {
        Poly::constant(Cyclotomic::one())
    }

    /// A constant polynomial.
    pub fn constant(c: Cyclotomic) -> Self {
        Poly::from_monomial(Monomial::unit(), c)
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
        let terms = if c.is_zero() {
            Vec::new()
        } else {
            vec![(m, c)]
        };
        Poly { terms }
    }

    /// Sorts `terms` by monomial, adds up the coefficients of equal
    /// monomials and drops the zero sums.
    fn from_unsorted(mut terms: Vec<(Monomial, Cyclotomic)>) -> Poly {
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        terms.dedup_by(|(m, c), (kept_m, kept_c)| {
            let same = m == kept_m;
            if same {
                *kept_c += c;
            }
            same
        });
        terms.retain(|(_, c)| !c.is_zero());
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
        self.terms
            .iter()
            .map(|(m, _)| m.degree())
            .max()
            .unwrap_or(0)
    }

    /// Iterates over `(monomial, coefficient)` pairs in ascending monomial
    /// order.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &Cyclotomic)> {
        self.terms.iter().map(|(m, c)| (m, c))
    }

    /// `self ← self + sign·rhs`, merging the two sorted term lists.
    fn merge_assign(&mut self, rhs: &Poly, negate: bool) {
        let signed = |c: &Cyclotomic| if negate { -c } else { c.clone() };
        let lhs = std::mem::take(&mut self.terms);
        let mut out = Vec::with_capacity(lhs.len() + rhs.terms.len());
        let mut left = lhs.into_iter().peekable();
        let mut right = rhs.terms.iter().peekable();
        loop {
            let order = match (left.peek(), right.peek()) {
                (Some((ml, _)), Some((mr, _))) => ml.cmp(mr),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            match order {
                Ordering::Less => out.extend(left.next()),
                Ordering::Greater => {
                    let (m, c) = right.next().expect("peeked");
                    out.push((m.clone(), signed(c)));
                }
                Ordering::Equal => {
                    let (m, mut c) = left.next().expect("peeked");
                    let (_, cr) = right.next().expect("peeked");
                    if negate {
                        c -= cr;
                    } else {
                        c += cr;
                    }
                    if !c.is_zero() {
                        out.push((m, c));
                    }
                }
            }
        }
        self.terms = out;
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

    /// Polynomial multiplication: every product of two terms, sorted, with
    /// equal monomials combined.
    pub fn mul(&self, rhs: &Poly) -> Poly {
        let mut products = Vec::with_capacity(self.terms.len() * rhs.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                products.push((ma.mul(mb), ca * cb));
            }
        }
        Poly::from_unsorted(products)
    }

    /// Additive inverse.
    pub fn neg(&self) -> Poly {
        let terms = self.terms.iter().map(|(m, c)| (m.clone(), -c)).collect();
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
    /// Every produced term is collected into one list, which is sorted and
    /// combined once, so the cost is linear in the number of terms produced
    /// (up to the sort).
    pub fn trig_normal_form(&self) -> Poly {
        let mut out = Vec::with_capacity(self.terms.len());
        for (m, coeff) in &self.terms {
            if m.is_trig_normal() {
                out.push((m.clone(), coeff.clone()));
            } else {
                out.extend(Self::reduce_monomial(m, coeff).terms);
            }
        }
        Poly::from_unsorted(out)
    }

    fn reduce_monomial(m: &Monomial, coeff: &Cyclotomic) -> Poly {
        // Split s_i^e into (1 − c_i²)^⌊e/2⌋ · s_i^{e mod 2} for every i.
        let mut acc = Poly::constant(coeff.clone());
        let mut residual_exps = m.exps().to_vec();
        for (idx, residual) in residual_exps.iter_mut().enumerate().skip(1).step_by(2) {
            let half = *residual / 2;
            *residual %= 2;
            if half > 0 {
                let param = idx / 2;
                let one_minus_c2 = Poly::one().sub(&Poly::var_cos(param).pow(2));
                acc = acc.mul(&one_minus_c2.pow(half as u32));
            }
        }
        let residual = Monomial::from_exponents(&residual_exps);
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
            for (idx, &e) in m.exps().iter().enumerate() {
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
        self.merge_assign(rhs, false);
    }
}

impl std::ops::SubAssign<&Poly> for Poly {
    fn sub_assign(&mut self, rhs: &Poly) {
        self.merge_assign(rhs, true);
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
            for (idx, &e) in m.exps().iter().enumerate() {
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
