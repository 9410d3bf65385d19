//! The cyclotomic field ℚ(ζ₈), where ζ₈ = e^{iπ/4}.
//!
//! Every matrix entry of the gates used in the Quartz paper (Hadamard, Pauli,
//! T/S phases, CNOT/CZ, and the parametric U1/U2/U3/Rx/Rz gates after the
//! symbolic reduction of Section 4) lies in the ring of polynomials over
//! ℚ(ζ₈): the field contains the imaginary unit i = ζ², √2 = ζ − ζ³, and all
//! eighth roots of unity e^{ikπ/4} = ζᵏ. Representing these numbers exactly
//! is what makes the verifier a decision procedure rather than a
//! floating-point approximation.
//!
//! An element is stored by its coordinates on the basis {1, ζ, ζ², ζ³} with
//! [`Rational`] coefficients; the defining relation is ζ⁴ = −1.

use crate::rational::Rational;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of the cyclotomic field ℚ(ζ₈) with ζ₈ = e^{iπ/4}.
///
/// # Examples
///
/// ```
/// use quartz_math::Cyclotomic;
///
/// // i² = −1
/// let i = Cyclotomic::i();
/// assert_eq!(&i * &i, -Cyclotomic::one());
///
/// // (1/√2)² = 1/2
/// let h = Cyclotomic::inv_sqrt2();
/// assert_eq!(&h * &h, Cyclotomic::from_rational(quartz_math::Rational::new(1, 2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cyclotomic {
    /// Coefficients of 1, ζ, ζ², ζ³.
    coeffs: [Rational; 4],
}

impl Cyclotomic {
    /// The additive identity.
    pub fn zero() -> Self {
        Cyclotomic {
            coeffs: [
                Rational::zero(),
                Rational::zero(),
                Rational::zero(),
                Rational::zero(),
            ],
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Cyclotomic::from_rational(Rational::one())
    }

    /// Embeds a rational number.
    pub fn from_rational(r: Rational) -> Self {
        Cyclotomic {
            coeffs: [r, Rational::zero(), Rational::zero(), Rational::zero()],
        }
    }

    /// Embeds a small integer.
    pub fn from_i64(v: i64) -> Self {
        Cyclotomic::from_rational(Rational::from(v))
    }

    /// The primitive eighth root of unity ζ = e^{iπ/4}.
    pub fn zeta() -> Self {
        let mut c = Cyclotomic::zero();
        c.coeffs[1] = Rational::one();
        c
    }

    /// The imaginary unit i = ζ².
    pub fn i() -> Self {
        let mut c = Cyclotomic::zero();
        c.coeffs[2] = Rational::one();
        c
    }

    /// √2 = ζ − ζ³.
    pub fn sqrt2() -> Self {
        let mut c = Cyclotomic::zero();
        c.coeffs[1] = Rational::one();
        c.coeffs[3] = Rational::new(-1, 1);
        c
    }

    /// 1/√2 = (ζ − ζ³)/2.
    pub fn inv_sqrt2() -> Self {
        let mut c = Cyclotomic::zero();
        c.coeffs[1] = Rational::new(1, 2);
        c.coeffs[3] = Rational::new(-1, 2);
        c
    }

    /// e^{ikπ/4} = ζᵏ for any integer `k` (taken modulo 8).
    pub fn root_of_unity(k: i64) -> Self {
        let k = k.rem_euclid(8) as usize;
        let mut c = Cyclotomic::zero();
        if k < 4 {
            c.coeffs[k] = Rational::one();
        } else {
            c.coeffs[k - 4] = Rational::new(-1, 1);
        }
        c
    }

    /// The coordinates on the basis {1, ζ, ζ², ζ³}.
    pub fn coefficients(&self) -> &[Rational; 4] {
        &self.coeffs
    }

    /// Returns `true` if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(Rational::is_zero)
    }

    /// Returns `true` if this is the multiplicative identity.
    pub fn is_one(&self) -> bool {
        self.coeffs[0].is_one() && self.coeffs[1..].iter().all(Rational::is_zero)
    }

    /// Returns `true` if the element is a rational number (no ζ components).
    pub fn is_rational(&self) -> bool {
        self.coeffs[1..].iter().all(Rational::is_zero)
    }

    /// Complex conjugation: ζ ↦ ζ⁻¹ = −ζ³.
    pub fn conj(&self) -> Cyclotomic {
        // conj(a + bζ + cζ² + dζ³) = a + b(−ζ³) + c(−ζ²) + d(−ζ)
        Cyclotomic {
            coeffs: [
                self.coeffs[0].clone(),
                -self.coeffs[3].clone(),
                -self.coeffs[2].clone(),
                -self.coeffs[1].clone(),
            ],
        }
    }

    /// The Galois automorphism σ_k : ζ ↦ ζᵏ for odd k ∈ {1,3,5,7}.
    pub fn galois(&self, k: u8) -> Cyclotomic {
        assert!(
            k % 2 == 1 && k < 8,
            "Galois automorphisms of Q(zeta_8) are indexed by odd k < 8"
        );
        let mut out = Cyclotomic::zero();
        for (j, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            let mut term = Cyclotomic::root_of_unity((j as i64) * (k as i64));
            term.scale_assign(c);
            out += &term;
        }
        out
    }

    /// Multiplies in place by a rational scalar.
    pub fn scale_assign(&mut self, s: &Rational) {
        for c in &mut self.coeffs {
            *c = &*c * s;
        }
    }

    /// Multiplies by a rational scalar.
    pub fn scale(&self, s: &Rational) -> Cyclotomic {
        let mut out = self.clone();
        out.scale_assign(s);
        out
    }

    /// Multiplicative inverse.
    ///
    /// The inverse is computed by multiplying the three non-trivial Galois
    /// conjugates together (their product with `self` is the field norm, a
    /// rational number).
    ///
    /// # Panics
    ///
    /// Panics if the element is zero.
    pub fn inverse(&self) -> Cyclotomic {
        assert!(!self.is_zero(), "inverse of zero cyclotomic element");
        let c3 = self.galois(3);
        let c5 = self.galois(5);
        let c7 = self.galois(7);
        let prod = &(&c3 * &c5) * &c7;
        let norm = self * &prod;
        debug_assert!(norm.is_rational(), "field norm must be rational");
        let norm_rat = norm.coeffs[0].clone();
        assert!(
            !norm_rat.is_zero(),
            "field norm of a nonzero element cannot be zero"
        );
        prod.scale(&norm_rat.recip())
    }

    /// Evaluates numerically as a complex number `(re, im)`.
    pub fn to_complex_f64(&self) -> (f64, f64) {
        // ζ^k = cos(kπ/4) + i sin(kπ/4)
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let basis = [
            (1.0, 0.0),
            (inv_sqrt2, inv_sqrt2),
            (0.0, 1.0),
            (-inv_sqrt2, inv_sqrt2),
        ];
        let mut re = 0.0;
        let mut im = 0.0;
        for (c, (br, bi)) in self.coeffs.iter().zip(basis.iter()) {
            let v = c.to_f64();
            re += v * br;
            im += v * bi;
        }
        (re, im)
    }
}

impl Default for Cyclotomic {
    fn default() -> Self {
        Cyclotomic::zero()
    }
}

impl From<Rational> for Cyclotomic {
    fn from(r: Rational) -> Self {
        Cyclotomic::from_rational(r)
    }
}

impl From<i64> for Cyclotomic {
    fn from(v: i64) -> Self {
        Cyclotomic::from_i64(v)
    }
}

impl Add for &Cyclotomic {
    type Output = Cyclotomic;
    fn add(self, rhs: &Cyclotomic) -> Cyclotomic {
        Cyclotomic {
            coeffs: [
                &self.coeffs[0] + &rhs.coeffs[0],
                &self.coeffs[1] + &rhs.coeffs[1],
                &self.coeffs[2] + &rhs.coeffs[2],
                &self.coeffs[3] + &rhs.coeffs[3],
            ],
        }
    }
}

impl Sub for &Cyclotomic {
    type Output = Cyclotomic;
    fn sub(self, rhs: &Cyclotomic) -> Cyclotomic {
        Cyclotomic {
            coeffs: [
                &self.coeffs[0] - &rhs.coeffs[0],
                &self.coeffs[1] - &rhs.coeffs[1],
                &self.coeffs[2] - &rhs.coeffs[2],
                &self.coeffs[3] - &rhs.coeffs[3],
            ],
        }
    }
}

impl Mul for &Cyclotomic {
    type Output = Cyclotomic;
    fn mul(self, rhs: &Cyclotomic) -> Cyclotomic {
        // Convolution followed by reduction with ζ⁴ = −1.
        let mut acc = [
            Rational::zero(),
            Rational::zero(),
            Rational::zero(),
            Rational::zero(),
        ];
        for i in 0..4 {
            if self.coeffs[i].is_zero() {
                continue;
            }
            for j in 0..4 {
                if rhs.coeffs[j].is_zero() {
                    continue;
                }
                let prod = &self.coeffs[i] * &rhs.coeffs[j];
                let k = i + j;
                if k < 4 {
                    acc[k] += &prod;
                } else {
                    acc[k - 4] -= &prod;
                }
            }
        }
        Cyclotomic { coeffs: acc }
    }
}

impl Neg for Cyclotomic {
    type Output = Cyclotomic;
    fn neg(self) -> Cyclotomic {
        Cyclotomic {
            coeffs: [
                -self.coeffs[0].clone(),
                -self.coeffs[1].clone(),
                -self.coeffs[2].clone(),
                -self.coeffs[3].clone(),
            ],
        }
    }
}

impl Neg for &Cyclotomic {
    type Output = Cyclotomic;
    fn neg(self) -> Cyclotomic {
        -self.clone()
    }
}

macro_rules! forward_owned_binop_cyc {
    ($trait:ident, $method:ident) => {
        impl $trait for Cyclotomic {
            type Output = Cyclotomic;
            fn $method(self, rhs: Cyclotomic) -> Cyclotomic {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Cyclotomic> for Cyclotomic {
            type Output = Cyclotomic;
            fn $method(self, rhs: &Cyclotomic) -> Cyclotomic {
                (&self).$method(rhs)
            }
        }
        impl $trait<Cyclotomic> for &Cyclotomic {
            type Output = Cyclotomic;
            fn $method(self, rhs: Cyclotomic) -> Cyclotomic {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop_cyc!(Add, add);
forward_owned_binop_cyc!(Sub, sub);
forward_owned_binop_cyc!(Mul, mul);

impl AddAssign<&Cyclotomic> for Cyclotomic {
    fn add_assign(&mut self, rhs: &Cyclotomic) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Cyclotomic> for Cyclotomic {
    fn sub_assign(&mut self, rhs: &Cyclotomic) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Cyclotomic> for Cyclotomic {
    fn mul_assign(&mut self, rhs: &Cyclotomic) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for Cyclotomic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let names = ["", "ζ", "ζ²", "ζ³"];
        let mut first = true;
        for (c, name) in self.coeffs.iter().zip(names.iter()) {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            if name.is_empty() {
                write!(f, "{c}")?;
            } else if c.is_one() {
                write!(f, "{name}")?;
            } else {
                write!(f, "{c}·{name}")?;
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
    fn zeta_powers() {
        let z = Cyclotomic::zeta();
        let z2 = &z * &z;
        let z4 = &z2 * &z2;
        let z8 = &z4 * &z4;
        assert_eq!(z2, Cyclotomic::i());
        assert_eq!(z4, -Cyclotomic::one());
        assert_eq!(z8, Cyclotomic::one());
        for k in -10i64..10 {
            let direct = Cyclotomic::root_of_unity(k);
            let mut by_mul = Cyclotomic::one();
            for _ in 0..k.rem_euclid(8) {
                by_mul *= &z;
            }
            assert_eq!(direct, by_mul, "zeta^{k}");
        }
    }

    #[test]
    fn sqrt2_squares_to_two() {
        let s = Cyclotomic::sqrt2();
        assert_eq!(&s * &s, Cyclotomic::from_i64(2));
        let h = Cyclotomic::inv_sqrt2();
        assert_eq!(&h * &h, Cyclotomic::from_rational(Rational::new(1, 2)));
        assert_eq!(&s * &h, Cyclotomic::one());
    }

    #[test]
    fn conjugation() {
        let z = Cyclotomic::zeta();
        assert_eq!(&z * &z.conj(), Cyclotomic::one());
        let i = Cyclotomic::i();
        assert_eq!(i.conj(), -Cyclotomic::i());
        assert_eq!(Cyclotomic::sqrt2().conj(), Cyclotomic::sqrt2());
        let x = &Cyclotomic::from_i64(3) + &Cyclotomic::i().scale(&Rational::new(2, 1));
        assert_eq!(x.conj().conj(), x);
    }

    #[test]
    fn inverse() {
        let samples = [
            Cyclotomic::one(),
            Cyclotomic::zeta(),
            Cyclotomic::i(),
            Cyclotomic::sqrt2(),
            &Cyclotomic::from_i64(3) + &Cyclotomic::zeta(),
            &Cyclotomic::inv_sqrt2() - &Cyclotomic::i(),
        ];
        for x in &samples {
            let inv = x.inverse();
            assert_eq!(x * &inv, Cyclotomic::one(), "inverse of {x}");
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inverse_of_zero_panics() {
        let _ = Cyclotomic::zero().inverse();
    }

    #[test]
    fn numeric_evaluation() {
        let (re, im) = Cyclotomic::zeta().to_complex_f64();
        assert!((re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((im - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        let (re, im) = Cyclotomic::sqrt2().to_complex_f64();
        assert!((re - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(im.abs() < 1e-12);
    }

    #[test]
    fn field_axioms_spot_checks() {
        let a = &Cyclotomic::from_i64(2) + &Cyclotomic::zeta();
        let b = &Cyclotomic::i() - &Cyclotomic::from_rational(Rational::new(1, 3));
        let c = Cyclotomic::root_of_unity(5);
        // distributivity
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // commutativity
        assert_eq!(&a * &b, &b * &a);
        // associativity
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cyclotomic::zero().to_string(), "0");
        assert_eq!(Cyclotomic::one().to_string(), "1");
        assert_eq!(Cyclotomic::i().to_string(), "ζ²");
    }
}
