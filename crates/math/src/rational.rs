//! Exact rational numbers built on [`BigInt`](crate::BigInt).

use crate::bigint::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `numer / denom` in lowest terms with a strictly
/// positive denominator.
///
/// # Examples
///
/// ```
/// use quartz_math::Rational;
///
/// let half = Rational::new(1, 2);
/// let third = Rational::new(1, 3);
/// assert_eq!(&half + &third, Rational::new(5, 6));
/// assert_eq!((&half * &third).to_string(), "1/6");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: BigInt,
    denom: BigInt,
}

impl Rational {
    /// Creates a rational from small integer numerator and denominator.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    pub fn new(numer: i64, denom: i64) -> Self {
        Self::from_bigints(BigInt::from(numer), BigInt::from(denom))
    }

    /// Creates a rational from big-integer numerator and denominator and
    /// normalizes it (lowest terms, positive denominator).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn from_bigints(numer: BigInt, denom: BigInt) -> Self {
        assert!(!denom.is_zero(), "rational with zero denominator");
        let mut r = Rational { numer, denom };
        r.normalize();
        r
    }

    /// The rational zero.
    pub fn zero() -> Self {
        Rational {
            numer: BigInt::zero(),
            denom: BigInt::one(),
        }
    }

    /// The rational one.
    pub fn one() -> Self {
        Rational {
            numer: BigInt::one(),
            denom: BigInt::one(),
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.numer.is_zero()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.numer == self.denom
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer.is_negative()
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.denom.is_one()
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.numer
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.denom
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero rational");
        Rational::from_bigints(self.denom.clone(), self.numer.clone())
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            numer: self.numer.abs(),
            denom: self.denom.clone(),
        }
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        self.numer.to_f64() / self.denom.to_f64()
    }

    /// Raises to a (possibly negative) integer power.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero and `exp` is negative.
    pub fn pow(&self, exp: i32) -> Rational {
        if exp >= 0 {
            Rational {
                numer: self.numer.pow(exp as u32),
                denom: self.denom.pow(exp as u32),
            }
        } else {
            self.recip().pow(-exp)
        }
    }

    fn normalize(&mut self) {
        if self.numer.is_zero() {
            self.denom = BigInt::one();
            return;
        }
        if self.denom.is_negative() {
            self.numer = -self.numer.clone();
            self.denom = -self.denom.clone();
        }
        let g = self.numer.gcd(&self.denom);
        if !g.is_one() {
            self.numer = &self.numer / &g;
            self.denom = &self.denom / &g;
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational {
            numer: BigInt::from(v),
            denom: BigInt::one(),
        }
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational {
            numer: v,
            denom: BigInt::one(),
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d with b,d > 0  <=>  a*d vs c*b
        (&self.numer * &other.denom).cmp(&(&other.numer * &self.denom))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        Rational::from_bigints(
            &(&self.numer * &rhs.denom) + &(&rhs.numer * &self.denom),
            &self.denom * &rhs.denom,
        )
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        Rational::from_bigints(
            &(&self.numer * &rhs.denom) - &(&rhs.numer * &self.denom),
            &self.denom * &rhs.denom,
        )
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        Rational::from_bigints(&self.numer * &rhs.numer, &self.denom * &rhs.denom)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        Rational::from_bigints(&self.numer * &rhs.denom, &self.denom * &rhs.numer)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numer: -self.numer,
            denom: self.denom,
        }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -self.clone()
    }
}

macro_rules! forward_owned_binop_rat {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop_rat!(Add, add);
forward_owned_binop_rat!(Sub, sub);
forward_owned_binop_rat!(Mul, mul);
forward_owned_binop_rat!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom.is_one() {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, -4), rat(1, 2));
        assert_eq!(rat(2, -4), rat(-1, 2));
        assert_eq!(rat(0, 7), Rational::zero());
        assert_eq!(rat(6, 3), Rational::from(2));
        assert!(rat(6, 3).is_integer());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(&rat(1, 2) + &rat(1, 3), rat(5, 6));
        assert_eq!(&rat(1, 2) - &rat(1, 3), rat(1, 6));
        assert_eq!(&rat(2, 3) * &rat(3, 4), rat(1, 2));
        assert_eq!(&rat(2, 3) / &rat(4, 3), rat(1, 2));
        assert_eq!(-rat(1, 2), rat(-1, 2));
    }

    #[test]
    fn comparisons() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(-1, 2) < rat(1, 1000));
        assert_eq!(rat(3, 9).cmp(&rat(1, 3)), Ordering::Equal);
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(rat(2, 3).recip(), rat(3, 2));
        assert_eq!(rat(2, 3).pow(3), rat(8, 27));
        assert_eq!(rat(2, 3).pow(-2), rat(9, 4));
        assert_eq!(rat(5, 7).pow(0), Rational::one());
    }

    #[test]
    fn display() {
        assert_eq!(rat(1, 2).to_string(), "1/2");
        assert_eq!(rat(-4, 2).to_string(), "-2");
        assert_eq!(Rational::zero().to_string(), "0");
    }

    #[test]
    fn to_f64() {
        assert!((rat(1, 4).to_f64() - 0.25).abs() < 1e-15);
        assert!((rat(-7, 2).to_f64() + 3.5).abs() < 1e-15);
    }
}
