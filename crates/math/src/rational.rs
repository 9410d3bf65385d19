//! Exact rational numbers.
//!
//! A [`Rational`] is stored in one of two forms:
//!
//! * `Small(n, d)` keeps numerator and denominator in machine words. Two
//!   small operands are added, subtracted, multiplied, divided and compared
//!   in `i128` (which no sum of two products of small parts overflows, in
//!   debug or release builds) and reduced with a binary gcd, so the common
//!   case never touches the heap. Every coefficient the verifier meets on the committed gate
//!   sets is of this form.
//! * `Big(n, d)` holds [`BigInt`]s. It is only the representation of values
//!   whose reduced numerator or denominator does not fit in an `i64`; an
//!   operation with a big operand is computed on `BigInt`s and its result
//!   returns to `Small` whenever it fits.
//!
//! The form is canonical, which is what keeps the derived `Eq` and `Hash` of
//! `Rational` (and of [`Cyclotomic`](crate::Cyclotomic) and
//! [`Poly`](crate::Poly), built on it) sound:
//!
//! * the value is in lowest terms with a strictly positive denominator, and
//!   zero is `0/1`;
//! * it is `Small` exactly when numerator and denominator both lie in
//!   `i64::MIN + 1 ..= i64::MAX`. Excluding `i64::MIN` means negating or
//!   taking the absolute value of a small value never overflows.
//!
//! Every result is built by one of two normalizing constructors
//! (`from_i128_parts` and [`Rational::from_bigints`]), which enforce both
//! rules.

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
pub struct Rational(Repr);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `n / d` with `d > 0`, `gcd(|n|, d) = 1` and `n != i64::MIN`.
    Small(i64, i64),
    /// `n / d` in lowest terms with `d > 0`, where `n` or `d` lies outside
    /// `i64::MIN + 1 ..= i64::MAX`. Boxed, so that a `Rational` stays three
    /// words and a [`Cyclotomic`](crate::Cyclotomic) twelve.
    Big(Box<(BigInt, BigInt)>),
}

use Repr::{Big, Small};

impl Rational {
    /// Creates a rational from small integer numerator and denominator.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    pub fn new(numer: i64, denom: i64) -> Self {
        assert!(denom != 0, "rational with zero denominator");
        Self::from_i128_parts(numer.into(), denom.into())
    }

    /// Creates a rational from big-integer numerator and denominator and
    /// normalizes it (lowest terms, positive denominator).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn from_bigints(numer: BigInt, denom: BigInt) -> Self {
        assert!(!denom.is_zero(), "rational with zero denominator");
        if let (Some(n), Some(d)) = (numer.to_i64(), denom.to_i64()) {
            return Self::from_i128_parts(n.into(), d.into());
        }
        let (mut numer, mut denom) = if denom.is_negative() {
            (-numer, -denom)
        } else {
            (numer, denom)
        };
        let g = numer.gcd(&denom);
        if !g.is_one() {
            numer = &numer / &g;
            denom = &denom / &g;
        }
        match (small_part(&numer), small_part(&denom)) {
            (Some(n), Some(d)) => Rational(Small(n, d)),
            _ => Rational::big(numer, denom),
        }
    }

    /// Normalizes `numer / denom` computed in `i128`. Both parts must have
    /// magnitude below 2^127 (see [`wide_mul`]).
    fn from_i128_parts(numer: i128, denom: i128) -> Self {
        debug_assert!(denom != 0 && numer != i128::MIN && denom != i128::MIN);
        if numer == 0 {
            return Rational::zero();
        }
        let negative = (numer < 0) != (denom < 0);
        let (n, d) = (numer.unsigned_abs(), denom.unsigned_abs());
        let g = gcd(n, d);
        let (n, d) = (n / g, d / g);
        match (i64::try_from(n), i64::try_from(d)) {
            (Ok(n), Ok(d)) => Rational(Small(if negative { -n } else { n }, d)),
            _ => {
                // Both are below 2^127, so the casts are exact.
                let n = BigInt::from(n as i128);
                Rational::big(if negative { -n } else { n }, BigInt::from(d as i128))
            }
        }
    }

    fn big(numer: BigInt, denom: BigInt) -> Self {
        Rational(Big(Box::new((numer, denom))))
    }

    /// The rational zero.
    pub fn zero() -> Self {
        Rational(Small(0, 1))
    }

    /// The rational one.
    pub fn one() -> Self {
        Rational(Small(1, 1))
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Small(0, _))
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Small(1, 1))
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Small(n, _) => *n < 0,
            Big(b) => b.0.is_negative(),
        }
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.0 {
            Small(_, d) => *d == 1,
            Big(b) => b.1.is_one(),
        }
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> BigInt {
        match &self.0 {
            Small(n, _) => BigInt::from(*n),
            Big(b) => b.0.clone(),
        }
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> BigInt {
        match &self.0 {
            Small(_, d) => BigInt::from(*d),
            Big(b) => b.1.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero rational");
        match &self.0 {
            Small(n, d) if *n < 0 => Rational(Small(-d, -n)),
            Small(n, d) => Rational(Small(*d, *n)),
            Big(b) => Rational::from_bigints(b.1.clone(), b.0.clone()),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        match &self.0 {
            Small(n, d) => Rational(Small(n.abs(), *d)),
            Big(b) => Rational::big(b.0.abs(), b.1.clone()),
        }
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            Small(n, d) => *n as f64 / *d as f64,
            Big(b) => b.0.to_f64() / b.1.to_f64(),
        }
    }

    /// Raises to a (possibly negative) integer power.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero and `exp` is negative.
    pub fn pow(&self, exp: i32) -> Rational {
        let base = if exp < 0 { self.recip() } else { self.clone() };
        let exp = exp.unsigned_abs();
        Rational::from_bigints(base.numer().pow(exp), base.denom().pow(exp))
    }
}

/// `v` as the part of a `Small` rational, if it is one.
fn small_part(v: &BigInt) -> Option<i64> {
    v.to_i64().filter(|&v| v != i64::MIN)
}

/// The exact product of two parts of `Small` rationals. Those have magnitude
/// below 2^63, so the product is below 2^126 and a sum or difference of two
/// products fits in an `i128` as well.
fn wide_mul(a: &i64, b: &i64) -> i128 {
    i128::from(*a) * i128::from(*b)
}

/// Binary gcd; `gcd(0, b) = b`.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
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
        Rational::new(v, 1)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational::from_bigints(v, BigInt::one())
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
        match (&self.0, &other.0) {
            (Small(a, b), Small(c, d)) => wide_mul(a, d).cmp(&wide_mul(c, b)),
            _ => (&self.numer() * &other.denom()).cmp(&(&other.numer() * &self.denom())),
        }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        match (&self.0, &rhs.0) {
            (_, Small(0, _)) => self.clone(),
            (Small(0, _), _) => rhs.clone(),
            (Small(a, b), Small(c, d)) => {
                Rational::from_i128_parts(wide_mul(a, d) + wide_mul(c, b), wide_mul(b, d))
            }
            _ => {
                let (a, b, c, d) = (self.numer(), self.denom(), rhs.numer(), rhs.denom());
                Rational::from_bigints(&(&a * &d) + &(&c * &b), &b * &d)
            }
        }
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        match (&self.0, &rhs.0) {
            (_, Small(0, _)) => self.clone(),
            (Small(a, b), Small(c, d)) => {
                Rational::from_i128_parts(wide_mul(a, d) - wide_mul(c, b), wide_mul(b, d))
            }
            _ => {
                let (a, b, c, d) = (self.numer(), self.denom(), rhs.numer(), rhs.denom());
                Rational::from_bigints(&(&a * &d) - &(&c * &b), &b * &d)
            }
        }
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        match (&self.0, &rhs.0) {
            (Small(a, b), Small(c, d)) => Rational::from_i128_parts(wide_mul(a, c), wide_mul(b, d)),
            _ => Rational::from_bigints(&self.numer() * &rhs.numer(), &self.denom() * &rhs.denom()),
        }
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero rational");
        match (&self.0, &rhs.0) {
            (Small(a, b), Small(c, d)) => Rational::from_i128_parts(wide_mul(a, d), wide_mul(b, c)),
            _ => Rational::from_bigints(&self.numer() * &rhs.denom(), &self.denom() * &rhs.numer()),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.0 {
            Small(n, d) => Rational(Small(-n, d)),
            Big(b) => {
                let (n, d) = *b;
                Rational::big(-n, d)
            }
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
        match &self.0 {
            Small(n, 1) => write!(f, "{n}"),
            Small(n, d) => write!(f, "{n}/{d}"),
            Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Big(b) => write!(f, "{}/{}", b.0, b.1),
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
        assert_eq!(rat(-2, 3).recip(), rat(-3, 2));
        assert_eq!(rat(2, 3).pow(3), rat(8, 27));
        assert_eq!(rat(2, 3).pow(-2), rat(9, 4));
        assert_eq!(rat(5, 7).pow(0), Rational::one());
    }

    #[test]
    fn display() {
        assert_eq!(rat(1, 2).to_string(), "1/2");
        assert_eq!(rat(-4, 2).to_string(), "-2");
        assert_eq!(Rational::zero().to_string(), "0");
        let big = &Rational::from(i64::MAX) * &rat(4, 3);
        assert_eq!(big.to_string(), "36893488147419103228/3");
    }

    #[test]
    fn to_f64() {
        assert!((rat(1, 4).to_f64() - 0.25).abs() < 1e-15);
        assert!((rat(-7, 2).to_f64() + 3.5).abs() < 1e-15);
    }

    #[test]
    fn representation_is_small_exactly_when_the_value_fits() {
        assert!(matches!(rat(i64::MAX, 1).0, Small(i64::MAX, 1)));
        assert!(matches!(rat(-i64::MAX, 1).0, Small(_, 1)));
        // i64::MIN is excluded, so its negation cannot overflow.
        assert!(matches!(Rational::from(i64::MIN).0, Big(..)));
        assert!(matches!((-Rational::from(i64::MIN)).0, Big(..)));
        assert!(matches!(rat(i64::MIN, 2).0, Small(_, 1)));
        assert!(matches!(rat(1, i64::MIN).0, Big(..)));
        let over = &rat(i64::MAX, 1) + &rat(1, 1);
        assert!(matches!(over.0, Big(..)));
        assert!(matches!((&over - &rat(2, 1)).0, Small(_, 1)));
        assert_eq!(&over - &rat(2, 1), rat(i64::MAX - 1, 1));
        assert!(matches!((&over / &over).0, Small(1, 1)));
    }

    #[test]
    fn binary_gcd() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 9), 9);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(1 << 100, 3 << 90), 1 << 90);
        assert_eq!(gcd(u128::from(u64::MAX) * 3, 9), 9);
    }
}
