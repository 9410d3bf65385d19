//! Arbitrary-precision signed integers.
//!
//! `BigInt` is a sign-magnitude big integer with `u64` limbs (little-endian).
//! It provides exactly the operations the rest of the workspace needs for
//! exact rational and cyclotomic arithmetic: addition, subtraction,
//! multiplication, Euclidean division, GCD, comparison, parity, shifting and
//! conversion to/from primitive integers and decimal strings.
//!
//! The implementation favours simplicity and correctness over raw speed. A
//! [`Rational`](crate::Rational) keeps its parts in machine words whenever
//! they fit, which covers every coefficient the verifier meets on the
//! committed gate sets, so `BigInt` is only the representation of values
//! that overflow an `i64`. Those are rare and a handful of limbs long, so
//! schoolbook algorithms are adequate.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// # Examples
///
/// ```
/// use quartz_math::BigInt;
///
/// let a = BigInt::from(1_000_000_007i64);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "1000000014000000049");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian limbs; no trailing zero limbs; empty iff sign == Zero.
    limbs: Vec<u64>,
}

impl BigInt {
    /// The integer zero.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            limbs: Vec::new(),
        }
    }

    /// The integer one.
    pub fn one() -> Self {
        BigInt::from(1i64)
    }

    /// Returns `true` if this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if this integer is one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Positive && self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Returns `true` if this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Returns `true` if this integer is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l % 2 == 0)
    }

    /// The sign of the integer.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        let mut r = self.clone();
        if r.sign == Sign::Negative {
            r.sign = Sign::Positive;
        }
        r
    }

    /// Constructs a `BigInt` from little-endian `u64` limbs and a sign.
    ///
    /// Trailing zero limbs are stripped; an all-zero limb vector yields zero
    /// regardless of `negative`.
    pub fn from_limbs(mut limbs: Vec<u64>, negative: bool) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.is_empty() {
            BigInt::zero()
        } else {
            BigInt {
                sign: if negative {
                    Sign::Negative
                } else {
                    Sign::Positive
                },
                limbs,
            }
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` of the magnitude.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => {
                if self.limbs.len() > 1 {
                    None
                } else {
                    i64::try_from(self.limbs[0]).ok()
                }
            }
            Sign::Negative => {
                if self.limbs.len() > 1 {
                    None
                } else if self.limbs[0] == (1u64 << 63) {
                    Some(i64::MIN)
                } else {
                    i64::try_from(self.limbs[0]).ok().map(|v| -v)
                }
            }
        }
    }

    /// Converts to `f64` (lossy for large magnitudes).
    pub fn to_f64(&self) -> f64 {
        let mut mag = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            mag = mag * 1.8446744073709552e19 + limb as f64;
        }
        match self.sign {
            Sign::Negative => -mag,
            Sign::Zero => 0.0,
            Sign::Positive => mag,
        }
    }

    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let x = long[i];
            let y = if i < short.len() { short[i] } else { 0 };
            let (s1, c1) = x.overflowing_add(y);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        out
    }

    /// Subtracts magnitudes; requires `a >= b`.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for i in 0..a.len() {
            let x = a[i];
            let y = if i < b.len() { b[i] } else { 0 };
            let (d1, b1) = x.overflowing_sub(y);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Shifts the magnitude left by `bits`.
    pub fn shl(&self, bits: usize) -> BigInt {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        BigInt::from_limbs(limbs, self.sign == Sign::Negative)
    }

    /// Shifts the magnitude right by `bits` (arithmetic on magnitude, i.e.
    /// truncation toward zero).
    pub fn shr(&self, bits: usize) -> BigInt {
        if self.is_zero() {
            return BigInt::zero();
        }
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigInt::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                limbs.push(lo | hi);
            }
        }
        BigInt::from_limbs(limbs, self.sign == Sign::Negative)
    }

    /// Euclidean-style division of magnitudes via shift-and-subtract.
    ///
    /// Returns `(quotient, remainder)` of the magnitudes (ignoring signs).
    fn divmod_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!b.is_empty(), "division by zero BigInt");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        // Fast path: single-limb divisor.
        if b.len() == 1 {
            let d = b[0] as u128;
            let mut q = vec![0u64; a.len()];
            let mut rem: u128 = 0;
            for i in (0..a.len()).rev() {
                let cur = (rem << 64) | a[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            let r = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u64]
            };
            return (q, r);
        }
        // General case: bit-by-bit long division. Numbers in this workspace
        // stay small (a few limbs), so O(n_bits * n_limbs) is fine.
        let a_big = BigInt {
            sign: Sign::Positive,
            limbs: a.to_vec(),
        };
        let b_big = BigInt {
            sign: Sign::Positive,
            limbs: b.to_vec(),
        };
        let n = a_big.bit_len();
        let mut rem = BigInt::zero();
        let mut q_limbs = vec![0u64; a.len()];
        for i in (0..n).rev() {
            rem = rem.shl(1);
            if a_big.bit(i) {
                rem = &rem + &BigInt::one();
            }
            if Self::cmp_mag(&rem.limbs, &b_big.limbs) != Ordering::Less {
                rem = &rem - &b_big;
                q_limbs[i / 64] |= 1u64 << (i % 64);
            }
        }
        while q_limbs.last() == Some(&0) {
            q_limbs.pop();
        }
        (q_limbs, rem.limbs)
    }

    /// Quotient and remainder with truncation toward zero (like Rust's `/`
    /// and `%` on primitive integers): the remainder has the sign of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero BigInt");
        if self.is_zero() {
            return (BigInt::zero(), BigInt::zero());
        }
        let (q_mag, r_mag) = Self::divmod_mag(&self.limbs, &other.limbs);
        let q_neg = (self.sign == Sign::Negative) != (other.sign == Sign::Negative);
        let r_neg = self.sign == Sign::Negative;
        (
            BigInt::from_limbs(q_mag, q_neg),
            BigInt::from_limbs(r_mag, r_neg),
        )
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r.abs();
        }
        a
    }

    /// Raises `self` to a small non-negative power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Parses a decimal string, optionally prefixed with `-` or `+`.
    ///
    /// # Errors
    ///
    /// Returns an error message if the string is empty or contains a
    /// non-digit character.
    pub fn from_decimal_str(s: &str) -> Result<BigInt, String> {
        let (neg, digits) = match s.as_bytes().first() {
            Some(b'-') => (true, &s[1..]),
            Some(b'+') => (false, &s[1..]),
            _ => (false, s),
        };
        if digits.is_empty() {
            return Err("empty integer literal".to_string());
        }
        let mut acc = BigInt::zero();
        let ten = BigInt::from(10i64);
        for ch in digits.chars() {
            let d = ch
                .to_digit(10)
                .ok_or_else(|| format!("invalid digit {ch:?} in integer literal"))?;
            acc = &(&acc * &ten) + &BigInt::from(d as i64);
        }
        if neg {
            acc = -acc;
        }
        Ok(acc)
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: Sign::Positive,
                limbs: vec![v as u64],
            },
            Ordering::Less => BigInt {
                sign: Sign::Negative,
                limbs: vec![v.unsigned_abs()],
            },
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigInt::zero()
        } else {
            BigInt {
                sign: Sign::Positive,
                limbs: vec![v],
            }
        }
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        if v == 0 {
            return BigInt::zero();
        }
        let neg = v < 0;
        let mag = v.unsigned_abs();
        let lo = mag as u64;
        let hi = (mag >> 64) as u64;
        BigInt::from_limbs(vec![lo, hi], neg)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        use Sign::*;
        match (self.sign, other.sign) {
            (Negative, Negative) => Self::cmp_mag(&other.limbs, &self.limbs),
            (Negative, _) => Ordering::Less,
            (Zero, Negative) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Positive) => Ordering::Less,
            (Positive, Positive) => Self::cmp_mag(&self.limbs, &other.limbs),
            (Positive, _) => Ordering::Greater,
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.flip();
        self
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        use Sign::*;
        match (self.sign, rhs.sign) {
            (Zero, _) => rhs.clone(),
            (_, Zero) => self.clone(),
            (a, b) if a == b => BigInt {
                sign: a,
                limbs: BigInt::add_mag(&self.limbs, &rhs.limbs),
            },
            _ => {
                // Opposite signs: subtract the smaller magnitude from the larger.
                match BigInt::cmp_mag(&self.limbs, &rhs.limbs) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => BigInt::from_limbs(
                        BigInt::sub_mag(&self.limbs, &rhs.limbs),
                        self.sign == Negative,
                    ),
                    Ordering::Less => BigInt::from_limbs(
                        BigInt::sub_mag(&rhs.limbs, &self.limbs),
                        rhs.sign == Negative,
                    ),
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs.clone())
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let neg = (self.sign == Sign::Negative) != (rhs.sign == Sign::Negative);
        BigInt::from_limbs(BigInt::mul_mag(&self.limbs, &rhs.limbs), neg)
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);
forward_owned_binop!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.abs();
        let billion = BigInt::from(1_000_000_000i64);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&billion);
            digits.push(r.limbs.first().copied().unwrap_or(0) as u32);
            cur = q;
        }
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", digits.last().unwrap())?;
        for chunk in digits.iter().rev().skip(1) {
            write!(f, "{chunk:09}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for BigInt {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigInt::from_decimal_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert!(!BigInt::one().is_zero());
        assert_eq!(BigInt::default(), BigInt::zero());
    }

    #[test]
    fn from_i64_round_trip() {
        for v in [-5i64, -1, 0, 1, 2, 1 << 40, i64::MAX, i64::MIN + 1] {
            assert_eq!(big(v).to_i64(), Some(v));
        }
        assert_eq!(BigInt::from(i64::MIN).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn addition_small() {
        assert_eq!(&big(2) + &big(3), big(5));
        assert_eq!(&big(-2) + &big(3), big(1));
        assert_eq!(&big(2) + &big(-3), big(-1));
        assert_eq!(&big(-2) + &big(-3), big(-5));
        assert_eq!(&big(5) + &BigInt::zero(), big(5));
    }

    #[test]
    fn addition_carries_across_limbs() {
        let a = BigInt::from(u64::MAX);
        let b = &a + &BigInt::one();
        assert_eq!(b.to_string(), "18446744073709551616");
        assert_eq!(&b - &BigInt::one(), a);
    }

    #[test]
    fn subtraction() {
        assert_eq!(&big(10) - &big(4), big(6));
        assert_eq!(&big(4) - &big(10), big(-6));
        assert_eq!(&big(-4) - &big(-10), big(6));
        assert_eq!(&big(7) - &big(7), BigInt::zero());
    }

    #[test]
    fn multiplication() {
        assert_eq!(&big(6) * &big(7), big(42));
        assert_eq!(&big(-6) * &big(7), big(-42));
        assert_eq!(&big(-6) * &big(-7), big(42));
        assert_eq!(&big(0) * &big(7), BigInt::zero());
        let a = BigInt::from(u64::MAX);
        let sq = &a * &a;
        assert_eq!(sq.to_string(), "340282366920938463426481119284349108225");
    }

    #[test]
    fn division_truncates_toward_zero() {
        assert_eq!((&big(7) / &big(2)), big(3));
        assert_eq!((&big(-7) / &big(2)), big(-3));
        assert_eq!((&big(7) / &big(-2)), big(-3));
        assert_eq!((&big(-7) / &big(-2)), big(3));
        assert_eq!((&big(7) % &big(2)), big(1));
        assert_eq!((&big(-7) % &big(2)), big(-1));
    }

    #[test]
    fn division_multi_limb() {
        let a = BigInt::from_decimal_str("340282366920938463426481119284349108225").unwrap();
        let b = BigInt::from(u64::MAX);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, b);
        assert!(r.is_zero());
        let (q2, r2) = (&a + &big(17)).div_rem(&b);
        assert_eq!(q2, b);
        assert_eq!(r2, big(17));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = big(5).div_rem(&BigInt::zero());
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(-12).gcd(&big(18)), big(6));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&big(0)), big(5));
        assert_eq!(big(17).gcd(&big(13)), big(1));
    }

    #[test]
    fn pow_small() {
        assert_eq!(big(2).pow(10), big(1024));
        assert_eq!(big(3).pow(0), big(1));
        assert_eq!(big(-2).pow(3), big(-8));
        assert_eq!(big(10).pow(20).to_string(), "100000000000000000000");
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(70).to_string(), "1180591620717411303424");
        assert_eq!(big(1).shl(70).shr(70), big(1));
        assert_eq!(big(12345).shl(3), big(12345 * 8));
        assert_eq!(big(12345).shr(3), big(12345 / 8));
    }

    #[test]
    fn ordering() {
        assert!(big(-5) < big(-1));
        assert!(big(-1) < big(0));
        assert!(big(0) < big(3));
        assert!(big(3) < big(30));
        assert!(BigInt::from(u64::MAX) < big(1).shl(64));
    }

    #[test]
    fn display_and_parse_round_trip() {
        for s in [
            "0",
            "-1",
            "123456789012345678901234567890",
            "-987654321098765432109876543210",
        ] {
            let v = BigInt::from_decimal_str(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!(BigInt::from_decimal_str("").is_err());
        assert!(BigInt::from_decimal_str("12x3").is_err());
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(big(1234).to_f64(), 1234.0);
        assert_eq!(big(-1234).to_f64(), -1234.0);
        let large = big(10).pow(25);
        let rel = (large.to_f64() - 1e25).abs() / 1e25;
        assert!(rel < 1e-12);
    }

    #[test]
    fn parity() {
        assert!(big(0).is_even());
        assert!(big(2).is_even());
        assert!(!big(3).is_even());
        assert!(big(-4).is_even());
    }
}
