//! A minimal commutative-ring abstraction shared by the numeric and symbolic
//! matrix code.

use crate::{Complex64, Cyclotomic, Rational};

/// A commutative ring with identity.
///
/// The quantum-circuit semantics is expressed once, generically over this
/// trait, and instantiated both with [`Complex64`] (fast, approximate, used
/// for fingerprints) and with symbolic polynomial entries (exact, used by the
/// verifier).
pub trait Ring: Clone + PartialEq {
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Addition.
    fn add(&self, rhs: &Self) -> Self;
    /// In-place addition, `self ← self + rhs`. Types whose sums can reuse
    /// the left operand's storage override it.
    fn add_assign(&mut self, rhs: &Self) {
        *self = self.add(rhs);
    }
    /// Multiplication.
    fn mul(&self, rhs: &Self) -> Self;
    /// Additive inverse.
    fn neg(&self) -> Self;
    /// Whether the element equals the additive identity.
    fn is_zero(&self) -> bool;

    /// Subtraction, provided in terms of [`Ring::add`] and [`Ring::neg`].
    fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.neg())
    }
}

impl Ring for Complex64 {
    fn zero() -> Self {
        Complex64::zero()
    }
    fn one() -> Self {
        Complex64::one()
    }
    fn add(&self, rhs: &Self) -> Self {
        *self + *rhs
    }
    fn mul(&self, rhs: &Self) -> Self {
        *self * *rhs
    }
    fn neg(&self) -> Self {
        -*self
    }
    fn is_zero(&self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }
}

impl Ring for Rational {
    fn zero() -> Self {
        Rational::zero()
    }
    fn one() -> Self {
        Rational::one()
    }
    fn add(&self, rhs: &Self) -> Self {
        self + rhs
    }
    fn add_assign(&mut self, rhs: &Self) {
        *self += rhs;
    }
    fn mul(&self, rhs: &Self) -> Self {
        self * rhs
    }
    fn neg(&self) -> Self {
        -self
    }
    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }
}

impl Ring for Cyclotomic {
    fn zero() -> Self {
        Cyclotomic::zero()
    }
    fn one() -> Self {
        Cyclotomic::one()
    }
    fn add(&self, rhs: &Self) -> Self {
        self + rhs
    }
    fn add_assign(&mut self, rhs: &Self) {
        *self += rhs;
    }
    fn mul(&self, rhs: &Self) -> Self {
        self * rhs
    }
    fn neg(&self) -> Self {
        -self
    }
    fn is_zero(&self) -> bool {
        Cyclotomic::is_zero(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_smoke<R: Ring + std::fmt::Debug>() {
        let one = R::one();
        let zero = R::zero();
        assert!(zero.is_zero());
        assert!(!one.is_zero());
        assert_eq!(one.add(&zero), one);
        assert_eq!(one.mul(&zero), zero);
        assert_eq!(one.sub(&one), zero);
        assert_eq!(one.neg().neg(), one);
    }

    #[test]
    fn implementations_satisfy_identities() {
        ring_smoke::<Complex64>();
        ring_smoke::<Rational>();
        ring_smoke::<Cyclotomic>();
    }
}
