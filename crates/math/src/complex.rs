//! Double-precision complex numbers used for fast numeric circuit
//! evaluation (state vectors, fingerprints, phase-factor candidate search).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use quartz_math::Complex64;
///
/// let i = Complex64::i();
/// assert!((i * i + Complex64::one()).norm() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Complex64::new(0.0, 0.0)
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Complex64::new(1.0, 0.0)
    }

    /// The imaginary unit.
    pub fn i() -> Self {
        Complex64::new(0.0, 1.0)
    }

    /// e^{iθ}.
    pub fn from_polar_unit(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Modulus (absolute value).
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns `true` if both components are within `eps` of the other value.
    pub fn approx_eq(self, other: Complex64, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }

    /// Multiplicative inverse; returns NaN components when `self` is zero.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::new(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division via the reciprocal is the intended arithmetic here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re * rhs, self.im * rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        assert!((a / b * b).approx_eq(a, 1e-12));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex64::i() * Complex64::i()).approx_eq(-Complex64::one(), 1e-15));
    }

    #[test]
    fn polar_and_arg() {
        let z = Complex64::from_polar_unit(std::f64::consts::FRAC_PI_3);
        assert!((z.norm() - 1.0).abs() < 1e-15);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-15);
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert!((z * z.conj()).approx_eq(Complex64::from(25.0), 1e-12));
    }
}
