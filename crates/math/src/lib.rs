//! # quartz-math
//!
//! Exact arithmetic substrate for the Quartz quantum-circuit superoptimizer
//! reproduction.
//!
//! The crate provides the numeric and symbolic number types that the rest of
//! the workspace builds on:
//!
//! * [`BigInt`] — arbitrary-precision signed integers;
//! * [`Rational`] — exact rationals in lowest terms, held in two `i64`s and
//!   computed in `i128` whenever the value fits, and in [`BigInt`]s only
//!   when it overflows (a canonical form, so equal values compare and hash
//!   equal);
//! * [`Cyclotomic`] — the cyclotomic field ℚ(ζ₈) containing i, √2 and the
//!   eighth roots of unity, which covers every constant appearing in the
//!   gate sets of the Quartz paper;
//! * [`Complex64`] — double-precision complex numbers for fast numeric
//!   evaluation (fingerprints, phase-factor candidate search);
//! * [`Matrix`] — dense matrices over any [`Ring`], used for both numeric
//!   unitaries and symbolic (polynomial-valued) unitaries; products
//!   accumulate in place through [`Ring::add_assign`];
//! * [`Poly`] — multivariate polynomials over ℚ(ζ₈) with reduction modulo the
//!   trigonometric ideal `cᵢ² + sᵢ² − 1`, which is the exact decision
//!   procedure the verifier uses in place of an SMT solver.
//!
//! # Example
//!
//! ```
//! use quartz_math::{Poly, Cyclotomic};
//!
//! // Verify the identity e^{iθ} = cos θ + i sin θ symbolically.
//! let lhs = Poly::exp_i_angle(&[1], 0);
//! let rhs = Poly::cos_angle(&[1], 0)
//!     .add(&Poly::sin_angle(&[1], 0).scale(&Cyclotomic::i()));
//! assert!(lhs.sub(&rhs).is_zero_mod_trig());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bigint;
mod complex;
mod cyclotomic;
mod matrix;
mod poly;
mod rational;
mod ring;

pub use bigint::{BigInt, Sign};
pub use complex::Complex64;
pub use cyclotomic::Cyclotomic;
pub use matrix::Matrix;
pub use poly::{Monomial, Poly};
pub use rational::Rational;
pub use ring::Ring;
