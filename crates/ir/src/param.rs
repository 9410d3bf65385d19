//! Symbolic parameter expressions (the specification Σ of the paper, §2).
//!
//! Quartz circuits over `m` symbolic parameters use angles that are integer
//! linear combinations of the parameters plus a constant multiple of π/4:
//!
//! ```text
//! θ = Σᵢ kᵢ·pᵢ + r·(π/4),   kᵢ ∈ ℤ, r ∈ ℤ.
//! ```
//!
//! This covers the expression forms used in the paper's evaluation
//! (`pᵢ`, `2pᵢ`, `pᵢ + pⱼ`), the constant angles of the Clifford+T and
//! Rigetti gate sets (multiples of π/4), and everything produced by rotation
//! merging over those inputs. The representation is exact, which is what
//! allows the verifier to be a decision procedure.

use std::fmt;

/// Error produced when an angle cannot be used in the exact symbolic
/// semantics (e.g. halving an odd multiple of π/4 would leave ℚ(ζ₈)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedAngleError {
    /// Human-readable description of the unsupported operation.
    pub message: String,
}

impl fmt::Display for UnsupportedAngleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsupported angle in exact symbolic semantics: {}",
            self.message
        )
    }
}

impl std::error::Error for UnsupportedAngleError {}

/// A symbolic angle expression: an integer linear combination of the formal
/// parameters plus an integer multiple of π/4.
///
/// # Examples
///
/// ```
/// use quartz_ir::ParamExpr;
///
/// let theta = ParamExpr::var(0, 2);          // p₀   (of 2 parameters)
/// let two_phi = ParamExpr::scaled_var(1, 2, 2); // 2·p₁
/// let sum = theta.add(&two_phi);
/// assert_eq!(sum.to_string(), "p0 + 2*p1");
/// assert_eq!(ParamExpr::constant_pi4(2).to_string(), "pi/2");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamExpr {
    /// Coefficient of each formal parameter `pᵢ`.
    coeffs: Vec<i32>,
    /// Constant term in units of π/4.
    const_pi4: i32,
}

impl ParamExpr {
    /// The zero angle with `num_params` formal parameters.
    pub fn zero(num_params: usize) -> Self {
        ParamExpr {
            coeffs: vec![0; num_params],
            const_pi4: 0,
        }
    }

    /// The single parameter `pᵢ` out of `num_params` formal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_params`.
    pub fn var(index: usize, num_params: usize) -> Self {
        Self::scaled_var(index, 1, num_params)
    }

    /// The expression `k·pᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_params`.
    pub fn scaled_var(index: usize, k: i32, num_params: usize) -> Self {
        assert!(index < num_params, "parameter index out of range");
        let mut coeffs = vec![0; num_params];
        coeffs[index] = k;
        ParamExpr {
            coeffs,
            const_pi4: 0,
        }
    }

    /// The expression `pᵢ + pⱼ`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `i == j`.
    pub fn sum_vars(i: usize, j: usize, num_params: usize) -> Self {
        assert!(i != j, "use scaled_var for 2*p_i");
        assert!(
            i < num_params && j < num_params,
            "parameter index out of range"
        );
        let mut coeffs = vec![0; num_params];
        coeffs[i] = 1;
        coeffs[j] = 1;
        ParamExpr {
            coeffs,
            const_pi4: 0,
        }
    }

    /// A constant angle `r·π/4` (with no formal parameters).
    pub fn constant_pi4(r: i32) -> Self {
        ParamExpr {
            coeffs: Vec::new(),
            const_pi4: r,
        }
    }

    /// A constant angle `r·π/4` padded to `num_params` formal parameters.
    pub fn constant_pi4_with_params(r: i32, num_params: usize) -> Self {
        ParamExpr {
            coeffs: vec![0; num_params],
            const_pi4: r,
        }
    }

    /// Reassembles an expression from its raw representation, the inverse of
    /// [`ParamExpr::coeffs`] + [`ParamExpr::const_pi4`] (used by serialization
    /// codecs).
    pub fn from_parts(coeffs: Vec<i32>, const_pi4: i32) -> Self {
        ParamExpr { coeffs, const_pi4 }
    }

    /// The per-parameter integer coefficients.
    pub fn coeffs(&self) -> &[i32] {
        &self.coeffs
    }

    /// The constant term in units of π/4.
    pub fn const_pi4(&self) -> i32 {
        self.const_pi4
    }

    /// Returns `true` if the expression has no parameter dependence.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Returns `true` if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.is_constant() && self.const_pi4 == 0
    }

    /// Indices of the formal parameters that appear with nonzero coefficient.
    pub fn used_params(&self) -> Vec<usize> {
        self.coeffs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sum of two expressions (parameter counts are broadcast to the larger).
    pub fn add(&self, other: &ParamExpr) -> ParamExpr {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = vec![0; n];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = self.coeffs.get(i).copied().unwrap_or(0)
                + other.coeffs.get(i).copied().unwrap_or(0);
        }
        ParamExpr {
            coeffs,
            const_pi4: self.const_pi4 + other.const_pi4,
        }
    }

    /// Negation.
    pub fn negate(&self) -> ParamExpr {
        ParamExpr {
            coeffs: self.coeffs.iter().map(|&c| -c).collect(),
            const_pi4: -self.const_pi4,
        }
    }

    /// Difference of two expressions.
    pub fn sub(&self, other: &ParamExpr) -> ParamExpr {
        self.add(&other.negate())
    }

    /// Multiplies every coefficient and the constant by `k`.
    pub fn scale(&self, k: i32) -> ParamExpr {
        ParamExpr {
            coeffs: self.coeffs.iter().map(|&c| c * k).collect(),
            const_pi4: self.const_pi4 * k,
        }
    }

    /// Divides exactly by a nonzero integer, returning `None` when any
    /// coefficient or the constant is not divisible.
    pub fn div_exact(&self, k: i32) -> Option<ParamExpr> {
        if k == 0 {
            return None;
        }
        if self.coeffs.iter().any(|&c| c % k != 0) || self.const_pi4 % k != 0 {
            return None;
        }
        Some(ParamExpr {
            coeffs: self.coeffs.iter().map(|&c| c / k).collect(),
            const_pi4: self.const_pi4 / k,
        })
    }

    /// Structural equality that ignores trailing zero coefficients (so a
    /// constant written over 0 parameters equals the same constant written
    /// over 2 parameters).
    pub fn expr_eq(&self, other: &ParamExpr) -> bool {
        if self.const_pi4 != other.const_pi4 {
            return false;
        }
        let n = self.coeffs.len().max(other.coeffs.len());
        (0..n).all(|i| {
            self.coeffs.get(i).copied().unwrap_or(0) == other.coeffs.get(i).copied().unwrap_or(0)
        })
    }

    /// Remaps parameter indices: the coefficient of old parameter `i` is
    /// moved to new index `mapping[i]`.
    ///
    /// # Panics
    ///
    /// Panics if a used parameter has no mapping entry.
    pub fn remap_params(&self, mapping: &[usize], new_num_params: usize) -> ParamExpr {
        let mut coeffs = vec![0; new_num_params];
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c != 0 {
                let j = mapping[i];
                assert!(j < new_num_params, "parameter remap out of range");
                coeffs[j] += c;
            }
        }
        ParamExpr {
            coeffs,
            const_pi4: self.const_pi4,
        }
    }

    /// Numeric value of the angle given concrete parameter values (radians).
    pub fn eval(&self, param_values: &[f64]) -> f64 {
        let mut total = self.const_pi4 as f64 * std::f64::consts::FRAC_PI_4;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c != 0 {
                total += c as f64 * param_values.get(i).copied().unwrap_or(0.0);
            }
        }
        total
    }

    /// The angle expressed over *half-parameters* `hᵢ = pᵢ/2`:
    /// returns `(half_coeffs, pi4_units)` such that
    /// `θ = Σ half_coeffs[i]·hᵢ + pi4_units·π/4`.
    pub fn full_angle(&self) -> (Vec<i64>, i64) {
        (
            self.coeffs.iter().map(|&c| 2 * c as i64).collect(),
            self.const_pi4 as i64,
        )
    }

    /// Half the angle (`θ/2`) expressed over half-parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the constant part is an odd multiple of π/4, in
    /// which case θ/2 leaves the exactly representable set.
    pub fn half_angle(&self) -> Result<(Vec<i64>, i64), UnsupportedAngleError> {
        if self.const_pi4 % 2 != 0 {
            return Err(UnsupportedAngleError {
                message: format!(
                    "cannot halve constant angle {}·π/4 exactly within Q(ζ₈)",
                    self.const_pi4
                ),
            });
        }
        Ok((
            self.coeffs.iter().map(|&c| c as i64).collect(),
            (self.const_pi4 / 2) as i64,
        ))
    }
}

impl fmt::Display for ParamExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for (i, &c) in self.coeffs.iter().enumerate() {
            match c {
                0 => {}
                1 => parts.push(format!("p{i}")),
                -1 => parts.push(format!("-p{i}")),
                _ => parts.push(format!("{c}*p{i}")),
            }
        }
        if self.const_pi4 != 0 || parts.is_empty() {
            let r = self.const_pi4;
            let s = match r {
                0 => "0".to_string(),
                4 => "pi".to_string(),
                -4 => "-pi".to_string(),
                2 => "pi/2".to_string(),
                -2 => "-pi/2".to_string(),
                1 => "pi/4".to_string(),
                -1 => "-pi/4".to_string(),
                _ => format!("{r}*pi/4"),
            };
            parts.push(s);
        }
        write!(f, "{}", parts.join(" + "))
    }
}

/// The parameter-expression specification Σ (paper §2 and §7.1): the finite
/// set of allowed expressions for parametric gate arguments, plus the
/// restriction that each formal parameter is used at most once per circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprSpec {
    /// Number of formal parameters `m`.
    pub num_params: usize,
    /// Allowed expressions for parametric gate arguments.
    pub expressions: Vec<ParamExpr>,
    /// If `true`, each formal parameter may be used by at most one gate
    /// argument in a circuit (the restriction used in the paper's
    /// experiments).
    pub single_use: bool,
}

impl ExprSpec {
    /// The specification used in the paper's experiments: expressions
    /// `pᵢ`, `2pᵢ` and `pᵢ+pⱼ` (i < j), each parameter used at most once.
    pub fn standard(num_params: usize) -> Self {
        let mut expressions = Vec::new();
        for i in 0..num_params {
            expressions.push(ParamExpr::var(i, num_params));
            expressions.push(ParamExpr::scaled_var(i, 2, num_params));
        }
        for i in 0..num_params {
            for j in (i + 1)..num_params {
                expressions.push(ParamExpr::sum_vars(i, j, num_params));
            }
        }
        ExprSpec {
            num_params,
            expressions,
            single_use: true,
        }
    }

    /// A specification allowing only the plain parameters `pᵢ`.
    pub fn vars_only(num_params: usize) -> Self {
        let expressions = (0..num_params)
            .map(|i| ParamExpr::var(i, num_params))
            .collect();
        ExprSpec {
            num_params,
            expressions,
            single_use: true,
        }
    }

    /// Number of allowed expressions.
    pub fn len(&self) -> usize {
        self.expressions.len()
    }

    /// Returns `true` if no expressions are allowed.
    pub fn is_empty(&self) -> bool {
        self.expressions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let e = ParamExpr::var(1, 3);
        assert_eq!(e.coeffs(), &[0, 1, 0]);
        assert_eq!(e.const_pi4(), 0);
        assert!(!e.is_constant());
        assert_eq!(e.used_params(), vec![1]);

        let c = ParamExpr::constant_pi4(3);
        assert!(c.is_constant());
        assert!(!c.is_zero());
        assert!(ParamExpr::zero(2).is_zero());
    }

    #[test]
    fn add_and_negate() {
        let e = ParamExpr::var(0, 2).add(&ParamExpr::scaled_var(1, 2, 2));
        assert_eq!(e.coeffs(), &[1, 2]);
        let n = e.negate();
        assert_eq!(n.coeffs(), &[-1, -2]);
        assert!(e.add(&n).is_zero());
    }

    #[test]
    fn eval_matches_coefficients() {
        let e = ParamExpr::sum_vars(0, 1, 2).add(&ParamExpr::constant_pi4(2));
        let v = e.eval(&[0.3, 0.5]);
        assert!((v - (0.8 + std::f64::consts::FRAC_PI_2)).abs() < 1e-15);
    }

    #[test]
    fn half_and_full_angles() {
        let e = ParamExpr::scaled_var(0, 2, 1).add(&ParamExpr::constant_pi4(2));
        assert_eq!(e.full_angle(), (vec![4], 2));
        assert_eq!(e.half_angle().unwrap(), (vec![2], 1));
        let odd = ParamExpr::constant_pi4(1);
        assert!(odd.half_angle().is_err());
    }

    #[test]
    fn scale_div_and_expr_eq() {
        let e = ParamExpr::var(0, 2).add(&ParamExpr::constant_pi4(2));
        assert_eq!(e.scale(2).coeffs(), &[2, 0]);
        assert_eq!(e.scale(2).const_pi4(), 4);
        assert_eq!(e.scale(2).div_exact(2).unwrap(), e);
        assert!(e.div_exact(2).is_none());
        assert!(e.div_exact(0).is_none());
        assert!(ParamExpr::constant_pi4(3).expr_eq(&ParamExpr::constant_pi4_with_params(3, 4)));
        assert!(!ParamExpr::var(0, 2).expr_eq(&ParamExpr::var(1, 2)));
        assert!(e.sub(&e).is_zero());
    }

    #[test]
    fn remap_params() {
        let e = ParamExpr::var(2, 3);
        let r = e.remap_params(&[0, 1, 0], 1);
        assert_eq!(r.coeffs(), &[1]);
    }

    #[test]
    fn standard_spec_matches_paper() {
        // m = 2: p0, 2p0, p1, 2p1, p0+p1 → 5 expressions
        let spec = ExprSpec::standard(2);
        assert_eq!(spec.len(), 5);
        assert!(spec.single_use);
        // m = 4: 8 single-var forms + C(4,2) = 6 sums = 14
        assert_eq!(ExprSpec::standard(4).len(), 14);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ParamExpr::var(0, 1).to_string(), "p0");
        assert_eq!(ParamExpr::scaled_var(0, 2, 1).to_string(), "2*p0");
        assert_eq!(ParamExpr::constant_pi4(4).to_string(), "pi");
        assert_eq!(ParamExpr::constant_pi4(-1).to_string(), "-pi/4");
        assert_eq!(ParamExpr::zero(1).to_string(), "0");
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let a = ParamExpr::var(0, 2);
        let b = ParamExpr::var(1, 2);
        assert!(a != b);
        assert!((a < b) ^ (b < a), "ordering must be total");
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
