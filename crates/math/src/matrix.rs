//! Dense matrices over an arbitrary [`Ring`], plus the tensor-product and
//! qubit-permutation helpers needed to compose quantum-circuit semantics.

use crate::ring::Ring;
use crate::Complex64;
use std::fmt;

/// A dense, row-major matrix over a ring `R`.
///
/// # Examples
///
/// ```
/// use quartz_math::{Matrix, Complex64};
///
/// let x = Matrix::from_rows(vec![
///     vec![Complex64::zero(), Complex64::one()],
///     vec![Complex64::one(), Complex64::zero()],
/// ]);
/// let id = &x * &x;
/// assert_eq!(id, Matrix::identity(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<R> {
    rows: usize,
    cols: usize,
    data: Vec<R>,
}

impl<R: Ring> Matrix<R> {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![R::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = R::one();
        }
        m
    }

    /// Creates a matrix from rows of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or there are no rows.
    pub fn from_rows(rows: Vec<Vec<R>>) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        let n_rows = rows.len();
        let data = rows.into_iter().flatten().collect();
        Matrix {
            rows: n_rows,
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrowed element access.
    pub fn get(&self, r: usize, c: usize) -> &R {
        &self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut R {
        &mut self.data[r * self.cols + c]
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix<R>) -> Matrix<R> {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix dimension mismatch in multiplication"
        );
        let mut out: Matrix<R> = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let b = rhs.get(k, j);
                    if b.is_zero() {
                        continue;
                    }
                    out.get_mut(i, j).add_assign(&a.mul(b));
                }
            }
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix<R>) -> Matrix<R> {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self.get(i, j);
                if a.is_zero() {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        let b = rhs.get(k, l);
                        if b.is_zero() {
                            continue;
                        }
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a.mul(b);
                    }
                }
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn add(&self, rhs: &Matrix<R>) -> Matrix<R> {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix shape mismatch in addition"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a.add(b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn sub(&self, rhs: &Matrix<R>) -> Matrix<R> {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix shape mismatch in subtraction"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a.sub(b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, s: &R) -> Matrix<R> {
        let data = self.data.iter().map(|a| a.mul(s)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix<R> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self.get(i, j).clone();
            }
        }
        out
    }

    /// Applies a function to every entry, producing a matrix over another ring.
    pub fn map<S: Ring>(&self, f: impl Fn(&R) -> S) -> Matrix<S> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(Ring::is_zero)
    }

    /// Iterates over `(row, col, entry)` for all entries.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, &R)> {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(idx, v)| (idx / cols, idx % cols, v))
    }
}

impl<R> std::ops::Index<(usize, usize)> for Matrix<R> {
    type Output = R;
    fn index(&self, (r, c): (usize, usize)) -> &R {
        &self.data[r * self.cols + c]
    }
}

impl<R> std::ops::IndexMut<(usize, usize)> for Matrix<R> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut R {
        &mut self.data[r * self.cols + c]
    }
}

impl<R: Ring> std::ops::Mul for &Matrix<R> {
    type Output = Matrix<R>;
    fn mul(self, rhs: &Matrix<R>) -> Matrix<R> {
        self.matmul(rhs)
    }
}

impl Matrix<Complex64> {
    /// Conjugate transpose (dagger).
    pub fn dagger(&self) -> Matrix<Complex64> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self.get(i, j).conj();
            }
        }
        out
    }

    /// Returns `true` if the matrix is unitary within tolerance `eps`.
    pub fn is_unitary(&self, eps: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let prod = self.matmul(&self.dagger());
        let id = Matrix::<Complex64>::identity(self.rows);
        prod.approx_eq(&id, eps)
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &Matrix<Complex64>, eps: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// Maximum entry-wise absolute difference with another matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn max_abs_diff(&self, other: &Matrix<Complex64>) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "matrix shape mismatch"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max)
    }
}

impl<R: Ring + fmt::Display> fmt::Display for Matrix<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(i, j))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rational;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = Matrix::from_rows(vec![
            vec![c(1.0, 2.0), c(0.5, 0.0)],
            vec![c(0.0, -1.0), c(3.0, 0.0)],
        ]);
        let id = Matrix::<Complex64>::identity(2);
        assert_eq!(&m * &id, m);
        assert_eq!(&id * &m, m);
    }

    #[test]
    fn pauli_x_squares_to_identity() {
        let x = Matrix::from_rows(vec![
            vec![Complex64::zero(), Complex64::one()],
            vec![Complex64::one(), Complex64::zero()],
        ]);
        assert_eq!(&x * &x, Matrix::identity(2));
        assert!(x.is_unitary(1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let a = Matrix::from_rows(vec![
            vec![Rational::from(1), Rational::from(2)],
            vec![Rational::from(3), Rational::from(4)],
        ]);
        let b = Matrix::from_rows(vec![vec![Rational::from(0), Rational::from(5)]]);
        let k = a.kron(&b);
        assert_eq!((k.rows(), k.cols()), (2, 4));
        assert_eq!(k[(0, 1)], Rational::from(5));
        assert_eq!(k[(0, 3)], Rational::from(10));
        assert_eq!(k[(1, 1)], Rational::from(15));
        assert_eq!(k[(1, 3)], Rational::from(20));
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let i2 = Matrix::<Rational>::identity(2);
        let i4 = i2.kron(&i2);
        assert_eq!(i4, Matrix::identity(4));
    }

    #[test]
    fn dagger_and_unitarity() {
        let h = Matrix::from_rows(vec![
            vec![
                c(std::f64::consts::FRAC_1_SQRT_2, 0.0),
                c(std::f64::consts::FRAC_1_SQRT_2, 0.0),
            ],
            vec![
                c(std::f64::consts::FRAC_1_SQRT_2, 0.0),
                c(-std::f64::consts::FRAC_1_SQRT_2, 0.0),
            ],
        ]);
        assert!(h.is_unitary(1e-12));
        assert!(h.dagger().approx_eq(&h, 1e-12));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(vec![vec![Rational::from(1), Rational::from(2)]]);
        let b = Matrix::from_rows(vec![vec![Rational::from(10), Rational::from(20)]]);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.scale(&Rational::from(10)), b);
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    fn transpose() {
        let a = Matrix::from_rows(vec![
            vec![Rational::from(1), Rational::from(2), Rational::from(3)],
            vec![Rational::from(4), Rational::from(5), Rational::from(6)],
        ]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t[(2, 1)], Rational::from(6));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bad_matmul_panics() {
        let a = Matrix::<Rational>::identity(2);
        let b = Matrix::<Rational>::identity(3);
        let _ = a.matmul(&b);
    }
}
