//! Test-only products and solves, shared by the crate's unit tests (the
//! library mounts this file under `#[cfg(test)]`) and the `properties`
//! suite. Inference never runs them, so the library does not ship them.
//! Both hosts have `Matrix`, `LinalgError` and `dot` in scope.

use super::{dot, LinalgError, Matrix};

/// The dense products and distance the tests check factors with.
pub trait TestOps {
    /// Matrix-matrix product `self * rhs`.
    fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError>;
    /// Matrix-vector product `self * v`.
    fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError>;
    /// Frobenius norm of `self - other`.
    fn frobenius_distance(&self, other: &Matrix) -> f64;
}

impl TestOps for Matrix {
    fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols() != rhs.rows() {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows() {
            for k in 0..self.cols() {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for (o, r) in out.row_mut(i).iter_mut().zip(rhs.row(k)) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols() != v.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matvec",
            });
        }
        Ok((0..self.rows()).map(|i| dot(self.row(i), v)).collect())
    }

    fn frobenius_distance(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows(), self.cols()), (other.rows(), other.cols()));
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Solves `U x = b` by back substitution for upper-triangular `U`.
///
/// Entries below the diagonal are ignored.
pub fn solve_upper(u: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = u.rows();
    if u.cols() != n {
        return Err(LinalgError::NotSquare {
            rows: u.rows(),
            cols: u.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "solve_upper",
        });
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let row = u.row(i);
        let mut s = b[i];
        for (k, xv) in x.iter().enumerate().skip(i + 1) {
            s -= row[k] * xv;
        }
        let d = row[i];
        if d == 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        x[i] = s / d;
    }
    Ok(x)
}
