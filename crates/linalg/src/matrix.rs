//! Row-major dense matrix.

use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// The storage layout is `data[row * cols + col]`. All Verdict covariance
/// matrices are small and dense, so no sparse representation is needed.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable access to entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable access to entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix-matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, r) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matvec",
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            out.push(crate::ops::dot(self.row(i), v));
        }
        Ok(out)
    }

    /// Returns the `k x k` leading principal submatrix (first `k` rows/cols).
    ///
    /// Verdict uses this to extract `Σ_n` from `Σ` (paper §5).
    pub fn leading_principal(&self, k: usize) -> Result<Matrix> {
        if k > self.rows || k > self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::leading_principal",
            });
        }
        Ok(Matrix::from_fn(k, k, |i, j| self.get(i, j)))
    }

    /// Adds `value` to every diagonal entry (ridge/jitter regularization).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += value;
        }
    }

    /// Maximum absolute entry; 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()))
    }

    /// Checks symmetry up to absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Frobenius norm of `self - other`, for test assertions.
    pub fn frobenius_distance(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_entries() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), m.get(1, 2));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let c = a.matmul(&Matrix::identity(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, -1.0]).unwrap();
        let y = a.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn leading_principal_extracts_top_left() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.leading_principal(2).unwrap();
        assert_eq!(s.as_slice(), &[0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diagonal(2.5);
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.get(1, 1), 2.5);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn is_symmetric_detects_asymmetry() {
        let mut m = Matrix::identity(3);
        assert!(m.is_symmetric(1e-12));
        m.set(0, 2, 0.5);
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn from_fn_matches_closure() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(m.get(2, 1), 12.0);
    }
}
