//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Verdict factors the `n x n` past-snippet covariance matrix `Σ_n` once
//! offline (paper Algorithm 1) and reuses the factor for every query-time
//! solve, giving the O(n²) online complexity of Lemma 2.

use crate::ops::TILE_COLS;
use crate::{solve_lower, LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (entries above the diagonal are zero).
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is not
    /// strictly positive. Callers that assemble covariance matrices from
    /// noisy estimates should add a small diagonal jitter first (see
    /// [`Cholesky::new_with_jitter`]).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                // sum_{k<j} L[i][k] * L[j][k]
                let mut s = 0.0;
                for k in 0..j {
                    s += l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    let d = a.get(i, i) - s;
                    if d <= 0.0 || !d.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l.set(i, j, d.sqrt());
                } else {
                    l.set(i, j, (a.get(i, j) - s) / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factors `a`, retrying with geometrically increasing diagonal jitter
    /// when the matrix is numerically indefinite.
    ///
    /// The jitter starts at `initial_jitter * max|a|` and is multiplied by 10
    /// for up to `max_attempts` attempts. This mirrors the standard GP
    /// practice; the paper's Eq. (6) usually regularizes `Σ_n` already via
    /// the `β²` diagonal terms, but degenerate snippet sets (e.g. duplicated
    /// queries with zero raw error) still need it.
    pub fn new_with_jitter(a: &Matrix, initial_jitter: f64, max_attempts: u32) -> Result<Self> {
        match Cholesky::new(a) {
            Ok(c) => Ok(c),
            Err(_) => {
                let scale = a.max_abs().max(1.0);
                let mut jitter = initial_jitter * scale;
                let mut last_err = LinalgError::NotPositiveDefinite { pivot: 0 };
                for _ in 0..max_attempts {
                    let mut aj = a.clone();
                    aj.add_diagonal(jitter);
                    match Cholesky::new(&aj) {
                        Ok(c) => return Ok(c),
                        Err(e) => last_err = e,
                    }
                    jitter *= 10.0;
                }
                Err(last_err)
            }
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow of the lower-triangular factor.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the factorization (two triangular solves).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.l.rows() {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::solve",
            });
        }
        let y = solve_lower(&self.l, b)?;
        solve_upper_transposed(&self.l, &y)
    }

    /// Computes `A⁻¹` explicitly.
    ///
    /// Verdict precomputes `Σ_n⁻¹` offline (Algorithm 1) so that online
    /// inference is a matrix-vector product.
    ///
    /// Column `j` is [`Cholesky::solve`] of the unit vector `e_j`, bit for
    /// bit: the columns are solved a tile of 8 at a time, interleaved
    /// `[i][8]`, so the lanes of a tile are independent subtraction
    /// chains that each run in `solve`'s operation order.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.l.rows();
        if let Some(pivot) = (0..n).find(|&i| self.l.get(i, i) == 0.0) {
            return Err(LinalgError::NotPositiveDefinite { pivot });
        }
        // Back substitution walks columns of `L`; transposed once, they
        // are contiguous rows.
        let lt = self.l.transpose();
        let mut inv = Matrix::zeros(n, n);
        let mut x = vec![[0.0; TILE_COLS]; n];
        for j0 in (0..n).step_by(TILE_COLS) {
            let width = TILE_COLS.min(n - j0);
            x.fill([0.0; TILE_COLS]);
            for c in 0..width {
                x[j0 + c][c] = 1.0;
            }
            // L y = e, then Lᵀ x = y in place: step `i` reads only rows
            // already final.
            for i in 0..n {
                x[i] = eliminate(x[i], &self.l.row(i)[..i], &x[..i], self.l.get(i, i));
            }
            for i in (0..n).rev() {
                x[i] = eliminate(x[i], &lt.row(i)[i + 1..], &x[i + 1..], lt.get(i, i));
            }
            for (i, xi) in x.iter().enumerate() {
                inv.row_mut(i)[j0..j0 + width].copy_from_slice(&xi[..width]);
            }
        }
        Ok(inv)
    }

    /// Log-determinant of `A` (twice the log-sum of the factor diagonal).
    ///
    /// Used by the marginal log-likelihood of Appendix A (Eq. 13).
    pub fn log_det(&self) -> f64 {
        let n = self.l.rows();
        let mut acc = 0.0;
        for i in 0..n {
            acc += self.l.get(i, i).ln();
        }
        2.0 * acc
    }
}

/// Solves `Lᵀ x = y` given lower-triangular `L` without materializing `Lᵀ`.
fn solve_upper_transposed(l: &Matrix, y: &[f64]) -> Result<Vec<f64>> {
    let n = l.rows();
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "solve_upper_transposed",
        });
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for (k, xk) in x.iter().enumerate().skip(i + 1) {
            s -= l.get(k, i) * xk;
        }
        x[i] = s / l.get(i, i);
    }
    Ok(x)
}

/// One substitution step on a tile: `(s − Σ_k coeffs[k]·solved[k]) / pivot`
/// per lane, subtracting in ascending `k`.
#[inline]
fn eliminate(
    mut s: [f64; TILE_COLS],
    coeffs: &[f64],
    solved: &[[f64; TILE_COLS]],
    pivot: f64,
) -> [f64; TILE_COLS] {
    for (c, xk) in coeffs.iter().zip(solved) {
        for (s, x) in s.iter_mut().zip(xk) {
            *s -= c * x;
        }
    }
    s.map(|s| s / pivot)
}

/// Convenience: solve `A x = b` for SPD `A` in one call.
pub fn spd_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Cholesky::new(a)?.solve(b)
}

/// Convenience: invert an SPD matrix in one call, with jitter fallback.
pub fn spd_inverse(a: &Matrix) -> Result<Matrix> {
    Cholesky::new_with_jitter(a, 1e-10, 8)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B^T B + I for B random-ish fixed values; known SPD.
        Matrix::from_vec(3, 3, vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0]).unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(a.frobenius_distance(&rec) < 1e-10);
    }

    #[test]
    fn factor_is_lower_triangular() {
        let c = Cholesky::new(&spd3()).unwrap();
        let l = c.factor();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_recovers_semidefinite() {
        // Rank-deficient PSD matrix: ones(2,2).
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(Cholesky::new(&a).is_err());
        let c = Cholesky::new_with_jitter(&a, 1e-10, 10).unwrap();
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn solve_matches_direct_check() {
        let a = spd3();
        let b = [1.0, 2.0, 3.0];
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let bx = a.matvec(&x).unwrap();
        for (got, want) in bx.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.frobenius_distance(&Matrix::identity(3)) < 1e-9);
    }

    #[test]
    fn log_det_matches_known_value() {
        // det of diag(2, 3) = 6.
        let a = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 3.0]).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - 6.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn spd_solve_one_call() {
        let a = Matrix::identity(2);
        assert_eq!(spd_solve(&a, &[5.0, -1.0]).unwrap(), vec![5.0, -1.0]);
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_vec(1, 1, vec![4.0]).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert_eq!(c.factor().get(0, 0), 2.0);
        assert_eq!(c.solve(&[8.0]).unwrap(), vec![2.0]);
    }
}
