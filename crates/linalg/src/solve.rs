//! Triangular solves.

use crate::{LinalgError, Matrix, Result};

/// Solves `L x = b` by forward substitution for lower-triangular `L`.
///
/// Entries above the diagonal are ignored, so a full square matrix whose
/// lower triangle holds the factor is accepted.
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = l.rows();
    if !l.is_square() {
        return Err(LinalgError::NotSquare {
            rows: l.rows(),
            cols: l.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "solve_lower",
        });
    }
    let mut x = vec![0.0; n];
    for i in 0..n {
        let row = l.row(i);
        let mut s = b[i];
        for (k, xv) in x.iter().enumerate().take(i) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{solve_upper, TestOps};

    #[test]
    fn solve_lower_known_system() {
        // L = [[2,0],[1,3]], b = [4, 7] -> x = [2, 5/3]
        let l = Matrix::from_vec(2, 2, vec![2.0, 0.0, 1.0, 3.0]).unwrap();
        let x = solve_lower(&l, &[4.0, 7.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_upper_known_system() {
        // U = [[2,1],[0,3]], b = [5, 6] -> x2 = 2, x1 = (5-2)/2 = 1.5
        let u = Matrix::from_vec(2, 2, vec![2.0, 1.0, 0.0, 3.0]).unwrap();
        let x = solve_upper(&u, &[5.0, 6.0]).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pivot_is_error() {
        let l = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        assert!(solve_lower(&l, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let l = Matrix::identity(2);
        assert!(solve_lower(&l, &[1.0]).is_err());
        assert!(solve_upper(&l, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn solve_roundtrip_against_matvec() {
        let l = Matrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0]).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b = l.matvec(&x_true).unwrap();
        let x = solve_lower(&l, &b).unwrap();
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-12);
        }
    }
}
