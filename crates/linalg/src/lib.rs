//! Small dense linear-algebra kernel used by the Verdict inference engine.
//!
//! Verdict's inference (paper §3.4, §5) needs exactly the operations
//! implemented here: symmetric positive-definite (SPD) factorizations kept
//! packed, triangular solves, log-determinants, and a handful of
//! matrix/vector products. The covariance matrices involved are small
//! (`n ≤ C_g = 2000` past snippets), so a straightforward cache-friendly
//! row-major dense implementation is both sufficient and dependency-free.
//!
//! The crate intentionally exposes a minimal, allocation-conscious API:
//! a factorization overwrites the packed triangle it is given, and solves
//! reuse caller buffers.

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod cholesky;
pub mod matrix;
pub mod ops;
pub mod solve;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use ops::dot;
pub use solve::solve_lower;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// A matrix expected to be square was not.
    NotSquare {
        /// Number of rows observed.
        rows: usize,
        /// Number of columns observed.
        cols: usize,
    },
    /// Dimensions of two operands disagree.
    DimensionMismatch {
        /// Human-readable description of the failed operation.
        context: &'static str,
    },
    /// The matrix is not positive definite (Cholesky hit a non-positive pivot).
    NotPositiveDefinite {
        /// The pivot index at which factorization failed.
        pivot: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch in {context}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
