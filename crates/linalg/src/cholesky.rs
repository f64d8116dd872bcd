//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Verdict factors the past-snippet covariance `Σ_n` once offline (paper
//! Algorithm 1) and keeps the factor, packed by rows (row `i`,
//! `L[i][0..=i]`, at `i(i+1)/2`), not `Σ_n⁻¹`: a query-time variance is a
//! forward substitution ([`crate::ops::forward_sq_norms`]) over its
//! `n²/2` entries, and [`Cholesky::append_row`] extends it in place.
//!
//! Blocking never reorders a sum: every entry of [`Cholesky::new`] is the
//! textbook triple loop's — `L[i][j] = (A[i][j] − s) / L[j][j]`, `s`
//! accumulating `L[i][k]·L[j][k]` from `0.0` in ascending `k` — and the
//! substitutions subtract in [`crate::solve_lower`]'s and
//! `solve_upper`'s orders. Only the order in which independent
//! entries are computed changes, so results are the serial loops' bits.
//!
//! The factorization runs in panels of four rows. On a host with AVX2
//! (`is_x86_feature_detected!`, no option selects it) a panel's chains
//! against earlier columns run in `crate::avx2`, four rows × four
//! columns per step, each lane a separate multiply and add in ascending
//! `k`; elsewhere the scalar panel pairs columns. Either way the block's
//! own triangle, the shifted diagonal and the pivot checks run scalar, in
//! row order, so the first pivot to fail is the textbook's.

use crate::ops::{forward_tile, TILE_COLS};
use crate::{LinalgError, Matrix, Result};

/// Rows of `A` one factorization panel finishes against every earlier
/// column.
pub(crate) const PANEL_ROWS: usize = 4;

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`, packed by rows.
/// Every constructor checks that the diagonal is positive and finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    n: usize,
    packed: Vec<f64>,
}

/// Offset of row `i` in the packed layout.
#[inline]
pub(crate) fn start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix (its lower triangle is
    /// read).
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] at the first pivot
    /// that is not strictly positive and finite. Callers that assemble
    /// covariance matrices from noisy estimates should add a small diagonal
    /// jitter first (see [`Cholesky::new_with_jitter`]).
    pub fn new(a: &Matrix) -> Result<Self> {
        Cholesky::shifted(a, 0.0)
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
        let mut last_err = match Cholesky::new(a) {
            Ok(c) => return Ok(c),
            Err(e) => e,
        };
        let mut jitter = initial_jitter * a.max_abs().max(1.0);
        for _ in 0..max_attempts {
            match Cholesky::shifted(a, jitter) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// Factors `a + shift·I` without materializing it. (A zero shift
    /// changes no pivot: `+ 0.0` only turns a `-0.0` diagonal into `0.0`,
    /// and both fail.)
    fn shifted(a: &Matrix, shift: f64) -> Result<Self> {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = crate::avx2::Avx2::detect() {
            return Cholesky::factor(a, shift, |packed, i0, rows, shift| {
                avx2.factor_panel(packed, i0, rows, shift)
            });
        }
        Cholesky::factor(a, shift, factor_rows::<PANEL_ROWS>)
    }

    /// [`Cholesky::shifted`] with each whole panel — `(packed, i0, rows
    /// i0.. of A, shift)`, every earlier row final — through `panel`, and
    /// the ragged rows one at a time through [`factor_rows`].
    pub(crate) fn factor(
        a: &Matrix,
        shift: f64,
        panel: impl Fn(&mut [f64], usize, [&[f64]; PANEL_ROWS], f64) -> Result<()>,
    ) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut packed = vec![0.0; start(n)];
        let mut i0 = 0;
        while i0 + PANEL_ROWS <= n {
            panel(
                &mut packed,
                i0,
                std::array::from_fn(|r| a.row(i0 + r)),
                shift,
            )?;
            i0 += PANEL_ROWS;
        }
        for i in i0..n {
            factor_rows::<1>(&mut packed, i, [a.row(i)], shift)?;
        }
        Ok(Cholesky { n, packed })
    }

    /// Adopts a factor packed by rows, e.g. one read back from disk. An
    /// entry of row `i` that is not finite, or a diagonal `L[i][i]` that is
    /// not positive, is [`LinalgError::NotPositiveDefinite`] at pivot `i`;
    /// a length that is no triangle number is a dimension mismatch.
    pub fn from_packed(packed: Vec<f64>) -> Result<Self> {
        let n = ((8 * packed.len() + 1) as f64).sqrt() as usize / 2;
        if start(n) != packed.len() {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::from_packed",
            });
        }
        let l = Cholesky { n, packed };
        if let Some(pivot) =
            (0..n).find(|&i| !(l.row(i).iter().all(|v| v.is_finite()) && l.row(i)[i] > 0.0))
        {
            return Err(LinalgError::NotPositiveDefinite { pivot });
        }
        Ok(l)
    }

    /// Extends the factor of `A` to the factor of `[[A, a], [aᵀ, d]]`,
    /// given `row = [a, d]` (`n + 1` entries), in O(n²): the new row is
    /// `L⁻¹a` and `√(d − ‖L⁻¹a‖²)` by the recurrence [`Cholesky::new`]
    /// runs, so the result has the bits of factoring the bordered matrix
    /// afresh. A pivot that is not positive and finite is
    /// [`LinalgError::NotPositiveDefinite`] at `n`, and leaves the factor
    /// unchanged. Panics when `row` does not have `n + 1` entries.
    pub fn append_row(&mut self, row: &[f64]) -> Result<()> {
        let n = self.n;
        assert_eq!(
            row.len(),
            n + 1,
            "append_row: a bordering row has n + 1 entries"
        );
        self.packed.resize(start(n + 1), 0.0);
        if let Err(e) = factor_rows::<1>(&mut self.packed, n, [row], 0.0) {
            self.packed.truncate(start(n));
            return Err(e);
        }
        self.n += 1;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The factor packed by rows: `L[i][j]` (`j ≤ i`) at `i(i+1)/2 + j`.
    pub fn packed(&self) -> &[f64] {
        &self.packed
    }

    /// Row `i` of the factor up to its diagonal, `L[i][0..=i]`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.packed[start(i)..start(i + 1)]
    }

    /// The factor as a full square matrix, zeros above the diagonal.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| {
            self.row(i).get(j).copied().unwrap_or(0.0)
        })
    }

    /// Solves `L y = b` by forward substitution.
    pub fn forward(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.substitute(b, false)
    }

    /// Solves `A x = b` using the factorization (two triangular solves).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.substitute(b, true)
    }

    fn substitute(&self, b: &[f64], back: bool) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                context: "Cholesky::solve",
            });
        }
        let mut x: Vec<[f64; 1]> = b.iter().map(|&v| [v]).collect();
        forward_tile(self, &mut x);
        if back {
            self.back_tile(&mut x);
        }
        Ok(x.into_iter().map(|[v]| v).collect())
    }

    /// `Lᵀ x = y` in place for `W` right-hand sides interleaved `[i][W]`,
    /// walking column `i` of `L` down: `solve_upper`'s chain per lane.
    fn back_tile<const W: usize>(&self, x: &mut [[f64; W]]) {
        for i in (0..self.n).rev() {
            let mut s = x[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                let lki = self.packed[start(k) + i];
                for (s, x) in s.iter_mut().zip(xk) {
                    *s -= lki * x;
                }
            }
            x[i] = s.map(|v| v / self.packed[start(i) + i]);
        }
    }

    /// Computes `A⁻¹` explicitly — a diagnostic: no inference path needs
    /// it. Column `j` is [`Cholesky::solve`] of the unit vector `e_j`, bit
    /// for bit, solved a tile of 8 columns at a time.
    pub fn inverse(&self) -> Matrix {
        let n = self.n;
        let mut inv = Matrix::zeros(n, n);
        let mut x = vec![[0.0; TILE_COLS]; n];
        for j0 in (0..n).step_by(TILE_COLS) {
            let width = TILE_COLS.min(n - j0);
            x.fill([0.0; TILE_COLS]);
            for c in 0..width {
                x[j0 + c][c] = 1.0;
            }
            forward_tile(self, &mut x);
            self.back_tile(&mut x);
            for (i, xi) in x.iter().enumerate() {
                inv.row_mut(i)[j0..j0 + width].copy_from_slice(&xi[..width]);
            }
        }
        inv
    }

    /// Log-determinant of `A` (twice the log-sum of the factor diagonal).
    ///
    /// Used by the marginal log-likelihood of Appendix A (Eq. 13).
    pub fn log_det(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.n {
            acc += self.row(i)[i].ln();
        }
        2.0 * acc
    }
}

/// Rows `i0..i0 + R` of the factor, every earlier row being final: `a[r]`
/// is row `i0 + r` of `A`, its diagonal entry read plus `shift`. Columns
/// before the block go two at a time — `2R` chains, each `s` from `0.0` in
/// ascending `k`, column `j + 1` adding its `k = j` term once `L[i][j]` is
/// final; an odd column out and the block's own triangle follow in
/// [`finish_rows`].
pub(crate) fn factor_rows<const R: usize>(
    packed: &mut [f64],
    i0: usize,
    a: [&[f64]; R],
    shift: f64,
) -> Result<()> {
    let paired = i0 & !1;
    let (done, block) = packed.split_at_mut(start(i0));
    let rows: [usize; R] = std::array::from_fn(|r| start(i0 + r) - start(i0));
    for j in (0..paired).step_by(2) {
        let (lj, lk) = (
            &done[start(j)..start(j + 1)],
            &done[start(j + 1)..start(j + 2)],
        );
        let mut s = [[0.0; 2]; R];
        let heads = rows.map(|at| &block[at..at + j]);
        for (k, (ljk, lkk)) in lj[..j].iter().zip(&lk[..j]).enumerate() {
            for (s, head) in s.iter_mut().zip(&heads) {
                s[0] += head[k] * ljk;
                s[1] += head[k] * lkk;
            }
        }
        for ((s, at), a) in s.iter_mut().zip(rows).zip(&a) {
            block[at + j] = (a[j] - s[0]) / lj[j];
            s[1] += block[at + j] * lk[j];
            block[at + j + 1] = (a[j + 1] - s[1]) / lk[j + 1];
        }
    }
    finish_rows(packed, i0, paired, a, shift)
}

/// Entries `from..=i` of each row `i` of the block `i0..i0 + R`, entry by
/// entry in row order, each chain from `0.0` in ascending `k`; the
/// diagonal reads `A[i][i] + shift`, and the first pivot that is not
/// positive and finite is the error, as in the textbook loop.
pub(crate) fn finish_rows<const R: usize>(
    packed: &mut [f64],
    i0: usize,
    from: usize,
    a: [&[f64]; R],
    shift: f64,
) -> Result<()> {
    for (i, a) in (i0..).zip(a) {
        for j in from..=i {
            let s = (0..j).fold(0.0, |s, k| s + packed[start(i) + k] * packed[start(j) + k]);
            if j < i {
                packed[start(i) + j] = (a[j] - s) / packed[start(j) + j];
                continue;
            }
            let d = a[i] + shift - s;
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
            packed[start(i) + i] = d.sqrt();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::TestOps;

    fn spd3() -> Matrix {
        // A = B^T B + I for B random-ish fixed values; known SPD.
        Matrix::from_vec(3, 3, vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0]).unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let l = Cholesky::new(&a).unwrap().to_matrix();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(a.frobenius_distance(&rec) < 1e-10);
    }

    #[test]
    fn factor_is_lower_triangular() {
        let l = Cholesky::new(&spd3()).unwrap().to_matrix();
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
        let inv = Cholesky::new(&a).unwrap().inverse();
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
        assert_eq!(
            Cholesky::new(&a).unwrap().solve(&[5.0, -1.0]).unwrap(),
            vec![5.0, -1.0]
        );
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_vec(1, 1, vec![4.0]).unwrap();
        let c = Cholesky::new(&a).unwrap();
        assert_eq!(c.packed(), &[2.0]);
        assert_eq!(c.solve(&[8.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn packed_factors_are_checked_on_the_way_in() {
        let c = Cholesky::new(&spd3()).unwrap();
        assert_eq!(Cholesky::from_packed(c.packed().to_vec()).unwrap(), c);
        assert_eq!(Cholesky::from_packed(Vec::new()).unwrap().dim(), 0);
        assert!(matches!(
            Cholesky::from_packed(vec![1.0; 4]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        for (at, v, pivot) in [
            (0, 0.0, 0),
            (2, -1.0, 1),
            (3, f64::NAN, 2),
            (5, f64::INFINITY, 2),
        ] {
            let mut packed = c.packed().to_vec();
            packed[at] = v;
            assert_eq!(
                Cholesky::from_packed(packed),
                Err(LinalgError::NotPositiveDefinite { pivot }),
                "entry {at} = {v}"
            );
        }
    }

    #[test]
    fn appended_row_is_the_bordered_factor() {
        let a = spd3();
        let mut c = Cholesky::new(&a.leading_principal(2).unwrap()).unwrap();
        c.append_row(&a.row(2)[..3]).unwrap();
        assert_eq!(c, Cholesky::new(&a).unwrap());
        // An indefinite border is refused and changes nothing.
        assert_eq!(
            c.append_row(&[4.0, 2.0, 0.6, 0.1]),
            Err(LinalgError::NotPositiveDefinite { pivot: 3 })
        );
        assert_eq!(c, Cholesky::new(&a).unwrap());
    }
}
