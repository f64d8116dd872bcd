//! The AVX2 kernels of the model's dense passes: the forward substitution
//! (a lone column and the [`TILE_COLS`]-lane tile) and the factorization
//! panel, four factor rows per block.
//!
//! They keep the scalar loops' bits. Every lane is one of the scalar
//! loop's chains: it starts where the scalar chain starts, multiplies and
//! then subtracts (or adds) each term as its own rounded operation — no
//! fused multiply-add — in the scalar loop's ascending `k`. Only which
//! chains run side by side changes. The blocks' own triangles, the
//! divisions, the shifted diagonal and the pivot checks are the scalar
//! code's, called from here, and so are the ragged tail rows; the scalar
//! loops in [`crate::ops`] and [`crate::cholesky`] are the fallback on
//! hosts without AVX2 and the oracle these kernels are tested against.
//!
//! This is the crate's only `unsafe` code: the intrinsics need the host to
//! have AVX2, which only an [`Avx2`] value — made by [`Avx2::detect`] —
//! proves, and the loads read through raw pointers.

use std::arch::x86_64::*;

use crate::cholesky::{finish_rows, start};
use crate::ops::{finish_block, forward_block, TILE_COLS};
use crate::{Cholesky, Result};

/// Factor rows per block, one per ymm lane.
const ROWS: usize = 4;

/// Proof that the host supports AVX2: only [`Avx2::detect`] makes one, so
/// its safe methods may run the kernels.
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// `Some` when the host supports AVX2.
    pub(crate) fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// [`crate::ops::scalar_forward_tile`]'s result, bit for bit (modulo
    /// NaN payload): `L y = x` in place for `W` (1 or [`TILE_COLS`])
    /// right-hand sides interleaved `[i][W]`.
    pub(crate) fn forward_tile<const W: usize>(self, l: &Cholesky, x: &mut [[f64; W]]) {
        // SAFETY: `self` proves the host supports AVX2.
        unsafe { forward_tile(l, x) }
    }

    /// [`crate::cholesky::factor_rows`]'s result for one whole panel, bit
    /// for bit, or its error: rows `i0..i0 + 4` of the factor of
    /// `A + shift·I`, every earlier row of `packed` being final.
    pub(crate) fn factor_panel(
        self,
        packed: &mut [f64],
        i0: usize,
        a: [&[f64]; ROWS],
        shift: f64,
    ) -> Result<()> {
        // SAFETY: `self` proves the host supports AVX2.
        unsafe { factor_panel(packed, i0, a, shift) }
    }
}

/// Whole four-row blocks through the chain kernels and
/// [`finish_block`], the ragged tail rows through the scalar
/// [`forward_block`].
///
/// # Safety
///
/// The host must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn forward_tile<const W: usize>(l: &Cholesky, x: &mut [[f64; W]]) {
    const { assert!(W == 1 || W == TILE_COLS) };
    debug_assert_eq!(x.len(), l.dim());
    let mut i0 = 0;
    while i0 + ROWS <= x.len() {
        let (solved, block) = x.split_at_mut(i0);
        let rows: [&[f64]; ROWS] = std::array::from_fn(|r| l.row(i0 + r));
        let heads = rows.map(|row| &row[..i0]);
        let mut s: [[f64; W]; ROWS] = std::array::from_fn(|r| block[r]);
        if W == 1 {
            column_chains(heads, solved.as_flattened(), s.as_flattened_mut());
        } else {
            tile_chains(heads, solved.as_flattened(), s.as_flattened_mut());
        }
        finish_block(&rows, i0, block, s);
        i0 += ROWS;
    }
    for i in i0..x.len() {
        forward_block::<W, 1>(l, x, i);
    }
}

/// `s[r] -= heads[r][k]·y[k]` for every `k` in ascending order (`y` a
/// whole number of quads, as every block starts at a multiple of 4): the
/// four row chains share one ymm, and each four `k` transpose the rows'
/// entries into four columns.
#[target_feature(enable = "avx2")]
fn column_chains(heads: [&[f64]; ROWS], y: &[f64], s: &mut [f64]) {
    assert!(
        s.len() == ROWS && y.len().is_multiple_of(4) && heads.iter().all(|h| h.len() == y.len())
    );
    // SAFETY: `s` holds four `f64`s; the load is unaligned.
    let mut acc = unsafe { _mm256_loadu_pd(s.as_ptr()) };
    for (k, yq) in (0..).step_by(4).zip(y.chunks_exact(4)) {
        // SAFETY: `k + 4 <= y.len()`, the length of every head.
        let quads = heads.map(|h| unsafe { _mm256_loadu_pd(h.as_ptr().add(k)) });
        for (col, &yk) in transpose(quads).iter().zip(yq) {
            acc = _mm256_sub_pd(acc, _mm256_mul_pd(*col, _mm256_set1_pd(yk)));
        }
    }
    // SAFETY: as the load.
    unsafe { _mm256_storeu_pd(s.as_mut_ptr(), acc) };
}

/// `s[r][c] -= heads[r][k]·y[k][c]` for every `k` in ascending order,
/// `y` and `s` interleaved by [`TILE_COLS`] lanes: each row's 8 chains
/// take two ymm.
#[target_feature(enable = "avx2")]
fn tile_chains(heads: [&[f64]; ROWS], y: &[f64], s: &mut [f64]) {
    let len = y.len() / TILE_COLS;
    assert!(s.len() == ROWS * TILE_COLS && heads.iter().all(|h| h.len() == len));
    let mut acc: [[__m256d; 2]; ROWS] = std::array::from_fn(|r| {
        // SAFETY: row `r` of `s` is `TILE_COLS` = 8 `f64`s; unaligned loads.
        unsafe { [0, 4].map(|h| _mm256_loadu_pd(s.as_ptr().add(r * TILE_COLS + h))) }
    });
    for (k, yk) in y.chunks_exact(TILE_COLS).enumerate() {
        // SAFETY: `yk` holds 8 `f64`s.
        let (lo, hi) = unsafe {
            (
                _mm256_loadu_pd(yk.as_ptr()),
                _mm256_loadu_pd(yk.as_ptr().add(4)),
            )
        };
        for (acc, head) in acc.iter_mut().zip(&heads) {
            let lik = _mm256_set1_pd(head[k]);
            acc[0] = _mm256_sub_pd(acc[0], _mm256_mul_pd(lik, lo));
            acc[1] = _mm256_sub_pd(acc[1], _mm256_mul_pd(lik, hi));
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (h, v) in [0, 4].into_iter().zip(acc) {
            // SAFETY: as the loads.
            unsafe { _mm256_storeu_pd(s.as_mut_ptr().add(r * TILE_COLS + h), *v) };
        }
    }
}

/// Rows `i0..i0 + 4` of the factor: each four earlier columns `j..j + 4`
/// run their 16 chains over `k < j` in [`panel_chains`], then finish the
/// 4 × 4 column block entry by entry; [`finish_rows`] does the rest.
///
/// # Safety
///
/// The host must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn factor_panel(packed: &mut [f64], i0: usize, a: [&[f64]; ROWS], shift: f64) -> Result<()> {
    let grouped = i0 / 4 * 4;
    let (done, block) = packed.split_at_mut(start(i0));
    let rows: [usize; ROWS] = std::array::from_fn(|r| start(i0 + r) - start(i0));
    for j in (0..grouped).step_by(4) {
        let cols: [&[f64]; 4] = std::array::from_fn(|c| &done[start(j + c)..start(j + c + 1)]);
        let s = panel_chains(rows.map(|at| &block[at..at + j]), cols.map(|col| &col[..j]));
        for ((s, at), a) in s.iter().zip(rows).zip(&a) {
            for (c, col) in cols.iter().enumerate() {
                let mut t = s[c];
                for k in j..j + c {
                    t += block[at + k] * col[k];
                }
                block[at + j + c] = (a[j + c] - t) / col[j + c];
            }
        }
    }
    finish_rows(packed, i0, grouped, a, shift)
}

/// `s[r][c] = Σₖ heads[r][k]·cols[c][k]` from `0.0` in ascending `k`
/// (a whole number of quads: `k < j`, a multiple of 4): row `r`'s four
/// column chains share one ymm, and each four `k` transpose the column
/// rows' entries.
#[target_feature(enable = "avx2")]
fn panel_chains(heads: [&[f64]; ROWS], cols: [&[f64]; 4]) -> [[f64; 4]; ROWS] {
    let len = cols[0].len();
    assert!(len.is_multiple_of(4) && heads.iter().chain(&cols).all(|v| v.len() == len));
    let mut acc = [_mm256_setzero_pd(); ROWS];
    for k in (0..len).step_by(4) {
        // SAFETY: `k + 4 <= len`, the length of every column and head.
        let quads = cols.map(|c| unsafe { _mm256_loadu_pd(c.as_ptr().add(k)) });
        for (kk, col) in transpose(quads).iter().enumerate() {
            for (acc, head) in acc.iter_mut().zip(&heads) {
                // SAFETY: as the loads. (Unchecked, the factorization
                // measured ≈ 14 % faster at n = 1,500.)
                let lik = _mm256_set1_pd(unsafe { *head.get_unchecked(k + kk) });
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(lik, *col));
            }
        }
    }
    acc.map(|v| {
        let mut out = [0.0; 4];
        // SAFETY: `out` holds four `f64`s; the store is unaligned.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        out
    })
}

/// Four rows of four lanes in, their four columns out: lane `r` of column
/// `c` is lane `c` of row `r`.
#[target_feature(enable = "avx2")]
fn transpose(rows: [__m256d; 4]) -> [__m256d; 4] {
    let lo01 = _mm256_unpacklo_pd(rows[0], rows[1]);
    let hi01 = _mm256_unpackhi_pd(rows[0], rows[1]);
    let lo23 = _mm256_unpacklo_pd(rows[2], rows[3]);
    let hi23 = _mm256_unpackhi_pd(rows[2], rows[3]);
    [
        _mm256_permute2f128_pd::<0x20>(lo01, lo23),
        _mm256_permute2f128_pd::<0x20>(hi01, hi23),
        _mm256_permute2f128_pd::<0x31>(lo01, lo23),
        _mm256_permute2f128_pd::<0x31>(hi01, hi23),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::{factor_rows, PANEL_ROWS};
    use crate::ops::scalar_forward_tile;
    use crate::{solve_lower, LinalgError, Matrix};

    /// xorshift64: fixed values without a dependency.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        /// A right-hand side: ordinary values with ±0.0 mixed in, and when
        /// `poisoned` a rare NaN or ±∞ (each poisons the rest of its
        /// column, so the clean columns keep the test's power).
        fn column(&mut self, n: usize, poisoned: bool) -> Vec<f64> {
            (0..n)
                .map(|_| {
                    let x = self.unit();
                    match self.0 % 64 {
                        0..=3 => -0.0,
                        4..=7 => 0.0,
                        8 if poisoned => f64::NAN,
                        9 if poisoned => f64::INFINITY,
                        10 if poisoned => f64::NEG_INFINITY,
                        _ => 3.0 * x,
                    }
                })
                .collect()
        }
    }

    /// `B Bᵀ + ½I` for a random `n × n` `B`.
    fn spd(n: usize, rng: &mut Rng) -> Matrix {
        let b = Matrix::from_fn(n, n, |_, _| rng.unit());
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(0.5);
        a
    }

    /// Bit equality, any NaN equal to any NaN (the payload is not pinned).
    fn same_bits(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    fn scalar_factor(a: &Matrix, shift: f64) -> Result<Cholesky> {
        Cholesky::factor(a, shift, factor_rows::<PANEL_ROWS>)
    }

    /// The textbook triple loop over `A + shift·I`, packed by rows.
    fn textbook(a: &Matrix, shift: f64) -> Result<Vec<f64>> {
        let mut packed: Vec<f64> = Vec::new();
        for i in 0..a.rows() {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..j {
                    s += packed[start(i) + k] * packed[start(j) + k];
                }
                if j < i {
                    packed.push((a.get(i, j) - s) / packed[start(j) + j]);
                    continue;
                }
                let d = a.get(i, i) + shift - s;
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                packed.push(d.sqrt());
            }
        }
        Ok(packed)
    }

    /// The scalar path against the textbook loop, and the kernel (when the
    /// host has AVX2) against the scalar path: same bits or same pivot.
    fn check_factor(a: &Matrix, shift: f64) {
        let scalar = scalar_factor(a, shift);
        let n = a.rows();
        match (&scalar, textbook(a, shift)) {
            (Ok(got), Ok(want)) => assert!(same_bits(got.packed(), &want), "n = {n}"),
            (got, want) => assert_eq!(got.as_ref().err(), want.err().as_ref(), "n = {n}"),
        }
        if let Some(avx2) = Avx2::detect() {
            let kernel = Cholesky::factor(a, shift, |packed, i0, rows, shift| {
                avx2.factor_panel(packed, i0, rows, shift)
            });
            match (kernel, scalar) {
                (Ok(got), Ok(want)) => assert!(same_bits(got.packed(), want.packed()), "n = {n}"),
                (got, want) => assert_eq!(got.err(), want.err(), "n = {n}"),
            }
        }
    }

    /// One tile of `cols` (at most `W` of them, unused lanes zero) through
    /// the scalar blocks, checked against `solve_lower`, and through the
    /// kernel, checked against the scalar blocks in every lane.
    fn check_tile<const W: usize>(l: &Cholesky, cols: &[Vec<f64>]) {
        let mut x = vec![[0.0; W]; l.dim()];
        for (c, col) in cols.iter().enumerate() {
            for (lanes, &v) in x.iter_mut().zip(col) {
                lanes[c] = v;
            }
        }
        let mut scalar = x.clone();
        scalar_forward_tile(l, &mut scalar);
        let dense = l.to_matrix();
        for (c, col) in cols.iter().enumerate() {
            let lane: Vec<f64> = scalar.iter().map(|y| y[c]).collect();
            let want = solve_lower(&dense, col).unwrap();
            assert!(same_bits(&lane, &want), "n = {}, lane {c}", l.dim());
        }
        if let Some(avx2) = Avx2::detect() {
            avx2.forward_tile(l, &mut x);
            assert!(
                same_bits(x.as_flattened(), scalar.as_flattened()),
                "n = {}, {} columns",
                l.dim(),
                cols.len()
            );
        }
    }

    #[test]
    fn forward_tiles_equal_the_scalar_blocks_and_solve_lower() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for n in 0..=70 {
            let l = scalar_factor(&spd(n, &mut rng), 0.0).unwrap();
            for poisoned in [false, true] {
                check_tile::<1>(&l, &[rng.column(n, poisoned)]);
            }
            for w in 1..=TILE_COLS {
                let cols: Vec<Vec<f64>> = (0..w).map(|c| rng.column(n, c % 2 == 1)).collect();
                check_tile::<TILE_COLS>(&l, &cols);
            }
        }
    }

    #[test]
    fn panels_equal_the_scalar_rows_and_the_textbook() {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for n in 0..=70 {
            let a = spd(n, &mut rng);
            check_factor(&a, 0.0);
            check_factor(&a, 0.37);
        }
    }

    #[test]
    fn a_spoiled_pivot_fails_at_the_same_pivot() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        for n in [23, 70] {
            let a = spd(n, &mut rng);
            for p in 0..n {
                let mut spoiled = a.clone();
                spoiled.set(p, p, -1.0);
                assert_eq!(
                    scalar_factor(&spoiled, 0.0).unwrap_err(),
                    LinalgError::NotPositiveDefinite { pivot: p }
                );
                check_factor(&spoiled, 0.0);
                // A NaN below the diagonal of row `p` poisons its pivot.
                let mut spoiled = a.clone();
                spoiled.set(p, p / 2, f64::NAN);
                check_factor(&spoiled, 0.0);
            }
        }
    }
}
