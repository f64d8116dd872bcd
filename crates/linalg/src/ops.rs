//! [`dot`], and the one O(n²) operation of query-time inference,
//! `‖L⁻¹k̄‖²` of Eq. (11) with `L` the packed Cholesky factor of `Σₙ`: a
//! blocked forward substitution over tiles of right-hand sides
//! ([`forward_sq_norms`]), of which the factor's own solves are the
//! one-column case. Every element of `y = L⁻¹b` is
//! [`crate::solve_lower`]'s chain — `s = b[i]`, `s -= L[i][k]·y[k]` in
//! ascending `k`, `y[i] = s / L[i][i]` — and `‖y‖²` is summed in
//! ascending `i`, so results are the serial loops' bits whatever the tile
//! (modulo NaN payload: which NaN an operation on two NaNs returns is not
//! pinned down). What the tiles buy is independent chains and one pass
//! over the factor per tile instead of per vector.
//!
//! Two tile shapes run: a lone column, and [`TILE_COLS`] columns (a
//! narrower tile pads unused lanes with zeros). On a host with AVX2
//! (`is_x86_feature_detected!`, no option selects it) both take four
//! factor rows per block in `crate::avx2`: the lone column transposes
//! four rows' entries so the four row chains share one ymm, the wide tile
//! holds each row's 8 lanes in two. Each lane multiplies, then subtracts,
//! in the scalar loop's order — no fused multiply-add — so the kernel
//! keeps the bits. The scalar blocks here (a lone column four rows per
//! block, the wide tile two) are the fallback elsewhere, the ragged tail
//! rows and the oracle the kernel is tested against.

use crate::Cholesky;

/// Right-hand sides one pass over the factor serves (the widest tile).
pub const TILE_COLS: usize = 8;

/// Dot product of two equal-length slices, accumulated in index order.
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `‖L⁻¹ b_c‖²` of every column `b_c`, reading the factor once per tile of
/// 8 columns. Each result equals [`crate::solve_lower`] of the column
/// followed by a sum of squares in ascending order, bit for bit (modulo NaN
/// payload).
///
/// Panics when a column's length is not the factor's dimension.
pub fn forward_sq_norms(l: &Cholesky, columns: &[&[f64]]) -> Vec<f64> {
    assert!(
        columns.iter().all(|col| col.len() == l.dim()),
        "forward_sq_norms: column length != factor dimension"
    );
    let mut out = Vec::with_capacity(columns.len());
    for tile in columns.chunks(TILE_COLS) {
        match tile.len() {
            1 => out.extend(tile_sq_norms::<1>(l, tile)),
            w => out.extend_from_slice(&tile_sq_norms::<TILE_COLS>(l, tile)[..w]),
        }
    }
    out
}

/// One tile: the columns interleaved `[i][W]` (unused lanes zero), solved
/// in place, then summed.
fn tile_sq_norms<const W: usize>(l: &Cholesky, tile: &[&[f64]]) -> [f64; W] {
    let mut x = vec![[0.0; W]; l.dim()];
    for (c, col) in tile.iter().enumerate() {
        for (lanes, &v) in x.iter_mut().zip(col.iter()) {
            lanes[c] = v;
        }
    }
    forward_tile(l, &mut x);
    let mut acc = [0.0; W];
    for y in &x {
        for (acc, v) in acc.iter_mut().zip(y) {
            *acc += v * v;
        }
    }
    acc
}

/// `L y = x` in place for `W` right-hand sides interleaved `[i][W]`, `W`
/// being 1 or [`TILE_COLS`]: the AVX2 kernel when the host has it, the
/// scalar blocks otherwise.
pub(crate) fn forward_tile<const W: usize>(l: &Cholesky, x: &mut [[f64; W]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = crate::avx2::Avx2::detect() {
        return avx2.forward_tile(l, x);
    }
    scalar_forward_tile(l, x);
}

/// The scalar forward substitution, in the two shapes that were measured:
/// a lone column takes four factor rows per block instead of padding seven
/// lanes; anything wider is a full-width tile, two rows per block.
pub(crate) fn scalar_forward_tile<const W: usize>(l: &Cholesky, x: &mut [[f64; W]]) {
    if W == 1 {
        forward_blocks::<W, 4>(l, x);
    } else {
        forward_blocks::<W, 2>(l, x);
    }
}

/// `R` factor rows per block; a ragged tail goes a row at a time.
fn forward_blocks<const W: usize, const R: usize>(l: &Cholesky, x: &mut [[f64; W]]) {
    debug_assert_eq!(x.len(), l.dim());
    let mut i0 = 0;
    while i0 + R <= x.len() {
        forward_block::<W, R>(l, x, i0);
        i0 += R;
    }
    for i in i0..x.len() {
        forward_block::<W, 1>(l, x, i);
    }
}

/// Rows `i0..i0 + R`: their `R × W` chains run over the finished
/// `y[..i0]` together, then [`finish_block`].
#[inline(always)]
pub(crate) fn forward_block<const W: usize, const R: usize>(
    l: &Cholesky,
    x: &mut [[f64; W]],
    i0: usize,
) {
    let (solved, block) = x.split_at_mut(i0);
    let rows: [&[f64]; R] = std::array::from_fn(|r| l.row(i0 + r));
    let mut s: [[f64; W]; R] = std::array::from_fn(|r| block[r]);
    // One visible length for every slice: no bounds check per element.
    let heads = rows.map(|row| &row[..solved.len()]);
    for (k, yk) in solved.iter().enumerate() {
        for (sr, head) in s.iter_mut().zip(&heads) {
            let lik = head[k];
            for (v, y) in sr.iter_mut().zip(yk) {
                *v -= lik * y;
            }
        }
    }
    finish_block(&rows, i0, block, s);
}

/// The block's own triangle, a row at a time: chain `s[r]` (already run
/// over `y[..i0]`) subtracts the terms of the rows solved above it in
/// the block, then divides by the diagonal into `block[r]`.
#[inline(always)]
pub(crate) fn finish_block<const W: usize, const R: usize>(
    rows: &[&[f64]; R],
    i0: usize,
    block: &mut [[f64; W]],
    mut s: [[f64; W]; R],
) {
    for (r, (sr, row)) in s.iter_mut().zip(rows).enumerate() {
        for (k, yk) in block[..r].iter().enumerate() {
            let lik = row[i0 + k];
            for (v, y) in sr.iter_mut().zip(yk) {
                *v -= lik * y;
            }
        }
        block[r] = sr.map(|v| v / row[i0 + r]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn factor(n: usize, entries: Vec<f64>) -> Cholesky {
        Cholesky::new(&Matrix::from_vec(n, n, entries).unwrap()).unwrap()
    }

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn quadratic_form_identity_is_norm_squared() {
        let l = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert_eq!(forward_sq_norms(&l, &[&[1.0, 2.0, 3.0]]), vec![14.0]);
    }

    #[test]
    fn quadratic_form_matches_explicit_product() {
        // vᵀ Σ⁻¹ v with Σ = [[2,1],[1,3]], Σ⁻¹ = [[3,-1],[-1,2]] / 5 and
        // v = [1,-1]: (3 + 1 + 1 + 2) / 5.
        let l = factor(2, vec![2.0, 1.0, 1.0, 3.0]);
        assert!((forward_sq_norms(&l, &[&[1.0, -1.0]])[0] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn bilinear_form_mixed_vectors() {
        // aᵀ Σ⁻¹ b = (L⁻¹a)·(L⁻¹b); Σ⁻¹ = diag(1, 2) here.
        let l = factor(2, vec![1.0, 0.0, 0.0, 0.5]);
        let (a, b) = (
            l.forward(&[1.0, 1.0]).unwrap(),
            l.forward(&[3.0, 4.0]).unwrap(),
        );
        assert!((dot(&a, &b) - (3.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn forms_fill_whole_tiles_and_a_ragged_one() {
        // 11 columns = one full tile + a 3-wide one; under the identity
        // factor each form is the plain dot product.
        let l = Cholesky::new(&Matrix::identity(5)).unwrap();
        let cols: Vec<Vec<f64>> = (0..11)
            .map(|c| (0..5).map(|i| (i + c) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let want: Vec<f64> = cols.iter().map(|v| dot(v, v)).collect();
        assert_eq!(forward_sq_norms(&l, &refs), want);
        assert!(forward_sq_norms(&l, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_unequal_lengths() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "column length")]
    fn forms_reject_a_short_vector() {
        // A short kernel vector must not yield a silently wrong γ².
        forward_sq_norms(&Cholesky::new(&Matrix::identity(2)).unwrap(), &[&[1.0]]);
    }
}
