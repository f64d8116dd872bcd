//! Free-standing vector operations used throughout the inference engine.
//!
//! The one O(n²) operation of query-time inference — the forms
//! `k̄ᵀ Σₙ⁻¹ k̄` of Eq. (11) — is implemented once, as a blocked kernel
//! over tiles of right-hand sides ([`bilinear_forms`]); the single-vector
//! entry points are its one-column case. Blocking never reorders a sum:
//! every (row, column) dot product accumulates in ascending index order
//! with a separate multiply and add, exactly as [`dot`] does, so results
//! are bit-identical whatever the tile shape (modulo NaN payload: which
//! NaN an operation on two NaNs returns is not pinned down, so "a NaN"
//! is the contract there). What the tiles buy is independent
//! accumulation chains for the CPU and one pass over the matrix per tile
//! instead of one per vector.

use crate::Matrix;

/// Right-hand sides one pass over the matrix serves (the widest tile).
/// Callers never chunk by it: the entry points below do.
pub(crate) const TILE_COLS: usize = 8;

/// Dot product of two equal-length slices, accumulated in index order.
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Element-wise difference `a - b` into a new vector.
#[inline]
pub fn vec_sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Matrix-vector product convenience wrapper that panics on shape mismatch.
///
/// Use [`Matrix::matvec`] when the caller wants a recoverable error.
#[inline]
pub fn mat_vec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    m.matvec(v).expect("mat_vec: dimension mismatch")
}

/// Quadratic form `vᵀ M v` without materializing `M v`.
///
/// This is the hot operation of Verdict's inference: `k̄ᵀ Σ⁻¹ k̄` in
/// Eq. (11) of the paper.
pub fn quadratic_form(m: &Matrix, v: &[f64]) -> f64 {
    bilinear_form(v, m, v)
}

/// Bilinear form `aᵀ M b`.
pub fn bilinear_form(a: &[f64], m: &Matrix, b: &[f64]) -> f64 {
    bilinear_forms(&[a], m, &[b])[0]
}

/// Quadratic forms `v_cᵀ M v_c` of every column `v_c`, reading `M` once
/// per tile of 8 columns.
pub fn quadratic_forms(m: &Matrix, v: &[&[f64]]) -> Vec<f64> {
    bilinear_forms(v, m, v)
}

/// [`quadratic_forms`] over columns too many to hold at once:
/// `column(c)` builds column `c` (called once each, in order) and
/// `each(c, column, form)` receives it back with its form, also in order.
/// Only one tile of columns is alive at a time.
pub fn quadratic_forms_with(
    m: &Matrix,
    count: usize,
    mut column: impl FnMut(usize) -> Vec<f64>,
    mut each: impl FnMut(usize, &[f64], f64),
) {
    for c0 in (0..count).step_by(TILE_COLS) {
        let cols: Vec<Vec<f64>> = (c0..count.min(c0 + TILE_COLS)).map(&mut column).collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        for (c, (col, form)) in (c0..).zip(cols.iter().zip(quadratic_forms(m, &refs))) {
            each(c, col, form);
        }
    }
}

/// Bilinear forms `a_cᵀ M b_c` of every column pair, reading `M` once per
/// tile of 8 pairs. Each result equals
/// `Σ_i a_c[i] · dot(M.row(i), b_c)` bit for bit (modulo NaN payload).
///
/// Panics on a shape mismatch (checked once per call, not per element).
pub fn bilinear_forms(a: &[&[f64]], m: &Matrix, b: &[&[f64]]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "bilinear_forms: column count mismatch");
    assert!(
        a.iter().all(|col| col.len() == m.rows()),
        "bilinear_forms: left vector length != matrix rows"
    );
    assert!(
        b.iter().all(|col| col.len() == m.cols()),
        "bilinear_forms: right vector length != matrix columns"
    );
    let mut out = vec![0.0; a.len()];
    for ((a, b), out) in a
        .chunks(TILE_COLS)
        .zip(b.chunks(TILE_COLS))
        .zip(out.chunks_mut(TILE_COLS))
    {
        // `<W, R>`, the two shapes that were measured: a lone column
        // takes eight matrix rows per block instead of padding seven
        // lanes; anything wider is a full-width tile, two rows per block.
        match a.len() {
            1 => tile_forms::<1, 8>(a, m, b, out),
            _ => tile_forms::<TILE_COLS, 2>(a, m, b, out),
        }
    }
    out
}

/// One tile: `out[c] = a[c]ᵀ M b[c]` for up to `W` column pairs, `R`
/// matrix rows at a time. The right-hand sides are interleaved `[j][W]`
/// (unused lanes zero) so one load of `M[i][j]` feeds `W` chains.
fn tile_forms<const W: usize, const R: usize>(
    a: &[&[f64]],
    m: &Matrix,
    b: &[&[f64]],
    out: &mut [f64],
) {
    let mut bt = vec![[0.0; W]; m.cols()];
    for (c, col) in b.iter().enumerate() {
        for (lanes, &x) in bt.iter_mut().zip(col.iter()) {
            lanes[c] = x;
        }
    }
    let mut acc = [0.0; W];
    // Rows fold into the result in ascending order, block or no block.
    let mut fold = |i: usize, d: &[f64; W]| {
        for ((acc, col), d) in acc.iter_mut().zip(a).zip(d) {
            *acc += col[i] * d;
        }
    };
    let mut i = 0;
    while i + R <= m.rows() {
        let d = row_block::<W, R>(std::array::from_fn(|r| m.row(i + r)), &bt);
        d.iter().enumerate().for_each(|(r, dr)| fold(i + r, dr));
        i += R;
    }
    for i in i..m.rows() {
        let [d] = row_block::<W, 1>([m.row(i)], &bt);
        fold(i, &d);
    }
    out.copy_from_slice(&acc[..out.len()]);
}

/// `d[r][c] = dot(rows[r], column c of bt)`: `R × W` independent chains,
/// each in ascending `j` from the `-0.0` that [`dot`]'s `sum` starts at.
#[inline(always)]
fn row_block<const W: usize, const R: usize>(rows: [&[f64]; R], bt: &[[f64; W]]) -> [[f64; W]; R] {
    // One visible length for every slice: no bounds check per element.
    let rows = rows.map(|row| &row[..bt.len()]);
    let mut d = [[-0.0; W]; R];
    for (j, bj) in bt.iter().enumerate() {
        for (dr, row) in d.iter_mut().zip(&rows) {
            let mij = row[j];
            for (x, bjc) in dr.iter_mut().zip(bj) {
                *x += mij * bjc;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn vec_sub_elementwise() {
        assert_eq!(vec_sub(&[3.0, 5.0], &[1.0, 2.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn quadratic_form_identity_is_norm_squared() {
        let m = Matrix::identity(3);
        let v = [1.0, 2.0, 3.0];
        assert_eq!(quadratic_form(&m, &v), 14.0);
    }

    #[test]
    fn quadratic_form_matches_explicit_product() {
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let v = [1.0, -1.0];
        // v^T M v = [1,-1] [[2,1],[1,3]] [1,-1]^T = 2 - 1 - 1 + 3 = 3
        assert!((quadratic_form(&m, &v) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bilinear_form_mixed_vectors() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]).unwrap();
        assert_eq!(bilinear_form(&[1.0, 1.0], &m, &[3.0, 4.0]), 3.0 + 8.0);
    }

    #[test]
    fn forms_fill_whole_tiles_and_a_ragged_one() {
        // 11 columns = one full tile + a 3-wide one; on the identity each
        // form is the plain dot product.
        let m = Matrix::identity(5);
        let cols: Vec<Vec<f64>> = (0..11)
            .map(|c| (0..5).map(|i| (i + c) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let want: Vec<f64> = cols.iter().map(|v| dot(v, v)).collect();
        assert_eq!(quadratic_forms(&m, &refs), want);
        assert!(bilinear_forms(&[], &m, &[]).is_empty());
        // The lazy form hands every column back with its result, in order.
        let mut got = Vec::new();
        quadratic_forms_with(
            &m,
            cols.len(),
            |c| cols[c].clone(),
            |c, col, form| {
                assert_eq!(col, cols[c]);
                got.push(form);
            },
        );
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_unequal_lengths() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "right vector length")]
    fn forms_reject_a_short_vector() {
        // A short kernel vector must not yield a silently wrong γ².
        bilinear_form(&[1.0, 1.0], &Matrix::identity(2), &[1.0]);
    }

    #[test]
    fn mat_vec_matches_matvec() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(mat_vec(&m, &[1.0, 1.0]), vec![3.0, 7.0]);
    }
}
