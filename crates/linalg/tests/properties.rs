//! Property-based tests for the linear-algebra kernel.

use proptest::prelude::*;
use verdict_linalg::cholesky::spd_solve;
use verdict_linalg::ops::{dot, forward_sq_norms};
use verdict_linalg::{solve_lower, solve_upper, Cholesky, LinalgError, Matrix};

/// Builds a random SPD matrix `A = B Bᵀ + d·I` from a flat value vector.
fn spd_from(values: &[f64], n: usize) -> Matrix {
    let b = Matrix::from_fn(n, n, |i, j| values[i * n + j]);
    let mut a = b.matmul(&b.transpose()).unwrap();
    a.add_diagonal(0.5);
    a
}

fn spd_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<f64>)> {
    (1..=max_n).prop_flat_map(|n| (Just(n), prop::collection::vec(-3.0..3.0f64, n * n..=n * n)))
}

/// The textbook triple loop the blocked factorization replaced and must
/// equal: `L[i][j] = (A[i][j] − s) / L[j][j]`, `s` accumulated from `0.0`
/// in ascending `k`; `Err(i)` at the first pivot that is not positive and
/// finite.
fn textbook_cholesky(a: &Matrix) -> Result<Matrix, usize> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = 0.0;
            for k in 0..j {
                s += l.get(i, k) * l.get(j, k);
            }
            if i == j {
                let d = a.get(i, i) - s;
                if d <= 0.0 || !d.is_finite() {
                    return Err(i);
                }
                l.set(i, j, d.sqrt());
            } else {
                l.set(i, j, (a.get(i, j) - s) / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// What the blocked forward substitution must equal: one serial chain per
/// vector, then a serial sum of squares from `0.0`.
fn naive_sq_norm(l: &Matrix, b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for y in solve_lower(l, b).unwrap() {
        acc += y * y;
    }
    acc
}

/// Bit equality, except that any NaN equals any NaN: which operand's
/// payload an instruction propagates is not something IEEE 754 or Rust
/// pins down, so two compilations of one formula may differ there.
fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// Mostly ordinary values, with the ones that break careless kernels
/// (NaN, ±∞, ±0) mixed in.
fn awkward_f64() -> impl Strategy<Value = f64> {
    (0u32..24, -3.0..3.0f64).prop_map(|(tag, x)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        _ => x,
    })
}

/// `(n, B entries of an SPD A = B Bᵀ + ½I, right-hand sides)`.
type Forms = (usize, Vec<f64>, Vec<Vec<f64>>);

/// n ∈ 0..=40 and 0..=20 columns: every tile width, whole and ragged row
/// blocks.
fn forms_strategy() -> impl Strategy<Value = Forms> {
    (0usize..=40, 0usize..=20).prop_flat_map(|(n, cols)| {
        (
            Just(n),
            prop::collection::vec(-3.0..3.0f64, n * n..=n * n),
            prop::collection::vec(prop::collection::vec(awkward_f64(), n..=n), cols..=cols),
        )
    })
}

proptest! {
    /// The kernel's norms, and the factor's forward substitution and full
    /// solve, are the serial substitutions' bits.
    #[test]
    fn blocked_forms_equal_naive_reference((n, vals, columns) in forms_strategy()) {
        let c = Cholesky::new(&spd_from(&vals, n)).unwrap();
        let l = c.to_matrix();
        let refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let norms = forward_sq_norms(&c, &refs);
        prop_assert_eq!(norms.len(), refs.len());
        for (col, got) in refs.iter().zip(&norms) {
            let want = naive_sq_norm(&l, col);
            prop_assert!(same_bits(*got, want), "{got} vs {want}");
            let y = solve_lower(&l, col).unwrap();
            let x = solve_upper(&l.transpose(), &y).unwrap();
            for (got, want) in c.forward(col).unwrap().iter().zip(&y) {
                prop_assert!(same_bits(*got, *want), "{got} vs {want}");
            }
            for (got, want) in c.solve(col).unwrap().iter().zip(&x) {
                prop_assert!(same_bits(*got, *want), "{got} vs {want}");
            }
        }
    }

    /// Random SPD n = 1..=70 (whole and ragged panels), and the same
    /// matrices made indefinite at a random diagonal: every entry, or the
    /// failing pivot, is the textbook's.
    #[test]
    fn blocked_cholesky_equals_textbook(
        (n, vals) in spd_strategy(70),
        spoil in any::<bool>(),
        at in any::<usize>(),
        by in 0.0..200.0f64,
    ) {
        let mut a = spd_from(&vals, n);
        if spoil {
            let p = at % n;
            a.set(p, p, a.get(p, p) - by);
        }
        match (Cholesky::new(&a), textbook_cholesky(&a)) {
            (Ok(got), Ok(want)) => {
                let got = got.to_matrix();
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    prop_assert!(g.to_bits() == w.to_bits(), "{g} vs {w}");
                }
            }
            (Err(got), Err(pivot)) => {
                prop_assert_eq!(got, LinalgError::NotPositiveDefinite { pivot });
            }
            (got, want) => prop_assert!(false, "{got:?} vs {want:?}"),
        }
    }

    /// Appending the last row of `A` to the factor of its leading block is
    /// the factor of `A`, bit for bit — or the same failing pivot.
    #[test]
    fn appended_row_equals_fresh_factor(
        (n, vals) in spd_strategy(20),
        shrink in 0.0..60.0f64,
    ) {
        let mut a = spd_from(&vals, n);
        a.set(n - 1, n - 1, a.get(n - 1, n - 1) - shrink);
        let mut grown = Cholesky::new(&a.leading_principal(n - 1).unwrap()).unwrap();
        let before = grown.clone();
        match (grown.append_row(&a.row(n - 1)[..n]), Cholesky::new(&a)) {
            (Ok(()), Ok(want)) => prop_assert_eq!(
                grown.packed().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.packed().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            ),
            (Err(got), Err(want)) => {
                prop_assert_eq!(got, want);
                prop_assert_eq!(grown, before);
            }
            (got, want) => prop_assert!(false, "{got:?} vs {want:?}"),
        }
    }

    /// `B Bᵀ` with `B` of rank below `n` is singular, and a small dip of
    /// its diagonal makes it indefinite, so the factor needs jitter: what
    /// `new_with_jitter` returns is, bit for bit, the textbook factor of
    /// the materialized `A + shift·I` at the first shift the textbook
    /// accepts.
    #[test]
    fn jittered_factor_equals_textbook_of_shifted_matrix(
        (n, rank, vals) in (2usize..=40).prop_flat_map(|n| {
            (Just(n), 1..n, prop::collection::vec(-3.0..3.0f64, n * n..=n * n))
        }),
        dip in 1e-6..1e-3f64,
    ) {
        let b = Matrix::from_fn(n, rank, |i, j| vals[i * n + j]);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diagonal(-dip * a.max_abs().max(1.0));
        prop_assert!(textbook_cholesky(&a).is_err());
        let mut shift = 1e-8 * a.max_abs().max(1.0);
        let want = (0..12)
            .find_map(|_| {
                let mut shifted = a.clone();
                shifted.add_diagonal(shift);
                shift *= 10.0;
                textbook_cholesky(&shifted).ok()
            })
            .unwrap();
        let got = Cholesky::new_with_jitter(&a, 1e-8, 12).unwrap().to_matrix();
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!(g.to_bits() == w.to_bits(), "{g} vs {w}");
        }
    }

    #[test]
    fn tiled_inverse_equals_column_solves((n, vals) in spd_strategy(40)) {
        let c = Cholesky::new(&spd_from(&vals, n)).unwrap();
        let inv = c.inverse();
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = c.solve(&e).unwrap();
            e[j] = 0.0;
            for (i, want) in col.iter().enumerate() {
                prop_assert!(inv.get(i, j).to_bits() == want.to_bits(), "entry ({i}, {j})");
            }
        }
    }

    #[test]
    fn cholesky_reconstructs((n, vals) in spd_strategy(8)) {
        let a = spd_from(&vals, n);
        let l = Cholesky::new(&a).unwrap().to_matrix();
        let rec = l.matmul(&l.transpose()).unwrap();
        let scale = a.max_abs().max(1.0);
        prop_assert!(a.frobenius_distance(&rec) < 1e-8 * scale * n as f64);
    }

    #[test]
    fn solve_satisfies_system((n, vals) in spd_strategy(8), bvals in prop::collection::vec(-5.0..5.0f64, 8)) {
        let a = spd_from(&vals, n);
        let b = &bvals[..n];
        let x = spd_solve(&a, b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(b.iter()) {
            prop_assert!((got - want).abs() < 1e-6 * a.max_abs().max(1.0));
        }
    }

    #[test]
    fn inverse_is_two_sided((n, vals) in spd_strategy(6)) {
        let a = spd_from(&vals, n);
        let inv = Cholesky::new(&a).unwrap().inverse();
        let left = inv.matmul(&a).unwrap();
        let right = a.matmul(&inv).unwrap();
        let id = Matrix::identity(n);
        prop_assert!(left.frobenius_distance(&id) < 1e-6 * n as f64);
        prop_assert!(right.frobenius_distance(&id) < 1e-6 * n as f64);
    }

    /// `‖L⁻¹v‖² = vᵀA⁻¹v`: non-negative, and the form a solve gives.
    #[test]
    fn quadratic_form_of_spd_is_nonnegative((n, vals) in spd_strategy(8), v in prop::collection::vec(-5.0..5.0f64, 8)) {
        let a = spd_from(&vals, n);
        let c = Cholesky::new(&a).unwrap();
        let v = &v[..n];
        let q = forward_sq_norms(&c, &[v])[0];
        prop_assert!(q >= 0.0);
        let direct = dot(v, &c.solve(v).unwrap());
        prop_assert!((q - direct).abs() <= 1e-8 * direct.abs().max(1.0), "{q} vs {direct}");
    }

    #[test]
    fn log_det_matches_inverse_relation((n, vals) in spd_strategy(6)) {
        // log det(A) = -log det(A^{ -1 })
        let a = spd_from(&vals, n);
        let c = Cholesky::new(&a).unwrap();
        let inv = c.inverse();
        let cinv = Cholesky::new_with_jitter(&inv, 1e-12, 6).unwrap();
        prop_assert!((c.log_det() + cinv.log_det()).abs() < 1e-5 * n as f64);
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17 + seed as usize) % 13) as f64);
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}
