//! Property-based tests for the linear-algebra kernel.

use proptest::prelude::*;
use verdict_linalg::cholesky::spd_solve;
use verdict_linalg::ops::{bilinear_form, bilinear_forms, dot, quadratic_forms};
use verdict_linalg::{quadratic_form, Cholesky, Matrix};

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

/// What the blocked kernel replaced and must equal: one serial chain per
/// vector, a pass over the matrix each.
fn naive_bilinear_form(a: &[f64], m: &Matrix, b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (i, ai) in a.iter().enumerate() {
        acc += ai * dot(m.row(i), b);
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

/// `(n, n×n matrix entries, left vectors, right vectors)`.
type Forms = (usize, Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>);

/// n ∈ 0..=40 and 0..=20 columns: every tile width, whole and ragged row
/// blocks.
fn forms_strategy() -> impl Strategy<Value = Forms> {
    (0usize..=40, 0usize..=20).prop_flat_map(|(n, cols)| {
        let column = || prop::collection::vec(awkward_f64(), n..=n);
        (
            Just(n),
            prop::collection::vec(awkward_f64(), n * n..=n * n),
            prop::collection::vec(column(), cols..=cols),
            prop::collection::vec(column(), cols..=cols),
        )
    })
}

proptest! {
    #[test]
    fn blocked_forms_equal_naive_reference((n, vals, left, right) in forms_strategy()) {
        let m = Matrix::from_vec(n, n, vals).unwrap();
        let a: Vec<&[f64]> = left.iter().map(Vec::as_slice).collect();
        let b: Vec<&[f64]> = right.iter().map(Vec::as_slice).collect();
        let bilinear = bilinear_forms(&a, &m, &b);
        let quadratic = quadratic_forms(&m, &b);
        prop_assert_eq!(bilinear.len(), a.len());
        for c in 0..a.len() {
            let want = naive_bilinear_form(a[c], &m, b[c]);
            prop_assert!(same_bits(bilinear[c], want), "column {c}: {} vs {want}", bilinear[c]);
            prop_assert!(same_bits(bilinear_form(a[c], &m, b[c]), want));
            let want = naive_bilinear_form(b[c], &m, b[c]);
            prop_assert!(same_bits(quadratic[c], want), "column {c}: {} vs {want}", quadratic[c]);
            prop_assert!(same_bits(quadratic_form(&m, b[c]), want));
        }
    }

    #[test]
    fn tiled_inverse_equals_column_solves((n, vals) in spd_strategy(40)) {
        let c = Cholesky::new(&spd_from(&vals, n)).unwrap();
        let inv = c.inverse().unwrap();
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
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
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
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let left = inv.matmul(&a).unwrap();
        let right = a.matmul(&inv).unwrap();
        let id = Matrix::identity(n);
        prop_assert!(left.frobenius_distance(&id) < 1e-6 * n as f64);
        prop_assert!(right.frobenius_distance(&id) < 1e-6 * n as f64);
    }

    #[test]
    fn quadratic_form_of_spd_is_nonnegative((n, vals) in spd_strategy(8), v in prop::collection::vec(-5.0..5.0f64, 8)) {
        let a = spd_from(&vals, n);
        let q = quadratic_form(&a, &v[..n]);
        prop_assert!(q >= -1e-9);
    }

    #[test]
    fn log_det_matches_inverse_relation((n, vals) in spd_strategy(6)) {
        // log det(A) = -log det(A^{ -1 })
        let a = spd_from(&vals, n);
        let c = Cholesky::new(&a).unwrap();
        let inv = c.inverse().unwrap();
        let cinv = Cholesky::new_with_jitter(&inv, 1e-12, 6).unwrap();
        prop_assert!((c.log_det() + cinv.log_det()).abs() < 1e-5 * n as f64);
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let m = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17 + seed as usize) % 13) as f64);
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}
