//! The all-pairs covariance assembly: every element of a matrix or a
//! `k̄` column is one [`snippet_covariance`] call, every dimension of
//! every pair of regions integrated afresh. It was
//! `verdict_core::covariance`'s only assembly until the per-dimension
//! tables of `RegionIndex` replaced it; it stays here as the oracle those
//! are held to, bit for bit (`crates/core/tests/properties.rs`, and the
//! whole-engine twin of the root crate's `tests/parity.rs`).
#![allow(dead_code)] // each suite uses its own part

use verdict_core::covariance::{dim_factor, snippet_covariance, AggMode};
use verdict_core::{KernelParams, Region, SchemaInfo};
use verdict_linalg::Matrix;

/// `K[i][j] = cov(θ̄_i, θ̄_j)`, pair by pair.
pub fn covariance_matrix(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    regions: &[&Region],
) -> Matrix {
    let n = regions.len();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = snippet_covariance(schema, params, mode, regions[i], regions[j]);
            k.set(i, j, v);
            k.set(j, i, v);
        }
    }
    k
}

/// `Σ_n = K + diag(β²)` (Eq. 6), pair by pair.
pub fn raw_covariance_matrix(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    regions: &[&Region],
    errors: &[f64],
) -> Matrix {
    let mut sigma = covariance_matrix(schema, params, mode, regions);
    for (i, &beta) in errors.iter().enumerate() {
        let b2 = if beta.is_finite() { beta * beta } else { 0.0 };
        sigma.set(i, i, sigma.get(i, i) + b2);
    }
    sigma
}

/// `k̄` between `new` and each past region, pair by pair.
pub fn cross_covariance(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    past: &[&Region],
    new: &Region,
) -> Vec<f64> {
    past.iter()
        .map(|r| snippet_covariance(schema, params, mode, r, new))
        .collect()
}

/// [`snippet_covariance`] written out so each factor evaluation can be
/// seen: calls `met(k)` before dimension `k`'s factor is evaluated,
/// exactly as often as the pair primitive evaluates one.
pub fn snippet_covariance_traced(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    a: &Region,
    b: &Region,
    mut met: impl FnMut(usize),
) -> f64 {
    let mut cov = params.sigma2;
    for (k, dim) in schema.dims().iter().enumerate() {
        if cov == 0.0 {
            return 0.0;
        }
        met(k);
        cov *= dim_factor(
            &dim.kind,
            mode,
            params.lengthscales[k],
            &a.constraints()[k],
            &b.constraints()[k],
        );
    }
    cov
}
