//! Analytic inter-tuple covariance kernels (paper §4.2, Appendix F).
//!
//! The inter-tuple covariance between attribute vectors `t, t'` is the
//! squared-exponential product kernel
//!
//! ```text
//! ρ_g(t, t') = σ²_g · Π_cat δ(a_k, a'_k) · Π_num exp(-(a_k - a'_k)² / ℓ²_k)
//! ```
//!
//! and the covariance between two snippet answers integrates `ρ_g` over the
//! two predicate regions (Eq. 8). Because the kernel factorizes per
//! dimension, so does the integral (Eq. 10); this module provides the
//! per-dimension factors:
//!
//! - [`double_integral_exp`]: the closed-form double integral of Appendix
//!   F.1 (numeric dimensions, `FREQ` semantics — unnormalized);
//! - `avg_numeric_factor`: the same integral normalized by both interval
//!   widths (`AVG` semantics: a snippet answer is the *mean* of the field
//!   over its region), with exact point-evaluation limits for zero-width
//!   (equality) intervals;
//! - categorical factors live on [`crate::Region`] (`set_overlap`); the
//!   `AVG` normalization divides by both set sizes (Appendix F.2 / Eq. 16).

use verdict_stats::erf;

/// Learned kernel parameters for one aggregate function `g`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelParams {
    /// One correlation lengthscale `ℓ_{g,k}` per schema dimension; entries
    /// for categorical dimensions are present but unused (the categorical
    /// kernel is the Kronecker delta).
    pub lengthscales: Vec<f64>,
    /// Signal variance `σ²_g`.
    pub sigma2: f64,
}

impl KernelParams {
    /// Parameters with every lengthscale set to `l` (tests, defaults).
    pub fn constant(dims: usize, l: f64, sigma2: f64) -> Self {
        KernelParams {
            lengthscales: vec![l; dims],
            sigma2,
        }
    }
}

/// Antiderivative `F(x, y)` of Appendix F.1 such that
/// `∫∫ exp(-(x-y)²/ℓ²) = F(b,d) - F(b,c) - F(a,d) + F(a,c)`.
#[inline]
fn antiderivative(x: f64, y: f64, l: f64) -> f64 {
    let u = x - y;
    let r = u / l;
    -0.5 * l * l * (-r * r).exp() - (std::f64::consts::PI.sqrt() / 2.0) * l * u * erf(r)
}

/// Closed-form `∫_a^b ∫_c^d exp(-(x-y)²/ℓ²) dy dx` (Appendix F.1).
pub fn double_integral_exp(a: f64, b: f64, c: f64, d: f64, l: f64) -> f64 {
    debug_assert!(l > 0.0, "lengthscale must be positive");
    let v = antiderivative(b, d, l) - antiderivative(b, c, l) - antiderivative(a, d, l)
        + antiderivative(a, c, l);
    // The integrand is positive, so the integral is non-negative; clamp
    // away the cancellation dust.
    v.max(0.0)
}

/// Closed-form `∫_c^d exp(-(s-y)²/ℓ²) dy`.
pub(crate) fn single_integral_exp(s: f64, c: f64, d: f64, l: f64) -> f64 {
    debug_assert!(l > 0.0);
    (std::f64::consts::PI.sqrt() / 2.0) * l * (erf((d - s) / l) - erf((c - s) / l))
}

/// Width below which an interval is treated as a point (relative to ℓ).
const POINT_EPS: f64 = 1e-9;

/// Numeric-dimension covariance factor under `AVG` semantics: the double
/// integral divided by both interval widths, i.e. the covariance between
/// the *means* of the latent field over `[a, b]` and `[c, d]`.
///
/// Degenerate (near-zero-width) intervals take their exact limits:
/// a point against an interval becomes a single integral over the interval
/// divided by its width, and two points become the plain kernel value.
/// The factor is always in `[0, 1]`.
pub(crate) fn avg_numeric_factor(a: f64, b: f64, c: f64, d: f64, l: f64) -> f64 {
    debug_assert!(l > 0.0);
    let w1 = b - a;
    let w2 = d - c;
    let p1 = w1.abs() < POINT_EPS * l;
    let p2 = w2.abs() < POINT_EPS * l;
    let v = match (p1, p2) {
        (true, true) => {
            let r = (a - c) / l;
            (-r * r).exp()
        }
        (true, false) => single_integral_exp(a, c, d, l) / w2,
        (false, true) => single_integral_exp(c, a, b, l) / w1,
        (false, false) => double_integral_exp(a, b, c, d, l) / (w1 * w2),
    };
    v.clamp(0.0, 1.0)
}

/// Numeric-dimension covariance factor under `FREQ` semantics: the raw
/// (unnormalized) double integral of Eq. (10). Zero-width intervals have
/// measure zero and contribute a zero factor.
pub(crate) fn freq_numeric_factor(a: f64, b: f64, c: f64, d: f64, l: f64) -> f64 {
    // The four antiderivatives of a zero-width interval cancel only up to
    // rounding, so the zero is returned rather than computed.
    if a == b || c == d {
        return 0.0;
    }
    double_integral_exp(a, b, c, d, l)
}

/// Slow trapezoidal reference for the double integral, used to validate
/// the closed form (tests and the quadrature-vs-analytic ablation bench).
pub fn double_integral_quadrature(a: f64, b: f64, c: f64, d: f64, l: f64, steps: usize) -> f64 {
    if b <= a || d <= c {
        return 0.0;
    }
    let hx = (b - a) / steps as f64;
    let hy = (d - c) / steps as f64;
    let mut acc = 0.0;
    for i in 0..steps {
        let x = a + (i as f64 + 0.5) * hx;
        for j in 0..steps {
            let y = c + (j as f64 + 0.5) * hy;
            let r = (x - y) / l;
            acc += (-r * r).exp();
        }
    }
    acc * hx * hy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_quadrature() {
        let cases = [
            (0.0, 1.0, 0.0, 1.0, 0.5),
            (0.0, 1.0, 2.0, 3.0, 0.5),
            (0.0, 10.0, 5.0, 6.0, 2.0),
            (-3.0, -1.0, -2.0, 4.0, 1.3),
            (0.0, 0.1, 0.0, 0.1, 5.0),
        ];
        for (a, b, c, d, l) in cases {
            let exact = double_integral_exp(a, b, c, d, l);
            let approx = double_integral_quadrature(a, b, c, d, l, 400);
            assert!(
                (exact - approx).abs() < 1e-3 * (1.0 + exact),
                "({a},{b})x({c},{d}) l={l}: closed {exact} vs quad {approx}"
            );
        }
    }

    #[test]
    fn integral_is_symmetric_in_regions() {
        let x = double_integral_exp(0.0, 2.0, 3.0, 5.0, 1.0);
        let y = double_integral_exp(3.0, 5.0, 0.0, 2.0, 1.0);
        assert!((x - y).abs() < 1e-10);
    }

    #[test]
    fn integral_nonnegative_and_decaying() {
        // Far-apart intervals correlate less than overlapping ones.
        let near = double_integral_exp(0.0, 1.0, 0.0, 1.0, 1.0);
        let far = double_integral_exp(0.0, 1.0, 10.0, 11.0, 1.0);
        assert!(near > far);
        assert!(far >= 0.0);
    }

    #[test]
    fn single_integral_matches_quadrature() {
        let s = 0.7;
        let (c, d, l) = (-1.0, 2.0, 0.8);
        let exact = single_integral_exp(s, c, d, l);
        let steps = 10_000;
        let h = (d - c) / steps as f64;
        let approx: f64 = (0..steps)
            .map(|j| {
                let y = c + (j as f64 + 0.5) * h;
                let r = (s - y) / l;
                (-r * r).exp() * h
            })
            .sum();
        assert!((exact - approx).abs() < 1e-6);
    }

    #[test]
    fn avg_factor_identical_region_near_one_for_large_lengthscale() {
        // When ℓ dwarfs the interval, the mean field is ~constant, so the
        // normalized self-covariance approaches 1.
        let f = avg_numeric_factor(0.0, 1.0, 0.0, 1.0, 100.0);
        assert!(f > 0.9999, "{f}");
    }

    #[test]
    fn avg_factor_bounded() {
        for l in [0.1, 1.0, 10.0] {
            for (a, b, c, d) in [
                (0.0, 1.0, 0.5, 2.0),
                (0.0, 5.0, 0.0, 5.0),
                (1.0, 1.0, 0.0, 4.0),
            ] {
                let f = avg_numeric_factor(a, b, c, d, l);
                assert!((0.0..=1.0).contains(&f), "factor {f}");
            }
        }
    }

    #[test]
    fn avg_factor_point_limits() {
        // Two points: plain kernel.
        let f = avg_numeric_factor(1.0, 1.0, 2.0, 2.0, 1.0);
        assert!((f - (-1.0_f64).exp()).abs() < 1e-9);
        // Point vs interval equals the limit of shrinking intervals.
        let limit = avg_numeric_factor(1.0, 1.0 + 1e-6, 0.0, 3.0, 1.0);
        let point = avg_numeric_factor(1.0, 1.0, 0.0, 3.0, 1.0);
        assert!((limit - point).abs() < 1e-4);
    }

    #[test]
    fn avg_factor_continuity_across_width_threshold() {
        // Normalized double integral should approach the single-integral
        // limit as one width shrinks.
        let wide = avg_numeric_factor(0.0, 0.001, 0.0, 2.0, 1.0);
        let point = avg_numeric_factor(0.0, 0.0, 0.0, 2.0, 1.0);
        assert!((wide - point).abs() < 1e-3, "{wide} vs {point}");
    }

    #[test]
    fn freq_factor_zero_for_measure_zero_region() {
        assert_eq!(freq_numeric_factor(1.0, 1.0, 0.0, 5.0, 1.0), 0.0);
    }

    #[test]
    fn freq_factor_scales_with_area_for_large_lengthscale() {
        // With ℓ → ∞ the integrand → 1 and the integral → area product.
        let f = freq_numeric_factor(0.0, 2.0, 0.0, 3.0, 1e6);
        assert!((f - 6.0).abs() < 1e-6, "{f}");
    }

    #[test]
    fn kernel_params_constant() {
        let p = KernelParams::constant(3, 2.0, 1.5);
        assert_eq!(p.lengthscales, vec![2.0, 2.0, 2.0]);
        assert_eq!(p.sigma2, 1.5);
    }
}
