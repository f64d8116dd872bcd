//! Standard normal distribution: pdf, cdf, quantile, confidence multipliers.

use crate::erf::{erf, erfc};

const SQRT_2: f64 = std::f64::consts::SQRT_2;
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Standard normal probability density `φ(x)`.
pub fn normal_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Standard normal cumulative distribution `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    if x < 0.0 {
        0.5 * erfc(-x / SQRT_2)
    } else {
        0.5 * (1.0 + erf(x / SQRT_2))
    }
}

/// Standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation (~1.15e-9 relative accuracy) refined with
/// one Halley step against [`normal_cdf`]. For `p ≤ 1/2` the result is within
/// ~1e-15 relative, down to the smallest `p`, because the cdf's lower tail
/// keeps its relative accuracy through [`erfc`]; for `p > 1/2` it is as
/// accurate as `1 − p` is represented. Returns `±INF` at the endpoints and
/// `NaN` outside `[0, 1]`.
pub fn normal_quantile(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Confidence-interval multiplier `α_δ` (paper §3.4): the non-negative
/// number such that a standard normal falls in `(-α_δ, α_δ)` with
/// probability `delta`.
///
/// `confidence_multiplier(0.95) ≈ 1.959964`.
pub fn confidence_multiplier(delta: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&delta),
        "confidence level must be in [0, 1), got {delta}"
    );
    normal_quantile(0.5 + delta / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_peak_at_zero() {
        assert!((normal_pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
        assert!(normal_pdf(1.0) < normal_pdf(0.0));
        assert!((normal_pdf(2.0) - normal_pdf(-2.0)).abs() < 1e-18);
    }

    #[test]
    fn cdf_reference_values() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841344746068543),
            (-1.0, 0.158655253931457),
            (1.959963984540054, 0.975),
            (2.575829303548901, 0.995),
        ];
        for (x, want) in cases {
            assert!(
                (normal_cdf(x) - want).abs() < 1e-9,
                "cdf({x}) = {}, want {want}",
                normal_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!(
                (normal_cdf(x) - p).abs() < 1e-10,
                "round-trip failed at p = {p}"
            );
        }
    }

    #[test]
    fn cdf_keeps_relative_accuracy_in_the_lower_tail() {
        // Φ(x), rounded to the nearest double.
        let cases = [
            (-4.0, 3.1671241833119924e-5),
            (-8.0, 6.220960574271784e-16),
            (-20.0, 2.7536241186062337e-89),
            (-37.0, 5.725571222524577e-300),
        ];
        for (x, want) in cases {
            // Rounding `x/√2` alone moves Φ(x) by up to x²·2⁻⁵³ relative.
            let got = normal_cdf(x);
            let tolerance = 4e-16 * x * x;
            assert!(
                ((got - want) / want).abs() < tolerance,
                "cdf({x}) = {got:e}"
            );
        }
    }

    #[test]
    fn quantile_is_accurate_far_into_the_lower_tail() {
        // Φ⁻¹(p), rounded to the nearest double.
        let cases = [
            (1e-12, -7.034483825301132),
            (1e-9, -5.9978070150076865),
            (1e-6, -4.753424308822899),
            (1e-4, -3.7190164854556804),
        ];
        for (p, want) in cases {
            let x = normal_quantile(p);
            assert!(((x - want) / want).abs() < 1e-14, "quantile({p}) = {x}");
            let back = normal_cdf(x);
            assert!(
                ((back - p) / p).abs() < 1e-13,
                "cdf(quantile({p})) = {back:e}"
            );
        }
    }

    #[test]
    fn quantile_endpoints() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(-0.1).is_nan());
        assert!(normal_quantile(1.1).is_nan());
    }

    #[test]
    fn quantile_symmetry() {
        for p in [0.05, 0.2, 0.4] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-10);
        }
    }

    #[test]
    fn confidence_multiplier_known_values() {
        assert!((confidence_multiplier(0.95) - 1.959963984540054).abs() < 1e-9);
        assert!((confidence_multiplier(0.99) - 2.575829303548901).abs() < 1e-9);
        assert!((confidence_multiplier(0.6826894921370859) - 1.0).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn confidence_multiplier_rejects_invalid() {
        confidence_multiplier(1.0);
    }
}
