//! Error function `erf` and complement `erfc`.
//!
//! Verdict's analytic kernel integration (paper Appendix F.1) evaluates
//!
//! ```text
//! f(x, y) = -z²/2 · exp(-(x-y)²/z²) - √π/2 · z (x-y) erf((x-y)/z)
//! ```
//!
//! so `erf` is on the covariance-assembly hot path. For `|x| ≤ 2.5` we sum
//! the Maclaurin series (converges to machine precision in ≤ 40 terms); for
//! larger `|x|` we use the Numerical-Recipes rational approximation of
//! `erfc`, whose ~1e-7 *relative* error on an already tiny `erfc` keeps the
//! absolute error of `erf` far below 1e-12.

const TWO_OVER_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{-t²} dt`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let ax = x.abs();
    let v = if ax <= 2.5 {
        erf_series(ax)
    } else {
        1.0 - erfc_rational(ax)
    };
    if x < 0.0 {
        -v
    } else {
        v
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// For large positive `x` this avoids the catastrophic cancellation of
/// computing `1 - erf(x)` directly.
pub fn erfc(x: f64) -> f64 {
    if x >= 2.5 {
        erfc_rational(x)
    } else if x <= -2.5 {
        2.0 - erfc_rational(-x)
    } else {
        1.0 - erf(x)
    }
}

/// Maclaurin series: `erf(x) = 2/√π Σ (-1)ⁿ x^{2n+1} / (n! (2n+1))`.
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x; // n = 0 term before the 2/√π factor
    let mut sum = x;
    for n in 1..80u32 {
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        sum += contrib;
        if contrib.abs() < 1e-17 * sum.abs().max(1e-300) {
            break;
        }
    }
    TWO_OVER_SQRT_PI * sum
}

/// Numerical-Recipes `erfcc`: fractional error < 1.2e-7 for all `x > 0`.
/// A NaN `x` propagates to the result.
fn erfc_rational(x: f64) -> f64 {
    debug_assert!(x > 0.0 || x.is_nan(), "erfc_rational({x})");
    let t = 1.0 / (1.0 + 0.5 * x);
    let poly = -x * x - 1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))));
    t * poly.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values (15 significant digits, standard tables).
    const TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018285),
        (0.5, 0.520499877813047),
        (1.0, 0.842700792949715),
        (1.5, 0.966105146475311),
        (2.0, 0.995322265018953),
        (2.5, 0.999593047982555),
        (3.0, 0.999977909503001),
        (4.0, 0.999999984582742),
    ];

    #[test]
    fn matches_reference_table() {
        for &(x, want) in TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-10, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.3, 0.9, 1.7, 2.5, 3.5] {
            assert!((erf(-x) + erf(x)).abs() < 1e-15);
        }
    }

    #[test]
    fn erf_saturates_in_tails() {
        assert!((erf(10.0) - 1.0).abs() < 1e-15);
        assert!((erf(-10.0) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn erfc_complements() {
        for x in [-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_tail_is_accurate_relatively() {
        // erfc(3) = 2.20904969985854e-5
        let got = erfc(3.0);
        let want = 2.20904969985854e-5;
        assert!(((got - want) / want).abs() < 1e-6, "erfc(3) = {got}");
    }

    #[test]
    fn erf_monotone_on_grid() {
        let mut prev = erf(-5.0);
        let mut x = -5.0;
        while x < 5.0 {
            x += 0.05;
            let cur = erf(x);
            assert!(cur >= prev - 1e-12, "erf not monotone at {x}");
            prev = cur;
        }
    }

    #[test]
    fn erf_bounded_by_one() {
        let mut x = -8.0;
        while x < 8.0 {
            assert!(erf(x).abs() <= 1.0 + 1e-12);
            x += 0.1;
        }
    }

    #[test]
    fn nan_propagates_and_infinities_saturate() {
        use crate::normal::normal_cdf;
        for f in [erf, erfc, normal_cdf] {
            assert!(f(f64::NAN).is_nan());
            assert!(f(-f64::NAN).is_nan());
        }
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(normal_cdf(f64::INFINITY), 1.0);
        assert_eq!(normal_cdf(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn series_and_rational_agree_at_crossover() {
        let a = erf_series(2.5);
        let b = 1.0 - erfc_rational(2.5);
        assert!((a - b).abs() < 1e-9);
    }
}
