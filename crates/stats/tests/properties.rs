//! Property-based tests for statistical primitives.

use proptest::prelude::*;
use verdict_stats::describe::correlation;
use verdict_stats::{erf, erfc, mean, normal_cdf, normal_quantile, percentile, variance, Welford};

proptest! {
    #[test]
    fn erf_odd_symmetry(x in -6.0..6.0f64) {
        prop_assert_eq!(erf(-x).to_bits(), (-erf(x)).to_bits());
    }

    #[test]
    fn erf_erfc_sum_to_one(x in -6.0..6.0f64) {
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn cdf_in_unit_interval(x in -20.0..20.0f64) {
        let c = normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn cdf_monotone(a in -8.0..8.0f64, b in -8.0..8.0f64) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-14);
    }

    #[test]
    fn quantile_roundtrip(p in 0.0001..0.9999f64) {
        let x = normal_quantile(p);
        prop_assert!((normal_cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn welford_equals_batch(xs in prop::collection::vec(-1e4..1e4f64, 0..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!((w.mean() - mean(&xs)).abs() < 1e-6);
        prop_assert!((w.sample_variance() - variance(&xs)).abs() < 1e-4 * (1.0 + variance(&xs)));
    }

    #[test]
    fn variance_nonnegative(xs in prop::collection::vec(-1e6..1e6f64, 0..100)) {
        prop_assert!(variance(&xs) >= 0.0);
    }

    #[test]
    fn variance_shift_invariant(xs in prop::collection::vec(-100.0..100.0f64, 2..50), shift in -1e3..1e3f64) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((variance(&xs) - variance(&shifted)).abs() < 1e-6 * (1.0 + variance(&xs)));
    }

    #[test]
    fn correlation_bounded(
        xs in prop::collection::vec(-100.0..100.0f64, 2..50),
        ys in prop::collection::vec(-100.0..100.0f64, 2..50),
    ) {
        let n = xs.len().min(ys.len());
        let r = correlation(&xs[..n], &ys[..n]);
        prop_assert!(r.abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn percentile_within_min_max(xs in prop::collection::vec(-1e3..1e3f64, 1..100), p in 0.0..100.0f64) {
        let v = percentile(&xs, p);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn percentile_monotone_in_p(xs in prop::collection::vec(-1e3..1e3f64, 1..60), p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-12);
    }
}
