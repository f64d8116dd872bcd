//! Order statistics (percentiles) with linear interpolation.
//!
//! Used when summarizing error distributions, e.g. the 5th/50th/95th
//! percentiles of actual error in Figure 5 and Figure 9 of the paper.

/// Returns the `p`-th percentile (`p ∈ [0, 100]`) of `xs` using linear
/// interpolation between closest ranks (the "exclusive" R-7 definition used
/// by most plotting tools).
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile p out of range: {p}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_of_sorted(&sorted, p)
}

/// Same as [`percentile`] but assumes `xs` is already sorted ascending,
/// avoiding the copy and sort.
pub(crate) fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile p out of range: {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Convenience: (5th, 50th, 95th) percentiles in one sort.
pub fn error_band(xs: &[f64]) -> (f64, f64, f64) {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in error_band input"));
    (
        percentile_of_sorted(&sorted, 5.0),
        percentile_of_sorted(&sorted, 50.0),
        percentile_of_sorted(&sorted, 95.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_series() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_of_even_series_interpolates() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
    }

    #[test]
    fn endpoints_are_min_max() {
        let xs = [9.0, -3.0, 4.5];
        assert_eq!(percentile(&xs, 0.0), -3.0);
        assert_eq!(percentile(&xs, 100.0), 9.0);
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[42.0], 73.0), 42.0);
    }

    #[test]
    fn interpolation_quarter() {
        // sorted [0, 10]; p25 → rank 0.25 → 2.5
        assert_eq!(percentile(&[10.0, 0.0], 25.0), 2.5);
    }

    #[test]
    fn error_band_is_ordered() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (p5, p50, p95) = error_band(&xs);
        assert!(p5 < p50 && p50 < p95);
        assert!((p50 - 49.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_p_panics() {
        percentile(&[1.0], 101.0);
    }
}
