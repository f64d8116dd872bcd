//! Descriptive statistics: batch helpers and streaming Welford accumulator.
//!
//! The AQP engine (crate `verdict-aqp`) estimates per-batch means and
//! variances with [`Welford`] so that error bounds follow the central limit
//! theorem exactly as NoLearn does in the paper (§8.1). The batch helpers
//! back parameter estimation (Appendix F.3 uses the variance of past snippet
//! answers for `σ²_g`).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (divides by `n - 1`); `0.0` when `n < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
}

/// Unbiased sample covariance between two equal-length series.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance: length mismatch");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys.iter())
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / (n - 1) as f64
}

/// Pearson correlation coefficient; `0.0` when either side is constant.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let c = covariance(xs, ys);
    let vx = variance(xs);
    let vy = variance(ys);
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    c / (vx.sqrt() * vy.sqrt())
}

/// Mean and CLT standard error of an indicator (0/1) stream from its
/// sufficient statistics: `n` observations of which `m` were ones.
///
/// For a 0/1 stream the Welford state collapses algebraically: the mean is
/// `p = m/n` and the sum of squared deviations is `n·p·(1−p)`, so the
/// standard error of the mean is `√(p(1−p)/(n−1))`. Maintaining the two
/// counters instead of pushing a 0/1 into a [`Welford`] per row is what
/// lets the shared-scan executor update a FREQ cell only when its group
/// matches (O(1) per row) instead of pushing zeros into every group's
/// accumulator (O(groups) per row).
///
/// Conventions match [`Welford`]: `(0.0, ∞)` before any observation and
/// infinite error at `n = 1`.
pub fn indicator_mean_se(n: u64, m: u64) -> (f64, f64) {
    debug_assert!(m <= n, "indicator matches {m} exceed observations {n}");
    if n == 0 {
        return (0.0, f64::INFINITY);
    }
    let p = m as f64 / n as f64;
    if n == 1 {
        return (p, f64::INFINITY);
    }
    let se = (p * (1.0 - p) / (n - 1) as f64).sqrt();
    (p, se)
}

/// Numerically stable streaming mean/variance accumulator (Welford 1962).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator (parallel-reduction friendly; Chan et al.).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` before any observation.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `0.0` when fewer than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard error of the running mean, `s / √n` — the CLT error
    /// estimate used for AQP raw errors.
    pub fn standard_error(&self) -> f64 {
        if self.count < 2 {
            return f64::INFINITY;
        }
        (self.sample_variance() / self.count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_of_known_values() {
        // var([2,4,4,4,5,5,7,9]) sample = 32/7
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn covariance_of_linear_series() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        // cov = 2 * var(xs)
        assert!((covariance(&xs, &ys) - 2.0 * variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn correlation_is_sign_and_unit() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x| -3.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &[7.0; 5]), 0.0);
    }

    #[test]
    fn welford_matches_batch() {
        let xs = [3.1, -2.0, 5.5, 0.0, 9.9, -7.3];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.sample_variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_merge_matches_single_pass() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs {
            a.push(x);
        }
        for &y in &ys {
            b.push(y);
        }
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        assert!((a.mean() - mean(&all)).abs() < 1e-12);
        assert!((a.sample_variance() - variance(&all)).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&Welford::new());
        assert_eq!(a.mean(), before.mean());

        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty.mean(), before.mean());
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn indicator_counts_match_welford_stream() {
        // Same answer as pushing the 0/1 stream into a Welford, up to
        // floating-point noise, across a spread of (n, m) shapes.
        for (n, m) in [(2u64, 1u64), (10, 0), (10, 10), (97, 13), (1000, 500)] {
            let mut w = Welford::new();
            for i in 0..n {
                w.push(if i < m { 1.0 } else { 0.0 });
            }
            let (mean, se) = indicator_mean_se(n, m);
            assert!((mean - w.mean()).abs() < 1e-12, "mean n={n} m={m}");
            assert!(
                (se - w.standard_error()).abs() < 1e-12,
                "se n={n} m={m}: {se} vs {}",
                w.standard_error()
            );
        }
    }

    #[test]
    fn indicator_edge_conventions() {
        assert_eq!(indicator_mean_se(0, 0), (0.0, f64::INFINITY));
        let (mean, se) = indicator_mean_se(1, 1);
        assert_eq!(mean, 1.0);
        assert!(se.is_infinite());
    }

    #[test]
    fn standard_error_shrinks_with_n() {
        let mut w = Welford::new();
        assert_eq!(w.standard_error(), f64::INFINITY);
        for i in 0..100 {
            w.push((i % 10) as f64);
        }
        let se100 = w.standard_error();
        for i in 0..900 {
            w.push((i % 10) as f64);
        }
        assert!(w.standard_error() < se100);
    }
}
