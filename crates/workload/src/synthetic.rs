//! Controlled synthetic tables and query workloads (paper §8.6, App. A.2,
//! App. E).
//!
//! The measure column is generated as a *smooth* function of the numeric
//! dimensions — Gaussian-kernel-smoothed white noise, which has (up to
//! normalization) a squared-exponential covariance with lengthscale
//! `√2 · w` for smoothing width `w`. That gives experiments a **known
//! ground-truth correlation parameter** (Figure 7 checks Verdict recovers
//! it) and real inter-tuple covariance for Verdict to exploit.

use rand::Rng;
use verdict_storage::{ColumnDef, Predicate, Schema, Table};

/// Value distribution for dimension attributes (§8.6 Figure 6(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform over the domain.
    Uniform,
    /// Gaussian centred mid-domain (clamped).
    Gaussian,
    /// Log-normal (skewed), scaled into the domain (clamped).
    Skewed,
}

/// Specification of a synthetic table.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Number of rows.
    pub rows: usize,
    /// Number of numeric dimension columns (`d0`, `d1`, …), domain
    /// `[0, 10]` as in §8.6.
    pub numeric_dims: usize,
    /// Number of categorical dimension columns (`c0`, …), domain `0..100`.
    pub categorical_dims: usize,
    /// Dimension value distribution.
    pub distribution: Distribution,
    /// Smoothing width of the measure field along each numeric dimension;
    /// the induced squared-exponential lengthscale is `√2 ×` this value.
    pub smoothness: f64,
    /// Additive observation noise on the measure.
    pub noise: f64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            rows: 10_000,
            numeric_dims: 1,
            categorical_dims: 0,
            distribution: Distribution::Uniform,
            smoothness: 1.5,
            noise: 0.1,
        }
    }
}

/// Numeric dimension domain (paper §8.6: "real values between 0 and 10").
pub(crate) const NUMERIC_DOMAIN: (f64, f64) = (0.0, 10.0);
/// Categorical dimension cardinality (§8.6: "integers between 0 and 100").
pub(crate) const CATEGORICAL_CARDINALITY: u32 = 100;

/// A smooth 1-D random field over `[0, 10]`: white noise on a fine grid
/// convolved with a Gaussian kernel of width `w`, normalized to unit
/// variance. `field.at(x)` evaluates it anywhere in the domain.
#[derive(Debug, Clone)]
pub struct SmoothField {
    grid: Vec<f64>,
    lo: f64,
    hi: f64,
}

impl SmoothField {
    /// Samples a field with smoothing width `w` using `rng`.
    pub fn sample<R: Rng>(w: f64, rng: &mut R) -> SmoothField {
        let (lo, hi) = NUMERIC_DOMAIN;
        let n = 512usize;
        let dx = (hi - lo) / (n - 1) as f64;
        let noise: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        // Convolve with a Gaussian kernel of std `w`.
        let radius = ((3.0 * w / dx).ceil() as usize).max(1);
        let weights: Vec<f64> = (0..=radius)
            .map(|k| {
                let d = k as f64 * dx / w;
                (-0.5 * d * d).exp()
            })
            .collect();
        let mut grid = vec![0.0; n];
        for i in 0..n {
            let mut acc = noise[i] * weights[0];
            let mut norm = weights[0];
            for k in 1..=radius {
                if i >= k {
                    acc += noise[i - k] * weights[k];
                    norm += weights[k];
                }
                if i + k < n {
                    acc += noise[i + k] * weights[k];
                    norm += weights[k];
                }
            }
            grid[i] = acc / norm;
        }
        // Normalize to zero mean, unit variance.
        let mean: f64 = grid.iter().sum::<f64>() / n as f64;
        let var: f64 = grid.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n as f64;
        let std = var.sqrt().max(1e-12);
        for g in grid.iter_mut() {
            *g = (*g - mean) / std;
        }
        SmoothField { grid, lo, hi }
    }

    /// Evaluates the field at `x` (linear interpolation, clamped to the
    /// domain).
    pub fn at(&self, x: f64) -> f64 {
        let n = self.grid.len();
        let t = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0) * (n - 1) as f64;
        let i = t.floor() as usize;
        if i + 1 >= n {
            return self.grid[n - 1];
        }
        let frac = t - i as f64;
        self.grid[i] * (1.0 - frac) + self.grid[i + 1] * frac
    }
}

/// Generates a synthetic table per `spec`. Columns: numeric dimensions
/// `d0..`, categorical dimensions `c0..`, and one measure `m` that varies
/// smoothly with every numeric dimension and by a per-category offset.
pub fn generate_table<R: Rng>(spec: &SyntheticSpec, rng: &mut R) -> Table {
    let mut cols: Vec<ColumnDef> = Vec::new();
    for k in 0..spec.numeric_dims {
        cols.push(ColumnDef::numeric_dimension(&format!("d{k}")));
    }
    for k in 0..spec.categorical_dims {
        cols.push(ColumnDef::categorical_dimension(&format!("c{k}")));
    }
    cols.push(ColumnDef::measure("m"));
    let schema = Schema::new(cols).expect("generated schema is valid");
    let mut table = Table::new(schema);

    let fields: Vec<SmoothField> = (0..spec.numeric_dims)
        .map(|_| SmoothField::sample(spec.smoothness, rng))
        .collect();
    let cat_offsets: Vec<Vec<f64>> = (0..spec.categorical_dims)
        .map(|_| {
            (0..CATEGORICAL_CARDINALITY)
                .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
                .collect()
        })
        .collect();

    let (lo, hi) = NUMERIC_DOMAIN;
    for _ in 0..spec.rows {
        let mut row: Vec<verdict_storage::Value> = Vec::with_capacity(table.schema().len());
        let mut measure = 0.0;
        for field in fields.iter() {
            let x = sample_dim(spec.distribution, lo, hi, rng);
            measure += field.at(x);
            row.push(x.into());
        }
        for offsets in cat_offsets.iter() {
            let c = rng.gen_range(0..CATEGORICAL_CARDINALITY);
            measure += offsets[c as usize];
            row.push(c.into());
        }
        measure += spec.noise * (rng.gen::<f64>() * 2.0 - 1.0);
        row.push(measure.into());
        table.push_row(row).expect("generated row fits schema");
    }
    table
}

fn sample_dim<R: Rng>(dist: Distribution, lo: f64, hi: f64, rng: &mut R) -> f64 {
    let span = hi - lo;
    match dist {
        Distribution::Uniform => lo + rng.gen::<f64>() * span,
        Distribution::Gaussian => {
            let z = gaussian(rng);
            (lo + span * 0.5 + z * span / 6.0).clamp(lo, hi)
        }
        Distribution::Skewed => {
            let z = gaussian(rng);
            // Log-normal with σ=0.75, scaled so the bulk fits the domain.
            let v = (0.75 * z).exp() * span / 6.0;
            (lo + v).clamp(lo, hi)
        }
    }
}

/// Box–Muller standard normal sample.
pub(crate) fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Power-law column-access query generator (§8.6, Figure 6(a)):
/// a fixed fraction of columns is "frequently accessed" with equal
/// probability; the access probability of each remaining column halves.
#[derive(Debug, Clone)]
pub struct QueryGen {
    /// Number of numeric dimension columns available (`d0..`).
    pub numeric_dims: usize,
    /// Number of categorical dimension columns available (`c0..`).
    pub categorical_dims: usize,
    /// Fraction of columns that are frequently accessed.
    pub frequent_fraction: f64,
    /// Number of selection predicates per query (the Customer1 trace has
    /// < 5 distinct predicates per query).
    pub predicates_per_query: usize,
}

impl QueryGen {
    /// Draws one conjunctive predicate.
    pub fn generate<R: Rng>(&self, rng: &mut R) -> Predicate {
        let total = self.numeric_dims + self.categorical_dims;
        assert!(total > 0, "need at least one dimension");
        let mut pred = Predicate::True;
        let n_preds = self.predicates_per_query.min(total).max(1);
        let mut used: Vec<usize> = Vec::new();
        while used.len() < n_preds {
            let col = self.pick_column(total, rng);
            if used.contains(&col) {
                continue;
            }
            used.push(col);
            if col < self.numeric_dims {
                let (lo, hi) = NUMERIC_DOMAIN;
                let width = (0.05 + rng.gen::<f64>() * 0.4) * (hi - lo);
                let start = lo + rng.gen::<f64>() * ((hi - lo) - width);
                pred = pred.and(Predicate::between(&format!("d{col}"), start, start + width));
            } else {
                let c = col - self.numeric_dims;
                let k = 1 + rng.gen_range(0..5u32);
                let codes: Vec<u32> = (0..k)
                    .map(|_| rng.gen_range(0..CATEGORICAL_CARDINALITY))
                    .collect();
                pred = pred.and(Predicate::cat_in(&format!("c{c}"), codes));
            }
        }
        pred
    }

    /// Column index under the power-law access model.
    fn pick_column<R: Rng>(&self, total: usize, rng: &mut R) -> usize {
        let frequent = ((total as f64 * self.frequent_fraction).round() as usize).clamp(1, total);
        // Probability mass: frequent columns share weight 1 each; the
        // remaining columns have weight 2^-(rank).
        let tail = total - frequent;
        let tail_mass: f64 = (1..=tail).map(|r| 0.5f64.powi(r as i32)).sum();
        let total_mass = frequent as f64 + tail_mass;
        let mut u = rng.gen::<f64>() * total_mass;
        if u < frequent as f64 {
            return (u.floor() as usize).min(frequent - 1);
        }
        u -= frequent as f64;
        for r in 1..=tail {
            let w = 0.5f64.powi(r as i32);
            if u < w {
                return frequent + r - 1;
            }
            u -= w;
        }
        total - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_table_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = SyntheticSpec {
            rows: 500,
            numeric_dims: 2,
            categorical_dims: 1,
            ..Default::default()
        };
        let t = generate_table(&spec, &mut rng);
        assert_eq!(t.num_rows(), 500);
        assert_eq!(t.schema().len(), 4);
        assert!(t.column("d0").is_ok());
        assert!(t.column("c0").is_ok());
        assert!(t.column("m").is_ok());
    }

    #[test]
    fn smooth_field_is_smooth() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = SmoothField::sample(2.0, &mut rng);
        // Nearby points are close; far points may differ a lot.
        let near = (f.at(5.0) - f.at(5.05)).abs();
        assert!(near < 0.2, "field jumps too much nearby: {near}");
    }

    #[test]
    fn smoother_fields_have_higher_adjacent_correlation() {
        let mut rng = StdRng::seed_from_u64(3);
        let correlate = |w: f64, rng: &mut StdRng| -> f64 {
            let mut acc = 0.0;
            for _ in 0..20 {
                let f = SmoothField::sample(w, rng);
                let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
                let a: Vec<f64> = xs.iter().map(|&x| f.at(x)).collect();
                let b: Vec<f64> = xs.iter().map(|&x| f.at(x + 0.1)).collect();
                let ma = a.iter().sum::<f64>() / a.len() as f64;
                let mb = b.iter().sum::<f64>() / b.len() as f64;
                let cov: f64 = a
                    .iter()
                    .zip(b.iter())
                    .map(|(x, y)| (x - ma) * (y - mb))
                    .sum::<f64>();
                let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum::<f64>();
                let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum::<f64>();
                acc += cov / (va.sqrt() * vb.sqrt()).max(1e-12);
            }
            acc / 20.0
        };
        let rough = correlate(0.05, &mut rng);
        let smooth = correlate(2.0, &mut rng);
        assert!(
            smooth > rough,
            "smooth {smooth} should correlate more than rough {rough}"
        );
    }

    #[test]
    fn distributions_stay_in_domain() {
        let mut rng = StdRng::seed_from_u64(4);
        for dist in [
            Distribution::Uniform,
            Distribution::Gaussian,
            Distribution::Skewed,
        ] {
            for _ in 0..500 {
                let x = sample_dim(dist, 0.0, 10.0, &mut rng);
                assert!((0.0..=10.0).contains(&x), "{dist:?} produced {x}");
            }
        }
    }

    #[test]
    fn skewed_distribution_is_skewed() {
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<f64> = (0..5000)
            .map(|_| sample_dim(Distribution::Skewed, 0.0, 10.0, &mut rng))
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[xs.len() / 2];
        assert!(mean > median, "log-normal mean {mean} <= median {median}");
    }

    #[test]
    fn querygen_produces_valid_predicates() {
        let mut rng = StdRng::seed_from_u64(6);
        let spec = SyntheticSpec {
            rows: 200,
            numeric_dims: 3,
            categorical_dims: 2,
            ..Default::default()
        };
        let t = generate_table(&spec, &mut rng);
        let qg = QueryGen {
            numeric_dims: 3,
            categorical_dims: 2,
            frequent_fraction: 0.4,
            predicates_per_query: 2,
        };
        for _ in 0..50 {
            let p = qg.generate(&mut rng);
            // Must evaluate without error against the generated table.
            let rows = p.selected_rows(&t).unwrap();
            assert!(rows.len() <= t.num_rows());
        }
    }

    #[test]
    fn frequent_columns_accessed_more() {
        let mut rng = StdRng::seed_from_u64(7);
        let qg = QueryGen {
            numeric_dims: 10,
            categorical_dims: 0,
            frequent_fraction: 0.2,
            predicates_per_query: 1,
        };
        let mut counts = vec![0usize; 10];
        for _ in 0..3000 {
            let p = qg.generate(&mut rng);
            let nf = p.normal_form().unwrap();
            for col in nf.keys() {
                let idx: usize = col[1..].parse().unwrap();
                counts[idx] += 1;
            }
        }
        // Columns 0-1 are frequent; column 9 is deep in the power-law tail.
        assert!(counts[0] > counts[5], "{counts:?}");
        assert!(counts[1] > counts[9], "{counts:?}");
    }
}
