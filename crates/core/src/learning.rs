//! Offline parameter learning (paper Appendix A, F.3).
//!
//! For each aggregate function `g`, Verdict learns:
//!
//! - the prior mean of snippet answers (`µ`): analytically — the mean of
//!   past answers for `AVG`, a density (answers divided by region volume)
//!   for `FREQ` (Appendix F.3);
//! - the signal variance `σ²_g`: analytically — the variance of past
//!   answers (`AVG`) or of past densities (`FREQ`) (Appendix F.3);
//! - the correlation lengthscales `ℓ_{g,k}`: by maximizing the Gaussian
//!   log marginal likelihood of the observed raw answers (Eq. 13) with a
//!   derivative-free optimizer in log-lengthscale space, multi-started
//!   from the dimension's domain width (Appendix A.1).
//!
//! Only training ([`crate::Verdict::train`]) and a key's first fit search
//! for lengthscales. An ingest's Lemma-3 widening (Appendix D) rewrites
//! stored answers and errors, not the correlation between regions, so its
//! refit keeps the key's lengthscales and recomputes just `µ` and `σ²`
//! with [`estimate_prior_mean`] and [`estimate_sigma2`] — an `O(n)` step
//! in place of a search.
//!
//! ## Cost
//!
//! One likelihood is one `Σₙ` and one Cholesky factor of it over the
//! `n ≤ max_training_snippets` most recent snippets, and a search runs a
//! few hundred of them ([`LearnedParams::evaluations`]). [`learn_params`]
//! indexes the training regions once
//! ([`RegionIndex`]) and keeps one set of
//! per-dimension factor tables for the whole search, so assembling `Σₙ`
//! costs `O(Σ_k d_k²)` kernel integrals over the `d_k` *distinct*
//! constraints of each numeric dimension — the categorical factors are
//! integrated once per search, not once per likelihood — plus
//! `O(n²·dims)` multiplies; with the constraints a workload repeats, the
//! `O(n³)` factorization is what is left of a likelihood.

use verdict_linalg::Cholesky;
use verdict_stats::{mean, variance};

use crate::covariance::{AggMode, PairFactors, RegionIndex};
use crate::kernel::KernelParams;
use crate::optimizer::nelder_mead;
use crate::region::{DimKind, Region, SchemaInfo};
use crate::VerdictConfig;

/// Prior mean model for snippet answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriorMean {
    /// Every snippet shares a constant prior mean (`AVG`).
    Constant(f64),
    /// Snippet prior mean is `density × |F_i|` (`FREQ`).
    Density(f64),
}

impl PriorMean {
    /// The prior mean of the snippet with region `region`.
    pub fn of(&self, schema: &SchemaInfo, region: &Region) -> f64 {
        match self {
            PriorMean::Constant(mu) => *mu,
            PriorMean::Density(rho) => rho * region.volume(schema),
        }
    }
}

/// Analytic prior-mean estimate (Appendix F.3).
pub fn estimate_prior_mean(
    mode: AggMode,
    schema: &SchemaInfo,
    regions: &[&Region],
    answers: &[f64],
) -> PriorMean {
    match mode {
        AggMode::Avg => PriorMean::Constant(mean(answers)),
        AggMode::Freq => {
            let total_mass: f64 = answers.iter().sum();
            let total_volume: f64 = regions.iter().map(|r| r.volume(schema)).sum();
            if total_volume <= 0.0 {
                PriorMean::Density(0.0)
            } else {
                PriorMean::Density(total_mass / total_volume)
            }
        }
    }
}

/// Analytic `σ²_g` estimate (Appendix F.3).
///
/// A strictly positive floor keeps degenerate synopses (e.g. identical
/// answers) from collapsing the kernel to zero.
pub fn estimate_sigma2(
    mode: AggMode,
    schema: &SchemaInfo,
    regions: &[&Region],
    answers: &[f64],
) -> f64 {
    let v = match mode {
        AggMode::Avg => variance(answers),
        AggMode::Freq => {
            let densities: Vec<f64> = regions
                .iter()
                .zip(answers.iter())
                .map(|(r, &a)| {
                    let vol = r.volume(schema);
                    if vol > 0.0 {
                        a / vol
                    } else {
                        0.0
                    }
                })
                .collect();
            variance(&densities)
        }
    };
    let scale = answers.iter().fold(0.0_f64, |m, a| m.max(a.abs()));
    v.max((scale * 1e-6).powi(2)).max(1e-300)
}

/// Log marginal likelihood of the observed raw answers under the model
/// (Eq. 13): `-½ cᵀ Σₙ⁻¹ c - ½ log|Σₙ| - (n/2) log 2π` with
/// `c = θ - µ` and `Σₙ = K(ℓ, σ²) + diag(β²)`.
///
/// Returns `-inf` when the covariance matrix cannot be factorized.
#[allow(clippy::too_many_arguments)]
pub fn log_marginal_likelihood(
    schema: &SchemaInfo,
    mode: AggMode,
    regions: &[&Region],
    answers: &[f64],
    errors: &[f64],
    params: &KernelParams,
    prior: &PriorMean,
    jitter: f64,
) -> f64 {
    debug_assert_eq!(answers.len(), regions.len());
    let index = RegionIndex::new(regions.iter().copied());
    let centered = centered_answers(schema, regions, answers, prior);
    likelihood(
        &mut index.pairs(schema, mode),
        &centered,
        errors,
        params,
        jitter,
    )
}

/// `c = θ − µ`.
fn centered_answers(
    schema: &SchemaInfo,
    regions: &[&Region],
    answers: &[f64],
    prior: &PriorMean,
) -> Vec<f64> {
    regions
        .iter()
        .zip(answers.iter())
        .map(|(r, &a)| a - prior.of(schema, r))
        .collect()
}

/// Eq. 13 over the regions `pairs` indexes. A search passes the same
/// `pairs` to every evaluation, so only the factors whose lengthscale
/// moved are integrated again.
fn likelihood(
    pairs: &mut PairFactors<'_>,
    centered: &[f64],
    errors: &[f64],
    params: &KernelParams,
    jitter: f64,
) -> f64 {
    let n = centered.len();
    debug_assert_eq!(errors.len(), n);
    if n == 0 {
        return 0.0;
    }
    let mut sigma = pairs.raw_covariance_matrix(params, errors);
    let scale = sigma.max_abs().max(1.0);
    sigma.add_diagonal(jitter * scale);
    let Ok(chol) = Cholesky::new_with_jitter(&sigma, 1e-12, 6) else {
        return f64::NEG_INFINITY;
    };
    let Ok(alpha) = chol.solve(centered) else {
        return f64::NEG_INFINITY;
    };
    let quad: f64 = centered.iter().zip(alpha.iter()).map(|(c, a)| c * a).sum();
    -0.5 * quad - 0.5 * chol.log_det() - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
}

/// Learned parameters plus diagnostics.
#[derive(Debug, Clone)]
pub struct LearnedParams {
    /// The fitted kernel parameters.
    pub params: KernelParams,
    /// The analytic prior mean.
    pub prior: PriorMean,
    /// Final log marginal likelihood.
    pub log_likelihood: f64,
    /// Likelihood evaluations the search ran (each one a covariance
    /// assembly and a factorization over the training snippets).
    pub evaluations: u64,
}

/// Learns the kernel parameters for one aggregate function from its past
/// snippets (Algorithm 1 line 2).
pub fn learn_params(
    schema: &SchemaInfo,
    mode: AggMode,
    regions: &[&Region],
    answers: &[f64],
    errors: &[f64],
    config: &VerdictConfig,
) -> LearnedParams {
    let prior = estimate_prior_mean(mode, schema, regions, answers);
    let sigma2 = estimate_sigma2(mode, schema, regions, answers);

    // Domain widths give the optimizer's reference scale; the paper starts
    // the search at ℓ = max(Ak) − min(Ak).
    let widths: Vec<f64> = schema
        .dims()
        .iter()
        .map(|d| match &d.kind {
            DimKind::Numeric { lo, hi } => (hi - lo).max(1e-12),
            DimKind::Categorical { .. } => 1.0,
        })
        .collect();

    let numeric: Vec<usize> = schema.numeric_indices();
    if numeric.is_empty() || regions.len() < 2 {
        return LearnedParams {
            params: KernelParams {
                lengthscales: widths,
                sigma2,
            },
            prior,
            log_likelihood: f64::NEG_INFINITY,
            evaluations: 0,
        };
    }

    // Log-lengthscales of the numeric dimensions → kernel parameters.
    let params_at = |logls: &[f64]| -> KernelParams {
        let mut lengthscales = widths.clone();
        for (slot, &idx) in numeric.iter().enumerate() {
            // Clamp to avoid numerically absurd scales.
            lengthscales[idx] = logls[slot].clamp(-20.0, 20.0).exp() * widths[idx];
        }
        KernelParams {
            lengthscales,
            sigma2,
        }
    };

    // One index and one set of factor tables for the whole search: the
    // categorical factors are integrated once, the numeric ones once per
    // likelihood.
    let index = RegionIndex::new(regions.iter().copied());
    let mut pairs = index.pairs(schema, mode);
    let centered = centered_answers(schema, regions, answers, &prior);
    let mut evaluations = 0;
    let mut objective = |logls: &[f64]| -> f64 {
        evaluations += 1;
        -likelihood(
            &mut pairs,
            &centered,
            errors,
            &params_at(logls),
            config.jitter,
        )
    };

    // A start whose logarithm is not a number cannot seed a simplex; with
    // none usable (the list is a `pub` field, and decoded from a persisted
    // config) search from the paper's own start, the domain width.
    let mut starts: Vec<f64> = config
        .lengthscale_starts
        .iter()
        .copied()
        .filter(|f| f.is_finite() && *f > 0.0)
        .collect();
    if starts.is_empty() {
        starts.push(1.0);
    }
    let mut best: Option<(Vec<f64>, f64)> = None;
    for start_factor in starts {
        let x0 = vec![start_factor.ln(); numeric.len()];
        let r = nelder_mead(&mut objective, &x0, 0.7, config.max_optimizer_iters, 1e-8);
        if best.as_ref().is_none_or(|(_, v)| r.value < *v) {
            best = Some((r.x, r.value));
        }
    }
    let (best_x, best_neg_ll) = best.expect("at least one start");

    LearnedParams {
        params: params_at(&best_x),
        prior,
        log_likelihood: -best_neg_ll,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DimensionSpec;
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap()
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::from_predicate(&schema(), &Predicate::between("t", lo, hi)).unwrap()
    }

    #[test]
    fn prior_mean_avg_is_answer_mean() {
        let s = schema();
        let r1 = region(0.0, 10.0);
        let r2 = region(10.0, 20.0);
        let prior = estimate_prior_mean(AggMode::Avg, &s, &[&r1, &r2], &[4.0, 6.0]);
        assert_eq!(prior, PriorMean::Constant(5.0));
        assert_eq!(prior.of(&s, &r1), 5.0);
    }

    #[test]
    fn prior_mean_freq_scales_with_volume() {
        let s = schema();
        let r1 = region(0.0, 10.0); // volume 10
        let r2 = region(10.0, 40.0); // volume 30
        let prior = estimate_prior_mean(AggMode::Freq, &s, &[&r1, &r2], &[0.1, 0.3]);
        // density = 0.4 / 40 = 0.01
        match prior {
            PriorMean::Density(d) => assert!((d - 0.01).abs() < 1e-12),
            _ => panic!("expected density prior"),
        }
        assert!((prior.of(&s, &r1) - 0.1).abs() < 1e-12);
        assert!((prior.of(&s, &r2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn sigma2_positive_even_for_constant_answers() {
        let s = schema();
        let r1 = region(0.0, 10.0);
        let r2 = region(10.0, 20.0);
        let v = estimate_sigma2(AggMode::Avg, &s, &[&r1, &r2], &[5.0, 5.0]);
        assert!(v > 0.0);
    }

    #[test]
    fn likelihood_finite_for_reasonable_params() {
        let s = schema();
        let regions = [region(0.0, 20.0), region(20.0, 40.0), region(40.0, 60.0)];
        let refs: Vec<&Region> = regions.iter().collect();
        let answers = [1.0, 2.0, 3.0];
        let errors = [0.1, 0.1, 0.1];
        let params = KernelParams::constant(1, 30.0, 1.0);
        let prior = PriorMean::Constant(2.0);
        let ll = log_marginal_likelihood(
            &s,
            AggMode::Avg,
            &refs,
            &answers,
            &errors,
            &params,
            &prior,
            1e-9,
        );
        assert!(ll.is_finite(), "{ll}");
    }

    #[test]
    fn likelihood_prefers_true_lengthscale() {
        // Generate answers from a smooth function; a moderate lengthscale
        // should beat an absurdly small one.
        let s = schema();
        let regions: Vec<Region> = (0..10)
            .map(|i| {
                let lo = i as f64 * 10.0;
                region(lo, lo + 10.0)
            })
            .collect();
        let refs: Vec<&Region> = regions.iter().collect();
        let answers: Vec<f64> = (0..10).map(|i| (i as f64 * 10.0 / 30.0).sin()).collect();
        let errors = vec![0.05; 10];
        let prior = PriorMean::Constant(mean(&answers));
        let sigma2 = estimate_sigma2(AggMode::Avg, &s, &refs, &answers);
        let good = KernelParams::constant(1, 30.0, sigma2);
        let bad = KernelParams::constant(1, 0.01, sigma2);
        let ll_good = log_marginal_likelihood(
            &s,
            AggMode::Avg,
            &refs,
            &answers,
            &errors,
            &good,
            &prior,
            1e-9,
        );
        let ll_bad = log_marginal_likelihood(
            &s,
            AggMode::Avg,
            &refs,
            &answers,
            &errors,
            &bad,
            &prior,
            1e-9,
        );
        assert!(ll_good > ll_bad, "good {ll_good} vs bad {ll_bad}");
    }

    #[test]
    fn learn_params_recovers_scale_order() {
        // Answers vary smoothly across adjacent regions: the learned
        // lengthscale should not collapse to (near) zero.
        let s = schema();
        let regions: Vec<Region> = (0..20)
            .map(|i| {
                let lo = i as f64 * 5.0;
                region(lo, lo + 5.0)
            })
            .collect();
        let refs: Vec<&Region> = regions.iter().collect();
        let answers: Vec<f64> = (0..20)
            .map(|i| (i as f64 * 5.0 / 25.0).sin() * 2.0 + 10.0)
            .collect();
        let errors = vec![0.05; 20];
        let config = VerdictConfig::default();
        let learned = learn_params(&s, AggMode::Avg, &refs, &answers, &errors, &config);
        let l = learned.params.lengthscales[0];
        assert!(l > 1.0, "learned lengthscale collapsed: {l}");
        assert!(learned.log_likelihood.is_finite());
    }

    #[test]
    fn learn_params_without_a_usable_start_searches_from_the_domain_width() {
        let s = schema();
        let regions: Vec<Region> = (0..12)
            .map(|i| region(i as f64 * 8.0, i as f64 * 8.0 + 8.0))
            .collect();
        let refs: Vec<&Region> = regions.iter().collect();
        let answers: Vec<f64> = (0..12).map(|i| (i as f64 / 3.0).sin() + 10.0).collect();
        let errors = vec![0.05; 12];
        let learn = |starts: Vec<f64>| {
            let config = VerdictConfig {
                lengthscale_starts: starts,
                ..VerdictConfig::default()
            };
            learn_params(&s, AggMode::Avg, &refs, &answers, &errors, &config)
        };
        let paper = learn(vec![1.0]);
        assert!(paper.evaluations > 0);
        assert!(paper.log_likelihood.is_finite());
        for starts in [vec![], vec![0.0, f64::NAN], vec![-1.0, f64::INFINITY]] {
            let learned = learn(starts);
            assert_eq!(learned.params, paper.params);
            assert_eq!(learned.log_likelihood, paper.log_likelihood);
            assert_eq!(learned.evaluations, paper.evaluations);
        }
        // An unusable factor beside usable ones is skipped, not searched.
        let mixed = learn(vec![f64::NAN, 1.0, 0.0]);
        assert_eq!(mixed.params, paper.params);
        assert_eq!(mixed.evaluations, paper.evaluations);
    }

    #[test]
    fn learn_params_without_numeric_dims_uses_defaults() {
        let s = SchemaInfo::new(vec![DimensionSpec::categorical("c", 4)]).unwrap();
        let r = Region::full(&s);
        let config = VerdictConfig::default();
        let learned = learn_params(
            &s,
            AggMode::Avg,
            &[&r, &r],
            &[1.0, 2.0],
            &[0.1, 0.1],
            &config,
        );
        assert_eq!(learned.params.lengthscales, vec![1.0]);
        assert!(learned.params.sigma2 > 0.0);
        assert_eq!(learned.evaluations, 0);
    }
}
