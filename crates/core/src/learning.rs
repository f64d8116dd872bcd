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
//! per-dimension factor tables for each start's descent, so assembling
//! `Σₙ` costs `O(Σ_k d_k²)` kernel integrals over the `d_k` *distinct*
//! constraints of each numeric dimension — the categorical factors are
//! integrated once per start, not once per likelihood — plus
//! `O(n²·dims)` multiplies; with the constraints a workload repeats, the
//! `O(n³)` factorization is what is left of a likelihood.
//!
//! The starts descend concurrently, one scoped thread each, so given a
//! core per start a search's wall time is about its slowest start's, not
//! the sum over starts; its memory is one `Σₙ` and factor per start.
//! [`LearnedParams::evaluations`] still counts every start's likelihoods.

use std::{panic, thread};

use verdict_linalg::Cholesky;
use verdict_stats::{mean, variance};

use crate::covariance::{AggMode, PairFactors, RegionIndex};
use crate::kernel::KernelParams;
use crate::optimizer::{nelder_mead, OptimizationResult};
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
///
/// The usable starts of [`VerdictConfig::lengthscale_starts`] descend
/// concurrently, one thread each, and the best descent wins (the earliest
/// start on a tie). A likelihood is a pure function of its lengthscales'
/// bits, so the result is bit for bit what running the starts in turn
/// gives.
pub fn learn_params(
    schema: &SchemaInfo,
    mode: AggMode,
    regions: &[&Region],
    answers: &[f64],
    errors: &[f64],
    config: &VerdictConfig,
) -> LearnedParams {
    learn_with(
        schema,
        mode,
        regions,
        answers,
        errors,
        config,
        descend_concurrently,
    )
}

/// [`learn_params`], with `descend` running one descent per start and
/// returning them in start order.
fn learn_with(
    schema: &SchemaInfo,
    mode: AggMode,
    regions: &[&Region],
    answers: &[f64],
    errors: &[f64],
    config: &VerdictConfig,
    descend: impl FnOnce(&Search<'_>, &[f64]) -> Vec<Descent>,
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
    let search = Search {
        schema,
        mode,
        index: RegionIndex::new(regions.iter().copied()),
        centered: centered_answers(schema, regions, answers, &prior),
        errors,
        widths,
        numeric,
        sigma2,
        config,
    };
    let mut best: Option<OptimizationResult> = None;
    let mut evaluations = 0;
    for (r, spent) in descend(&search, &starts) {
        evaluations += spent;
        if best.as_ref().is_none_or(|b| r.value < b.value) {
            best = Some(r);
        }
    }
    let best = best.expect("at least one start");

    LearnedParams {
        params: search.params_at(&best.x),
        prior,
        log_likelihood: -best.value,
        evaluations,
    }
}

/// One start's Nelder–Mead result and the likelihoods it evaluated.
type Descent = (OptimizationResult, u64);

/// What every start of one search shares: the training regions' index,
/// the centred answers, and the map from log-lengthscales to parameters.
struct Search<'a> {
    schema: &'a SchemaInfo,
    mode: AggMode,
    index: RegionIndex,
    centered: Vec<f64>,
    errors: &'a [f64],
    widths: Vec<f64>,
    numeric: Vec<usize>,
    sigma2: f64,
    config: &'a VerdictConfig,
}

impl Search<'_> {
    /// Log-lengthscales of the numeric dimensions → kernel parameters.
    fn params_at(&self, logls: &[f64]) -> KernelParams {
        let mut lengthscales = self.widths.clone();
        for (slot, &idx) in self.numeric.iter().enumerate() {
            // Clamp to avoid numerically absurd scales.
            lengthscales[idx] = logls[slot].clamp(-20.0, 20.0).exp() * self.widths[idx];
        }
        KernelParams {
            lengthscales,
            sigma2: self.sigma2,
        }
    }

    /// Fresh factor tables over the index: the categorical factors are
    /// integrated once per table set, the numeric ones once per
    /// likelihood.
    fn pairs(&self) -> PairFactors<'_> {
        self.index.pairs(self.schema, self.mode)
    }

    /// Nelder–Mead from `start` × each numeric domain width.
    fn descend(&self, pairs: &mut PairFactors<'_>, start: f64) -> Descent {
        let mut evaluations = 0;
        let x0 = vec![start.ln(); self.numeric.len()];
        let objective = |logls: &[f64]| -> f64 {
            evaluations += 1;
            -likelihood(
                pairs,
                &self.centered,
                self.errors,
                &self.params_at(logls),
                self.config.jitter,
            )
        };
        let r = nelder_mead(objective, &x0, 0.7, self.config.max_optimizer_iters, 1e-8);
        (r, evaluations)
    }
}

/// Each start's descent on a scoped thread of its own (the first on the
/// caller's), with its own factor tables over the one shared index. The
/// tables only memoize, so a descent's bits do not depend on which tables
/// it ran over. A panicking descent panics the caller.
fn descend_concurrently(search: &Search<'_>, starts: &[f64]) -> Vec<Descent> {
    let descend = |start: f64| search.descend(&mut search.pairs(), start);
    let (&first, rest) = starts.split_first().expect("at least one start");
    thread::scope(|scope| {
        let rest: Vec<_> = rest
            .iter()
            .map(|&start| scope.spawn(move || descend(start)))
            .collect();
        let mut descents = vec![descend(first)];
        descents.extend(
            rest.into_iter()
                .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p))),
        );
        descents
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{DimConstraint, DimensionSpec};
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap()
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::from_predicate(&schema(), &Predicate::between("t", lo, hi)).unwrap()
    }

    /// Log marginal likelihood of the observed raw answers under the model
    /// (Eq. 13): `-½ cᵀ Σₙ⁻¹ c - ½ log|Σₙ| - (n/2) log 2π` with
    /// `c = θ - µ` and `Σₙ = K(ℓ, σ²) + diag(β²)`.
    ///
    /// Returns `-inf` when the covariance matrix cannot be factorized.
    #[allow(clippy::too_many_arguments)]
    fn log_marginal_likelihood(
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

    /// The serial oracle: one thread runs the starts in turn, over one set
    /// of factor tables that all of them share.
    fn descend_serially(search: &Search<'_>, starts: &[f64]) -> Vec<Descent> {
        let mut pairs = search.pairs();
        starts
            .iter()
            .map(|&start| search.descend(&mut pairs, start))
            .collect()
    }

    /// `numeric` numeric and `categorical` categorical dimensions, and
    /// `n` training snippets whose constraints repeat (so the factor
    /// tables memoize) with smooth answers, from a fixed LCG.
    fn training_set(
        numeric: usize,
        categorical: usize,
        n: usize,
    ) -> (SchemaInfo, Vec<Region>, Vec<f64>, Vec<f64>) {
        let mut dims: Vec<DimensionSpec> = (0..numeric)
            .map(|d| DimensionSpec::numeric(&format!("x{d}"), -5.0 * d as f64, 100.0))
            .collect();
        dims.extend((0..categorical).map(|d| DimensionSpec::categorical(&format!("c{d}"), 5)));
        let s = SchemaInfo::new(dims).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |k: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % k
        };
        let mut regions = Vec::new();
        let mut answers = Vec::new();
        for _ in 0..n {
            let mut centre = 0.0;
            let constraints = s
                .dims()
                .iter()
                .map(|d| match d.kind {
                    DimKind::Numeric { lo, hi } => {
                        let step = (hi - lo) / 8.0;
                        let a = lo + step * draw(6) as f64;
                        let b = a + step * (1 + draw(3)) as f64;
                        centre += (a + b) / (hi - lo);
                        DimConstraint::Range { lo: a, hi: b }
                    }
                    DimKind::Categorical { .. } => match draw(4) {
                        0 => DimConstraint::Set(None),
                        k => DimConstraint::Set(Some((0..k as u32).collect())),
                    },
                })
                .collect();
            regions.push(Region::from_constraints(constraints));
            answers.push(10.0 + 2.0 * centre.sin() + draw(100) as f64 / 400.0);
        }
        let errors = (0..n).map(|i| 0.05 + 0.01 * (i % 3) as f64).collect();
        (s, regions, answers, errors)
    }

    /// What a search's result is compared by: every number's bits.
    fn result_bits(l: &LearnedParams) -> (Vec<u64>, u64, u64, u64, u64) {
        let prior = match l.prior {
            PriorMean::Constant(v) | PriorMean::Density(v) => v,
        };
        (
            l.params.lengthscales.iter().map(|v| v.to_bits()).collect(),
            l.params.sigma2.to_bits(),
            prior.to_bits(),
            l.log_likelihood.to_bits(),
            l.evaluations,
        )
    }

    #[test]
    fn concurrent_search_equals_the_serial_loop_bit_for_bit() {
        let start_lists = [
            vec![],
            vec![f64::NAN, 0.0],
            vec![1.0],
            VerdictConfig::default().lengthscale_starts,
            vec![3.0, 1.0, 0.3, 0.1, 0.03],
            vec![0.3, 1.0, 0.3, 1.0],
        ];
        for (numeric, categorical) in [(1, 0), (2, 1), (3, 2)] {
            let (s, regions, answers, errors) = training_set(numeric, categorical, 20);
            let refs: Vec<&Region> = regions.iter().collect();
            for mode in [AggMode::Avg, AggMode::Freq] {
                for starts in &start_lists {
                    let config = VerdictConfig {
                        lengthscale_starts: starts.clone(),
                        max_optimizer_iters: 50,
                        ..VerdictConfig::default()
                    };
                    let serial = learn_with(
                        &s,
                        mode,
                        &refs,
                        &answers,
                        &errors,
                        &config,
                        descend_serially,
                    );
                    let concurrent = learn_params(&s, mode, &refs, &answers, &errors, &config);
                    let case = format!("{numeric}+{categorical} dims, {mode:?}, starts {starts:?}");
                    assert_eq!(result_bits(&concurrent), result_bits(&serial), "{case}");
                    assert_eq!(concurrent.prior, serial.prior, "{case}");
                    assert!(concurrent.evaluations > 0, "{case}");
                }
            }
        }
    }

    #[test]
    fn tied_starts_keep_the_first() {
        // Under a NaN jitter no `Σₙ` factors, so every likelihood is −∞,
        // every simplex shrinks onto its start, and every start ties.
        let (s, regions, answers, errors) = training_set(2, 1, 20);
        let refs: Vec<&Region> = regions.iter().collect();
        let tied = |starts: &[f64]| VerdictConfig {
            lengthscale_starts: starts.to_vec(),
            jitter: f64::NAN,
            max_optimizer_iters: 20,
            ..VerdictConfig::default()
        };
        let learn = |starts: &[f64]| {
            learn_params(&s, AggMode::Avg, &refs, &answers, &errors, &tied(starts))
        };
        let concurrent = learn(&[0.3, 1.0, 0.1]);
        let serial = learn_with(
            &s,
            AggMode::Avg,
            &refs,
            &answers,
            &errors,
            &tied(&[0.3, 1.0, 0.1]),
            descend_serially,
        );
        assert_eq!(concurrent.log_likelihood, f64::NEG_INFINITY);
        assert_eq!(result_bits(&concurrent), result_bits(&serial));
        assert_eq!(concurrent.params, learn(&[0.3]).params);
        assert_ne!(concurrent.params, learn(&[1.0]).params);
    }

    #[test]
    fn training_restored_copies_of_one_engine_gives_equal_state_bytes() {
        use crate::snippet::{AggKey, Observation, Snippet};
        let (s, regions, answers, errors) = training_set(2, 1, 30);
        let mut engine = crate::Verdict::new(s.clone(), VerdictConfig::default());
        for (i, region) in regions.iter().enumerate() {
            let key = if i % 2 == 0 {
                AggKey::avg("v")
            } else {
                AggKey::Freq
            };
            let obs = Observation::new(answers[i], errors[i]);
            engine.observe(&Snippet::new(key, region.clone()), obs);
        }
        let untrained = engine.export_state();
        let trained: Vec<Vec<u8>> = (0..5)
            .map(|_| {
                let mut copy = crate::Verdict::new(s.clone(), VerdictConfig::default());
                copy.restore_state(untrained.clone()).unwrap();
                assert!(copy.train().unwrap().evaluations > 0);
                copy.state_bytes()
            })
            .collect();
        engine.train().unwrap();
        for bytes in &trained {
            assert_eq!(*bytes, engine.state_bytes());
        }
    }
}
