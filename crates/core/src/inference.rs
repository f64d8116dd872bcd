//! Query-time inference (paper §3.4, §5).
//!
//! A [`TrainedModel`] is the frozen product of the offline phase
//! (Algorithm 1): kernel parameters, prior mean, the past snippets'
//! regions, the precomputed `Σₙ⁻¹`, and `α = Σₙ⁻¹(θ − µ)`. At query time
//! (Algorithm 2) a new snippet's improved answer comes from the O(n²)
//! alternative forms of Eqs. (4)/(5) derived in the Theorem 1 proof:
//!
//! ```text
//! γ²      = κ̄² − k̄ᵀ Σₙ⁻¹ k̄            (model-only uncertainty, Eq. 11)
//! θ_prior = µ_new + k̄ᵀ α                (model-only answer, Eq. 11)
//! θ̈       = (β²·θ_prior + γ²·θ_raw) / (β² + γ²)        (Eq. 12)
//! β̈²      = β²·γ² / (β² + γ²)                            (Eq. 12)
//! ```
//!
//! `β̈ ≤ β` always (Theorem 1). The O(n³) direct conditioning of
//! Eqs. (4)/(5) is also implemented ([`TrainedModel::infer_direct`]) and
//! property-tested to agree with the fast path.
//!
//! ## Cost
//!
//! Inference splits along the line the formulas draw. Eq. (11) does not
//! depend on the raw answer: [`TrainedModel::priors`] computes
//! `(θ_prior, γ²)` — a [`CellPrior`] — for every cell a query asks one
//! model about, and that is all the O(n²) work there is. It builds the
//! cells' cross-covariance columns `k̄` from the model's
//! [`RegionIndex`] — per dimension, one factor per *distinct* past
//! constraint, `O(Σ_k d_k)` kernel integrals, then `O(n·dims)` multiplies;
//! cells that share a dimension's constraint (all but one dimension,
//! across the groups of a `GROUP BY`) share its factors — and
//! hands them to `verdict_linalg::ops::quadratic_forms_with`, which reads
//! `Σₙ⁻¹` **once per tile of ≤ 8 cells**, not once per cell: an 8-group
//! statement costs one pass over the matrix per model. Eq. (12) is
//! [`CellPrior::combine`], O(1): a statement that re-evaluates its bounds
//! after every scanned batch pays the priors once and a handful of
//! flops per batch. The blocked kernel accumulates every dot product in
//! the order the textbook loop does, and every `k̄` element is the same
//! product of the same factors as one [`snippet_covariance`] call, so
//! none of this changes a bit of any answer (modulo NaN payload: a NaN
//! stays a NaN, which one is not pinned down).
//!
//! The index is derived state: [`TrainedModel::fit`] builds it (and
//! assembles `Σₙ` from it), [`TrainedModel::absorb`] extends it,
//! [`TrainedModel::from_parts`] rebuilds it on load; it is not persisted.

use verdict_linalg::ops::{bilinear_form, dot, quadratic_forms_with};
use verdict_linalg::{Cholesky, Matrix};

use crate::covariance::{
    cross_covariance, raw_covariance_matrix, snippet_covariance, AggMode, RegionIndex,
};
use crate::kernel::KernelParams;
use crate::learning::PriorMean;
use crate::region::{Region, SchemaInfo};
use crate::snippet::Observation;
use crate::Result;

/// Output of one inference: the model-based answer/error of §3.4 plus the
/// intermediate quantities (used by validation and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelInference {
    /// Model-based answer `θ̈_{n+1}`.
    pub model_answer: f64,
    /// Model-based error `β̈_{n+1}`.
    pub model_error: f64,
    /// The model-only estimate (prior conditioned on past answers but not
    /// on the new raw answer).
    pub prior_answer: f64,
    /// The model-only standard deviation `γ`.
    pub gamma: f64,
}

/// The model-only estimate of one cell (Eq. 11): everything inference
/// knows before a raw answer exists. Computed by
/// [`TrainedModel::priors`]; turned into an improved answer, any number
/// of times, by [`CellPrior::combine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPrior {
    /// The model-only answer `θ_prior = µ_new + k̄ᵀ α`.
    pub prior_answer: f64,
    /// The model-only variance `γ² = κ̄² − k̄ᵀ Σₙ⁻¹ k̄`, clamped positive.
    pub gamma2: f64,
}

/// A trained per-aggregate model: the paper's `Model` box in Figure 2.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    mode: AggMode,
    params: KernelParams,
    prior: PriorMean,
    regions: Vec<Region>,
    /// The distinct constraints of `regions` — derived state (rebuilt on
    /// load, never persisted) every cross-covariance column is assembled
    /// from.
    index: RegionIndex,
    /// The raw observations the model conditions on (kept so the
    /// incremental `absorb` path can rebuild the centered vector).
    observations: Vec<Observation>,
    /// Precomputed `Σₙ⁻¹` (Algorithm 1 line 6).
    sigma_inv: Matrix,
    /// Precomputed `Σₙ⁻¹ (θ − µ)`.
    alpha: Vec<f64>,
}

impl TrainedModel {
    /// Fits the model state from past snippets with the given (already
    /// learned) parameters: builds `Σₙ`, factorizes it, and precomputes
    /// `Σₙ⁻¹` and `α`.
    pub fn fit(
        schema: &SchemaInfo,
        mode: AggMode,
        entries: &[(Region, Observation)],
        params: KernelParams,
        prior: PriorMean,
        jitter: f64,
    ) -> Result<TrainedModel> {
        let (regions, observations) = entries.iter().cloned().unzip();
        TrainedModel::fit_owned(schema, mode, regions, observations, params, prior, jitter)
    }

    /// [`TrainedModel::fit`] over snippets the caller has already copied
    /// out of a synopsis.
    pub(crate) fn fit_owned(
        schema: &SchemaInfo,
        mode: AggMode,
        regions: Vec<Region>,
        observations: Vec<Observation>,
        params: KernelParams,
        prior: PriorMean,
        jitter: f64,
    ) -> Result<TrainedModel> {
        debug_assert_eq!(regions.len(), observations.len());
        let index = RegionIndex::new(&regions);
        let errors: Vec<f64> = observations.iter().map(|o| o.error).collect();
        // The factor tables go out of scope with this statement, before
        // the factor and the inverse that set a fit's peak.
        let mut sigma = index
            .pairs(schema, mode)
            .raw_covariance_matrix(&params, &errors);
        let scale = sigma.max_abs().max(1.0);
        sigma.add_diagonal(jitter * scale);
        let chol = Cholesky::new_with_jitter(&sigma, 1e-12, 8)?;
        // `inverse` holds `Lᵀ` beside `L` and the result; `Σₙ` is done
        // with, and freeing it here keeps a fit's peak at three matrices.
        drop(sigma);
        let sigma_inv = chol.inverse()?;
        let centered: Vec<f64> = regions
            .iter()
            .zip(&observations)
            .map(|(r, o)| o.answer - prior.of(schema, r))
            .collect();
        let alpha = chol.solve(&centered)?;
        Ok(TrainedModel {
            mode,
            params,
            prior,
            regions,
            index,
            observations,
            sigma_inv,
            alpha,
        })
    }

    /// Rebuilds a model from persisted parts (see [`crate::persist`]).
    ///
    /// The parts must come from a previously fitted model: `sigma_inv` is
    /// trusted to be the inverse of the covariance of `regions` under
    /// `params`, and `alpha = Σₙ⁻¹ (θ − µ)`. The persist layer checks the
    /// shapes; semantic validity is the writer's responsibility.
    pub fn from_parts(
        mode: AggMode,
        params: KernelParams,
        prior: PriorMean,
        regions: Vec<Region>,
        observations: Vec<Observation>,
        sigma_inv: Matrix,
        alpha: Vec<f64>,
    ) -> TrainedModel {
        debug_assert_eq!(regions.len(), observations.len());
        debug_assert_eq!(regions.len(), alpha.len());
        debug_assert_eq!(sigma_inv.rows(), regions.len());
        let index = RegionIndex::new(&regions);
        TrainedModel {
            mode,
            params,
            prior,
            regions,
            index,
            observations,
            sigma_inv,
            alpha,
        }
    }

    /// Number of past snippets the model conditions on.
    pub fn n(&self) -> usize {
        self.regions.len()
    }

    /// The past snippet regions the model conditions on.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The raw observations the model conditions on.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// The precomputed `Σₙ⁻¹`.
    pub fn sigma_inv(&self) -> &Matrix {
        &self.sigma_inv
    }

    /// The precomputed `α = Σₙ⁻¹ (θ − µ)`.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// The kernel parameters in use.
    pub fn params(&self) -> &KernelParams {
        &self.params
    }

    /// The prior mean model in use.
    pub fn prior(&self) -> &PriorMean {
        &self.prior
    }

    /// Aggregate semantics.
    pub fn mode(&self) -> AggMode {
        self.mode
    }

    /// Model-only priors (Eq. 11) of `regions`, in order: the O(n²) half
    /// of inference, done for all cells of one query at once. The kernel
    /// takes the cross-covariance columns a tile at a time and reads
    /// `Σₙ⁻¹` once per tile, and the columns share one set of
    /// per-dimension factors; see the module docs.
    pub fn priors(&self, schema: &SchemaInfo, regions: &[&Region]) -> Vec<CellPrior> {
        let mut cross = self.index.cross(schema, &self.params, self.mode);
        let mut out = Vec::with_capacity(regions.len());
        quadratic_forms_with(
            &self.sigma_inv,
            regions.len(),
            |c| cross.column(regions[c]),
            |c, k, quad| {
                let region = regions[c];
                let kappa2 = snippet_covariance(schema, &self.params, self.mode, region, region);
                // γ² = κ̄² − k̄ᵀ Σₙ⁻¹ k̄ (clamped: tiny negatives are
                // factorization dust; exact zero would claim impossible
                // certainty).
                let gamma2 = (kappa2 - quad).max(kappa2.abs() * 1e-12).max(1e-300);
                let prior_answer = self.prior.of(schema, region) + dot(k, &self.alpha);
                out.push(CellPrior {
                    prior_answer,
                    gamma2,
                });
            },
        );
        out
    }

    /// O(n²) inference (Eqs. 11/12) of one cell: its prior, combined with
    /// `raw`. See the module docs for the formulas.
    pub fn infer(&self, schema: &SchemaInfo, region: &Region, raw: Observation) -> ModelInference {
        self.priors(schema, &[region])[0].combine(raw)
    }

    /// Posterior covariance between the exact answers of two regions given
    /// the past observations: `cov(θ̄_a, θ̄_b | θ_1..θ_n) =
    /// k(a,b) − k̄_aᵀ Σₙ⁻¹ k̄_b`. Drives active database learning
    /// (`crate::active`): it quantifies how much observing one region would
    /// teach us about another.
    pub fn posterior_cov(&self, schema: &SchemaInfo, a: &Region, b: &Region) -> f64 {
        let mut cross = self.index.cross(schema, &self.params, self.mode);
        let ka = cross.column(a);
        let kb = cross.column(b);
        let kab = snippet_covariance(schema, &self.params, self.mode, a, b);
        kab - bilinear_form(&ka, &self.sigma_inv, &kb)
    }

    /// Incrementally absorbs one new observation into the trained state in
    /// O(n²) using the Schur-complement block inversion of §5 — the same
    /// identity behind Eqs. (11)/(12). After `absorb`, inference conditions
    /// on `n + 1` observations without refitting from scratch: the engine
    /// literally becomes smarter with every query.
    ///
    /// Given `Σₙ⁻¹` and the new row `[k̄ᵀ, d]` with
    /// `d = κ̄² + β²_{n+1}` and Schur complement `s = d − k̄ᵀ Σₙ⁻¹ k̄`:
    ///
    /// ```text
    /// Σ_{n+1}⁻¹ = [ Σₙ⁻¹ + v vᵀ / s   −v / s ]      v = Σₙ⁻¹ k̄
    ///             [ −vᵀ / s             1 / s  ]
    /// ```
    pub fn absorb(&mut self, schema: &SchemaInfo, region: &Region, obs: Observation) {
        let n = self.regions.len();
        let k = self
            .index
            .cross(schema, &self.params, self.mode)
            .column(region);
        let kappa2 = snippet_covariance(schema, &self.params, self.mode, region, region);
        let beta2 = if obs.error.is_finite() {
            obs.error * obs.error
        } else {
            // An uninformative observation would add nothing; skip it.
            return;
        };
        let d = kappa2 + beta2;
        let v = self.sigma_inv.matvec(&k).expect("dimensions match");
        let s = (d - dot(&k, &v)).max(d.abs() * 1e-12).max(1e-300);

        // New (n+1)x(n+1) inverse via the block formula.
        let mut inv = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                inv.set(i, j, self.sigma_inv.get(i, j) + v[i] * v[j] / s);
            }
            inv.set(i, n, -v[i] / s);
            inv.set(n, i, -v[i] / s);
        }
        inv.set(n, n, 1.0 / s);
        self.sigma_inv = inv;

        self.regions.push(region.clone());
        self.index.push(region);
        // Recompute α = Σ_{n+1}⁻¹ (θ − µ) in O(n²). The centered vector
        // must be rebuilt because the stored α is Σₙ⁻¹ c, not c itself.
        let mut centered: Vec<f64> = Vec::with_capacity(n + 1);
        self.observations.push(obs);
        for (r, o) in self.regions.iter().zip(self.observations.iter()) {
            centered.push(o.answer - self.prior.of(schema, r));
        }
        self.alpha = self.sigma_inv.matvec(&centered).expect("dimensions match");
    }

    /// O(n³) direct conditioning (Eqs. 4/5): builds the full
    /// `(n+1)×(n+1)` raw-answer covariance including the new snippet and
    /// conditions `θ̄_{n+1}` on all `n+1` observations. Used as a reference
    /// implementation; must agree with [`TrainedModel::infer`].
    pub fn infer_direct(
        &self,
        schema: &SchemaInfo,
        region: &Region,
        raw: Observation,
        past: &[(Region, Observation)],
    ) -> Result<ModelInference> {
        let n = past.len();
        let mut all_regions: Vec<&Region> = past.iter().map(|(r, _)| r).collect();
        all_regions.push(region);
        let mut errors: Vec<f64> = past.iter().map(|(_, o)| o.error).collect();
        errors.push(raw.error);

        // Σ_{n+1} over raw answers (Eq. 6 diagonal) …
        let mut sigma =
            raw_covariance_matrix(schema, &self.params, self.mode, &all_regions, &errors);
        let scale = sigma.max_abs().max(1.0);
        sigma.add_diagonal(1e-12 * scale);
        // … k̄_{n+1}: cov(raw answers, exact new answer). The (n+1)-th
        // entry is κ̄² (noise independent of the exact value).
        let kappa2 = snippet_covariance(schema, &self.params, self.mode, region, region);
        let mut kbar = cross_covariance(schema, &self.params, self.mode, &all_regions[..n], region);
        kbar.push(kappa2);

        let mut observed: Vec<f64> = past.iter().map(|(_, o)| o.answer).collect();
        observed.push(raw.answer);
        let mu: Vec<f64> = all_regions
            .iter()
            .map(|r| self.prior.of(schema, r))
            .collect();
        let centered: Vec<f64> = observed.iter().zip(mu.iter()).map(|(o, m)| o - m).collect();

        let chol = Cholesky::new_with_jitter(&sigma, 1e-12, 8)?;
        let solve_c = chol.solve(&centered)?;
        let solve_k = chol.solve(&kbar)?;
        let mu_new = self.prior.of(schema, region);
        let model_answer = mu_new + dot(&kbar, &solve_c);
        let var = (kappa2 - dot(&kbar, &solve_k)).max(0.0);
        Ok(ModelInference {
            model_answer,
            model_error: var.sqrt(),
            prior_answer: model_answer,
            gamma: var.sqrt(),
        })
    }
}

impl CellPrior {
    /// Precision-weighted combination of the model-only estimate with a
    /// raw answer (Eq. 12), with the `β = 0` and `β = ∞` limits handled
    /// explicitly. O(1).
    pub fn combine(&self, raw: Observation) -> ModelInference {
        let CellPrior {
            prior_answer,
            gamma2,
        } = *self;
        let gamma = gamma2.sqrt();
        if raw.error == 0.0 {
            // Exact raw answer: nothing to improve (Theorem 1 equality case).
            return ModelInference {
                model_answer: raw.answer,
                model_error: 0.0,
                prior_answer,
                gamma,
            };
        }
        if !raw.error.is_finite() {
            // No scan yet: the model is all we have.
            return ModelInference {
                model_answer: prior_answer,
                model_error: gamma,
                prior_answer,
                gamma,
            };
        }
        let beta2 = raw.error * raw.error;
        let denom = beta2 + gamma2;
        let model_answer = (beta2 * prior_answer + gamma2 * raw.answer) / denom;
        let model_var = beta2 * gamma2 / denom;
        ModelInference {
            model_answer,
            model_error: model_var.sqrt(),
            prior_answer,
            gamma,
        }
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

    fn smooth_entries() -> Vec<(Region, Observation)> {
        (0..10)
            .map(|i| {
                let lo = i as f64 * 10.0;
                let answer = 10.0 + (lo / 30.0).sin() * 3.0;
                (region(lo, lo + 10.0), Observation::new(answer, 0.2))
            })
            .collect()
    }

    fn model(entries: &[(Region, Observation)]) -> TrainedModel {
        let s = schema();
        TrainedModel::fit(
            &s,
            AggMode::Avg,
            entries,
            KernelParams::constant(1, 30.0, 4.0),
            PriorMean::Constant(10.0),
            1e-9,
        )
        .unwrap()
    }

    /// The per-item formula as it stood before inference was split into
    /// [`TrainedModel::priors`] + [`CellPrior::combine`]: one cell, one
    /// serial pass over `Σₙ⁻¹`, Eq. (12) inline.
    fn reference_infer(
        m: &TrainedModel,
        schema: &SchemaInfo,
        region: &Region,
        raw: Observation,
    ) -> ModelInference {
        let k: Vec<f64> = m
            .regions
            .iter()
            .map(|r| snippet_covariance(schema, &m.params, m.mode, r, region))
            .collect();
        let kappa2 = snippet_covariance(schema, &m.params, m.mode, region, region);
        let mu_new = m.prior.of(schema, region);
        let mut quad = 0.0;
        for (i, ki) in k.iter().enumerate() {
            quad += ki * dot(m.sigma_inv.row(i), &k);
        }
        let gamma2 = (kappa2 - quad).max(kappa2.abs() * 1e-12).max(1e-300);
        let prior_answer = mu_new + dot(&k, &m.alpha);
        let gamma = gamma2.sqrt();
        if raw.error == 0.0 {
            return ModelInference {
                model_answer: raw.answer,
                model_error: 0.0,
                prior_answer,
                gamma,
            };
        }
        if !raw.error.is_finite() {
            return ModelInference {
                model_answer: prior_answer,
                model_error: gamma,
                prior_answer,
                gamma,
            };
        }
        let beta2 = raw.error * raw.error;
        let denom = beta2 + gamma2;
        ModelInference {
            model_answer: (beta2 * prior_answer + gamma2 * raw.answer) / denom,
            model_error: (beta2 * gamma2 / denom).sqrt(),
            prior_answer,
            gamma,
        }
    }

    #[test]
    fn priors_then_combine_equal_the_per_item_formula_bit_for_bit() {
        let s = schema();
        // Exact past answers and no jitter: a query over a past region has
        // γ² = κ̄² − k̄ᵀΣ⁻¹k̄ ≈ 0 up to factorization dust, which the clamp
        // must catch identically on both sides.
        let exact: Vec<(Region, Observation)> = smooth_entries()
            .into_iter()
            .map(|(r, o)| (r, Observation::exact(o.answer)))
            .collect();
        let clamped_model = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &exact,
            KernelParams::constant(1, 30.0, 4.0),
            PriorMean::Constant(10.0),
            0.0,
        )
        .unwrap();
        // 11 regions: one full tile of the kernel and a ragged one.
        let regions: Vec<Region> = (0..11)
            .map(|i| region(i as f64 * 9.0, i as f64 * 9.0 + 10.0))
            .chain([region(20.0, 30.0)])
            .collect();
        let refs: Vec<&Region> = regions.iter().collect();
        let raws = [
            Observation::new(10.5, 0.3),
            Observation::exact(42.0),             // β = 0
            Observation::new(0.0, f64::INFINITY), // β = ∞
            Observation::new(-3.0, 1e-9),
        ];
        let mut clamped = 0;
        for m in [model(&smooth_entries()), clamped_model] {
            let priors = m.priors(&s, &refs);
            assert_eq!(priors.len(), regions.len());
            for (r, prior) in regions.iter().zip(&priors) {
                let kappa2 = snippet_covariance(&s, &m.params, m.mode, r, r);
                clamped += usize::from(prior.gamma2 == kappa2.abs() * 1e-12);
                for raw in raws {
                    let want = reference_infer(&m, &s, r, raw);
                    for got in [prior.combine(raw), m.infer(&s, r, raw)] {
                        assert_eq!(got.model_answer.to_bits(), want.model_answer.to_bits());
                        assert_eq!(got.model_error.to_bits(), want.model_error.to_bits());
                        assert_eq!(got.prior_answer.to_bits(), want.prior_answer.to_bits());
                        assert_eq!(got.gamma.to_bits(), want.gamma.to_bits());
                    }
                }
            }
        }
        assert!(clamped > 0, "no case reached the γ² clamp");
    }

    #[test]
    fn theorem1_improved_error_never_larger() {
        let entries = smooth_entries();
        let m = model(&entries);
        let s = schema();
        for (lo, hi, beta) in [(5.0, 15.0, 0.5), (0.0, 100.0, 1.0), (90.0, 95.0, 0.01)] {
            let raw = Observation::new(11.0, beta);
            let inf = m.infer(&s, &region(lo, hi), raw);
            assert!(
                inf.model_error <= beta + 1e-12,
                "β̈ {} > β {beta}",
                inf.model_error
            );
        }
    }

    #[test]
    fn zero_raw_error_passes_through() {
        let entries = smooth_entries();
        let m = model(&entries);
        let s = schema();
        let inf = m.infer(&s, &region(5.0, 15.0), Observation::exact(42.0));
        assert_eq!(inf.model_answer, 42.0);
        assert_eq!(inf.model_error, 0.0);
    }

    #[test]
    fn infinite_raw_error_returns_model_only() {
        let entries = smooth_entries();
        let m = model(&entries);
        let s = schema();
        let inf = m.infer(&s, &region(5.0, 15.0), Observation::new(0.0, f64::INFINITY));
        assert_eq!(inf.model_answer, inf.prior_answer);
        assert_eq!(inf.model_error, inf.gamma);
        assert!(inf.gamma.is_finite());
    }

    #[test]
    fn overlapping_query_pulls_answer_toward_past() {
        // Past snippet says the 0-10 average is ~10.0 with tiny error; a
        // noisy new raw answer of 20.0 over the same region should be pulled
        // strongly toward 10.
        let entries = vec![(region(0.0, 10.0), Observation::new(10.0, 0.01))];
        let m = model(&entries);
        let s = schema();
        let inf = m.infer(&s, &region(0.0, 10.0), Observation::new(20.0, 5.0));
        assert!(
            (inf.model_answer - 10.0).abs() < 1.0,
            "answer {} not pulled toward 10",
            inf.model_answer
        );
        assert!(inf.model_error < 5.0);
    }

    #[test]
    fn unrelated_region_defers_to_raw() {
        // Far region with short lengthscale: model knows little, so the
        // improved answer stays near the raw answer.
        let s = schema();
        let entries = vec![(region(0.0, 5.0), Observation::new(10.0, 0.01))];
        let m = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &entries,
            KernelParams::constant(1, 1.0, 4.0),
            PriorMean::Constant(10.0),
            1e-9,
        )
        .unwrap();
        let inf = m.infer(&s, &region(90.0, 95.0), Observation::new(30.0, 0.5));
        // The prior (≈10) barely informs this region, so the combined
        // answer sits much closer to the raw answer than to the prior, and
        // the weight on raw is γ²/(γ²+β²) > 0.8 here.
        assert!(
            (inf.model_answer - 30.0).abs() < (inf.model_answer - inf.prior_answer).abs(),
            "answer {} closer to prior {} than to raw",
            inf.model_answer,
            inf.prior_answer
        );
        assert!(
            (inf.model_answer - 30.0).abs() < 0.2 * (30.0 - inf.prior_answer).abs(),
            "answer {} pulled too far from raw",
            inf.model_answer
        );
    }

    #[test]
    fn fast_inference_matches_direct_conditioning() {
        let entries = smooth_entries();
        let m = model(&entries);
        let s = schema();
        for (lo, hi, theta, beta) in [
            (5.0, 25.0, 10.5, 0.3),
            (40.0, 60.0, 9.0, 1.0),
            (0.0, 100.0, 10.0, 0.05),
        ] {
            let raw = Observation::new(theta, beta);
            let r = region(lo, hi);
            let fast = m.infer(&s, &r, raw);
            let direct = m.infer_direct(&s, &r, raw, &entries).unwrap();
            assert!(
                (fast.model_answer - direct.model_answer).abs() < 1e-6,
                "answers diverge: {} vs {}",
                fast.model_answer,
                direct.model_answer
            );
            assert!(
                (fast.model_error - direct.model_error).abs() < 1e-6,
                "errors diverge: {} vs {}",
                fast.model_error,
                direct.model_error
            );
        }
    }

    #[test]
    fn model_error_shrinks_with_informative_past() {
        let s = schema();
        // Uninformed model: single far-away snippet.
        let sparse = vec![(region(90.0, 100.0), Observation::new(10.0, 0.2))];
        let m_sparse = model(&sparse);
        // Informed model: many nearby snippets.
        let dense = smooth_entries();
        let m_dense = model(&dense);
        let raw = Observation::new(10.0, 0.4);
        let e_sparse = m_sparse.infer(&s, &region(20.0, 30.0), raw).model_error;
        let e_dense = m_dense.infer(&s, &region(20.0, 30.0), raw).model_error;
        assert!(e_dense < e_sparse, "{e_dense} !< {e_sparse}");
    }
}
