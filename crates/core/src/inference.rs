//! Query-time inference (paper §3.4, §5).
//!
//! A [`TrainedModel`] is the frozen product of the offline phase
//! (Algorithm 1): kernel parameters, prior mean, the past snippets'
//! regions, the Cholesky factor `L` of `Σₙ` (where Algorithm 1 stores
//! `Σₙ⁻¹`), and `α = Σₙ⁻¹(θ − µ)`. At query time (Algorithm 2) a new
//! snippet's improved answer comes from the O(n²) alternative forms of
//! Eqs. (4)/(5) derived in the Theorem 1 proof, with `k̄ᵀ Σₙ⁻¹ k̄ = ‖y‖²`
//! for `L y = k̄`:
//!
//! ```text
//! γ²      = κ̄² − ‖L⁻¹ k̄‖²            (model-only uncertainty, Eq. 11)
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
//! hands them, a tile of ≤ 8 at a time, to
//! `verdict_linalg::ops::forward_sq_norms`, a blocked forward substitution
//! that reads the packed factor — `n²/2` entries, half of a form in
//! `Σₙ⁻¹` — **once per tile**: an 8-group statement costs one pass over
//! the factor per model. Eq. (12) is [`CellPrior::combine`], O(1): a
//! statement that re-evaluates its bounds after every scanned batch pays
//! the priors once. The kernel subtracts in `solve_lower`'s order, and
//! every `k̄` element is the same product of the same factors as one
//! [`snippet_covariance`] call, so tiling changes no bit of any answer
//! (modulo NaN payload). On a host with AVX2 the forward pass and the
//! factorization's panels run vector kernels, picked at run time, whose
//! lanes are the scalar chains — a separate multiply and subtract per
//! term, no fused multiply-add — so the host changes no bit either. At
//! `n` = 1,500 on 2 vCPUs a lone cell's pass is ≈ 0.4 ms and an 8-cell
//! tile's ≈ 0.75 ms (≈ 1.6 ms scalar), a factorization ≈ 85 ms (≈ 200–300
//! ms scalar); what remains of a lone cell is mostly building `k̄`, its
//! 1,500 erf-based integrals. `Σₙ⁻¹` itself is never formed: a fit is
//! assembly, factorization and one solve for `α`.
//!
//! The index is derived state: [`TrainedModel::fit`] builds it (and
//! assembles `Σₙ` from it), [`TrainedModel::absorb`] extends it,
//! [`TrainedModel::from_parts`] rebuilds it on load; it is not persisted.

use std::sync::OnceLock;

use verdict_linalg::ops::{dot, forward_sq_norms, TILE_COLS};
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
    /// The model-only variance `γ² = κ̄² − ‖L⁻¹ k̄‖²`, clamped positive.
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
    /// The Cholesky factor `L` of `Σₙ`, packed (Algorithm 1 line 6 keeps
    /// `Σₙ⁻¹`; the factor serves every use of it at half the size).
    factor: Cholesky,
    /// Precomputed `Σₙ⁻¹ (θ − µ)`.
    alpha: Vec<f64>,
    /// `Σₙ⁻¹`, built from `factor` only when a diagnostic asks for it.
    inverse: OnceLock<Matrix>,
}

impl TrainedModel {
    /// Fits the model state from past snippets with the given (already
    /// learned) parameters: builds `Σₙ`, factorizes it, and solves for
    /// `α`.
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
        // `Σₙ` and its packed factor set a fit's peak (1½ matrices).
        let mut sigma = index
            .pairs(schema, mode)
            .raw_covariance_matrix(&params, &errors);
        let scale = sigma.max_abs().max(1.0);
        sigma.add_diagonal(jitter * scale);
        let factor = Cholesky::new_with_jitter(&sigma, 1e-12, 8)?;
        drop(sigma);
        let alpha = factor.solve(&centered(schema, &prior, &regions, &observations))?;
        Ok(TrainedModel {
            mode,
            params,
            prior,
            regions,
            index,
            observations,
            factor,
            alpha,
            inverse: OnceLock::new(),
        })
    }

    /// Rebuilds a model from persisted parts (see [`crate::persist`]).
    ///
    /// The parts must come from a previously fitted model: `factor` is
    /// trusted to factor the covariance of `regions` under `params`, and
    /// `alpha = Σₙ⁻¹ (θ − µ)`. The persist layer checks the shapes and that
    /// the factor is one (finite, positive diagonal); semantic validity is
    /// the writer's responsibility.
    pub fn from_parts(
        mode: AggMode,
        params: KernelParams,
        prior: PriorMean,
        regions: Vec<Region>,
        observations: Vec<Observation>,
        factor: Cholesky,
        alpha: Vec<f64>,
    ) -> TrainedModel {
        debug_assert_eq!(regions.len(), observations.len());
        debug_assert_eq!(regions.len(), alpha.len());
        debug_assert_eq!(factor.dim(), regions.len());
        let index = RegionIndex::new(&regions);
        TrainedModel {
            mode,
            params,
            prior,
            regions,
            index,
            observations,
            factor,
            alpha,
            inverse: OnceLock::new(),
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

    /// The Cholesky factor `L` of `Σₙ`.
    pub fn factor(&self) -> &Cholesky {
        &self.factor
    }

    /// `Σₙ⁻¹`, for diagnostics only: built from the factor on the first
    /// call (the tiled `Cholesky::inverse`, the bits a model that stored
    /// the inverse held) and kept. Inference never reads it, and it is
    /// never persisted.
    pub fn sigma_inv(&self) -> &Matrix {
        self.inverse.get_or_init(|| self.factor.inverse())
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
    /// of inference, done for all cells of one query at once. The
    /// cross-covariance columns are built a tile at a time (only one tile
    /// is alive) and share one set of per-dimension factors, and the
    /// kernel reads the factor once per tile; see the module docs.
    pub fn priors(&self, schema: &SchemaInfo, regions: &[&Region]) -> Vec<CellPrior> {
        let mut cross = self.index.cross(schema, &self.params, self.mode);
        let mut out = Vec::with_capacity(regions.len());
        for tile in regions.chunks(TILE_COLS) {
            let columns: Vec<Vec<f64>> = tile.iter().map(|r| cross.column(r)).collect();
            let refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
            let norms = forward_sq_norms(&self.factor, &refs);
            for ((region, k), norm) in tile.iter().zip(&columns).zip(norms) {
                let kappa2 = self.kernel(schema, region, region);
                // γ² = κ̄² − ‖L⁻¹k̄‖² (clamped: tiny negatives are
                // factorization dust; exact zero would claim impossible
                // certainty).
                let gamma2 = (kappa2 - norm).max(kappa2.abs() * 1e-12).max(1e-300);
                out.push(CellPrior {
                    prior_answer: self.prior.of(schema, region) + dot(k, &self.alpha),
                    gamma2,
                });
            }
        }
        out
    }

    /// `κ(a, b)`: the prior covariance of two regions' exact answers.
    fn kernel(&self, schema: &SchemaInfo, a: &Region, b: &Region) -> f64 {
        snippet_covariance(schema, &self.params, self.mode, a, b)
    }

    /// O(n²) inference (Eqs. 11/12) of one cell: its prior, combined with
    /// `raw`. See the module docs for the formulas.
    pub fn infer(&self, schema: &SchemaInfo, region: &Region, raw: Observation) -> ModelInference {
        self.priors(schema, &[region])[0].combine(raw)
    }

    /// Conditions the model on one more observation in O(n²), without
    /// refitting: the factor gains the row `l = L⁻¹k̄`, `√(κ̄² + β² − ‖l‖²)`
    /// (by [`Cholesky::append_row`], so with the bits of a
    /// [`TrainedModel::fit`] on the `n + 1` snippets that adds no jitter),
    /// then `α` is solved again. `β = ∞` is skipped. A pivot that is not
    /// positive and finite — `Σₙ₊₁` is numerically singular — is a
    /// `NotPositiveDefinite` error that leaves the model unchanged: refit.
    pub fn absorb(&mut self, schema: &SchemaInfo, region: &Region, obs: Observation) -> Result<()> {
        if !obs.error.is_finite() {
            return Ok(());
        }
        let mut row = self
            .index
            .cross(schema, &self.params, self.mode)
            .column(region);
        row.push(self.kernel(schema, region, region) + obs.error * obs.error);
        self.factor.append_row(&row)?;
        self.regions.push(region.clone());
        self.index.push(region);
        self.observations.push(obs);
        let centered = centered(schema, &self.prior, &self.regions, &self.observations);
        self.alpha = self.factor.solve(&centered)?;
        self.inverse = OnceLock::new();
        Ok(())
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

/// `θ − µ`: each observed answer less its region's prior mean.
fn centered(
    schema: &SchemaInfo,
    prior: &PriorMean,
    regions: &[Region],
    observations: &[Observation],
) -> Vec<f64> {
    regions
        .iter()
        .zip(observations)
        .map(|(r, o)| o.answer - prior.of(schema, r))
        .collect()
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
    use verdict_linalg::solve_lower;
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

    /// The per-item formula: one cell, one serial `solve_lower` through the
    /// factor and a serial sum of squares, Eq. (12) inline.
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
        for y in solve_lower(&m.factor.to_matrix(), &k).unwrap() {
            quad += y * y;
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
        // γ² = κ̄² − ‖L⁻¹k̄‖² ≈ 0 up to factorization dust, which the clamp
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
    fn absorb_refuses_a_pivot_the_factor_cannot_hold_and_changes_nothing() {
        // One categorical code: κ̄² = σ² = 4 exactly, so an exact repeat of
        // an exact snippet leaves the pivot 4 − (4/2)² = 0, and an
        // overflowing β² leaves it +∞.
        let s = SchemaInfo::new(vec![DimensionSpec::categorical("c", 5)]).unwrap();
        let cell = Region::from_predicate(&s, &Predicate::cat_in("c", vec![2])).unwrap();
        let entries = [(cell.clone(), Observation::exact(7.0))];
        let params = KernelParams::constant(1, 1.0, 4.0);
        let mut m = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &entries,
            params,
            PriorMean::Constant(0.0),
            0.0,
        )
        .unwrap();
        let (factor, alpha) = (m.factor().clone(), m.alpha().to_vec());
        for obs in [Observation::exact(7.0), Observation::new(7.0, 1e200)] {
            let refused = m.absorb(&s, &cell, obs);
            assert_eq!(
                refused,
                Err(crate::CoreError::Linalg(
                    verdict_linalg::LinalgError::NotPositiveDefinite { pivot: 1 }
                ))
            );
            assert_eq!((m.n(), m.factor(), m.alpha()), (1, &factor, &alpha[..]));
        }
        m.absorb(&s, &cell, Observation::new(7.5, 0.5)).unwrap();
        assert_eq!(m.n(), 2);
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
