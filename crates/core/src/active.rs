//! Active database learning (paper §10, future work item (ii); see also
//! Park, "Active Database Learning", CIDR 2017).
//!
//! Instead of waiting for users to ask queries, the engine can proactively
//! execute the approximate query that would *most improve its model*. With
//! the maximum-entropy Gaussian model this has a closed form: observing a
//! candidate region `c` with expected sampling error `β_c` shrinks the
//! posterior variance of any target region `t` by
//!
//! ```text
//! Δvar(t | c) = cov(t, c | past)² / (γ²_c + β²_c)
//! ```
//!
//! where `cov(· | past)` is the posterior covariance given the existing
//! synopsis. The planner scores each candidate by the summed variance
//! reduction over a set of target regions (e.g. a grid over the dimension
//! domain, or the regions users actually query) and proposes the best one.

use crate::inference::TrainedModel;
use crate::region::{Region, SchemaInfo};
use crate::snippet::Observation;
use crate::VerdictConfig;

/// One scored candidate.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Index into the candidate list.
    pub index: usize,
    /// Total posterior-variance reduction over the targets.
    pub score: f64,
}

/// Scores every candidate region by how much observing it (with expected
/// raw error `assumed_error`) would reduce the summed posterior variance of
/// the `targets`. Returns scores sorted descending.
pub fn rank_candidates(
    model: &TrainedModel,
    schema: &SchemaInfo,
    candidates: &[Region],
    targets: &[Region],
    assumed_error: f64,
) -> Vec<CandidateScore> {
    let beta2 = assumed_error * assumed_error;
    let mut scores: Vec<CandidateScore> = candidates
        .iter()
        .enumerate()
        .map(|(index, c)| {
            let gamma2_c = model.posterior_cov(schema, c, c).max(1e-300);
            let denom = gamma2_c + beta2;
            let score = targets
                .iter()
                .map(|t| {
                    let cross = model.posterior_cov(schema, t, c);
                    cross * cross / denom
                })
                .sum();
            CandidateScore { index, score }
        })
        .collect();
    scores.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    scores
}

/// Proposes the single best next query region, or `None` when no candidate
/// reduces variance meaningfully (everything already well covered).
pub fn suggest_next_query(
    model: &TrainedModel,
    schema: &SchemaInfo,
    candidates: &[Region],
    targets: &[Region],
    assumed_error: f64,
) -> Option<usize> {
    let ranked = rank_candidates(model, schema, candidates, targets, assumed_error);
    let best = ranked.first()?;
    if best.score <= 1e-12 {
        None
    } else {
        Some(best.index)
    }
}

/// Greedily plans a batch of `k` proactive queries: after each pick the
/// model hypothetically absorbs the candidate (with a prior-mean dummy
/// answer — only variances matter for planning) so later picks account for
/// earlier ones. A pick the factor cannot absorb (it is numerically a
/// repeat) is conditioned on by refitting with jitter instead.
pub fn plan_batch(
    model: &TrainedModel,
    schema: &SchemaInfo,
    candidates: &[Region],
    targets: &[Region],
    assumed_error: f64,
    k: usize,
) -> Vec<usize> {
    let mut working = model.clone();
    let mut chosen = Vec::with_capacity(k);
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    for _ in 0..k {
        let pool: Vec<Region> = remaining.iter().map(|&i| candidates[i].clone()).collect();
        let Some(best_in_pool) =
            suggest_next_query(&working, schema, &pool, targets, assumed_error)
        else {
            break;
        };
        let cand_idx = remaining.remove(best_in_pool);
        // Hypothetical observation at the model's own expectation: the
        // posterior *variance* update is answer-independent for Gaussians.
        let region = &candidates[cand_idx];
        let dummy = working.infer(schema, region, Observation::new(0.0, f64::INFINITY));
        let obs = Observation::new(dummy.prior_answer, assumed_error);
        if working.absorb(schema, region, obs).is_err() {
            let (mode, params, prior) =
                (working.mode(), working.params().clone(), *working.prior());
            let mut entries: Vec<_> = working
                .regions()
                .iter()
                .cloned()
                .zip(working.observations().to_vec())
                .collect();
            entries.push((region.clone(), obs));
            let jitter = VerdictConfig::default().jitter;
            let Ok(refit) = TrainedModel::fit(schema, mode, &entries, params, prior, jitter) else {
                break;
            };
            working = refit;
        }
        chosen.push(cand_idx);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::AggMode;
    use crate::kernel::KernelParams;
    use crate::learning::PriorMean;
    use crate::region::DimensionSpec;
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap()
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::from_predicate(&schema(), &Predicate::between("t", lo, hi)).unwrap()
    }

    fn model_with_coverage(covered: &[(f64, f64)]) -> TrainedModel {
        let entries: Vec<(Region, Observation)> = covered
            .iter()
            .map(|&(lo, hi)| (region(lo, hi), Observation::new(5.0, 0.1)))
            .collect();
        TrainedModel::fit(
            &schema(),
            AggMode::Avg,
            &entries,
            KernelParams::constant(1, 15.0, 2.0),
            PriorMean::Constant(5.0),
            1e-9,
        )
        .unwrap()
    }

    #[test]
    fn prefers_candidate_overlapping_targets() {
        let m = model_with_coverage(&[(0.0, 10.0)]);
        let s = schema();
        let candidates = vec![region(48.0, 58.0), region(90.0, 95.0)];
        let targets = vec![region(45.0, 60.0)];
        let pick = suggest_next_query(&m, &s, &candidates, &targets, 0.1).unwrap();
        assert_eq!(pick, 0, "overlapping candidate should win");
    }

    #[test]
    fn prefers_uncovered_region() {
        // Targets at both ends; one end already densely observed.
        let m = model_with_coverage(&[(0.0, 10.0), (2.0, 12.0), (4.0, 14.0)]);
        let s = schema();
        let candidates = vec![region(2.0, 12.0), region(80.0, 90.0)];
        let targets = vec![region(0.0, 14.0), region(78.0, 92.0)];
        let pick = suggest_next_query(&m, &s, &candidates, &targets, 0.1).unwrap();
        assert_eq!(pick, 1, "uncovered end should win");
    }

    #[test]
    fn batch_planning_spreads_out() {
        let m = model_with_coverage(&[(0.0, 5.0)]);
        let s = schema();
        let candidates: Vec<Region> = (0..10)
            .map(|i| {
                let lo = i as f64 * 10.0;
                region(lo, lo + 10.0)
            })
            .collect();
        let targets: Vec<Region> = (0..20)
            .map(|i| {
                let lo = i as f64 * 5.0;
                region(lo, (lo + 5.0).min(100.0))
            })
            .collect();
        let picks = plan_batch(&m, &s, &candidates, &targets, 0.1, 3);
        assert_eq!(picks.len(), 3);
        // Greedy picks should not all land adjacent to each other: the
        // hypothetical absorb after each pick pushes later picks away.
        let mut lows: Vec<f64> = picks
            .iter()
            .map(|&i| candidates[i].range(0).unwrap().0)
            .collect();
        lows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            lows[1] - lows[0] >= 10.0 || lows[2] - lows[1] >= 10.0,
            "picks too clustered: {lows:?}"
        );
    }

    #[test]
    fn scores_sorted_descending() {
        let m = model_with_coverage(&[(0.0, 10.0)]);
        let s = schema();
        let candidates: Vec<Region> = (0..5)
            .map(|i| {
                let lo = i as f64 * 20.0;
                region(lo, lo + 10.0)
            })
            .collect();
        let targets = vec![region(40.0, 60.0)];
        let ranked = rank_candidates(&m, &s, &candidates, &targets, 0.1);
        for pair in ranked.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn absorb_matches_refit() {
        // The incremental O(n²) update is a full refit's last factor row:
        // with no jitter, the same bits.
        let s = schema();
        let mut covered: Vec<(Region, Observation)> = (0..6)
            .map(|i| {
                let lo = i as f64 * 12.0;
                (
                    region(lo, lo + 10.0),
                    Observation::new(5.0 + i as f64 * 0.3, 0.2),
                )
            })
            .collect();
        let mut incremental = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &covered,
            KernelParams::constant(1, 15.0, 2.0),
            PriorMean::Constant(5.0),
            0.0,
        )
        .unwrap();
        let new_region = region(30.0, 45.0);
        let new_obs = Observation::new(6.1, 0.15);
        incremental.absorb(&s, &new_region, new_obs).unwrap();

        covered.push((new_region.clone(), new_obs));
        let refit = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &covered,
            KernelParams::constant(1, 15.0, 2.0),
            PriorMean::Constant(5.0),
            0.0,
        )
        .unwrap();

        let raw = Observation::new(5.5, 0.3);
        for (lo, hi) in [(5.0, 20.0), (40.0, 70.0), (80.0, 95.0)] {
            let q = region(lo, hi);
            let a = incremental.infer(&s, &q, raw);
            let b = refit.infer(&s, &q, raw);
            assert_eq!(
                a.model_answer.to_bits(),
                b.model_answer.to_bits(),
                "[{lo},{hi}]"
            );
            assert_eq!(
                a.model_error.to_bits(),
                b.model_error.to_bits(),
                "[{lo},{hi}]"
            );
        }
        assert_eq!(incremental.factor(), refit.factor());
        assert_eq!(incremental.n(), refit.n());
    }

    #[test]
    fn absorb_ignores_uninformative_observation() {
        let s = schema();
        let mut m = model_with_coverage(&[(0.0, 10.0)]);
        let n_before = m.n();
        m.absorb(
            &s,
            &region(50.0, 60.0),
            Observation::new(1.0, f64::INFINITY),
        )
        .unwrap();
        assert_eq!(m.n(), n_before);
    }

    #[test]
    fn posterior_cov_shrinks_with_observation() {
        let s = schema();
        let sparse = model_with_coverage(&[(80.0, 90.0)]);
        let dense = model_with_coverage(&[(40.0, 60.0), (45.0, 65.0)]);
        let t = region(50.0, 55.0);
        assert!(
            dense.posterior_cov(&s, &t, &t) < sparse.posterior_cov(&s, &t, &t),
            "observing the region must reduce its posterior variance"
        );
    }
}
