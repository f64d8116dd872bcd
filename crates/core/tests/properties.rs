//! Property-based tests for the Verdict inference engine.
//!
//! These check the paper's formal claims on randomized inputs:
//! - Theorem 1: the improved error never exceeds the raw error;
//! - the O(n²) inference (Eqs. 11/12) agrees with direct O(n³)
//!   conditioning (Eqs. 4/5);
//! - snippet covariance matrices are symmetric positive semi-definite;
//! - the synopsis never exceeds its capacity.

use proptest::prelude::*;
use verdict_core::covariance::{covariance_matrix, snippet_covariance, AggMode};
use verdict_core::inference::TrainedModel;
use verdict_core::learning::PriorMean;
use verdict_core::{
    AggKey, DimensionSpec, KernelParams, Observation, QuerySynopsis, Region, SchemaInfo, Snippet,
    Verdict, VerdictConfig,
};
use verdict_linalg::Cholesky;
use verdict_storage::Predicate;

const DOMAIN: f64 = 100.0;

fn schema() -> SchemaInfo {
    SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, DOMAIN)]).unwrap()
}

fn region(lo: f64, hi: f64) -> Region {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    Region::from_predicate(&schema(), &Predicate::between("t", lo, hi)).unwrap()
}

/// Strategy: a list of (lo, width, answer, error) snippet observations.
fn snippets_strategy(max_n: usize) -> impl Strategy<Value = Vec<(f64, f64, f64, f64)>> {
    prop::collection::vec(
        (0.0..90.0f64, 1.0..30.0f64, -5.0..25.0f64, 0.01..2.0f64),
        2..max_n,
    )
}

fn build_entries(raw: &[(f64, f64, f64, f64)]) -> Vec<(Region, Observation)> {
    raw.iter()
        .map(|&(lo, w, ans, err)| (region(lo, (lo + w).min(DOMAIN)), Observation::new(ans, err)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theorem1_improved_error_bounded_by_raw(
        snips in snippets_strategy(12),
        q_lo in 0.0..90.0f64,
        q_w in 1.0..30.0f64,
        q_ans in -5.0..25.0f64,
        q_err in 0.0..2.0f64,
        lengthscale in 1.0..60.0f64,
    ) {
        let s = schema();
        let entries = build_entries(&snips);
        let model = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &entries,
            KernelParams::constant(1, lengthscale, 2.0),
            PriorMean::Constant(5.0),
            1e-9,
        )
        .unwrap();
        let raw = Observation::new(q_ans, q_err);
        let inf = model.infer(&s, &region(q_lo, q_lo + q_w), raw);
        prop_assert!(
            inf.model_error <= q_err + 1e-9,
            "β̈ = {} > β = {}",
            inf.model_error,
            q_err
        );
    }

    #[test]
    fn fast_inference_equals_direct(
        snips in snippets_strategy(8),
        q_lo in 0.0..90.0f64,
        q_w in 1.0..30.0f64,
        q_ans in -5.0..25.0f64,
        q_err in 0.05..2.0f64,
        lengthscale in 2.0..60.0f64,
    ) {
        let s = schema();
        let entries = build_entries(&snips);
        let model = TrainedModel::fit(
            &s,
            AggMode::Avg,
            &entries,
            KernelParams::constant(1, lengthscale, 2.0),
            PriorMean::Constant(5.0),
            1e-12,
        )
        .unwrap();
        let raw = Observation::new(q_ans, q_err);
        let r = region(q_lo, q_lo + q_w);
        let fast = model.infer(&s, &r, raw);
        let direct = model.infer_direct(&s, &r, raw, &entries).unwrap();
        let scale = 1.0 + fast.model_answer.abs();
        prop_assert!(
            (fast.model_answer - direct.model_answer).abs() < 1e-5 * scale,
            "answers: fast {} direct {}",
            fast.model_answer,
            direct.model_answer
        );
        prop_assert!(
            (fast.model_error - direct.model_error).abs() < 1e-5,
            "errors: fast {} direct {}",
            fast.model_error,
            direct.model_error
        );
    }

    #[test]
    fn covariance_matrix_is_psd(
        snips in snippets_strategy(10),
        lengthscale in 0.5..80.0f64,
    ) {
        let s = schema();
        let entries = build_entries(&snips);
        let regions: Vec<&Region> = entries.iter().map(|(r, _)| r).collect();
        let params = KernelParams::constant(1, lengthscale, 1.5);
        let mut k = covariance_matrix(&s, &params, AggMode::Avg, &regions);
        for i in 0..k.rows() {
            for j in 0..i {
                prop_assert_eq!(k.get(i, j).to_bits(), k.get(j, i).to_bits());
            }
        }
        // PSD: Cholesky succeeds after adding a tiny ridge.
        k.add_diagonal(1e-8 * k.max_abs().max(1.0));
        prop_assert!(Cholesky::new(&k).is_ok(), "covariance not PSD");
    }

    #[test]
    fn covariance_is_symmetric_and_cauchy_schwarz(
        a_lo in 0.0..90.0f64, a_w in 0.5..30.0f64,
        b_lo in 0.0..90.0f64, b_w in 0.5..30.0f64,
        lengthscale in 0.5..80.0f64,
    ) {
        let s = schema();
        let params = KernelParams::constant(1, lengthscale, 3.0);
        let a = region(a_lo, (a_lo + a_w).min(DOMAIN));
        let b = region(b_lo, (b_lo + b_w).min(DOMAIN));
        let cab = snippet_covariance(&s, &params, AggMode::Avg, &a, &b);
        let cba = snippet_covariance(&s, &params, AggMode::Avg, &b, &a);
        prop_assert!((cab - cba).abs() < 1e-9);
        let caa = snippet_covariance(&s, &params, AggMode::Avg, &a, &a);
        let cbb = snippet_covariance(&s, &params, AggMode::Avg, &b, &b);
        prop_assert!(cab * cab <= caa * cbb * (1.0 + 1e-6) + 1e-12,
            "Cauchy-Schwarz violated: {cab}^2 > {caa}*{cbb}");
    }

    #[test]
    fn synopsis_never_exceeds_capacity(
        cap in 1usize..20,
        inserts in prop::collection::vec((0.0..90.0f64, 1.0..10.0f64, -5.0..5.0f64), 0..60),
    ) {
        let mut syn = QuerySynopsis::new(cap);
        for (lo, w, ans) in inserts {
            syn.record(region(lo, (lo + w).min(DOMAIN)), Observation::new(ans, 0.1));
            prop_assert!(syn.len() <= cap);
        }
    }

    #[test]
    fn engine_improvement_is_theorem1_safe_end_to_end(
        snips in snippets_strategy(10),
        q_lo in 0.0..90.0f64,
        q_w in 1.0..30.0f64,
        q_ans in -5.0..25.0f64,
        q_err in 0.01..2.0f64,
    ) {
        let mut v = Verdict::new(schema(), VerdictConfig::default());
        for (lo, w, ans, err) in snips {
            let snip = Snippet::new(AggKey::avg("x"), region(lo, (lo + w).min(DOMAIN)));
            v.observe(&snip, Observation::new(ans, err));
        }
        v.train().unwrap();
        let snip = Snippet::new(AggKey::avg("x"), region(q_lo, q_lo + q_w));
        let imp = v.improve(&snip, Observation::new(q_ans, q_err));
        prop_assert!(imp.error <= q_err + 1e-9, "β̂ {} > β {q_err}", imp.error);
    }
}

// ---------------------------------------------------------------------
// Appendix D (Lemma 3): data-append adjustments.
// ---------------------------------------------------------------------

mod support;

use support::AdjustmentOps;
use verdict_core::append::AppendAdjustment;

proptest! {
    /// Lemma-3 invariant: the adjusted error `β'` is never smaller than
    /// `β`, for arbitrary shift estimates and table sizes — old answers
    /// only ever lose confidence when data is appended, never gain it.
    #[test]
    fn lemma3_adjusted_error_never_shrinks(
        mu in -1e3..1e3f64,
        eta in 0.0..1e3f64,
        old_rows in 0usize..1_000_000,
        appended in 0usize..1_000_000,
        theta in -1e6..1e6f64,
        beta in 0.0..1e4f64,
    ) {
        let adj = AppendAdjustment { mu_shift: mu, eta, old_rows, appended_rows: appended };
        let out = adj.adjust(Observation::new(theta, beta));
        prop_assert!(out.error >= beta, "β' {} < β {beta}", out.error);
        // And the answer moves by exactly µ · |r_a| / (|r| + |r_a|).
        let f = adj.new_fraction();
        prop_assert_eq!(out.answer.to_bits(), (theta + mu * f).to_bits());
    }

    /// `estimate` with an empty value sample on either side degrades to
    /// the identity adjustment rather than inventing a phantom shift.
    #[test]
    fn estimate_empty_slices_are_identity(
        values in prop::collection::vec(-1e3..1e3f64, 0..20),
        old_rows in 0usize..10_000,
        appended in 0usize..10_000,
        theta in -1e3..1e3f64,
        beta in 0.0..10.0f64,
    ) {
        for (old, new) in [
            (&values[..], &[][..]),
            (&[][..], &values[..]),
            (&[][..], &[][..]),
        ] {
            let adj = AppendAdjustment::estimate(old, new, old_rows, appended);
            prop_assert!(adj.is_identity(), "empty slice produced {adj:?}");
            let out = adj.adjust(Observation::new(theta, beta));
            prop_assert_eq!(out.answer.to_bits(), theta.to_bits());
            prop_assert_eq!(out.error.to_bits(), beta.to_bits());
        }
    }

    /// A zero-row table (`|r| + |r_a| = 0`) makes every adjustment the
    /// identity regardless of the estimated shift: the new fraction is 0.
    #[test]
    fn zero_row_tables_adjust_nothing(
        mu in -1e3..1e3f64,
        eta in 0.0..1e3f64,
        theta in -1e3..1e3f64,
        beta in 0.0..10.0f64,
    ) {
        let adj = AppendAdjustment { mu_shift: mu, eta, old_rows: 0, appended_rows: 0 };
        prop_assert_eq!(adj.new_fraction(), 0.0);
        let out = adj.adjust(Observation::new(theta, beta));
        prop_assert_eq!(out.answer.to_bits(), theta.to_bits());
        prop_assert_eq!(out.error.to_bits(), beta.to_bits());
    }

    /// `µ = 0` with `η = 0` is a no-op on every observation, and the
    /// engine-level apply reports exactly how many snippets it touched
    /// (zero for a key with no synopsis — visible, not silent).
    #[test]
    fn mu_zero_identity_and_visible_counts(
        raw in snippets_strategy(12),
        old_rows in 1usize..10_000,
        appended in 1usize..10_000,
    ) {
        let mut v = Verdict::new(schema(), VerdictConfig::default());
        for (lo, w, ans, err) in &raw {
            v.observe(
                &Snippet::new(AggKey::avg("x"), region(*lo, lo + w)),
                Observation::new(*ans, *err),
            );
        }
        let before: Vec<Observation> = v
            .synopsis(&AggKey::avg("x"))
            .unwrap()
            .entries()
            .iter()
            .map(|e| e.observation)
            .collect();
        let identity = AppendAdjustment {
            mu_shift: 0.0,
            eta: 0.0,
            old_rows,
            appended_rows: appended,
        };
        let adjusted = v.apply_append(&AggKey::avg("x"), &identity).unwrap();
        prop_assert_eq!(adjusted, before.len());
        let after: Vec<Observation> = v
            .synopsis(&AggKey::avg("x"))
            .unwrap()
            .entries()
            .iter()
            .map(|e| e.observation)
            .collect();
        for (b, a) in before.iter().zip(after.iter()) {
            prop_assert_eq!(b.answer.to_bits(), a.answer.to_bits());
            prop_assert_eq!(b.error.to_bits(), a.error.to_bits());
        }
        // A key with no synopsis adjusts zero snippets — and says so.
        prop_assert_eq!(v.apply_append(&AggKey::Freq, &identity).unwrap(), 0);
    }
}

// ---------------------------------------------------------------------
// Covariance assembly from per-dimension tables (`RegionIndex`) against
// the all-pairs oracle it replaced: same bits, never more integrals.
// ---------------------------------------------------------------------

mod all_pairs;

use std::collections::HashSet;

use verdict_core::covariance::{
    cross_covariance, raw_covariance_matrix, CrossFactors, RegionIndex,
};
use verdict_core::inference::CellPrior;
use verdict_core::region::DimConstraint;
use verdict_core::{DimKind, Persist};
use verdict_linalg::ops::dot;
use verdict_linalg::solve_lower;

/// A small deterministic generator: the vendored `proptest` draws the
/// seed and the sizes, this draws the rest, so one failing case is one
/// `(seed, sizes)` tuple.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

/// One dimension's constraint generator: a small pool the regions draw
/// from (so constraints repeat, in both orientations of a pair), or —
/// `fresh` — a new constraint per region (so none does).
struct DimGen {
    kind: DimKind,
    pool: Vec<DimConstraint>,
    fresh: bool,
}

impl DimGen {
    fn numeric(rng: &mut Lcg, hostile: bool) -> DimGen {
        let mut gen = DimGen {
            kind: DimKind::Numeric {
                lo: -50.0,
                hi: 100.0,
            },
            pool: Vec::new(),
            fresh: rng.below(3) == 0,
        };
        // Zero-width, inverted, and the two zeros as interval ends.
        let hostile_pool = [
            (0.0, 10.0),
            (-0.0, 10.0),
            (5.0, 5.0),
            (7.0, 3.0),
            (0.0, 0.0),
            (-0.0, 0.0),
            (-50.0, 100.0),
        ];
        for _ in 0..1 + rng.below(4) {
            let c = if hostile && rng.below(2) == 0 {
                let (lo, hi) = rng.pick(&hostile_pool);
                DimConstraint::Range { lo, hi }
            } else {
                gen.draw_fresh(rng)
            };
            gen.pool.push(c);
        }
        gen
    }

    fn categorical(rng: &mut Lcg, hostile: bool) -> DimGen {
        let cardinality = 1 + rng.below(6) as u32;
        let mut gen = DimGen {
            kind: DimKind::Categorical { cardinality },
            pool: Vec::new(),
            fresh: false,
        };
        for _ in 0..1 + rng.below(4) {
            let c = match rng.below(if hostile { 5 } else { 3 }) {
                0 => DimConstraint::Set(None),
                // Full but explicit: not the universal `None`.
                3 => DimConstraint::Set(Some((0..cardinality).collect())),
                4 => DimConstraint::Set(Some(Vec::new())),
                _ => gen.draw_fresh(rng),
            };
            gen.pool.push(c);
        }
        gen
    }

    fn draw_fresh(&self, rng: &mut Lcg) -> DimConstraint {
        match self.kind {
            DimKind::Numeric { lo, hi } => {
                let a = lo + rng.unit() * (hi - lo);
                let width = rng.unit() * 40.0;
                DimConstraint::Range {
                    lo: a,
                    hi: (a + width).min(hi),
                }
            }
            DimKind::Categorical { cardinality } => {
                let codes: Vec<u32> = (0..cardinality).filter(|_| rng.below(2) == 0).collect();
                // Never empty here: an empty set is drawn on purpose only.
                DimConstraint::Set(Some(if codes.is_empty() { vec![0] } else { codes }))
            }
        }
    }

    fn draw(&self, rng: &mut Lcg) -> DimConstraint {
        if self.fresh {
            self.draw_fresh(rng)
        } else {
            rng.pick(&self.pool)
        }
    }
}

struct Fixture {
    schema: SchemaInfo,
    dims: Vec<DimGen>,
    params: KernelParams,
    regions: Vec<Region>,
}

impl Fixture {
    fn region(&self, rng: &mut Lcg) -> Region {
        Region::from_constraints(self.dims.iter().map(|d| d.draw(rng)).collect())
    }

    fn refs(&self) -> Vec<&Region> {
        self.regions.iter().collect()
    }
}

/// `n` regions over a random schema of `n_num` numeric and `n_cat`
/// categorical dimensions in random order. `hostile` adds degenerate
/// constraints, huge and tiny lengthscales, and a zero or huge `σ²`.
fn fixture(rng: &mut Lcg, n_num: usize, n_cat: usize, n: usize, hostile: bool) -> Fixture {
    let mut numeric_left = n_num;
    let mut dims = Vec::new();
    for left in (1..=n_num + n_cat).rev() {
        if rng.below(left) < numeric_left {
            numeric_left -= 1;
            dims.push(DimGen::numeric(rng, hostile));
        } else {
            dims.push(DimGen::categorical(rng, hostile));
        }
    }
    let schema = SchemaInfo::new(
        dims.iter()
            .enumerate()
            .map(|(k, d)| DimensionSpec {
                name: format!("d{k}"),
                kind: d.kind.clone(),
            })
            .collect(),
    )
    .unwrap();
    let lengthscales = dims
        .iter()
        .map(|_| {
            if hostile && rng.below(3) == 0 {
                rng.pick(&[1e-9, 1e12, 0.3])
            } else {
                5.0 + rng.unit() * 55.0
            }
        })
        .collect();
    let sigma2 = if hostile {
        rng.pick(&[2.0, 2.0, 2.0, 0.0, 1e200])
    } else {
        2.0
    };
    let mut fixture = Fixture {
        schema,
        dims,
        params: KernelParams {
            lengthscales,
            sigma2,
        },
        regions: Vec::new(),
    };
    for _ in 0..n {
        let region = fixture.region(rng);
        fixture.regions.push(region);
    }
    fixture
}

/// Position of the first of `regions` whose constraint on dimension `k`
/// is the same bits as `region`'s: the identity a `RegionIndex` slot has.
fn identity(regions: &[&Region], region: &Region, k: usize) -> usize {
    regions
        .iter()
        .position(|r| r.constraints()[k].same_bits(&region.constraints()[k]))
        .expect("region is one of regions")
}

/// Eq. 11 for one cell from an all-pairs `k̄`, a serial `solve_lower`
/// through the factor and a serial sum of squares — what
/// `TrainedModel::priors` must equal bit for bit.
fn oracle_prior(model: &TrainedModel, schema: &SchemaInfo, region: &Region) -> CellPrior {
    let past: Vec<&Region> = model.regions().iter().collect();
    let k = all_pairs::cross_covariance(schema, model.params(), model.mode(), &past, region);
    let kappa2 = snippet_covariance(schema, model.params(), model.mode(), region, region);
    let mut quad = 0.0;
    for y in solve_lower(&model.factor().to_matrix(), &k).unwrap() {
        quad += y * y;
    }
    CellPrior {
        prior_answer: model.prior().of(schema, region) + dot(&k, model.alpha()),
        gamma2: (kappa2 - quad).max(kappa2.abs() * 1e-12).max(1e-300),
    }
}

fn assert_priors_equal_oracle(
    model: &TrainedModel,
    schema: &SchemaInfo,
    cells: &[&Region],
) -> Result<(), TestCaseError> {
    let priors = model.priors(schema, cells, 3);
    prop_assert_eq!(priors.len(), cells.len());
    for (cell, got) in cells.iter().zip(&priors) {
        let want = oracle_prior(model, schema, cell);
        prop_assert_eq!(got.prior_answer.to_bits(), want.prior_answer.to_bits());
        prop_assert_eq!(got.gamma2.to_bits(), want.gamma2.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Matrices and columns: every element the bits of the all-pairs
    /// oracle; the factors evaluated exactly the distinct ordered pairs of
    /// constraints met before an element reached zero, so never more than
    /// the oracle evaluates.
    #[test]
    fn indexed_assembly_equals_all_pairs_bit_for_bit(
        seed in any::<u64>(),
        n_num in 0usize..=3,
        n_cat in 0usize..=3,
        n in 0usize..=40,
        freq in any::<bool>(),
    ) {
        let mut rng = Lcg(seed);
        let f = fixture(&mut rng, n_num, n_cat, n, true);
        let (schema, params) = (&f.schema, &f.params);
        let mode = if freq { AggMode::Freq } else { AggMode::Avg };
        let refs = f.refs();
        let errors: Vec<f64> = (0..n)
            .map(|_| rng.pick(&[0.1, 0.0, 3.0, f64::INFINITY, f64::NAN, f64::NEG_INFINITY]))
            .collect();

        let want = all_pairs::covariance_matrix(schema, params, mode, &refs);
        let want_raw = all_pairs::raw_covariance_matrix(schema, params, mode, &refs, &errors);
        let index = RegionIndex::new(refs.iter().copied());
        prop_assert_eq!(index.len(), n);
        // Packed: the oracle's lower triangles.
        let mut pairs = index.pairs(schema, mode);
        let got = pairs.covariance_packed(params);
        let evaluated = pairs.evaluations();
        let got_raw = pairs.raw_covariance_packed(params, &errors);
        for (got, want) in [(got, want.packed_lower()), (got_raw, want_raw.packed_lower())] {
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(g.to_bits() == w.to_bits(), "{g} vs {w}");
            }
        }
        // Dense: the oracle's matrices, both triangles.
        for (got, want) in [
            (&covariance_matrix(schema, params, mode, &refs), &want),
            (&raw_covariance_matrix(schema, params, mode, &refs, &errors), &want_raw),
        ] {
            prop_assert_eq!((got.rows(), got.cols()), (n, n));
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                prop_assert!(g.to_bits() == w.to_bits(), "{g} vs {w}");
            }
        }

        // The oracle's factor evaluations, and the distinct ordered pairs
        // of constraints among them.
        let mut oracle_evaluations = 0u64;
        let mut met: HashSet<(usize, usize, usize)> = HashSet::new();
        let mut untabled = 0u64;
        let distinct = index.distinct_per_dim();
        for i in 0..n {
            for j in i..n {
                let v = all_pairs::snippet_covariance_traced(
                    schema, params, mode, refs[i], refs[j],
                    |k| {
                        oracle_evaluations += 1;
                        untabled += u64::from(distinct[k] == n);
                        met.insert((k, identity(&refs, refs[i], k), identity(&refs, refs[j], k)));
                    },
                );
                prop_assert_eq!(v.to_bits(), want.get(i, j).to_bits());
            }
        }
        prop_assert_eq!(evaluated, met.len() as u64);
        prop_assert!(evaluated <= oracle_evaluations);
        // A second matrix under the same parameters integrates only the
        // dimensions that keep no table (no constraint repeats in them).
        prop_assert_eq!(pairs.evaluations(), evaluated + untabled);

        // k̄ columns of new regions that share constraints with the past
        // ones and with each other, through one `CrossFactors`.
        let news: Vec<Region> = (0..6).map(|_| f.region(&mut rng)).collect();
        let new_refs: Vec<&Region> = news.iter().collect();
        let mut cross: CrossFactors<'_> = index.cross(schema, params, mode);
        let mut oracle_evaluations = 0u64;
        let mut met: HashSet<(usize, usize, usize)> = HashSet::new();
        for new in &news {
            let want = all_pairs::cross_covariance(schema, params, mode, &refs, new);
            for got in [cross.column(new), cross_covariance(schema, params, mode, &refs, new)] {
                prop_assert_eq!(got.len(), n);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(g.to_bits() == w.to_bits(), "{g} vs {w}");
                }
            }
            for past in &refs {
                all_pairs::snippet_covariance_traced(schema, params, mode, past, new, |k| {
                    oracle_evaluations += 1;
                    met.insert((k, identity(&refs, past, k), identity(&new_refs, new, k)));
                });
            }
        }
        prop_assert_eq!(cross.evaluations(), met.len() as u64);
        prop_assert!(cross.evaluations() <= oracle_evaluations);
    }

    /// `TrainedModel::priors` over a grouped tile — cells equal on all but
    /// one dimension — equals the per-cell oracle; so does a model whose
    /// index was extended by `absorb`, and one whose index was rebuilt by
    /// a `persist` round trip, which also leaves the bytes unchanged.
    #[test]
    fn priors_of_a_grouped_tile_equal_per_cell_oracle_columns(
        seed in any::<u64>(),
        n_num in 0usize..=3,
        n_cat in 0usize..=3,
        n in 1usize..=40,
        freq in any::<bool>(),
    ) {
        let mut rng = Lcg(seed);
        let f = fixture(&mut rng, n_num, n_cat, n, false);
        let schema = &f.schema;
        let mode = if freq { AggMode::Freq } else { AggMode::Avg };
        let entries: Vec<(Region, Observation)> = f
            .regions
            .iter()
            .map(|r| (r.clone(), Observation::new(rng.unit() * 20.0, 0.05 + rng.unit())))
            .collect();
        let fit = TrainedModel::fit(
            schema, mode, &entries, f.params.clone(), PriorMean::Constant(10.0), 1e-9,
        );
        // An ill-conditioned draw is not what this test is about.
        let Ok(mut model) = fit else { return Ok(()) };

        // 11 cells: one full tile of the forward-substitution kernel and a
        // ragged one, repeats included.
        let base = f.region(&mut rng);
        let varied = rng.below(schema.len().max(1));
        let cells: Vec<Region> = (0..11)
            .map(|_| {
                let mut constraints = base.constraints().to_vec();
                if let Some(c) = constraints.get_mut(varied) {
                    *c = f.dims[varied].draw(&mut rng);
                }
                Region::from_constraints(constraints)
            })
            .collect();
        let cell_refs: Vec<&Region> = cells.iter().collect();
        assert_priors_equal_oracle(&model, schema, &cell_refs)?;

        let next = f.region(&mut rng);
        if model.absorb(schema, &cells[0], Observation::new(9.0, 0.3)).is_err()
            || model.absorb(schema, &next, Observation::new(11.0, 0.2)).is_err()
        {
            // Σₙ₊₁ is numerically singular: a refit's business, not this test's.
            return Ok(());
        }
        prop_assert_eq!(model.n(), n + 2);
        assert_priors_equal_oracle(&model, schema, &cell_refs)?;

        let bytes = model.to_bytes();
        let reloaded = TrainedModel::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&reloaded.to_bytes(), &bytes);
        assert_priors_equal_oracle(&reloaded, schema, &cell_refs)?;
        let (absorbed, reloaded) = (model.priors(schema, &cell_refs, 1), reloaded.priors(schema, &cell_refs, 1));
        prop_assert_eq!(absorbed, reloaded);
    }

    /// `absorb` is a factorization's last row. Absorbing snippet `n + 1`
    /// into a fit on `n` gives the bits of factoring that fit's `Σₙ`
    /// (jitter included) bordered by the new row and column: at jitter 0
    /// that is a fit on all `n + 1` — factor, `α`, every prior, the
    /// encoded bytes — whenever the fit needs no retry. A refused absorb
    /// is exactly a bordered matrix the factorization refuses at pivot
    /// `n`. Pooled constraints, repeated regions and exact answers make
    /// `Σ` near-singular.
    #[test]
    fn absorb_then_priors_equal_a_fit_on_n_plus_one(
        seed in any::<u64>(),
        n_num in 0usize..=2,
        n_cat in 0usize..=2,
        n in 1usize..=30,
        freq in any::<bool>(),
        jittered in any::<bool>(),
    ) {
        let mut rng = Lcg(seed);
        let f = fixture(&mut rng, n_num, n_cat, n + 1, false);
        let schema = &f.schema;
        let mode = if freq { AggMode::Freq } else { AggMode::Avg };
        let entries: Vec<(Region, Observation)> = (0..=n)
            .map(|i| {
                let region = f.regions[if i > 0 && rng.below(4) == 0 { rng.below(i) } else { i }].clone();
                let error = if rng.below(5) == 0 { 0.0 } else { 0.05 + rng.unit() };
                (region, Observation::new(rng.unit() * 20.0, error))
            })
            .collect();
        let jitter = if jittered { 1e-9 } else { 0.0 };
        let fit = |entries: &[(Region, Observation)]| {
            TrainedModel::fit(schema, mode, entries, f.params.clone(), PriorMean::Constant(10.0), jitter)
        };
        let Ok(mut absorbed) = fit(&entries[..n]) else { return Ok(()) };
        // The bordered matrix: `Σₙ₊₁` with the fit's jitter on the first
        // `n` diagonals only.
        let refs: Vec<&Region> = entries.iter().map(|(r, _)| r).collect();
        let errors: Vec<f64> = entries.iter().map(|(_, o)| o.error).collect();
        let raw = |m: usize| raw_covariance_matrix(schema, &f.params, mode, &refs[..m], &errors[..m]);
        let shift = jitter * raw(n).max_abs().max(1.0);
        let mut bordered = raw(n + 1);
        for i in 0..n {
            bordered.set(i, i, bordered.get(i, i) + shift);
        }
        if Cholesky::new(&bordered.leading_principal(n).unwrap()).is_err() {
            // The fit on `n` retried with more jitter than the config's.
            return Ok(());
        }
        let (region, obs) = &entries[n];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (absorbed.absorb(schema, region, *obs), Cholesky::new(&bordered)) {
            (Ok(()), Ok(want)) => prop_assert_eq!(bits(absorbed.factor().packed()), bits(want.packed())),
            (Err(got), Err(want)) => {
                prop_assert_eq!(got, verdict_core::CoreError::Linalg(want));
                return Ok(());
            }
            (got, want) => return Err(TestCaseError(format!("absorb {got:?}, factor {want:?}"))),
        }
        if jittered {
            return Ok(());
        }
        let want = fit(&entries).unwrap();
        let cells: Vec<Region> = (0..9).map(|_| f.region(&mut rng)).chain([region.clone()]).collect();
        let cell_refs: Vec<&Region> = cells.iter().collect();
        prop_assert_eq!(bits(absorbed.alpha()), bits(want.alpha()));
        prop_assert_eq!(absorbed.priors(schema, &cell_refs, 1), want.priors(schema, &cell_refs, 1));
        prop_assert_eq!(absorbed.to_bytes(), want.to_bytes());
    }
}
