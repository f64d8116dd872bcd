//! What the two parity suites hold `Database::query` to: the shared
//! fixture, and [`check`], which answers one query through the database
//! and re-derives everything it reported and recorded from the
//! oracles in `verdict-aqp` — [`BatchEstimator`] (one snippet's estimator
//! over a batch prefix) and, on request, the row-wise scan kernel — using
//! only public pieces (`plan_scan`, `EngineView::improve_batch` of the
//! snapshot pinned *before* the query, `QuerySynopsis::record`,
//! `EngineState::from_bytes`). The §2.3 recovery formulas are written out
//! here, so the engine's combiner is checked by something other than
//! itself.
//!
//! [`all_pairs_twin`] is the second oracle: the learned state a snapshot
//! would hold had every model in it been trained on covariance matrices
//! assembled pair by pair (`crates/core/tests/all_pairs`), not from
//! `RegionIndex`'s per-dimension tables.
#![allow(dead_code)] // each suite uses its own part of the fixture

#[path = "../../crates/core/tests/all_pairs/mod.rs"]
pub mod all_pairs;

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use verdict::aqp::{BatchEstimator, Sample, ScanKernel, ScanSpec, SharedScanDriver};
use verdict::core::covariance::AggMode;
use verdict::core::inference::TrainedModel;
use verdict::core::learning::{estimate_prior_mean, estimate_sigma2};
use verdict::core::optimizer::nelder_mead;
use verdict::core::persist::{EngineState, Persist};
use verdict::core::{
    AggKey, DimKind, EngineStats, ImprovedAnswer, KernelParams, Observation, QuerySynopsis, Region,
    SchemaInfo, Snippet, VerdictConfig,
};
use verdict::linalg::{Cholesky, Matrix};
use verdict::obs::MetricsHub;
use verdict::sql::{parse_query, plan_scan, ScanPlan};
use verdict::{
    Database, Mode, QueryOptions, QueryResult, SessionSnapshot, StopPolicy, TableOptions,
};
use verdict_storage::{AggregateFn, ColumnDef, GroupKey, Schema, Table};

pub const REGIONS: [&str; 10] = ["r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"];

/// A deterministic table: numeric `week` dimension (1..=25), categorical
/// `region` dimension (10 labels), `rev` measure.
pub fn base_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::categorical_dimension("region"),
        ColumnDef::measure("rev"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 0x9e3779b97f4a7c15u64;
    for i in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let week = 1.0 + (i % 25) as f64;
        let region = REGIONS[i % REGIONS.len()];
        let rev = 50.0 + 10.0 * (week / 4.0).sin() + 8.0 * (u - 0.5);
        t.push_row(vec![week.into(), region.into(), rev.into()])
            .unwrap();
    }
    t
}

/// A one-table database (table `t`) over [`base_table`]; `hub` attaches
/// a metrics hub and query log, so a checked run also proves
/// observability cannot perturb answers.
pub fn session(rows: usize, hub: bool) -> Database {
    let options = TableOptions {
        sample_fraction: 0.25,
        batch_size: 150,
        seed: 17,
        ..TableOptions::default()
    };
    let mut b = Database::builder().register_table_with("t", base_table(rows), options);
    if hub {
        b = b.metrics(Arc::new(MetricsHub::new())).query_log(32);
    }
    b.build().unwrap()
}

#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub sql: String,
    pub policy: StopPolicy,
}

/// Random supported queries: 1–3 aggregates (deduplication exercised by
/// AVG+SUM+COUNT combinations), optional GROUP BY on either dimension, a
/// random draw over all four stop policies, and one of the first `shapes`
/// filter shapes (week range; region IN-set ∧ range; single week).
pub fn query_spec(shapes: u32) -> impl Strategy<Value = QuerySpec> {
    (0u32..20, 1u32..=25, 1u32..8, 0u32..3, 0u32..4, 0..shapes).prop_map(
        |(lo, width, agg_mask, group, policy, shape)| {
            let mut aggs: Vec<&str> = Vec::new();
            if agg_mask & 1 != 0 {
                aggs.push("AVG(rev)");
            }
            if agg_mask & 2 != 0 {
                aggs.push("SUM(rev)");
            }
            if agg_mask & 4 != 0 {
                aggs.push("COUNT(*)");
            }
            let (select_prefix, group_clause) = match group {
                1 => ("region, ", " GROUP BY region"),
                2 => ("week, ", " GROUP BY week"),
                _ => ("", ""),
            };
            let hi = lo + width;
            let filter = match shape {
                // A categorical IN-set exercises the bitset kernel and
                // CatZone pruning; the narrow range exercises NumZone.
                1 => format!("region IN ('r1', 'r4', 'r7') AND week BETWEEN {lo} AND {hi}"),
                // Selective range: most chunks prunable on ordered weeks.
                2 => format!("week = {}", 1 + lo % 25),
                _ => format!("week BETWEEN {lo} AND {hi}"),
            };
            let sql = format!(
                "SELECT {select_prefix}{} FROM t WHERE {filter}{group_clause}",
                aggs.join(", "),
            );
            let policy = match policy {
                0 => StopPolicy::ScanAll,
                1 => StopPolicy::TupleBudget(700),
                2 => StopPolicy::TupleBudget(2_000),
                _ => StopPolicy::RelativeErrorBound {
                    target: 0.05,
                    delta: 0.95,
                },
            };
            QuerySpec { sql, policy }
        },
    )
}

/// The plan the engine answered `sql` under, rebuilt through `plan_scan`
/// from the result's own group keys — which must be the enumeration of
/// the sample's answer set (bit-compared by rendering: a NaN key equals
/// itself).
pub fn plan_of(snapshot: &SessionSnapshot, sql: &str, result: &QueryResult) -> ScanPlan {
    let sample = &snapshot.samples()[0];
    let keys: Vec<GroupKey> = result.rows.iter().filter_map(|r| r.group.clone()).collect();
    let nmax = snapshot.engine_snapshot().config().nmax;
    let plan = plan_scan(&parse_query(sql).unwrap(), sample.table(), &keys, nmax).unwrap();
    if !plan.group_cols.is_empty() {
        let enumerated = sample
            .distinct_group_keys(&plan.base_predicate, &plan.group_cols)
            .unwrap();
        assert_eq!(format!("{keys:?}"), format!("{enumerated:?}"), "{sql}");
    }
    assert_eq!(result.truncated, plan.truncated, "{sql}");
    plan
}

/// The model key of each of `plan`'s primitive streams.
pub fn prim_keys(plan: &ScanPlan) -> Vec<AggKey> {
    plan.primitives
        .iter()
        .map(|p| match p {
            AggregateFn::Avg(e) => AggKey::avg(&e.to_string()),
            _ => AggKey::Freq,
        })
        .collect()
}

/// A driver over `plan`'s scan running the row-wise kernel oracle.
pub fn rowwise_driver<'e>(sample: &'e Sample, plan: &ScanPlan) -> SharedScanDriver<'e> {
    let groups: Vec<GroupKey> = plan.groups.iter().flatten().cloned().collect();
    let spec = ScanSpec {
        predicate: &plan.base_predicate,
        group_cols: &plan.group_cols,
        groups: &groups,
        primitives: &plan.primitives,
    };
    let mut driver = SharedScanDriver::over_sample(sample, &spec).unwrap();
    driver.set_kernel(ScanKernel::RowWise);
    driver
}

/// Raw `(θ, β)` of every `(group, primitive)` snippet after each of the
/// first `depth` batches — `[batch][g * primitives + p]` — from one
/// [`BatchEstimator`] per snippet over `plan.group_predicates[g]`.
fn estimator_raws(sample: &Sample, plan: &ScanPlan, depth: usize) -> Vec<Vec<(f64, f64)>> {
    let mut raws = vec![Vec::new(); depth];
    for predicate in &plan.group_predicates {
        for primitive in &plan.primitives {
            let mut estimator =
                BatchEstimator::new(sample.table(), sample.base_rows(), primitive, predicate)
                    .unwrap();
            for (batch, at) in raws.iter_mut().enumerate() {
                estimator.consume(sample.batch_range(batch));
                at.push(estimator.current());
            }
        }
    }
    raws
}

/// The same table from the row-wise kernel's grid.
fn rowwise_raws(sample: &Sample, plan: &ScanPlan, depth: usize) -> Vec<Vec<(f64, f64)>> {
    let mut driver = rowwise_driver(sample, plan);
    let mut raws = Vec::with_capacity(depth);
    for _ in 0..depth {
        assert!(driver.step());
        let mut at = Vec::new();
        for g in 0..plan.groups.len() {
            for p in 0..plan.primitives.len() {
                let raw = driver.raw(g, p);
                at.push((raw.answer, raw.error));
            }
        }
        raws.push(at);
    }
    raws
}

/// §2.3 recovery of a user-facing `(answer, error)` from its primitive
/// pairs (AVG before FREQ) over a base table of `n` rows: AVG is the
/// identity; COUNT is `round(N·θ)`, `N·β`; SUM is `a·c` with the
/// perfect-correlation bound `|a|σ_c + |c|σ_a`. A model-improved count is
/// floored at zero (`improved`).
fn recover(agg: &AggregateFn, prims: &[(f64, f64)], n: f64, improved: bool) -> (f64, f64) {
    let floor = |c: f64| if improved { c.max(0.0) } else { c };
    match agg {
        AggregateFn::Avg(_) | AggregateFn::Freq => prims[0],
        AggregateFn::Count => (floor((prims[0].0 * n).round()), prims[0].1 * n),
        AggregateFn::Sum(_) => {
            let ((a, sa), (c, sc)) = (prims[0], (floor(prims[1].0 * n), prims[1].1 * n));
            let error = if sa.is_finite() && sc.is_finite() {
                (a * sc).abs() + (c * sa).abs()
            } else {
                f64::INFINITY
            };
            (a * c, error)
        }
    }
}

fn synopses(snapshot: &SessionSnapshot) -> BTreeMap<AggKey, QuerySynopsis> {
    let state = EngineState::from_bytes(&snapshot.state_bytes()).unwrap();
    state.synopses.into_iter().collect()
}

fn assert_bits(got: f64, want: f64, what: &str, sql: &str) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: {got} vs {want} for {sql}"
    );
}

/// Answers `sql` through the database and checks, against the estimator
/// oracle (and the row-wise kernel when `rowwise`), every cell's raw and
/// improved answer at its reported batch prefix, every stop point, and
/// exactly what the query recorded into the synopsis. Returns the result.
pub fn check(
    db: &Database,
    sql: &str,
    mode: Mode,
    policy: StopPolicy,
    rowwise: bool,
) -> QueryResult {
    let before = db.snapshot("t").unwrap();
    let opts = QueryOptions::new().with_mode(mode).with_policy(policy);
    let result = db.query(sql, &opts).unwrap().unwrap_answered();
    let sample = &before.samples()[0];
    let plan = plan_of(&before, sql, &result);
    assert_eq!(result.rows.len(), plan.groups.len(), "{sql}");

    // Batch prefixes: `cum[k]` rows lie in the first `k` batches.
    let mut cum = vec![0usize];
    for b in 0..sample.num_batches() {
        cum.push(cum[b] + sample.batch_range(b).len());
    }
    let batches_of = |tuples: usize| {
        let k = cum.iter().position(|&c| c == tuples);
        k.unwrap_or_else(|| panic!("{tuples} is not a whole-batch prefix: {sql}"))
    };
    let raws = estimator_raws(sample, &plan, batches_of(result.tuples_scanned));
    if rowwise {
        assert_eq!(
            format!("{raws:?}"),
            format!("{:?}", rowwise_raws(sample, &plan, raws.len())),
            "row-wise kernel vs estimator: {sql}"
        );
    }
    // A budget buys one prefix of the one scan, whatever G × A is.
    let budget_prefix = match policy {
        StopPolicy::TupleBudget(n) => Some(n),
        StopPolicy::ScanAll => Some(usize::MAX),
        _ => None,
    }
    .map(|cap| {
        cum[1..]
            .iter()
            .copied()
            .find(|&c| c >= cap)
            .unwrap_or(sample.len())
    });

    let view = before.engine_snapshot().view();
    let n = sample.base_rows() as f64;
    let keys = prim_keys(&plan);
    let capacity = view.config().synopsis_capacity;
    let mut want = synopses(&before);
    let mut deepest = 0;
    for (g, row) in result.rows.iter().enumerate() {
        let region = Region::from_predicate(view.schema(), &plan.group_predicates[g]).ok();
        let learn = region.as_ref().filter(|_| mode == Mode::Verdict);
        assert_eq!(row.values.len(), plan.aggregates.len(), "{sql}");
        for (cell, spec) in row.values.iter().zip(&plan.aggregates) {
            let prims: Vec<usize> = spec
                .avg_prim
                .iter()
                .chain(&spec.freq_prim)
                .copied()
                .collect();
            // The cell after `k` batches, from the oracle's pairs alone:
            // its raw primitives, and the answer it would report.
            let at = |k: usize| {
                let raw: Vec<(f64, f64)> = prims
                    .iter()
                    .map(|&p| raws[k - 1][g * plan.primitives.len() + p])
                    .collect();
                let (answer, error) = recover(&spec.agg, &raw, n, false);
                let Some(region) = learn else {
                    return (
                        raw,
                        (answer, error),
                        ImprovedAnswer {
                            answer,
                            error,
                            used_model: false,
                        },
                    );
                };
                let requests: Vec<(Snippet, Observation)> = prims
                    .iter()
                    .zip(&raw)
                    .map(|(&p, &(t, b))| {
                        (
                            Snippet::new(keys[p].clone(), region.clone()),
                            Observation::new(t, b),
                        )
                    })
                    .collect();
                let improved = view.improve_batch(&requests, &mut EngineStats::default());
                let pairs: Vec<(f64, f64)> = improved.iter().map(|i| (i.answer, i.error)).collect();
                let (ia, ie) = recover(&spec.agg, &pairs, n, true);
                let used_model = improved.iter().any(|i| i.used_model);
                (
                    raw,
                    (answer, error),
                    ImprovedAnswer {
                        answer: ia,
                        error: ie,
                        used_model,
                    },
                )
            };
            let k = batches_of(cell.tuples_scanned);
            deepest = deepest.max(cell.tuples_scanned);
            let (raw, user, improved) = at(k);
            assert_bits(cell.raw_answer, user.0, "raw answer", sql);
            assert_bits(cell.raw_error, user.1, "raw error", sql);
            assert_bits(
                cell.improved.answer,
                improved.answer,
                "improved answer",
                sql,
            );
            assert_bits(cell.improved.error, improved.error, "improved error", sql);
            assert_eq!(cell.improved.used_model, improved.used_model, "{sql}");
            match (policy, budget_prefix) {
                (StopPolicy::RelativeErrorBound { target, delta }, _) => {
                    // Frozen at the first batch whose bound meets the
                    // target — or scanned out without meeting it.
                    let met = |i: &ImprovedAnswer| {
                        let bound = i.bound(delta);
                        bound.is_finite() && bound / i.answer.abs().max(1e-9) <= target
                    };
                    assert!(
                        met(&improved) || k == sample.num_batches(),
                        "stopped unmet: {sql}"
                    );
                    assert!(k == 1 || !met(&at(k - 1).2), "stopped a batch late: {sql}");
                }
                (_, prefix) => assert_eq!(Some(cell.tuples_scanned), prefix, "{sql}"),
            }
            // Algorithm 2 line 6: the raw primitives, in Figure-3 order.
            for (&p, &(t, b)) in prims.iter().zip(&raw) {
                if let (Some(region), true) = (learn, b.is_finite()) {
                    want.entry(keys[p].clone())
                        .or_insert_with(|| QuerySynopsis::new(capacity))
                        .record(region.clone(), Observation::new(t, b));
                }
            }
        }
    }
    assert_eq!(
        result.tuples_scanned, deepest,
        "one scan, as deep as its last cell: {sql}"
    );
    let got = synopses(&db.snapshot("t").unwrap());
    assert!(got.keys().eq(want.keys()), "synopsis key set after {sql}");
    for (key, synopsis) in &want {
        assert!(
            synopsis.to_bytes() == got[key].to_bytes(),
            "synopsis of {key} after {sql}"
        );
    }
    result
}

/// The state of `snapshot` with every model replaced by one trained from
/// the same synopsis through the all-pairs oracle. Equal bytes only where
/// the snapshot's models are a fit of its synopses — right after a
/// `train` or an `ingest`, before another query is absorbed. After an
/// ingest, pass the snapshot from before it as `refit_of`: an ingest
/// refits a key that had a model there with that model's lengthscales,
/// and searches only for a key that had none.
pub fn all_pairs_twin(
    snapshot: &SessionSnapshot,
    refit_of: Option<&SessionSnapshot>,
) -> EngineState {
    let config = snapshot.engine_snapshot().config();
    let kept: Vec<(AggKey, KernelParams)> = refit_of
        .map(|before| {
            EngineState::from_bytes(&before.state_bytes())
                .unwrap()
                .models
        })
        .unwrap_or_default()
        .into_iter()
        .map(|(key, model)| (key, model.params().clone()))
        .collect();
    let mut state = EngineState::from_bytes(&snapshot.state_bytes()).unwrap();
    state.models = state
        .synopses
        .iter()
        .filter_map(|(key, synopsis)| {
            let lengthscales = kept
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, params)| &params.lengthscales[..]);
            all_pairs_model(&state.schema, config, key, synopsis, lengthscales)
                .map(|m| (key.clone(), m))
        })
        .collect();
    state
}

/// Algorithm 1 for one key as the engine runs it (`fit_model`:
/// lengthscales by multi-start Nelder–Mead on the most recent snippets —
/// or `lengthscales` as given, the ingest refit — then the packed factor
/// of `Σₙ` and `α` over the whole synopsis), with every `Σ` built by
/// [`all_pairs::raw_covariance_matrix`].
fn all_pairs_model(
    schema: &SchemaInfo,
    config: &VerdictConfig,
    key: &AggKey,
    synopsis: &QuerySynopsis,
    lengthscales: Option<&[f64]>,
) -> Option<TrainedModel> {
    if synopsis.len() < config.min_snippets_to_train {
        return None;
    }
    let mode = AggMode::of(key);
    let training = synopsis.most_recent(config.max_training_snippets);
    let regions: Vec<&Region> = training.iter().map(|e| &e.region).collect();
    let answers: Vec<f64> = training.iter().map(|e| e.observation.answer).collect();
    let errors: Vec<f64> = training.iter().map(|e| e.observation.error).collect();
    let prior = estimate_prior_mean(mode, schema, &regions, &answers);
    let sigma2 = estimate_sigma2(mode, schema, &regions, &answers);
    let widths: Vec<f64> = schema
        .dims()
        .iter()
        .map(|d| match &d.kind {
            DimKind::Numeric { lo, hi } => (hi - lo).max(1e-12),
            DimKind::Categorical { .. } => 1.0,
        })
        .collect();
    let numeric = schema.numeric_indices();
    let params_at = |logls: &[f64]| {
        let mut lengthscales = widths.clone();
        for (slot, &idx) in numeric.iter().enumerate() {
            lengthscales[idx] = logls[slot].clamp(-20.0, 20.0).exp() * widths[idx];
        }
        KernelParams {
            lengthscales,
            sigma2,
        }
    };
    let centered = |regions: &[&Region], answers: &[f64]| -> Vec<f64> {
        regions
            .iter()
            .zip(answers)
            .map(|(r, a)| a - prior.of(schema, r))
            .collect()
    };
    // Σₙ plus the relative jitter, factorized.
    let factor = |params: &KernelParams, regions: &[&Region], errors: &[f64], retries| {
        let mut sigma: Matrix =
            all_pairs::raw_covariance_matrix(schema, params, mode, regions, errors);
        let scale = sigma.max_abs().max(1.0);
        sigma.add_diagonal(config.jitter * scale);
        Cholesky::new_with_jitter(&sigma, 1e-12, retries)
    };
    let params = if let Some(lengthscales) = lengthscales {
        KernelParams {
            lengthscales: lengthscales.to_vec(),
            sigma2,
        }
    } else if numeric.is_empty() || regions.len() < 2 {
        params_at(&[])
    } else {
        let c = centered(&regions, &answers);
        let negative_log_likelihood = |logls: &[f64]| -> f64 {
            let Ok(chol) = factor(&params_at(logls), &regions, &errors, 6) else {
                return f64::INFINITY;
            };
            let Ok(alpha) = chol.solve(&c) else {
                return f64::INFINITY;
            };
            let quad: f64 = c.iter().zip(&alpha).map(|(c, a)| c * a).sum();
            let n = c.len() as f64;
            -(-0.5 * quad - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln())
        };
        let mut best: Option<(Vec<f64>, f64)> = None;
        for start in &config.lengthscale_starts {
            let x0 = vec![start.ln(); numeric.len()];
            let r = nelder_mead(
                negative_log_likelihood,
                &x0,
                0.7,
                config.max_optimizer_iters,
                1e-8,
            );
            if best.as_ref().is_none_or(|(_, v)| r.value < *v) {
                best = Some((r.x, r.value));
            }
        }
        params_at(&best.expect("the fixture's config has starts").0)
    };

    let entries = synopsis.entries();
    let regions: Vec<&Region> = entries.iter().map(|e| &e.region).collect();
    let answers: Vec<f64> = entries.iter().map(|e| e.observation.answer).collect();
    let errors: Vec<f64> = entries.iter().map(|e| e.observation.error).collect();
    let chol = factor(&params, &regions, &errors, 8).expect("the engine's own fit succeeded");
    let alpha = chol.solve(&centered(&regions, &answers)).unwrap();
    Some(TrainedModel::from_parts(
        mode,
        params,
        prior,
        regions.into_iter().cloned().collect(),
        entries.iter().map(|e| e.observation).collect(),
        chol,
        alpha,
    ))
}
