//! One function per paper table/figure, named after it (`fig4` is
//! Figure 4, `tab3` Table 3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use verdict::core::covariance::AggMode;
use verdict::core::inference::TrainedModel;
use verdict::core::learning::{estimate_prior_mean, estimate_sigma2, learn_params};
use verdict::core::{
    AggKey, KernelParams, Observation, Region, SchemaInfo, Snippet, Verdict, VerdictConfig,
};
use verdict::{Mode, StopPolicy};
use verdict_aqp::StorageTier;
use verdict_sql::checker::JoinPolicy;
use verdict_sql::{check_query, parse_query};
use verdict_stats::percentile::error_band;
use verdict_storage::Predicate;
use verdict_workload::synthetic::{generate_table, QueryGen, SmoothField, SyntheticSpec};
use verdict_workload::{customer, timeseries, tpch};

use crate::harness::{header, mean_of, Dataset, ExperimentEnv};

/// Figure 1: model refinement after 2/4/8 queries — mean 95% CI width and
/// coverage of model-only extrapolation over the whole timeline.
pub fn fig1() {
    header("Figure 1 — database learning refines its model with every query");
    let mut rng = StdRng::seed_from_u64(2017);
    let ts = timeseries::generate(30e6, 20, &mut rng);
    let schema = SchemaInfo::from_table(&ts.table).expect("schema");
    let ranges: [(usize, usize); 8] = [
        (10, 20),
        (55, 65),
        (30, 40),
        (80, 90),
        (1, 10),
        (45, 55),
        (68, 78),
        (90, 100),
    ];
    println!(
        "{:>8} {:>16} {:>12} {:>14}",
        "queries", "mean CI (SUM)", "coverage", "lengthscale"
    );
    for &n in &[2usize, 4, 8] {
        let entries: Vec<(Region, Observation)> = ranges[..n]
            .iter()
            .map(|&(lo, hi)| {
                let pred = timeseries::TimeSeries::range_predicate(lo, hi);
                let region = Region::from_predicate(&schema, &pred).expect("region");
                let truth = ts.true_range_sum(lo, hi) / (hi - lo + 1) as f64 / 20.0;
                (region, Observation::new(truth, truth * 0.01))
            })
            .collect();
        let regions: Vec<&Region> = entries.iter().map(|(r, _)| r).collect();
        let answers: Vec<f64> = entries.iter().map(|(_, o)| o.answer).collect();
        let errors: Vec<f64> = entries.iter().map(|(_, o)| o.error).collect();
        let config = VerdictConfig::default();
        let learned = learn_params(&schema, AggMode::Avg, &regions, &answers, &errors, &config);
        let prior = estimate_prior_mean(AggMode::Avg, &schema, &regions, &answers);
        let model = TrainedModel::fit(
            &schema,
            AggMode::Avg,
            &entries,
            learned.params.clone(),
            prior,
            1e-9,
        )
        .expect("fit");
        let mut widths = Vec::new();
        let mut covered = 0usize;
        let weeks: Vec<usize> = (2..=100).step_by(2).collect();
        for &week in &weeks {
            let pred = Predicate::between("week", week as f64, week as f64);
            let region = Region::from_predicate(&schema, &pred).expect("region");
            let inf = model.infer(&schema, &region, Observation::new(0.0, f64::INFINITY));
            let scale = 20.0;
            let ci = 1.96 * inf.model_error * scale;
            widths.push(ci);
            if (ts.weekly_totals[week - 1] - inf.model_answer * scale).abs() <= ci {
                covered += 1;
            }
        }
        println!(
            "{n:>8} {:>16.4e} {:>9}/{:<2} {:>14.1}",
            mean_of(&widths),
            covered,
            weeks.len(),
            learned.params.lengthscales[0]
        );
    }
    println!("(paper: the shaded 95% band visibly tightens from 2 → 4 → 8 queries)");
}

/// Table 3: fraction of queries Verdict supports per workload.
pub fn tab3() {
    header("Table 3 — generality of Verdict");
    let mut rng = StdRng::seed_from_u64(3);
    // Customer1-style trace at the paper's scale: 3342 aggregate queries.
    let trace = customer::generate_trace(2_000, 3342, &mut rng);
    let supported = trace
        .queries
        .iter()
        .filter(|q| {
            parse_query(&q.sql)
                .map(|p| check_query(&p, &JoinPolicy::none()).is_supported())
                .unwrap_or(false)
        })
        .count();
    println!(
        "{:<12} {:>18} {:>14} {:>12}",
        "Dataset", "Total w/ aggregates", "# Supported", "Percentage"
    );
    println!(
        "{:<12} {:>18} {:>14} {:>11.1}%   (paper: 73.7%)",
        "Customer1",
        trace.queries.len(),
        supported,
        supported as f64 / trace.queries.len() as f64 * 100.0
    );
    let templates = tpch::templates();
    let tpch_supported = templates
        .iter()
        .filter(|t| {
            let sql = tpch::instantiate(t, &mut rng);
            parse_query(&sql)
                .map(|p| check_query(&p, &JoinPolicy::none()).is_supported())
                .unwrap_or(false)
        })
        .count();
    println!(
        "{:<12} {:>18} {:>14} {:>11.1}%   (paper: 63.6%)",
        "TPC-H",
        templates.iter().filter(|t| t.has_aggregate).count() + 1,
        tpch_supported,
        tpch_supported as f64 / templates.len() as f64 * 100.0
    );
}

/// Figure 4: runtime vs (error bound, actual error) for NoLearn/Verdict on
/// both datasets and both storage tiers — four panels.
pub fn fig4() {
    header("Figure 4 — runtime vs error bound (top) and actual error (bottom)");
    for (dataset, rows, n_queries) in [
        (Dataset::Customer1, 200_000, 120),
        (Dataset::Tpch, 200_000, 160),
    ] {
        for tier in [StorageTier::Cached, StorageTier::Ssd] {
            let tier_label = match tier {
                StorageTier::Cached => "Cached",
                StorageTier::Ssd => "Not Cached",
            };
            let mut env = ExperimentEnv::new(dataset, rows, n_queries, tier, 4);
            env.warm_up();
            let broad = env.broad_test_queries(0.05);
            println!("\n--- {} / {} ---", tier_label, dataset.label());
            println!(
                "{:>12} {:>16} {:>16} {:>16} {:>16}",
                "time (ms)", "NoLearn bound%", "Verdict bound%", "NoLearn act%", "Verdict act%"
            );
            // Sweep tuple budgets (≈ runtime points on the x-axis).
            for budget in [1000usize, 2000, 4000, 8000, 16000, 20000] {
                let policy = StopPolicy::TupleBudget(budget);
                let mut nl_bounds = Vec::new();
                let mut vd_bounds = Vec::new();
                let mut nl_actuals = Vec::new();
                let mut vd_actuals = Vec::new();
                let mut times = Vec::new();
                for sql in broad.clone() {
                    if let Some(m) = env.measure(&sql, Mode::NoLearn, policy) {
                        nl_bounds.push(m.rel_bound * 100.0);
                        nl_actuals.push(m.rel_actual * 100.0);
                        times.push(m.simulated_ns / 1e6);
                    }
                    if let Some(m) = env.measure(&sql, Mode::Verdict, policy) {
                        vd_bounds.push(m.rel_bound * 100.0);
                        vd_actuals.push(m.rel_actual * 100.0);
                    }
                }
                println!(
                    "{:>12.1} {:>16.2} {:>16.2} {:>16.2} {:>16.2}",
                    mean_of(&times),
                    mean_of(&nl_bounds),
                    mean_of(&vd_bounds),
                    mean_of(&nl_actuals),
                    mean_of(&vd_actuals)
                );
            }
        }
    }
    println!("\n(paper: Verdict sits strictly below NoLearn on every panel)");
}

/// Table 4: speedup at target error bounds and error reduction at fixed
/// time budgets.
pub fn tab4() {
    header("Table 4 — speedup and error reduction");
    println!(
        "{:<11} {:<11} {:>8} {:>14} {:>14} {:>9}",
        "Dataset", "Tier", "Target", "NoLearn (s)", "Verdict (s)", "Speedup"
    );
    for (dataset, targets) in [
        (Dataset::Customer1, [0.025, 0.01]),
        (Dataset::Tpch, [0.04, 0.02]),
    ] {
        for tier in [StorageTier::Cached, StorageTier::Ssd] {
            let n_q = if dataset == Dataset::Tpch { 160 } else { 120 };
            let mut env = ExperimentEnv::new(dataset, 200_000, n_q, tier, 44);
            env.warm_up();
            let broad = env.broad_test_queries(0.05);
            for target in targets {
                let policy = StopPolicy::RelativeErrorBound {
                    target,
                    delta: 0.95,
                };
                let mut nl = Vec::new();
                let mut vd = Vec::new();
                for sql in broad.clone() {
                    if let Some(m) = env.measure(&sql, Mode::NoLearn, policy) {
                        nl.push(m.simulated_ns / 1e9);
                    }
                    if let Some(m) = env.measure(&sql, Mode::Verdict, policy) {
                        vd.push(m.simulated_ns / 1e9);
                    }
                }
                let (tn, tv) = (mean_of(&nl), mean_of(&vd));
                println!(
                    "{:<11} {:<11} {:>7.1}% {:>14.3} {:>14.3} {:>8.1}x",
                    dataset.label(),
                    match tier {
                        StorageTier::Cached => "Cached",
                        StorageTier::Ssd => "SSD",
                    },
                    target * 100.0,
                    tn,
                    tv,
                    tn / tv.max(1e-12)
                );
            }
        }
    }

    println!(
        "\n{:<11} {:<11} {:>10} {:>14} {:>14} {:>11}",
        "Dataset", "Tier", "Budget", "NoLearn bnd%", "Verdict bnd%", "Reduction"
    );
    for dataset in [Dataset::Customer1, Dataset::Tpch] {
        for tier in [StorageTier::Cached, StorageTier::Ssd] {
            let n_q = if dataset == Dataset::Tpch { 160 } else { 120 };
            let mut env = ExperimentEnv::new(dataset, 200_000, n_q, tier, 45);
            env.warm_up();
            let broad = env.broad_test_queries(0.05);
            for budget_ms in [15.0, 40.0] {
                let policy = env.time_budget(budget_ms * 1e6);
                let mut nl = Vec::new();
                let mut vd = Vec::new();
                for sql in broad.clone() {
                    if let Some(m) = env.measure(&sql, Mode::NoLearn, policy) {
                        nl.push(m.rel_bound * 100.0);
                    }
                    if let Some(m) = env.measure(&sql, Mode::Verdict, policy) {
                        vd.push(m.rel_bound * 100.0);
                    }
                }
                let (bn, bv) = (mean_of(&nl), mean_of(&vd));
                println!(
                    "{:<11} {:<11} {:>7.0} ms {:>14.2} {:>14.2} {:>10.1}%",
                    dataset.label(),
                    match tier {
                        StorageTier::Cached => "Cached",
                        StorageTier::Ssd => "SSD",
                    },
                    budget_ms,
                    bn,
                    bv,
                    (1.0 - bv / bn.max(1e-12)) * 100.0
                );
            }
        }
    }
    println!("(paper: up to 23x speedup; 75.8–90.2% error reduction)");
}

/// Figure 5: calibration of Verdict's 95% error bounds — actual-error
/// percentiles per reported-bound bucket.
pub fn fig5() {
    header("Figure 5 — error-bound calibration at 95% confidence");
    let mut env = ExperimentEnv::new(Dataset::Customer1, 200_000, 120, StorageTier::Cached, 5);
    env.warm_up();
    let mut rng = StdRng::seed_from_u64(55);
    // Collect (reported bound, actual error) pairs at random partial scans.
    // Budgets start at 2000 tuples: below that, the CLT raw-error estimates
    // feeding both engines are themselves unreliable (§2.5 delegates raw
    // error validity to the AQP engine).
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for sql in env.broad_test_queries(0.03) {
        for _ in 0..3 {
            let budget = 2000 + rng.gen_range(0..16000usize);
            if let Some(m) = env.measure(&sql, Mode::Verdict, StopPolicy::TupleBudget(budget)) {
                if m.rel_bound.is_finite() && m.rel_bound > 0.0 {
                    pairs.push((m.rel_bound * 100.0, m.rel_actual * 100.0));
                }
            }
        }
    }
    println!(
        "{:>12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "bound bucket", "n", "p5", "p50", "p95", "p95<=bound"
    );
    let mut buckets_ok = 0;
    let mut buckets_total = 0;
    for bucket in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let actuals: Vec<f64> = pairs
            .iter()
            .filter(|(b, _)| *b > bucket / 2.0 && *b <= bucket * 1.5)
            .map(|(_, a)| *a)
            .collect();
        if actuals.len() < 5 {
            continue;
        }
        let (p5, p50, p95) = error_band(&actuals);
        let ok = p95 <= bucket * 1.5;
        buckets_total += 1;
        buckets_ok += ok as usize;
        println!(
            "{:>10.0}%  {:>8} {:>9.2}% {:>9.2}% {:>9.2}% {:>10}",
            bucket,
            actuals.len(),
            p5,
            p50,
            p95,
            if ok { "yes" } else { "NO" }
        );
    }
    println!(
        "calibrated buckets: {buckets_ok}/{buckets_total} \
         (paper: p95 of actual error below the bound in all buckets)"
    );
}

/// Table 5: Verdict's per-query runtime overhead (wall-clock).
pub fn tab5() {
    header("Table 5 — runtime overhead of Verdict inference");
    let mut env = ExperimentEnv::new(Dataset::Customer1, 40_000, 80, StorageTier::Cached, 6);
    env.warm_up();
    let sqls = env.test_queries.clone();
    let t0 = std::time::Instant::now();
    let mut n = 0usize;
    for sql in &sqls {
        let _ = env.run(sql, Mode::NoLearn, StopPolicy::ScanAll);
        n += 1;
    }
    let nolearn_per_query = t0.elapsed().as_secs_f64() / n as f64;
    let t1 = std::time::Instant::now();
    for sql in &sqls {
        let _ = env.run(sql, Mode::Verdict, StopPolicy::ScanAll);
    }
    let verdict_per_query = t1.elapsed().as_secs_f64() / n as f64;
    let overhead = (verdict_per_query - nolearn_per_query).max(0.0);
    println!("{:<22} {:>14}", "Latency (per query)", "wall-clock");
    println!("{:<22} {:>11.3} ms", "NoLearn", nolearn_per_query * 1e3);
    println!("{:<22} {:>11.3} ms", "Verdict", verdict_per_query * 1e3);
    println!(
        "{:<22} {:>11.3} ms ({:.2}%)",
        "Overhead",
        overhead * 1e3,
        overhead / verdict_per_query.max(1e-12) * 100.0
    );
    println!("(paper: ~10 ms, 0.02–0.48% of total query time)");
}

/// Figure 6: sensitivity to (a) workload diversity, (b) data distribution,
/// (c) number of past queries, (d) inference overhead vs synopsis size.
pub fn fig6() {
    header("Figure 6(a) — error reduction vs workload diversity");
    println!("{:>22} {:>18}", "frequent columns", "error reduction %");
    for frac in [0.04, 0.10, 0.20, 0.40] {
        let r = diversity_run(frac, 100, 60);
        println!("{:>21.0}% {:>18.1}", frac * 100.0, r);
    }
    println!("(paper: reduction decreases as diversity grows)");

    header("Figure 6(b) — error reduction vs data distribution");
    println!("{:>12} {:>18}", "distribution", "error reduction %");
    for (label, dist) in [
        ("Uniform", verdict_workload::Distribution::Uniform),
        ("Gaussian", verdict_workload::Distribution::Gaussian),
        ("Skewed", verdict_workload::Distribution::Skewed),
    ] {
        let r = distribution_run(dist, 60);
        println!("{label:>12} {r:>18.1}");
    }
    println!("(paper: consistent reductions across distributions)");

    header("Figure 6(c) — error reduction vs number of past queries");
    println!("{:>14} {:>18}", "past queries", "error reduction %");
    for n_past in [10usize, 50, 100, 200, 400] {
        let r = diversity_run(0.20, n_past, 40);
        println!("{n_past:>14} {r:>18.1}");
    }
    println!("(paper: increases then plateaus)");

    header("Figure 6(d) — inference overhead vs number of past queries");
    println!("{:>14} {:>18}", "past queries", "overhead (ms)");
    for n_past in [10usize, 100, 200, 400] {
        let ms = overhead_run(n_past);
        println!("{n_past:>14} {ms:>18.3}");
    }
    println!("(paper: flat, a few milliseconds — O(n²) matrix-vector work)");
}

/// Shared driver for fig6(a)/(c): synthetic 20-column table, power-law
/// column access; returns the mean relative improvement of Verdict's error
/// bound over NoLearn's on test queries.
fn diversity_run(frequent_fraction: f64, n_past: usize, n_test: usize) -> f64 {
    // Fixed seed: every point of Figure 6(c) sees the same table and
    // query stream, so the curve varies only with the number of past
    // queries, not with sampling noise.
    let mut rng = StdRng::seed_from_u64(7000 + (frequent_fraction * 1000.0) as u64);
    let spec = SyntheticSpec {
        rows: 40_000,
        numeric_dims: 18,
        categorical_dims: 2,
        distribution: verdict_workload::Distribution::Uniform,
        smoothness: 1.5,
        noise: 0.1,
    };
    let table = generate_table(&spec, &mut rng);
    let schema = SchemaInfo::from_table(&table).expect("schema");
    let qg = QueryGen {
        numeric_dims: spec.numeric_dims,
        categorical_dims: spec.categorical_dims,
        frequent_fraction,
        predicates_per_query: 2,
    };
    // Past queries: exact-ish observations (tight raw errors) recorded
    // directly into the engine; test queries: noisy raw answers improved.
    let mut engine = Verdict::new(schema.clone(), VerdictConfig::default());
    let exact = |pred: &Predicate| -> Option<f64> {
        verdict_storage::AggregateFn::Avg(verdict_storage::Expr::col("m"))
            .eval_exact(&table, pred)
            .ok()
    };
    for _ in 0..n_past {
        let pred = qg.generate(&mut rng);
        let Some(truth) = exact(&pred) else { continue };
        let Ok(region) = Region::from_predicate(&schema, &pred) else {
            continue;
        };
        let noise = 0.02 * (rng.gen::<f64>() - 0.5);
        engine.observe(
            &Snippet::new(AggKey::avg("m"), region),
            Observation::new(truth + noise, 0.02),
        );
    }
    engine.train().expect("train");
    let mut reductions = Vec::new();
    for _ in 0..n_test {
        let pred = qg.generate(&mut rng);
        let Some(_) = exact(&pred) else { continue };
        let Ok(region) = Region::from_predicate(&schema, &pred) else {
            continue;
        };
        let raw_err = 0.15;
        let raw = Observation::new(
            exact(&pred).unwrap() + raw_err * (rng.gen::<f64>() - 0.5),
            raw_err,
        );
        let improved = engine.improve(&Snippet::new(AggKey::avg("m"), region), raw);
        reductions.push((1.0 - improved.error / raw_err) * 100.0);
    }
    mean_of(&reductions)
}

/// Driver for fig6(b): one numeric dimension, varying value distribution.
fn distribution_run(dist: verdict_workload::Distribution, n_test: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(66);
    let spec = SyntheticSpec {
        rows: 40_000,
        numeric_dims: 2,
        categorical_dims: 1,
        distribution: dist,
        smoothness: 1.5,
        noise: 0.1,
    };
    let table = generate_table(&spec, &mut rng);
    let schema = SchemaInfo::from_table(&table).expect("schema");
    let qg = QueryGen {
        numeric_dims: 2,
        categorical_dims: 1,
        frequent_fraction: 1.0,
        predicates_per_query: 1,
    };
    let mut engine = Verdict::new(schema.clone(), VerdictConfig::default());
    for _ in 0..100 {
        let pred = qg.generate(&mut rng);
        let Ok(region) = Region::from_predicate(&schema, &pred) else {
            continue;
        };
        let Ok(truth) = verdict_storage::AggregateFn::Avg(verdict_storage::Expr::col("m"))
            .eval_exact(&table, &pred)
        else {
            continue;
        };
        engine.observe(
            &Snippet::new(AggKey::avg("m"), region),
            Observation::new(truth + 0.02 * (rng.gen::<f64>() - 0.5), 0.02),
        );
    }
    engine.train().expect("train");
    let mut reductions = Vec::new();
    for _ in 0..n_test {
        let pred = qg.generate(&mut rng);
        let Ok(region) = Region::from_predicate(&schema, &pred) else {
            continue;
        };
        let Ok(truth) = verdict_storage::AggregateFn::Avg(verdict_storage::Expr::col("m"))
            .eval_exact(&table, &pred)
        else {
            continue;
        };
        let raw_err = 0.15;
        let raw = Observation::new(truth + raw_err * (rng.gen::<f64>() - 0.5), raw_err);
        let improved = engine.improve(&Snippet::new(AggKey::avg("m"), region), raw);
        reductions.push((1.0 - improved.error / raw_err) * 100.0);
    }
    mean_of(&reductions)
}

/// Driver for fig6(d): wall-clock of one inference at synopsis size n.
fn overhead_run(n_past: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(77);
    let schema = SchemaInfo::new(vec![verdict::core::DimensionSpec::numeric("t", 0.0, 100.0)])
        .expect("schema");
    let mut engine = Verdict::new(schema.clone(), VerdictConfig::default());
    for _ in 0..n_past {
        let lo = rng.gen::<f64>() * 90.0;
        let pred = Predicate::between("t", lo, lo + 5.0 + rng.gen::<f64>() * 5.0);
        let region = Region::from_predicate(&schema, &pred).expect("region");
        engine.observe(
            &Snippet::new(AggKey::avg("v"), region),
            Observation::new(rng.gen::<f64>(), 0.05),
        );
    }
    engine.train().expect("train");
    let pred = Predicate::between("t", 40.0, 60.0);
    let snippet = Snippet::new(
        AggKey::avg("v"),
        Region::from_predicate(&schema, &pred).expect("region"),
    );
    let reps = 200;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let _ = engine.improve(&snippet, Observation::new(0.5, 0.1));
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Figure 7 (Appendix A.2): recovery of the true correlation parameter
/// from 20/50/100 past snippets.
pub fn fig7() {
    header("Figure 7 — correlation parameter learning accuracy");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "true ℓ", "est (n=20)", "est (n=50)", "est (n=100)"
    );
    let mut rng = StdRng::seed_from_u64(7);
    let schema = SchemaInfo::new(vec![verdict::core::DimensionSpec::numeric("x", 0.0, 10.0)])
        .expect("schema");
    for true_w in [0.5, 1.0, 2.0, 3.0] {
        // Smoothing width w induces an SE lengthscale ≈ √2·w.
        let true_l = std::f64::consts::SQRT_2 * true_w;
        let field = SmoothField::sample(true_w, &mut rng);
        let mut estimates = Vec::new();
        for &n in &[20usize, 50, 100] {
            let mut entries: Vec<(Region, Observation)> = Vec::new();
            for _ in 0..n {
                let lo = rng.gen::<f64>() * 9.0;
                let hi = lo + 0.3 + rng.gen::<f64>() * 1.0;
                let pred = Predicate::between("x", lo, hi);
                let region = Region::from_predicate(&schema, &pred).expect("region");
                // Mean of the field over [lo, hi] by quick quadrature.
                let steps = 50;
                let mean_val: f64 = (0..steps)
                    .map(|i| field.at(lo + (i as f64 + 0.5) / steps as f64 * (hi - lo)))
                    .sum::<f64>()
                    / steps as f64;
                entries.push((region, Observation::new(mean_val, 0.02)));
            }
            let regions: Vec<&Region> = entries.iter().map(|(r, _)| r).collect();
            let answers: Vec<f64> = entries.iter().map(|(_, o)| o.answer).collect();
            let errors: Vec<f64> = entries.iter().map(|(_, o)| o.error).collect();
            let learned = learn_params(
                &schema,
                AggMode::Avg,
                &regions,
                &answers,
                &errors,
                &VerdictConfig::default(),
            );
            estimates.push(learned.params.lengthscales[0]);
        }
        println!(
            "{true_l:>10.2} {:>12.2} {:>12.2} {:>12.2}",
            estimates[0], estimates[1], estimates[2]
        );
    }
    println!("(paper: estimates track the true parameter, tighter with more snippets)");
}

/// Figure 9 (Appendix B.2): model validation keeps error bounds honest
/// even under badly mis-scaled correlation parameters.
pub fn fig9() {
    header("Figure 9 — effect of model validation under wrong parameters");
    println!(
        "{:>8} {:>26} {:>26}",
        "scale", "no validation p50/p95", "with validation p50/p95"
    );
    let mut rng = StdRng::seed_from_u64(9);
    let schema = SchemaInfo::new(vec![verdict::core::DimensionSpec::numeric("x", 0.0, 10.0)])
        .expect("schema");
    let field = SmoothField::sample(1.0, &mut rng);
    let true_l = std::f64::consts::SQRT_2;

    // Past observations of the field.
    let mut entries: Vec<(Region, Observation)> = Vec::new();
    for _ in 0..60 {
        let lo = rng.gen::<f64>() * 9.0;
        let hi = lo + 0.4 + rng.gen::<f64>() * 0.8;
        let region =
            Region::from_predicate(&schema, &Predicate::between("x", lo, hi)).expect("region");
        let steps = 40;
        let mean_val: f64 = (0..steps)
            .map(|i| field.at(lo + (i as f64 + 0.5) / steps as f64 * (hi - lo)))
            .sum::<f64>()
            / steps as f64;
        entries.push((region, Observation::new(mean_val, 0.02)));
    }

    for scale in [0.1, 0.5, 1.0, 2.0, 10.0] {
        let mut ratios_noval = Vec::new();
        let mut ratios_val = Vec::new();
        let params = KernelParams::constant(1, true_l * scale, 1.0);
        let regions: Vec<&Region> = entries.iter().map(|(r, _)| r).collect();
        let answers: Vec<f64> = entries.iter().map(|(_, o)| o.answer).collect();
        let prior = estimate_prior_mean(AggMode::Avg, &schema, &regions, &answers);
        let sigma2 = estimate_sigma2(AggMode::Avg, &schema, &regions, &answers);
        let mut p = params.clone();
        p.sigma2 = sigma2;
        let model =
            TrainedModel::fit(&schema, AggMode::Avg, &entries, p, prior, 1e-9).expect("fit");
        for _ in 0..150 {
            let lo = rng.gen::<f64>() * 9.0;
            let hi = lo + 0.4 + rng.gen::<f64>() * 0.8;
            let region =
                Region::from_predicate(&schema, &Predicate::between("x", lo, hi)).expect("region");
            let steps = 40;
            let truth: f64 = (0..steps)
                .map(|i| field.at(lo + (i as f64 + 0.5) / steps as f64 * (hi - lo)))
                .sum::<f64>()
                / steps as f64;
            let raw_err = 0.04;
            let raw = Observation::new(truth + raw_err * 1.2 * (rng.gen::<f64>() - 0.5), raw_err);
            let inf = model.infer(&schema, &region, raw);
            // Without validation: always take the model answer.
            let bound95 = 1.96 * inf.model_error;
            ratios_noval.push((inf.model_answer - truth).abs() / bound95.max(1e-12));
            // With validation (Appendix B).
            let decision = verdict::core::validation::validate(&inf, raw, false, 0.99);
            let (ans, err) = if decision.accepted() {
                (inf.model_answer, inf.model_error)
            } else {
                (raw.answer, raw.error)
            };
            ratios_val.push((ans - truth).abs() / (1.96 * err).max(1e-12));
        }
        let (_, nv50, nv95) = error_band(&ratios_noval);
        let (_, v50, v95) = error_band(&ratios_val);
        println!("{scale:>7.1}x {nv50:>13.2} /{nv95:>10.2} {v50:>13.2} /{v95:>10.2}");
    }
    println!("(correct when p95 ≤ 1; paper: validation keeps p95 below 1 at every scale)");
}

/// Figure 10 (Appendix C.1): Verdict vs a simple answer cache (Baseline2)
/// across past-sample sizes and novel-query ratios.
pub fn fig10() {
    header("Figure 10 — Verdict vs answer caching (Baseline2)");
    let mut rng = StdRng::seed_from_u64(10);
    let schema = SchemaInfo::new(vec![verdict::core::DimensionSpec::numeric("x", 0.0, 10.0)])
        .expect("schema");
    let field = SmoothField::sample(1.2, &mut rng);
    let truth_of = |lo: f64, hi: f64| -> f64 {
        let steps = 40;
        (0..steps)
            .map(|i| field.at(lo + (i as f64 + 0.5) / steps as f64 * (hi - lo)))
            .sum::<f64>()
            / steps as f64
    };

    // A pool of "past" ranges; repeated queries re-draw from this pool.
    let past_ranges: Vec<(f64, f64)> = (0..40)
        .map(|_| {
            let lo = rng.gen::<f64>() * 9.0;
            (lo, lo + 0.5 + rng.gen::<f64>() * 0.8)
        })
        .collect();

    println!("\n(a) error reduction vs sample size used for past queries");
    println!(
        "{:>12} {:>12} {:>12}",
        "past error", "Baseline2 %", "Verdict %"
    );
    for past_err in [0.2, 0.1, 0.05, 0.01] {
        let (b2, vd) = cache_comparison(&schema, &past_ranges, truth_of, past_err, 0.5, &mut rng);
        println!("{past_err:>12.2} {b2:>12.1} {vd:>12.1}");
    }
    println!("(smaller past error ≈ larger past sample; paper Fig 10(a) x-axis)");

    println!("\n(b) error reduction vs novel-query ratio");
    println!(
        "{:>12} {:>12} {:>12}",
        "novel %", "Baseline2 %", "Verdict %"
    );
    for novel in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let (b2, vd) = cache_comparison(&schema, &past_ranges, truth_of, 0.05, novel, &mut rng);
        println!("{:>11.0}% {b2:>12.1} {vd:>12.1}", novel * 100.0);
    }
    println!("(paper: caching only helps repeated queries; Verdict helps both)");
}

/// Runs the Baseline2-vs-Verdict comparison; returns mean actual-error
/// reduction (%) of each system relative to the raw answers.
fn cache_comparison(
    schema: &SchemaInfo,
    past_ranges: &[(f64, f64)],
    truth_of: impl Fn(f64, f64) -> f64,
    past_err: f64,
    novel_ratio: f64,
    rng: &mut StdRng,
) -> (f64, f64) {
    // Build Verdict synopsis + Baseline2 cache from past queries.
    let mut engine = Verdict::new(schema.clone(), VerdictConfig::default());
    let mut cache: Vec<((f64, f64), f64, f64)> = Vec::new();
    for &(lo, hi) in past_ranges {
        let truth = truth_of(lo, hi);
        let obs = Observation::new(truth + past_err * (rng.gen::<f64>() - 0.5), past_err);
        let region =
            Region::from_predicate(schema, &Predicate::between("x", lo, hi)).expect("region");
        engine.observe(&Snippet::new(AggKey::avg("v"), region), obs);
        cache.push(((lo, hi), obs.answer, obs.error));
    }
    engine.train().expect("train");

    let raw_err = 0.15;
    let mut raw_actuals = Vec::new();
    let mut cache_actuals = Vec::new();
    let mut verdict_actuals = Vec::new();
    for _ in 0..600 {
        let novel = rng.gen::<f64>() < novel_ratio;
        let (lo, hi) = if novel {
            let lo = rng.gen::<f64>() * 9.0;
            (lo, lo + 0.5 + rng.gen::<f64>() * 0.8)
        } else {
            past_ranges[rng.gen_range(0..past_ranges.len())]
        };
        let truth = truth_of(lo, hi);
        let raw = Observation::new(truth + raw_err * (rng.gen::<f64>() - 0.5), raw_err);
        raw_actuals.push((raw.answer - truth).abs());

        // Baseline2: exact-match cache.
        let cached = cache
            .iter()
            .find(|((clo, chi), _, _)| *clo == lo && *chi == hi);
        cache_actuals.push(match cached {
            Some((_, ans, _)) => (ans - truth).abs(),
            None => (raw.answer - truth).abs(),
        });

        // Verdict.
        let region =
            Region::from_predicate(schema, &Predicate::between("x", lo, hi)).expect("region");
        let improved = engine.improve(&Snippet::new(AggKey::avg("v"), region), raw);
        verdict_actuals.push((improved.answer - truth).abs());
    }
    // Aggregate-mean reduction (stable, unlike a mean of per-query ratios).
    let raw_mean = mean_of(&raw_actuals).max(1e-12);
    (
        (1.0 - mean_of(&cache_actuals) / raw_mean) * 100.0,
        (1.0 - mean_of(&verdict_actuals) / raw_mean) * 100.0,
    )
}

/// Figure 11 (Appendix C.2): error reduction over a time-bound AQP engine.
pub fn fig11() {
    header("Figure 11 — error reduction for time-bound AQP engines");
    println!(
        "{:<12} {:<12} {:>18}",
        "Dataset", "Tier", "error reduction %"
    );
    for dataset in [Dataset::Customer1, Dataset::Tpch] {
        for tier in [StorageTier::Cached, StorageTier::Ssd] {
            let n_q = if dataset == Dataset::Tpch { 160 } else { 120 };
            let mut env = ExperimentEnv::new(dataset, 200_000, n_q, tier, 111);
            env.warm_up();
            let broad = env.broad_test_queries(0.05);
            // Fixed time bound per tier (cached gets the smaller budget, as
            // in the appendix's setup).
            let budget_ms = match tier {
                StorageTier::Cached => 14.0,
                StorageTier::Ssd => 135.0,
            };
            let policy = env.time_budget(budget_ms * 1e6);
            let mut nl = Vec::new();
            let mut vd = Vec::new();
            for sql in broad.clone() {
                if let Some(m) = env.measure(&sql, Mode::NoLearn, policy) {
                    nl.push(m.rel_bound);
                }
                if let Some(m) = env.measure(&sql, Mode::Verdict, policy) {
                    vd.push(m.rel_bound);
                }
            }
            println!(
                "{:<12} {:<12} {:>17.1}%",
                dataset.label(),
                match tier {
                    StorageTier::Cached => "Cached",
                    StorageTier::Ssd => "Not Cached",
                },
                (1.0 - mean_of(&vd) / mean_of(&nl).max(1e-12)) * 100.0
            );
        }
    }
    println!("(paper: 63–89% error reductions)");
}

/// Figure 12 (Appendix D.2): error-bound validity under data appends,
/// with and without the Lemma 3 adjustment.
pub fn fig12() {
    header("Figure 12 — data append: adjusted vs unadjusted error bounds");
    println!(
        "{:>10} {:>16} {:>16} {:>18} {:>18}",
        "appended", "no-adj bound%", "adj bound%", "no-adj violations", "adj violations"
    );
    let mut rng = StdRng::seed_from_u64(12);
    let schema = SchemaInfo::new(vec![verdict::core::DimensionSpec::numeric("x", 0.0, 10.0)])
        .expect("schema");
    let field = SmoothField::sample(1.2, &mut rng);
    let truth_of = |lo: f64, hi: f64| -> f64 {
        let steps = 40;
        (0..steps)
            .map(|i| field.at(lo + (i as f64 + 0.5) / steps as f64 * (hi - lo)))
            .sum::<f64>()
            / steps as f64
    };

    for append_pct in [5.0, 10.0, 15.0, 20.0] {
        let frac: f64 = append_pct / 100.0;
        // Appended data drifts upward by a fixed shift.
        let shift = 0.6;
        // After the append, the true answer of any range moves toward the
        // shifted distribution proportionally to the appended fraction.
        let new_frac = frac / (1.0 + frac);
        let adj = verdict::core::append::AppendAdjustment {
            mu_shift: shift,
            eta: 0.3,
            old_rows: 100_000,
            appended_rows: (100_000.0 * frac) as usize,
        };

        let run = |adjusted: bool, rng: &mut StdRng| -> (f64, f64) {
            let mut engine = Verdict::new(schema.clone(), VerdictConfig::without_validation());
            for _ in 0..50 {
                let lo = rng.gen::<f64>() * 9.0;
                let hi = lo + 0.5 + rng.gen::<f64>() * 0.8;
                let region = Region::from_predicate(&schema, &Predicate::between("x", lo, hi))
                    .expect("region");
                let obs =
                    Observation::new(truth_of(lo, hi) + 0.02 * (rng.gen::<f64>() - 0.5), 0.02);
                engine.observe(&Snippet::new(AggKey::avg("v"), region), obs);
            }
            if adjusted {
                engine
                    .apply_append(&AggKey::avg("v"), &adj)
                    .expect("append adjust");
            } else {
                engine.train().expect("train");
            }
            let mut bounds = Vec::new();
            let mut violations = 0usize;
            let mut total = 0usize;
            for _ in 0..150 {
                let lo = rng.gen::<f64>() * 9.0;
                let hi = lo + 0.5 + rng.gen::<f64>() * 0.8;
                let region = Region::from_predicate(&schema, &Predicate::between("x", lo, hi))
                    .expect("region");
                // Post-append ground truth.
                let truth = truth_of(lo, hi) + shift * new_frac;
                let raw_err = 0.08;
                // The raw answer samples the *updated* table.
                let raw = Observation::new(truth + raw_err * (rng.gen::<f64>() - 0.5), raw_err);
                let improved = engine.improve(&Snippet::new(AggKey::avg("v"), region), raw);
                let bound = improved.bound(0.95);
                bounds.push(bound * 100.0);
                total += 1;
                if (improved.answer - truth).abs() > bound {
                    violations += 1;
                }
            }
            (mean_of(&bounds), violations as f64 / total as f64 * 100.0)
        };

        let (b_no, v_no) = run(false, &mut rng);
        let (b_adj, v_adj) = run(true, &mut rng);
        println!("{append_pct:>9.0}% {b_no:>16.2} {b_adj:>16.2} {v_no:>17.1}% {v_adj:>17.1}%");
    }
    println!("(paper: unadjusted bounds violate increasingly; adjusted stay valid)");
}

/// Figure 13 (Appendix E): prevalence of inter-tuple covariance across 16
/// datasets (synthetic stand-ins for the UCI datasets).
pub fn fig13() {
    header("Figure 13 — inter-tuple covariance in 16 datasets");
    let mut rng = StdRng::seed_from_u64(13);
    let mut correlations = Vec::new();
    for i in 0..16 {
        // Mixed smoothness, dimensionality, and noise across datasets,
        // like the heterogeneous UCI collection.
        let w = 0.1 + (i as f64 / 15.0) * 2.5;
        let spec = SyntheticSpec {
            rows: 3000,
            numeric_dims: 1 + i % 3,
            categorical_dims: 0,
            distribution: verdict_workload::Distribution::Uniform,
            smoothness: w,
            noise: 0.1 + (i % 5) as f64 * 0.6,
        };
        let table = generate_table(&spec, &mut rng);
        // Adjacent-value correlation of m when sorted by d0 (the paper's
        // methodology: correlation of adjacent attribute values when sorted
        // by another column).
        let d: Vec<f64> = table.column("d0").unwrap().numeric().unwrap().to_vec();
        let m: Vec<f64> = table.column("m").unwrap().numeric().unwrap().to_vec();
        let mut idx: Vec<usize> = (0..d.len()).collect();
        idx.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap());
        let sorted: Vec<f64> = idx.iter().map(|&i| m[i]).collect();
        let a = &sorted[..sorted.len() - 1];
        let b = &sorted[1..];
        correlations.push(verdict_stats::describe::correlation(a, b));
    }
    // Histogram like the paper's bar chart.
    println!("{:>22} {:>12}", "correlation bucket", "% of datasets");
    for (lo, hi) in [
        (-0.2, 0.0),
        (0.0, 0.2),
        (0.2, 0.4),
        (0.4, 0.6),
        (0.6, 0.8),
        (0.8, 1.01),
    ] {
        let count = correlations.iter().filter(|&&c| c >= lo && c < hi).count();
        println!(
            "{:>10.1} – {:<9.1} {:>11.1}%",
            lo,
            hi.min(1.0),
            count as f64 / correlations.len() as f64 * 100.0
        );
    }
    let nonzero = correlations.iter().filter(|&&c| c > 0.1).count();
    println!(
        "datasets with meaningful (+) inter-tuple correlation: {nonzero}/16 \
         (paper: strong correlations are widespread)"
    );
}
