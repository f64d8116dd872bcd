//! Integration tests for the paper's statistical guarantees across the
//! full stack (storage → AQP → inference).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verdict::{Mode, QueryOutcome, SessionBuilder, StopPolicy};
use verdict_workload::synthetic::{generate_table, SyntheticSpec};

fn synthetic_session(rows: usize, seed: u64) -> verdict::VerdictSession {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = SyntheticSpec {
        rows,
        numeric_dims: 1,
        categorical_dims: 1,
        smoothness: 1.5,
        noise: 0.1,
        ..Default::default()
    };
    let table = generate_table(&spec, &mut rng);
    SessionBuilder::new(table)
        .sample_fraction(0.1)
        .batch_size(500)
        .seed(seed)
        .build()
        .unwrap()
}

/// Warm up with overlapping range queries and train.
fn warmed(rows: usize, seed: u64) -> verdict::VerdictSession {
    let mut s = synthetic_session(rows, seed);
    for i in 0..20 {
        let lo = (i % 10) as f64;
        let sql = format!(
            "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
            lo + 1.0
        );
        s.execute(&sql, Mode::Verdict, StopPolicy::ScanAll).unwrap();
    }
    s.train().unwrap();
    s
}

#[test]
fn error_bounds_cover_truth_at_95pct() {
    // Verdict's 95% bounds must cover the exact answer in at least ~95% of
    // queries (Figure 5's claim). Allow slack for the finite query count.
    let mut s = warmed(100_000, 21);
    let mut rng = StdRng::seed_from_u64(22);
    let mut covered = 0usize;
    let mut total = 0usize;
    for _ in 0..60 {
        let lo = rng.gen::<f64>() * 8.0;
        let hi = lo + 0.5 + rng.gen::<f64>() * 1.5;
        let sql = format!("SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {hi}");
        let QueryOutcome::Answered(r) = s
            .execute(&sql, Mode::Verdict, StopPolicy::TupleBudget(4000))
            .unwrap()
        else {
            continue;
        };
        let cell = &r.rows[0].values[0];
        let q = verdict_sql::parse_query(&sql).unwrap();
        let plan = verdict_sql::plan_scan(&q, &s.table(), &[], 1).unwrap();
        let exact = s
            .exact(&plan.aggregates[0].agg, &plan.group_predicates[0])
            .unwrap();
        if !cell.improved.bound(0.95).is_finite() {
            continue;
        }
        total += 1;
        if (cell.improved.answer - exact).abs() <= cell.improved.bound(0.95) {
            covered += 1;
        }
    }
    assert!(total >= 40, "too few measurable queries: {total}");
    let rate = covered as f64 / total as f64;
    assert!(rate >= 0.85, "coverage {rate} ({covered}/{total})");
}

#[test]
fn improved_answers_reduce_actual_error_on_average() {
    // The headline claim: given the same scanned data, Verdict's answers
    // are closer to the truth on average than the raw AQP answers.
    let mut s = warmed(100_000, 31);
    let mut rng = StdRng::seed_from_u64(32);
    let mut raw_errs = Vec::new();
    let mut verdict_errs = Vec::new();
    for _ in 0..50 {
        let lo = rng.gen::<f64>() * 8.0;
        let hi = lo + 0.5 + rng.gen::<f64>() * 1.5;
        let sql = format!("SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {hi}");
        let QueryOutcome::Answered(r) = s
            .execute(&sql, Mode::Verdict, StopPolicy::TupleBudget(1500))
            .unwrap()
        else {
            continue;
        };
        let cell = &r.rows[0].values[0];
        let q = verdict_sql::parse_query(&sql).unwrap();
        let plan = verdict_sql::plan_scan(&q, &s.table(), &[], 1).unwrap();
        let exact = s
            .exact(&plan.aggregates[0].agg, &plan.group_predicates[0])
            .unwrap();
        raw_errs.push((cell.raw_answer - exact).abs());
        verdict_errs.push((cell.improved.answer - exact).abs());
    }
    let raw_mean: f64 = raw_errs.iter().sum::<f64>() / raw_errs.len() as f64;
    let vd_mean: f64 = verdict_errs.iter().sum::<f64>() / verdict_errs.len() as f64;
    assert!(
        vd_mean <= raw_mean,
        "verdict mean actual error {vd_mean} > raw {raw_mean}"
    );
}

#[test]
fn unseen_ranges_still_get_valid_answers() {
    // Warm-up only covers d0 in [0, 10]; query a range the synopsis has
    // never seen (extrapolation) — the answer must stay near the raw one
    // or be validated away, never silently wrong.
    let mut s = synthetic_session(50_000, 41);
    for i in 0..8 {
        let lo = i as f64 * 0.5;
        let sql = format!(
            "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
            lo + 0.5
        );
        s.execute(&sql, Mode::Verdict, StopPolicy::ScanAll).unwrap();
    }
    s.train().unwrap();
    let sql = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 8.5 AND 9.5";
    let r = s
        .execute(sql, Mode::Verdict, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    let cell = &r.rows[0].values[0];
    let q = verdict_sql::parse_query(sql).unwrap();
    let plan = verdict_sql::plan_scan(&q, &s.table(), &[], 1).unwrap();
    let exact = s
        .exact(&plan.aggregates[0].agg, &plan.group_predicates[0])
        .unwrap();
    // 99.9%-ish sanity: answer within 5 bounds of truth.
    let bound = cell.improved.bound(0.95).max(cell.raw_error * 2.0);
    assert!(
        (cell.improved.answer - exact).abs() <= 5.0 * bound.max(0.05),
        "extrapolated answer {} vs exact {exact} (bound {bound})",
        cell.improved.answer
    );
}

#[test]
fn freq_counts_never_negative() {
    let mut s = warmed(50_000, 51);
    let mut rng = StdRng::seed_from_u64(52);
    for _ in 0..30 {
        let lo = rng.gen::<f64>() * 9.0;
        let sql = format!(
            "SELECT COUNT(*) FROM t WHERE d0 BETWEEN {lo} AND {}",
            lo + 0.2
        );
        let QueryOutcome::Answered(r) = s
            .execute(&sql, Mode::Verdict, StopPolicy::TupleBudget(1000))
            .unwrap()
        else {
            continue;
        };
        let cell = &r.rows[0].values[0];
        assert!(
            cell.improved.answer >= 0.0,
            "negative count {}",
            cell.improved.answer
        );
        let (lo_ci, _) = cell.improved.interval(0.95, true);
        assert!(lo_ci >= 0.0, "negative count CI {lo_ci}");
    }
}

#[test]
fn nolearn_and_verdict_agree_when_untrained() {
    let mut s = synthetic_session(20_000, 61);
    let sql = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 1 AND 3";
    let a = s
        .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    let b = s
        .execute(sql, Mode::Verdict, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    let ca = &a.rows[0].values[0];
    let cb = &b.rows[0].values[0];
    assert_eq!(ca.raw_answer, cb.raw_answer);
    assert_eq!(
        cb.improved.answer, cb.raw_answer,
        "untrained = pass-through"
    );
    assert!(!cb.improved.used_model);
}
