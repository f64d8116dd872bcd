//! Integration tests: the full SQL → snippets → AQP → inference pipeline
//! across crates, on the TPC-H-style workload.

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::{Database, Mode, QueryOptions, QueryOutcome, StopPolicy, TableOptions};
use verdict_workload::tpch;

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn tpch_session(rows: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = tpch::generate_denormalized(rows, &mut rng);
    Database::builder()
        .register_table_with(
            "lineitem",
            table,
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed,
                ..TableOptions::default()
            },
        )
        .build()
        .unwrap()
}

#[test]
fn all_supported_tpch_templates_execute() {
    let session = tpch_session(20_000, 1);
    let mut rng = StdRng::seed_from_u64(2);
    for t in tpch::templates().into_iter().filter(|t| t.supported) {
        let sql = tpch::instantiate(&t, &mut rng);
        let out = session
            .query(&sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
            .unwrap_or_else(|e| panic!("Q{} failed: {e}\n{sql}", t.id));
        assert!(out.is_answered(), "Q{} classified unsupported: {sql}", t.id);
    }
}

#[test]
fn all_unsupported_tpch_templates_classified() {
    let session = tpch_session(5_000, 3);
    let mut rng = StdRng::seed_from_u64(4);
    for t in tpch::templates().into_iter().filter(|t| !t.supported) {
        let sql = tpch::instantiate(&t, &mut rng);
        let out = session
            .query(&sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
            .unwrap();
        assert!(!out.is_answered(), "Q{} should be unsupported: {sql}", t.id);
    }
}

#[test]
fn theorem1_holds_across_tpch_workload() {
    let session = tpch_session(30_000, 5);
    let mut rng = StdRng::seed_from_u64(6);
    // Train on 30 queries.
    for sql in tpch::generate_supported_queries(30, &mut rng) {
        session
            .query(&sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
            .unwrap();
    }
    session.train("lineitem").unwrap();
    // Every cell of every subsequent query obeys β̂ ≤ β.
    for sql in tpch::generate_supported_queries(20, &mut rng) {
        let QueryOutcome::Answered(result) = session
            .query(&sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
            .unwrap()
        else {
            continue;
        };
        for row in &result.rows {
            for cell in &row.values {
                if cell.raw_error.is_finite() {
                    assert!(
                        cell.improved.error <= cell.raw_error * (1.0 + 1e-9),
                        "β̂ {} > β {} for {sql}",
                        cell.improved.error,
                        cell.raw_error
                    );
                }
            }
        }
    }
}

#[test]
fn group_by_query_returns_group_rows_with_improvements() {
    let session = tpch_session(30_000, 7);
    let mut rng = StdRng::seed_from_u64(8);
    for sql in tpch::generate_supported_queries(30, &mut rng) {
        session
            .query(&sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
            .unwrap();
    }
    session.train("lineitem").unwrap();
    let result = session
        .query("SELECT returnflag, SUM(price), COUNT(*) FROM lineitem WHERE ship_week <= 60 GROUP BY returnflag", &opts(Mode::Verdict, StopPolicy::ScanAll))
        .unwrap()
        .unwrap_answered();
    assert_eq!(result.rows.len(), 3, "three return flags");
    for row in &result.rows {
        assert!(row.group.is_some());
        assert_eq!(row.values.len(), 2, "two aggregates per group");
    }
}

#[test]
fn answers_track_exact_values() {
    let session = tpch_session(40_000, 9);
    let sql = "SELECT AVG(price) FROM lineitem WHERE ship_week BETWEEN 20 AND 60";
    let result = session
        .query(sql, &opts(Mode::NoLearn, StopPolicy::ScanAll))
        .unwrap()
        .unwrap_answered();
    let cell = &result.rows[0].values[0];
    let q = verdict_sql::parse_query(sql).unwrap();
    let table = session.table("lineitem").unwrap();
    let plan = verdict_sql::plan_scan(&q, &table, &[], 1).unwrap();
    let exact = plan.aggregates[0]
        .agg
        .eval_exact(&table, &plan.group_predicates[0])
        .unwrap();
    let rel = (cell.raw_answer - exact).abs() / exact.abs();
    assert!(rel < 0.05, "relative error {rel}");
    // The 99.7% bound should cover the actual deviation.
    assert!((cell.raw_answer - exact).abs() <= 3.5 * cell.raw_error + 1e-9);
}

#[test]
fn nmax_caps_group_snippets() {
    let mut rng = StdRng::seed_from_u64(10);
    let table = tpch::generate_denormalized(10_000, &mut rng);
    let config = verdict_core::VerdictConfig {
        nmax: 2,
        ..Default::default()
    };
    let session = Database::builder()
        .register_table_with(
            "lineitem",
            table,
            TableOptions {
                sample_fraction: 0.2,
                seed: 10,
                config,
                ..TableOptions::default()
            },
        )
        .build()
        .unwrap();
    let result = session
        .query(
            "SELECT brand, COUNT(*) FROM lineitem GROUP BY brand",
            &opts(Mode::Verdict, StopPolicy::ScanAll),
        )
        .unwrap()
        .unwrap_answered();
    assert!(result.truncated, "10 brands but nmax = 2");
    assert_eq!(result.rows.len(), 2);
}
