//! Kernel parity: the chunked scan kernel (typed columnar chunks,
//! branch-free predicate masks, zone-map pruning) must be **bit-identical**
//! to the row-wise reference kernel end to end — answers, errors, improved
//! bounds, scan accounting, and the synopsis the learned state absorbs —
//! for arbitrary supported queries at every stop policy. The kernels may
//! differ only in *how fast* they scan (and in the chunk counters they
//! report), never in *what* any query answers or learns.
//!
//! The suite also covers the evolving-table path: ingest batches sized to
//! straddle chunk boundaries force the incremental zone-map extension,
//! and post-ingest queries re-check parity — the regression surface for
//! stale zone bounds pruning freshly appended rows.

use proptest::prelude::*;
use std::sync::Arc;
use verdict::core::persist::{EngineState, Persist};
use verdict::obs::MetricsHub;
use verdict::{
    Mode, QueryOutcome, QueryResult, ScanKernel, SessionBuilder, StopPolicy, VerdictSession,
};
use verdict_storage::{ColumnDef, Schema, Table, Value};

const REGIONS: [&str; 10] = ["r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"];

/// A deterministic table: numeric `week` dimension (1..=25), categorical
/// `region` dimension (10 labels), `rev` measure.
fn base_table(rows: usize) -> Table {
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

/// Two sessions over the identical table and sample, one per kernel.
/// `metrics` attaches a hub + query log to *one* of them, proving the
/// observability path cannot perturb answers.
fn session_pair(rows: usize, metrics: bool) -> (VerdictSession, VerdictSession) {
    let build = |kernel: ScanKernel, with_hub: bool| {
        let mut b = SessionBuilder::new(base_table(rows))
            .sample_fraction(0.25)
            .batch_size(150)
            .seed(17)
            .scan_kernel(kernel);
        if with_hub {
            b = b.metrics(Arc::new(MetricsHub::new())).query_log(32);
        }
        b.build().unwrap()
    };
    (
        build(ScanKernel::Chunked, metrics),
        build(ScanKernel::RowWise, false),
    )
}

#[derive(Debug, Clone)]
struct QuerySpec {
    sql: String,
    policy: StopPolicy,
}

/// Random supported queries: 1–3 aggregates, optional GROUP BY on either
/// dimension, random week range (sometimes empty / sometimes IN-set on
/// region), and a random draw over all four stop policies.
fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (0u32..20, 1u32..=25, 1u32..8, 0u32..3, 0u32..4, 0u32..3).prop_map(
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
                2 => StopPolicy::TimeBudgetNs(12_000_000.0),
                _ => StopPolicy::RelativeErrorBound {
                    target: 0.05,
                    delta: 0.95,
                },
            };
            QuerySpec { sql, policy }
        },
    )
}

/// Group-key equality by bit identity (a NaN key equals itself).
fn groups_identical(
    a: &Option<verdict_storage::GroupKey>,
    b: &Option<verdict_storage::GroupKey>,
) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(ka), Some(kb)) => {
            ka.len() == kb.len()
                && ka.iter().zip(kb.iter()).all(|(x, y)| match (x, y) {
                    (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
                    _ => x == y,
                })
        }
        _ => false,
    }
}

/// Bitwise comparison of two query results, cell for cell.
fn assert_results_match(chunked: &QueryResult, rowwise: &QueryResult, sql: &str) {
    assert_eq!(chunked.rows.len(), rowwise.rows.len(), "{sql}");
    assert_eq!(chunked.truncated, rowwise.truncated, "{sql}");
    assert_eq!(chunked.tuples_scanned, rowwise.tuples_scanned, "{sql}");
    for (rc, rr) in chunked.rows.iter().zip(rowwise.rows.iter()) {
        assert!(
            groups_identical(&rc.group, &rr.group),
            "{sql}: {:?} vs {:?}",
            rc.group,
            rr.group
        );
        assert_eq!(rc.values.len(), rr.values.len(), "{sql}");
        for (cc, cr) in rc.values.iter().zip(rr.values.iter()) {
            assert_eq!(
                cc.raw_answer.to_bits(),
                cr.raw_answer.to_bits(),
                "raw answer diverged: {} vs {} for {sql}",
                cc.raw_answer,
                cr.raw_answer
            );
            assert_eq!(
                cc.raw_error.to_bits(),
                cr.raw_error.to_bits(),
                "raw error diverged: {} vs {} for {sql}",
                cc.raw_error,
                cr.raw_error
            );
            assert_eq!(
                cc.improved.answer.to_bits(),
                cr.improved.answer.to_bits(),
                "improved answer diverged for {sql}"
            );
            assert_eq!(
                cc.improved.error.to_bits(),
                cr.improved.error.to_bits(),
                "improved error diverged for {sql}"
            );
            assert_eq!(cc.improved.used_model, cr.improved.used_model, "{sql}");
            assert_eq!(cc.tuples_scanned, cr.tuples_scanned, "{sql}");
        }
    }
}

/// The recorded synopses must be identical: the chunked kernel feeds the
/// learned state exactly what the row-wise kernel did, bit for bit.
fn assert_synopses_match(chunked: &VerdictSession, rowwise: &VerdictSession) {
    let a = EngineState::from_bytes(&chunked.snapshot().state_bytes()).unwrap();
    let b = EngineState::from_bytes(&rowwise.snapshot().state_bytes()).unwrap();
    assert_eq!(a.synopses.len(), b.synopses.len(), "synopsis key sets");
    for ((ka, sa), (kb, sb)) in a.synopses.iter().zip(b.synopses.iter()) {
        assert_eq!(ka, kb);
        assert_eq!(sa.len(), sb.len(), "synopsis length for {ka}");
        for (ea, eb) in sa.entries().iter().zip(sb.entries().iter()) {
            assert_eq!(ea.region, eb.region, "region for {ka}");
            assert_eq!(
                ea.observation.answer.to_bits(),
                eb.observation.answer.to_bits(),
                "recorded answer for {ka}"
            );
            assert_eq!(
                ea.observation.error.to_bits(),
                eb.observation.error.to_bits(),
                "recorded error for {ka}"
            );
        }
    }
}

fn run_pair(
    chunked: &mut VerdictSession,
    rowwise: &mut VerdictSession,
    sql: &str,
    mode: Mode,
    policy: StopPolicy,
) {
    let out_c = chunked.execute(sql, mode, policy).unwrap();
    let out_r = rowwise.execute(sql, mode, policy).unwrap();
    match (out_c, out_r) {
        (QueryOutcome::Answered(rc), QueryOutcome::Answered(rr)) => {
            assert_results_match(&rc, &rr, sql)
        }
        (QueryOutcome::Unsupported(_), QueryOutcome::Unsupported(_)) => {}
        _ => panic!("support classification diverged for {sql}"),
    }
}

/// An ingest batch whose row values extend the week range past the
/// original table's bounds (so zone maps must widen).
fn batch(rows: usize, tag: usize) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| {
            vec![
                (26.0 + ((tag + i) % 5) as f64).into(),
                REGIONS[(tag + i) % REGIONS.len()].into(),
                (40.0 + (i % 13) as f64).into(),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// NoLearn mode: raw pipeline parity over a random query sequence,
    /// with metrics attached to the chunked side only.
    #[test]
    fn chunked_matches_rowwise_nolearn(specs in prop::collection::vec(query_spec(), 18..=18)) {
        let (mut chunked, mut rowwise) = session_pair(6_000, true);
        for spec in &specs {
            run_pair(&mut chunked, &mut rowwise, &spec.sql, Mode::NoLearn, spec.policy);
        }
    }

    /// Verdict mode: inference + validation + synopsis recording parity,
    /// with models trained mid-sequence so later queries engage them.
    #[test]
    fn chunked_matches_rowwise_verdict(specs in prop::collection::vec(query_spec(), 12..=12)) {
        let (mut chunked, mut rowwise) = session_pair(6_000, false);
        for lo in (0..24).step_by(3) {
            let sql = format!(
                "SELECT AVG(rev), COUNT(*) FROM t WHERE week BETWEEN {lo} AND {}",
                lo + 4
            );
            run_pair(&mut chunked, &mut rowwise, &sql, Mode::Verdict, StopPolicy::ScanAll);
        }
        assert_synopses_match(&chunked, &rowwise);
        chunked.train().unwrap();
        rowwise.train().unwrap();
        // Guard against trivial parity: the trained model must engage.
        let probe = "SELECT AVG(rev) FROM t WHERE week BETWEEN 5 AND 15";
        let pc = chunked.execute(probe, Mode::Verdict, StopPolicy::ScanAll)
            .unwrap().unwrap_answered();
        let pr = rowwise.execute(probe, Mode::Verdict, StopPolicy::ScanAll)
            .unwrap().unwrap_answered();
        prop_assert!(pc.rows[0].values[0].improved.used_model, "model must engage");
        assert_results_match(&pc, &pr, probe);
        for spec in &specs {
            run_pair(&mut chunked, &mut rowwise, &spec.sql, Mode::Verdict, spec.policy);
        }
        assert_synopses_match(&chunked, &rowwise);
    }

    /// Evolving tables: interleave queries with ingest batches sized to
    /// straddle chunk boundaries (the sample grows through per-row
    /// admission, so the chunked kernel's zone maps extend incrementally
    /// mid-sequence). Parity must hold before and after every batch —
    /// stale zone bounds would silently unselect the appended rows.
    #[test]
    fn chunked_matches_rowwise_across_ingest(specs in prop::collection::vec(query_spec(), 8..=8)) {
        let (mut chunked, mut rowwise) = session_pair(5_000, false);
        // Batch sizes chosen to land sample appends on and around the
        // 1024-row chunk boundary of the growing sample table.
        for (i, rows) in [700usize, 1024, 1500, 37].into_iter().enumerate() {
            for spec in specs.iter().skip(i * 2).take(2) {
                run_pair(&mut chunked, &mut rowwise, &spec.sql, Mode::Verdict, spec.policy);
            }
            let b = batch(rows, i * 31);
            let rep_c = chunked.ingest(&b).unwrap();
            let rep_r = rowwise.ingest(&b).unwrap();
            prop_assert_eq!(rep_c.appended_rows, rep_r.appended_rows);
            prop_assert_eq!(&rep_c.admitted_rows, &rep_r.admitted_rows);
            // The appended weeks (26..=30) are outside every pre-ingest
            // zone: this query answers *only* from appended rows.
            run_pair(
                &mut chunked,
                &mut rowwise,
                "SELECT COUNT(*), AVG(rev) FROM t WHERE week BETWEEN 26 AND 30",
                Mode::Verdict,
                StopPolicy::ScanAll,
            );
        }
        assert_synopses_match(&chunked, &rowwise);
    }
}

/// Regression (stale zone bounds): after ingest, a chunked query whose
/// predicate selects *only* appended-row values must count them — a
/// stale cached zone map would classify every chunk NoRows and return a
/// silent zero. Bit-compared against the row-wise kernel, which never
/// consults zone maps.
#[test]
fn post_ingest_query_sees_appended_rows_through_zone_maps() {
    let (mut chunked, mut rowwise) = session_pair(4_000, false);
    // Warm the zone-map cache with a pre-ingest scan.
    let warm = "SELECT COUNT(*) FROM t WHERE week BETWEEN 1 AND 25";
    run_pair(
        &mut chunked,
        &mut rowwise,
        warm,
        Mode::NoLearn,
        StopPolicy::ScanAll,
    );
    let b = batch(2_000, 7);
    chunked.ingest(&b).unwrap();
    rowwise.ingest(&b).unwrap();
    let sql = "SELECT COUNT(*) FROM t WHERE week BETWEEN 26 AND 30";
    let rc = chunked
        .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    let rr = rowwise
        .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    assert_results_match(&rc, &rr, sql);
    assert!(
        rc.rows[0].values[0].raw_answer > 0.0,
        "appended rows invisible to the chunked kernel: {}",
        rc.rows[0].values[0].raw_answer
    );
}

/// The session-level kernel knob actually reaches the driver: identical
/// queries on the two kernels report identical scan accounting, and the
/// chunked session's query log carries nonzero chunk counters while the
/// row-wise session's stays zero.
#[test]
fn query_log_reports_chunk_counters_per_kernel() {
    let build = |kernel: ScanKernel| {
        SessionBuilder::new(base_table(5_000))
            .sample_fraction(0.5)
            .batch_size(200)
            .seed(3)
            .scan_kernel(kernel)
            .query_log(8)
            .build()
            .unwrap()
    };
    let mut chunked = build(ScanKernel::Chunked);
    let mut rowwise = build(ScanKernel::RowWise);
    let sql = "SELECT region, AVG(rev) FROM t WHERE week BETWEEN 3 AND 9 GROUP BY region";
    run_pair(
        &mut chunked,
        &mut rowwise,
        sql,
        Mode::NoLearn,
        StopPolicy::ScanAll,
    );
    let tc = &chunked.recent_queries(1)[0];
    let tr = &rowwise.recent_queries(1)[0];
    assert!(tc.chunks > 0, "chunked kernel reports its chunk walk");
    assert_eq!(tr.chunks, 0, "row-wise kernel never touches chunks");
    assert_eq!(tr.chunks_pruned, 0);
    assert_eq!(tc.rows_matched, tr.rows_matched, "identical match counts");
    assert!(tc.rows_matched > 0);
}
