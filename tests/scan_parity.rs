//! Kernel parity: every session runs the chunked scan kernel (typed
//! columnar chunks, branch-free predicate masks, zone-map pruning), and
//! what it answers, where it stops and what it records must be
//! **bit-identical** to the row-wise kernel oracle
//! (`ScanKernel::RowWise` on a driver the test holds over the same
//! snapshot's sample) and to the per-snippet estimator, for arbitrary
//! supported queries at every stop policy (see `oracle::check`). The
//! kernels may differ only in *how fast* they scan (and in the chunk
//! counters they report), never in *what* any query answers or learns.
//!
//! The suite also covers the evolving-table path: ingest batches sized to
//! straddle chunk boundaries force the incremental zone-map extension,
//! and post-ingest queries re-check parity — the regression surface for
//! stale zone bounds pruning freshly appended rows.

mod oracle;

use oracle::{base_table, check, plan_of, query_spec, rowwise_driver, session, REGIONS};
use proptest::prelude::*;
use verdict::{Mode, SessionBuilder, StopPolicy};
use verdict_storage::Value;

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
    /// with metrics and a query log attached to the session.
    #[test]
    fn chunked_matches_rowwise_nolearn(specs in prop::collection::vec(query_spec(3), 18..=18)) {
        let mut s = session(6_000, true);
        for spec in &specs {
            check(&mut s, &spec.sql, Mode::NoLearn, spec.policy, true);
        }
    }

    /// Verdict mode: inference + validation + synopsis recording parity,
    /// with models trained mid-sequence so later queries engage them.
    #[test]
    fn chunked_matches_rowwise_verdict(specs in prop::collection::vec(query_spec(3), 12..=12)) {
        let mut s = session(6_000, false);
        for lo in (0..24).step_by(3) {
            let sql = format!(
                "SELECT AVG(rev), COUNT(*) FROM t WHERE week BETWEEN {lo} AND {}",
                lo + 4
            );
            check(&mut s, &sql, Mode::Verdict, StopPolicy::ScanAll, true);
        }
        s.train().unwrap();
        // Guard against trivial parity: the trained model must engage.
        let probe = "SELECT AVG(rev) FROM t WHERE week BETWEEN 5 AND 15";
        let p = check(&mut s, probe, Mode::Verdict, StopPolicy::ScanAll, true);
        prop_assert!(p.rows[0].values[0].improved.used_model, "model must engage");
        for spec in &specs {
            check(&mut s, &spec.sql, Mode::Verdict, spec.policy, true);
        }
    }

    /// Evolving tables: interleave queries with ingest batches sized to
    /// straddle chunk boundaries (the sample grows through per-row
    /// admission, so the chunked kernel's zone maps extend incrementally
    /// mid-sequence). Parity must hold before and after every batch —
    /// stale zone bounds would silently unselect the appended rows.
    #[test]
    fn chunked_matches_rowwise_across_ingest(specs in prop::collection::vec(query_spec(3), 8..=8)) {
        let mut s = session(5_000, false);
        // Batch sizes chosen to land sample appends on and around the
        // 1024-row chunk boundary of the growing sample table.
        for (i, rows) in [700usize, 1024, 1500, 37].into_iter().enumerate() {
            for spec in specs.iter().skip(i * 2).take(2) {
                check(&mut s, &spec.sql, Mode::Verdict, spec.policy, true);
            }
            let report = s.ingest(&batch(rows, i * 31)).unwrap();
            prop_assert_eq!(report.appended_rows, rows);
            // The appended weeks (26..=30) are outside every pre-ingest
            // zone: this query answers *only* from appended rows.
            check(
                &mut s,
                "SELECT COUNT(*), AVG(rev) FROM t WHERE week BETWEEN 26 AND 30",
                Mode::Verdict,
                StopPolicy::ScanAll,
                true,
            );
        }
    }
}

/// Regression (stale zone bounds): after ingest, a query whose predicate
/// selects *only* appended-row values must count them — a stale cached
/// zone map would classify every chunk NoRows and return a silent zero.
/// Bit-compared against the row-wise kernel, which never consults zone
/// maps.
#[test]
fn post_ingest_query_sees_appended_rows_through_zone_maps() {
    let mut s = session(4_000, false);
    // Warm the zone-map cache with a pre-ingest scan.
    let warm = "SELECT COUNT(*) FROM t WHERE week BETWEEN 1 AND 25";
    check(&mut s, warm, Mode::NoLearn, StopPolicy::ScanAll, true);
    s.ingest(&batch(2_000, 7)).unwrap();
    let sql = "SELECT COUNT(*) FROM t WHERE week BETWEEN 26 AND 30";
    let r = check(&mut s, sql, Mode::NoLearn, StopPolicy::ScanAll, true);
    assert!(
        r.rows[0].values[0].raw_answer > 0.0,
        "appended rows invisible to the chunked kernel: {}",
        r.rows[0].values[0].raw_answer
    );
}

/// The query log carries the chunked kernel's scan accounting: nonzero
/// chunk counters, and the match count a row-wise driver (which never
/// touches a chunk) reports for the same scan.
#[test]
fn query_log_reports_chunk_counters_per_kernel() {
    let mut s = SessionBuilder::new(base_table(5_000))
        .sample_fraction(0.5)
        .batch_size(200)
        .seed(3)
        .query_log(8)
        .build()
        .unwrap();
    let sql = "SELECT region, AVG(rev) FROM t WHERE week BETWEEN 3 AND 9 GROUP BY region";
    let snapshot = s.snapshot();
    let r = check(&mut s, sql, Mode::NoLearn, StopPolicy::ScanAll, true);
    let trace = &s.recent_queries(1)[0];
    let mut rowwise = rowwise_driver(&snapshot.samples()[0], &plan_of(&snapshot, sql, &r));
    while rowwise.step() {}
    assert!(trace.chunks > 0, "chunked kernel reports its chunk walk");
    assert_eq!(rowwise.chunks_scanned(), 0, "row-wise never touches chunks");
    assert_eq!(rowwise.chunks_pruned(), 0);
    assert_eq!(
        trace.rows_matched,
        rowwise.rows_matched(),
        "identical match counts"
    );
    assert!(trace.rows_matched > 0);
}
