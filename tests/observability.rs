//! The observability layer end to end: metrics + query log on the
//! serial, concurrent, and prepared paths; counter coherence under
//! multi-threaded load; report timing satellites (`QueryResult::elapsed`,
//! `IngestReport` / `CheckpointReport` durations and WAL bytes); and the
//! core guarantee that metrics observe the pipeline without changing a
//! single answer bit.

use std::sync::Arc;
use std::time::Duration;

use verdict::obs::MetricsHub;
use verdict::storage::{ColumnDef, PartitionSpec, Schema, Table, Value};
use verdict::{
    Database, Mode, QueryOptions, QueryOutcome, SessionBuilder, StopPolicy, VerdictSession,
};

fn base_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::categorical_dimension("region"),
        ColumnDef::measure("rev"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 1u64;
    for i in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let week = 1.0 + (i % 100) as f64;
        let region = ["us", "eu", "jp"][i % 3];
        let rev = 100.0 + 20.0 * (week / 15.0).sin() + 5.0 * (u - 0.5);
        t.push_row(vec![week.into(), region.into(), rev.into()])
            .unwrap();
    }
    t
}

fn batch(n: usize, from: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            let week = 1.0 + ((from + i) % 100) as f64;
            vec![
                week.into(),
                ["us", "eu", "jp"][(from + i) % 3].into(),
                (100.0 + week / 10.0).into(),
            ]
        })
        .collect()
}

fn avg_sql(lo: usize) -> String {
    format!(
        "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
        lo + 10
    )
}

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict-obs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Inference reports the threads its passes over model factors ran on: no
/// pass before training, then one per query on the calling thread alone
/// (a model far below the size that pays for a second thread), in the
/// trace and in `verdict_infer_workers_total`.
#[test]
fn inference_workers_count_one_per_serial_pass() {
    let hub = Arc::new(MetricsHub::new());
    let mut session = SessionBuilder::new(base_table(8_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .metrics(Arc::clone(&hub))
        .query_log(64)
        .build()
        .unwrap();
    let run = |session: &mut VerdictSession, queries: usize| {
        for k in 0..queries {
            session
                .execute(&avg_sql(k * 10), Mode::Verdict, StopPolicy::ScanAll)
                .unwrap()
                .unwrap_answered();
        }
    };
    let infer_workers = |session: &VerdictSession| {
        let snap = session.metrics_snapshot().expect("hub attached");
        snap.counter("verdict_infer_workers_total", Some("t"))
            .unwrap_or(0)
    };
    const COLD: usize = 6;
    const TRAINED: usize = 4;
    run(&mut session, COLD);
    assert_eq!(infer_workers(&session), 0, "no model, no pass");
    session.train().unwrap();
    run(&mut session, TRAINED);
    assert_eq!(infer_workers(&session), TRAINED as u64);
    let traces = session.recent_queries(COLD + TRAINED);
    let per_query: Vec<u64> = traces.iter().rev().map(|t| t.infer_workers).collect();
    let want: Vec<u64> = [0]
        .repeat(COLD)
        .into_iter()
        .chain([1].repeat(TRAINED))
        .collect();
    assert_eq!(per_query, want);
}

/// Serial session: counters, stage histograms, traces, and gauges all
/// move coherently through query / unsupported / ingest / train.
#[test]
fn serial_session_reports_metrics_and_traces() {
    let hub = Arc::new(MetricsHub::new());
    let mut session = SessionBuilder::new(base_table(8_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .metrics(Arc::clone(&hub))
        .query_log(64)
        .build()
        .unwrap();

    const ANSWERED: usize = 6;
    for k in 0..ANSWERED {
        let r = session
            .execute(&avg_sql(k * 10), Mode::Verdict, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
        assert!(r.elapsed > Duration::ZERO, "wall clock always populated");
    }
    // One statement outside the supported class.
    assert!(matches!(
        session
            .execute("SELECT MIN(rev) FROM t", Mode::Verdict, StopPolicy::ScanAll)
            .unwrap(),
        QueryOutcome::Unsupported(_)
    ));
    // A statement that does not parse never "started": the one engine
    // counts a query after parse/resolve (the serial path used to count
    // it before).
    assert!(session
        .execute("SELEKT oops", Mode::Verdict, StopPolicy::ScanAll)
        .is_err());
    session.train().unwrap();
    let report = session.ingest(&batch(500, 0)).unwrap();
    assert!(report.elapsed > Duration::ZERO);
    assert!(report.shift_elapsed > Duration::ZERO);
    assert!(report.shift_elapsed + report.refit_elapsed <= report.elapsed);
    assert_eq!(report.wal_bytes, 0, "no store attached");

    let snap = session.metrics_snapshot().expect("hub attached");
    let c = |name: &str| snap.counter(name, Some("t")).unwrap_or(0);
    assert_eq!(c("verdict_queries_started"), ANSWERED as u64 + 1);
    assert_eq!(c("verdict_queries_answered"), ANSWERED as u64);
    assert_eq!(c("verdict_queries_unsupported"), 1);
    assert_eq!(c("verdict_ingest_batches_total"), 1);
    assert_eq!(c("verdict_ingest_rows_total"), 500);
    assert_eq!(c("verdict_train_total"), 1);
    // Where the training pass went: the lengthscale search and the model
    // fit are each timed inside the pass, so together they fit in it.
    let h = |name: &str| snap.histogram(name, Some("t")).unwrap();
    let (train, search, fit) = (
        h("verdict_train_ns"),
        h("verdict_train_search_ns"),
        h("verdict_train_fit_ns"),
    );
    assert_eq!((train.count, search.count, fit.count), (1, 1, 1));
    assert!(search.sum > 0 && fit.sum > 0);
    assert!(search.sum + fit.sum <= train.sum);
    // And where the ingest went: the shift estimate and the refit, each
    // timed once, inside the ingest's own latency.
    let (ingest, shift, refit) = (
        h("verdict_ingest_latency_ns"),
        h("verdict_ingest_shift_ns"),
        h("verdict_refit_ns"),
    );
    assert_eq!((ingest.count, shift.count, refit.count), (1, 1, 1));
    assert_eq!(shift.sum, report.shift_elapsed.as_nanos() as u64);
    assert!(shift.sum > 0 && shift.sum + refit.sum <= ingest.sum);
    assert!(c("verdict_tuples_scanned_total") > 0);
    assert!(c("verdict_snippets_observed_total") >= ANSWERED as u64);
    // The default chunked kernel reports its chunk walk, and every
    // AVG-between query matched at least one sampled row.
    assert!(c("verdict_scan_chunks_total") > 0);
    // A 1,600-row sample is far below one thread's worth of rows: every
    // scan ran on the calling thread alone and claimed no morsel.
    assert_eq!(c("verdict_scan_workers_total"), ANSWERED as u64);
    assert_eq!(c("verdict_scan_morsels_total"), 0);
    assert!(c("verdict_rows_matched_total") > 0);
    assert!(c("verdict_rows_matched_total") <= c("verdict_tuples_scanned_total"));
    let sel = snap
        .histogram("verdict_scan_selectivity_pct", Some("t"))
        .unwrap();
    assert_eq!(sel.count, ANSWERED as u64);

    // Latency histogram counts exactly the answered queries.
    let lat = snap
        .histogram("verdict_query_latency_ns", Some("t"))
        .unwrap();
    assert_eq!(lat.count, ANSWERED as u64);
    assert!(lat.percentile(0.5).unwrap() > 0.0);
    let scan = snap.histogram("verdict_stage_scan_ns", Some("t")).unwrap();
    assert_eq!(scan.count, ANSWERED as u64);

    // Engine gauges reflect the post-ingest state.
    assert_eq!(snap.gauge("verdict_data_epoch", Some("t")), Some(1.0));
    assert!(snap.gauge("verdict_synopsis_snippets", Some("t")).unwrap() >= ANSWERED as f64);
    assert!(snap.gauge("verdict_sample_rows", Some("t")).unwrap() > 0.0);

    // The query log holds every answered query, newest first, and each
    // trace's stage clocks fit inside its wall clock.
    let traces = session.recent_queries(16);
    assert_eq!(traces.len(), ANSWERED);
    for pair in traces.windows(2) {
        assert!(pair[0].seq > pair[1].seq, "newest first");
    }
    for t in &traces {
        assert_eq!(t.table, "t");
        assert!(!t.prepared);
        assert!(t.sql.as_deref().unwrap().starts_with("SELECT AVG"));
        assert!(t.elapsed_ns > 0);
        assert!(t.stages.total_ns() <= t.elapsed_ns);
        assert!(t.tuples_scanned > 0);
        assert!(t.cells >= 1);
        assert!(t.chunks > 0, "chunked kernel walks chunk segments");
        assert!(t.rows_matched > 0 && t.rows_matched <= t.tuples_scanned);
        assert_eq!((t.workers, t.morsels), (1, 0));
    }
}

/// Database front-end: per-table series labels, the prepared path's
/// trace shape, and both exposition formats.
#[test]
fn database_labels_tables_and_flags_prepared_path() {
    let hub = Arc::new(MetricsHub::new());
    let db = Database::builder()
        .register_table("orders", base_table(6_000))
        .register_table("events", base_table(4_000))
        .metrics(Arc::clone(&hub))
        .query_log(32)
        .build()
        .unwrap();

    let opts = QueryOptions::new();
    db.query(
        "SELECT AVG(rev) FROM orders WHERE week BETWEEN 5 AND 15",
        &opts,
    )
    .unwrap()
    .unwrap_answered();
    db.query(
        "SELECT AVG(rev) FROM events WHERE week BETWEEN 5 AND 15",
        &opts,
    )
    .unwrap()
    .unwrap_answered();

    let stmt = db
        .prepare("SELECT AVG(rev) FROM orders WHERE week BETWEEN ? AND ?")
        .unwrap();
    for lo in [20.0_f64, 40.0] {
        let r = stmt
            .bind(&[lo.into(), (lo + 10.0).into()])
            .unwrap()
            .run(&opts)
            .unwrap()
            .unwrap_answered();
        assert!(r.elapsed > Duration::ZERO);
    }

    let snap = db.metrics_snapshot().unwrap();
    assert_eq!(
        snap.counter("verdict_queries_answered", Some("orders")),
        Some(3)
    );
    assert_eq!(
        snap.counter("verdict_queries_answered", Some("events")),
        Some(1)
    );

    // Prepared executions trace with the flag set, the template SQL
    // (placeholders, not bound literals — so logs stay attributable
    // without leaking parameters), and no parse stage.
    let traces = db.recent_queries(10);
    assert_eq!(traces.len(), 4);
    let prepared: Vec<_> = traces.iter().filter(|t| t.prepared).collect();
    assert_eq!(prepared.len(), 2);
    for t in &prepared {
        assert_eq!(t.table, "orders");
        assert_eq!(
            t.sql.as_deref(),
            Some("SELECT AVG(rev) FROM orders WHERE week BETWEEN ? AND ?")
        );
        assert_eq!(t.stages.parse_ns, 0);
        assert!(t.stages.plan_ns > 0);
    }

    // Prometheus-style text and JSON renderings carry the same series.
    let text = snap.to_text();
    assert!(text.contains("verdict_queries_answered{table=\"orders\"} 3"));
    assert!(text.contains("verdict_query_latency_ns_count{table=\"events\"} 1"));
    assert!(text.contains("verdict_query_latency_ns_p50{table=\"orders\"}"));
    let json = snap.to_json();
    assert!(json.contains("\"name\":\"verdict_queries_answered\""));
    assert!(json.contains("\"table\":\"events\""));
}

/// 4 reader threads + 1 ingester hammer one promoted session; the
/// counters must balance exactly afterwards — no query lost or double
/// counted by the lock-free recording path.
#[test]
fn concurrent_stress_keeps_metrics_coherent() {
    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 25;
    const INGEST_BATCHES: usize = 6;
    const ROWS_PER_BATCH: usize = 200;

    let hub = Arc::new(MetricsHub::new());
    let session = SessionBuilder::new(base_table(10_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .metrics(Arc::clone(&hub))
        .query_log(1024)
        .build()
        .unwrap()
        .into_database("t")
        .unwrap();

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let session = session.clone();
            scope.spawn(move || {
                for k in 0..QUERIES_PER_READER {
                    let lo = (r * QUERIES_PER_READER + k) % 90;
                    session
                        .query(&avg_sql(lo), &QueryOptions::new())
                        .unwrap()
                        .unwrap_answered();
                }
            });
        }
        let ingester = session.clone();
        scope.spawn(move || {
            for b in 0..INGEST_BATCHES {
                let report = ingester
                    .ingest("t", &batch(ROWS_PER_BATCH, b * ROWS_PER_BATCH))
                    .unwrap();
                assert_eq!(report.appended_rows, ROWS_PER_BATCH);
            }
        });
    });

    let total = (READERS * QUERIES_PER_READER) as u64;
    let snap = session.metrics_snapshot().unwrap();
    let c = |name: &str| snap.counter(name, Some("t")).unwrap_or(0);
    assert_eq!(c("verdict_queries_started"), total);
    assert_eq!(c("verdict_queries_answered"), total);
    assert_eq!(c("verdict_queries_unsupported"), 0);
    assert_eq!(
        snap.histogram("verdict_query_latency_ns", Some("t"))
            .unwrap()
            .count,
        total,
        "histogram count == answered count"
    );
    assert_eq!(c("verdict_ingest_batches_total"), INGEST_BATCHES as u64);
    assert_eq!(
        c("verdict_ingest_rows_total"),
        (INGEST_BATCHES * ROWS_PER_BATCH) as u64
    );
    assert_eq!(
        snap.gauge("verdict_data_epoch", Some("t")),
        Some(INGEST_BATCHES as f64)
    );
    let log = session.query_log().unwrap();
    assert_eq!(log.total_pushed(), total);
}

/// The headline guarantee: attaching the full observability stack does
/// not change a single answer bit. Same table, same seed, same workload —
/// every estimate, error, and scan count must match exactly.
#[test]
fn metrics_never_change_answers() {
    let run = |observed: bool| -> Vec<(f64, f64, f64, f64, usize)> {
        let mut builder = SessionBuilder::new(base_table(8_000))
            .sample_fraction(0.2)
            .batch_size(200)
            .seed(5);
        if observed {
            builder = builder.metrics(Arc::new(MetricsHub::new())).query_log(128);
        }
        let mut session = builder.build().unwrap();
        let mut out = Vec::new();
        for phase in 0..2 {
            for k in 0..5 {
                let r = session
                    .execute(&avg_sql(k * 10), Mode::Verdict, StopPolicy::ScanAll)
                    .unwrap()
                    .unwrap_answered();
                let cell = &r.rows[0].values[0];
                out.push((
                    cell.improved.answer,
                    cell.improved.error,
                    cell.raw_answer,
                    cell.raw_error,
                    r.tuples_scanned,
                ));
            }
            if phase == 0 {
                session.train().unwrap();
                session.ingest(&batch(400, 0)).unwrap();
            }
        }
        out
    };

    let plain = run(false);
    let observed = run(true);
    for (a, b) in plain.iter().zip(&observed) {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "improved answer");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "improved error");
        assert_eq!(a.2.to_bits(), b.2.to_bits(), "raw answer");
        assert_eq!(a.3.to_bits(), b.3.to_bits(), "raw error");
        assert_eq!(a.4, b.4, "tuples scanned");
    }
}

/// The query-log ring evicts oldest-first at capacity while sequence
/// numbers keep counting every push.
#[test]
fn query_log_ring_bounds_retention() {
    let mut session = SessionBuilder::new(base_table(4_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .query_log(4)
        .build()
        .unwrap();
    for k in 0..10 {
        session
            .execute(&avg_sql(k * 9), Mode::Verdict, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
    }
    let log = session.query_log().unwrap();
    assert_eq!(log.len(), 4);
    assert_eq!(log.total_pushed(), 10);
    let seqs: Vec<u64> = session.recent_queries(10).iter().map(|t| t.seq).collect();
    assert_eq!(seqs, vec![9, 8, 7, 6]);
    // A session without a log reports nothing but still serves queries.
    assert!(session.metrics_snapshot().is_none());
}

/// Persistent sessions report real store work — WAL bytes on ingest,
/// snapshot bytes and durations on checkpoint — measured by the store
/// itself, and the same numbers flow into the gauges.
#[test]
fn reports_carry_store_work() {
    let dir = temp_store("reports");
    let hub = Arc::new(MetricsHub::new());
    let mut session = SessionBuilder::new(base_table(6_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .persist_to(&dir)
        .metrics(Arc::clone(&hub))
        .build()
        .unwrap();

    for k in 0..4 {
        session
            .execute(&avg_sql(k * 10), Mode::Verdict, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
    }
    let ingest = session.ingest(&batch(300, 0)).unwrap();
    assert!(ingest.wal_bytes > 0, "WAL-logged ingest reports its bytes");

    let ckpt = session.checkpoint().unwrap();
    assert!(ckpt.snapshots_written >= 1);
    assert!(ckpt.bytes_written > 0);
    assert!(ckpt.elapsed > Duration::ZERO);

    let snap = session.metrics_snapshot().unwrap();
    assert!(
        snap.counter("verdict_checkpoints_total", Some("t"))
            .unwrap()
            >= 1
    );
    assert!(
        snap.counter("verdict_checkpoint_bytes_total", Some("t"))
            .unwrap()
            >= ckpt.bytes_written
    );
    assert!(
        snap.gauge("verdict_store_snapshot_bytes", Some("t"))
            .unwrap()
            > 0.0
    );

    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A non-persistent checkpoint is a no-op and says so: the report is all
/// zeros on both the session and database fronts.
#[test]
fn in_memory_checkpoint_reports_zero_work() {
    let mut session: VerdictSession = SessionBuilder::new(base_table(2_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .build()
        .unwrap();
    let report = session.checkpoint().unwrap();
    assert_eq!(report.snapshots_written, 0);
    assert_eq!(report.bytes_written, 0);
    assert_eq!(report.elapsed, Duration::ZERO);

    let db = Database::builder()
        .register_table("orders", base_table(2_000))
        .build()
        .unwrap();
    let report = db.checkpoint().unwrap();
    assert_eq!(report.snapshots_written, 0);
    // No hub, no log: the observability accessors degrade to nothing.
    assert!(db.metrics_snapshot().is_none());
    assert!(db.recent_queries(5).is_empty());
}

/// An out-of-core table reports what its segment faults cost: the time
/// spent inside the partition cache's loader is exported per table beside
/// the miss counter, and each query's trace carries its own share.
#[test]
fn paged_faults_report_their_time() {
    let dir = temp_store("faults");
    let hub = Arc::new(MetricsHub::new());
    let mut session = SessionBuilder::new(base_table(6_000))
        .sample_fraction(0.25)
        .batch_size(150)
        .seed(3)
        .partition_by(PartitionSpec::range("week", vec![25.0, 50.0, 75.0]))
        .persist_to(&dir)
        .memory_budget(1)
        .metrics(Arc::clone(&hub))
        .query_log(8)
        .build()
        .unwrap();
    assert!(session.is_paged());
    session
        .execute(&avg_sql(1), Mode::Verdict, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    let snap = session.metrics_snapshot().expect("hub attached");
    let c = |name: &str| snap.counter(name, Some("t")).unwrap_or(0);
    let misses = c("verdict_partition_cache_misses_total");
    assert!(misses > 0, "a 1-byte budget faults every segment it scans");
    assert!(c("verdict_partition_fault_ns_total") > 0);
    let t = &session.recent_queries(1)[0];
    assert_eq!(t.partition_cache_misses, misses);
    assert_eq!(t.partition_fault_ns, c("verdict_partition_fault_ns_total"));
    assert!(t.partition_fault_ns <= t.elapsed_ns);
    assert_eq!(
        session.partition_cache().unwrap().fault_ns,
        t.partition_fault_ns
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
