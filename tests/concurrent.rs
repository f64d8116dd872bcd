//! Concurrency invariants of the snapshot-isolated engine: writers and
//! readers hammer one promoted single-table [`Database`] from many threads, and
//! afterwards (a) every snippet any writer produced is in the synopsis —
//! nothing lost to a race, (b) the epochs readers observed only ever
//! moved forward, and (c) a checkpoint + reopen recovers a learned state
//! bit-identical to the in-memory one (the WAL the serialized writer
//! produced is a valid serial history).

use std::sync::atomic::{AtomicU64, Ordering};

use verdict::core::{AggKey, EngineStats};
use verdict::{Database, Mode, QueryOptions, SampleRotation, SessionBuilder, StopPolicy};
use verdict_storage::{ColumnDef, Schema, Table};

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

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("verdict-concurrent-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One writer's workload: `count` AVG queries over distinct week bands,
/// each of which records exactly one snippet (the AVG primitive) because
/// every band matches plenty of sample rows (finite error) and forms a
/// valid region.
fn writer_workload(session: &Database, writer: usize, count: usize) {
    for k in 0..count {
        let lo = (writer * count + k) % 90;
        let sql = format!(
            "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
            lo + 10
        );
        let r = session
            .query(&sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
            .unwrap()
            .unwrap_answered();
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows[0].values[0].raw_error.is_finite());
    }
}

#[test]
fn stress_writers_and_readers_lose_nothing() {
    const WRITERS: usize = 3;
    const QUERIES_PER_WRITER: usize = 8;
    const READERS: usize = 2;
    const READS_PER_READER: usize = 30;

    let dir = temp_store("stress");
    let session = SessionBuilder::new(base_table(20_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .num_samples(2)
        .sample_rotation(SampleRotation::RoundRobin)
        .persist_to(&dir)
        .build()
        .unwrap()
        .into_database("t")
        .unwrap();
    assert!(session.is_persistent());

    let max_epoch_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let session = &session;
            scope.spawn(move || writer_workload(session, w, QUERIES_PER_WRITER));
        }
        for _ in 0..READERS {
            let session = &session;
            let max_epoch_seen = &max_epoch_seen;
            scope.spawn(move || {
                let mut last = 0u64;
                for _ in 0..READS_PER_READER {
                    // Epochs move forward only, whether observed via the
                    // cell directly or stamped into a query result.
                    let epoch = session.epoch("t").unwrap();
                    assert!(epoch >= last, "epoch went backwards: {epoch} < {last}");
                    last = epoch;
                    let r = session
                        .query(
                            "SELECT AVG(rev) FROM t WHERE week <= 50",
                            &opts(Mode::NoLearn, StopPolicy::TupleBudget(400)),
                        )
                        .unwrap()
                        .unwrap_answered();
                    assert!(r.epoch >= last, "result epoch predates loaded epoch");
                    last = r.epoch;
                }
                max_epoch_seen.fetch_max(last, Ordering::Relaxed);
            });
        }
    });

    // No lost snippets: every writer query recorded exactly one AVG
    // observation through the serialized learn path.
    let expected = (WRITERS * QUERIES_PER_WRITER) as u64;
    let snap = session.snapshot("t").unwrap();
    assert_eq!(snap.stats().observed, expected, "lost snippets");
    assert_eq!(
        snap.synopsis_len(&AggKey::avg("rev")),
        expected as usize,
        "synopsis disagrees with the observation count"
    );
    // The final published epoch is at least what any reader saw.
    assert!(session.epoch("t").unwrap() >= max_epoch_seen.load(Ordering::Relaxed));

    // Train (publishes models + checkpoints), then prove the durable
    // state is bit-identical to the in-memory one across a reopen.
    session.train("t").unwrap();
    session.checkpoint().unwrap();
    let expected_bytes = session.snapshot("t").unwrap().state_bytes();
    drop(session); // releases the store's writer lock
    let reopened = SessionBuilder::open(&dir).unwrap().build().unwrap();
    assert_eq!(
        reopened.snapshot().state_bytes(),
        expected_bytes,
        "recovered state diverged from the in-memory state"
    );
    assert!(reopened.snapshot().has_model(&AggKey::avg("rev")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers, readers, **and an ingester** hammer one persistent session:
/// (a) no snippet is lost, (b) every ingested batch lands exactly once —
/// final table rows and data epoch account for all of them, (c) epochs
/// and data epochs only move forward for every reader, and (d) a
/// train + checkpoint + reopen recovers the evolved table *and* the
/// learned state bit-identically.
#[test]
fn stress_writers_readers_and_ingester() {
    const WRITERS: usize = 2;
    const QUERIES_PER_WRITER: usize = 6;
    const READERS: usize = 2;
    const READS_PER_READER: usize = 25;
    const INGESTS: usize = 5;
    const ROWS_PER_INGEST: usize = 40;
    const BASE_ROWS: usize = 20_000;

    let dir = temp_store("ingest-stress");
    let session = SessionBuilder::new(base_table(BASE_ROWS))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .persist_to(&dir)
        .build()
        .unwrap()
        .into_database("t")
        .unwrap();

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let session = &session;
            scope.spawn(move || writer_workload(session, w, QUERIES_PER_WRITER));
        }
        {
            let session = &session;
            scope.spawn(move || {
                for k in 0..INGESTS {
                    let rows: Vec<Vec<verdict_storage::Value>> = (0..ROWS_PER_INGEST)
                        .map(|i| {
                            let week = 1.0 + ((k * ROWS_PER_INGEST + i) % 100) as f64;
                            let region = ["us", "eu", "jp"][i % 3];
                            let rev = 110.0 + k as f64; // drifting upward
                            vec![week.into(), region.into(), rev.into()]
                        })
                        .collect();
                    let report = session.ingest("t", &rows).unwrap();
                    assert_eq!(report.appended_rows, ROWS_PER_INGEST);
                }
            });
        }
        for _ in 0..READERS {
            let session = &session;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_data = 0u64;
                for _ in 0..READS_PER_READER {
                    let snap = session.snapshot("t").unwrap();
                    assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                    assert!(snap.data_epoch() >= last_data, "data epoch went backwards");
                    last_epoch = snap.epoch();
                    last_data = snap.data_epoch();
                    let r = session
                        .query(
                            "SELECT AVG(rev) FROM t WHERE week <= 50",
                            &opts(Mode::NoLearn, StopPolicy::TupleBudget(400)),
                        )
                        .unwrap()
                        .unwrap_answered();
                    assert!(r.rows[0].values[0].raw_error.is_finite());
                }
            });
        }
    });

    // Every batch landed exactly once; every snippet survived.
    assert_eq!(session.data_epoch("t").unwrap(), INGESTS as u64);
    assert_eq!(
        session.table("t").unwrap().num_rows(),
        BASE_ROWS + INGESTS * ROWS_PER_INGEST
    );
    assert_eq!(
        session.snapshot("t").unwrap().stats().observed,
        (WRITERS * QUERIES_PER_WRITER) as u64,
        "lost snippets"
    );

    // Durability: the evolved table and learned state reopen
    // bit-identically (train folds the WAL, including ingest records,
    // into a fresh snapshot + table generation).
    session.train("t").unwrap();
    let expected_bytes = session.snapshot("t").unwrap().state_bytes();
    let expected_rows = session.table("t").unwrap().num_rows();
    drop(session);
    let reopened = SessionBuilder::open(&dir).unwrap().build().unwrap();
    assert_eq!(reopened.table().num_rows(), expected_rows);
    assert_eq!(reopened.snapshot().data_epoch(), INGESTS as u64);
    assert_eq!(
        reopened.snapshot().state_bytes(),
        expected_bytes,
        "recovered state diverged from the in-memory state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Mode::NoLearn` queries are pure reads: no counter moves, no epoch
/// moves, no snippet recorded — the writer mutex is never taken.
#[test]
fn nolearn_queries_do_not_touch_the_learn_path() {
    let session = SessionBuilder::new(base_table(5_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .build()
        .unwrap()
        .into_database("t")
        .unwrap();
    let before = session.snapshot("t").unwrap();
    for _ in 0..5 {
        session
            .query(
                "SELECT AVG(rev), COUNT(*) FROM t WHERE week <= 40",
                &opts(Mode::NoLearn, StopPolicy::ScanAll),
            )
            .unwrap()
            .unwrap_answered();
    }
    let after = session.snapshot("t").unwrap();
    assert_eq!(after.epoch(), before.epoch());
    assert_eq!(after.stats(), EngineStats::default());
}

/// Promotion preserves the serial session's active sample, and pinned
/// reads are a pure function of the snapshot: they always scan the fixed
/// sample, even on a round-robin session whose rotation counter is being
/// advanced by interleaved live queries.
#[test]
fn promotion_keeps_active_sample_and_pinned_reads_ignore_rotation() {
    let sql = "SELECT AVG(rev) FROM t WHERE week <= 50";
    let policy = StopPolicy::TupleBudget(400);

    // Serial session scanning sample 2 of 3 — the answer must not shift
    // across into_database().
    let mut serial = SessionBuilder::new(base_table(10_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(9)
        .num_samples(3)
        .build()
        .unwrap();
    serial.set_active_sample(2).unwrap();
    let want = serial
        .execute(sql, Mode::NoLearn, policy)
        .unwrap()
        .unwrap_answered();
    let promoted = serial.into_database("t").unwrap();
    let got = promoted
        .query(sql, &opts(Mode::NoLearn, policy))
        .unwrap()
        .unwrap_answered();
    assert_eq!(
        got.rows[0].values[0].raw_answer.to_bits(),
        want.rows[0].values[0].raw_answer.to_bits(),
        "promotion changed which sample Fixed rotation scans"
    );

    // Round-robin table: live queries rotate, pinned reads must not —
    // same pinned answer before and after the rotation counter moves.
    let rotating = SessionBuilder::new(base_table(10_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(9)
        .num_samples(3)
        .sample_rotation(SampleRotation::RoundRobin)
        .build()
        .unwrap()
        .into_database("t")
        .unwrap();
    let snap = rotating.snapshot("t").unwrap();
    let a = rotating
        .query(sql, &opts(Mode::NoLearn, policy).pinned(snap.clone()))
        .unwrap()
        .unwrap_answered();
    for _ in 0..2 {
        rotating.query(sql, &opts(Mode::NoLearn, policy)).unwrap();
    }
    let b = rotating
        .query(sql, &opts(Mode::NoLearn, policy).pinned(snap.clone()))
        .unwrap()
        .unwrap_answered();
    assert_eq!(
        a.rows[0].values[0].raw_answer.to_bits(),
        b.rows[0].values[0].raw_answer.to_bits(),
        "pinned reads must not depend on the shared rotation counter"
    );
}

/// A pinned snapshot keeps answering from its epoch even while writers
/// publish newer state: the isolation half of "snapshot isolation".
#[test]
fn pinned_snapshot_is_isolated_from_writers() {
    let session = SessionBuilder::new(base_table(10_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(5)
        .build()
        .unwrap()
        .into_database("t")
        .unwrap();
    let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 20 AND 60";
    let pinned = session.snapshot("t").unwrap();
    let before = session
        .query(
            sql,
            &opts(Mode::Verdict, StopPolicy::ScanAll).pinned(pinned.clone()),
        )
        .unwrap()
        .unwrap_answered();

    // Writers move the engine: observations + training publish new epochs.
    writer_workload(&session, 0, 12);
    session.train("t").unwrap();
    assert!(session.epoch("t").unwrap() > pinned.epoch());
    let live = session
        .query(sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
        .unwrap()
        .unwrap_answered();
    assert!(
        live.rows[0].values[0].improved.used_model,
        "post-training reads must see the model"
    );

    // The pinned snapshot still answers from its own (model-free) epoch.
    let after = session
        .query(
            sql,
            &opts(Mode::Verdict, StopPolicy::ScanAll).pinned(pinned.clone()),
        )
        .unwrap()
        .unwrap_answered();
    assert_eq!(after.epoch, pinned.epoch());
    assert!(!after.rows[0].values[0].improved.used_model);
    assert_eq!(
        after.rows[0].values[0].improved.answer.to_bits(),
        before.rows[0].values[0].improved.answer.to_bits()
    );
    assert_eq!(
        after.rows[0].values[0].improved.error.to_bits(),
        before.rows[0].values[0].improved.error.to_bits()
    );
}
