//! End-to-end invariants of the ingest pipeline stage (Appendix D).
//!
//! - Lemma 3 bit-for-bit: after ingesting a shifted batch, every
//!   pre-existing snippet's stored answer equals the hand-computed
//!   `θ' = θ + µ·|r_a|/(|r|+|r_a|)` and its error is never smaller than
//!   before.
//! - Crash mid-ingest: a session killed with a torn ingest frame reopens
//!   to byte-identical state as of the last complete batch, through both
//!   front doors (session facade and `Database::open`), with the
//!   maintained sample rebuilt exactly.
//! - Pinned parity: a read pinned to a snapshot stays bit-identical
//!   across a concurrent ingest.

use proptest::prelude::*;

use verdict::core::append::AppendAdjustment;
use verdict::core::persist::{Encoder, EngineState, Persist};
use verdict::core::AggKey;
use verdict::store::tablecodec::encode_table;
use verdict::{
    Database, Mode, OpenOptions, QueryOptions, QueryResult, SessionBuilder, StopPolicy,
    TableOptions, VerdictSession,
};
use verdict_storage::{ColumnDef, PartitionSpec, Schema, Table, Value};

/// Deterministic base table: numeric `week` (1..=20), categorical
/// `region`, measure `rev`.
fn base_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::categorical_dimension("region"),
        ColumnDef::measure("rev"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 0x2545F4914F6CDD1Du64;
    for i in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let week = 1.0 + (i % 20) as f64;
        let region = ["us", "eu", "jp"][i % 3];
        let rev = 80.0 + 12.0 * (week / 5.0).sin() + 6.0 * (u - 0.5);
        t.push_row(vec![week.into(), region.into(), rev.into()])
            .unwrap();
    }
    t
}

/// A batch of `rows` new rows whose `rev` sits `shift` above the base
/// distribution (and introduces a new region label).
fn shifted_batch(rows: usize, shift: f64) -> Vec<Vec<Value>> {
    let mut state = 0xA076_1D64_78BD_642Fu64;
    (0..rows)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let week = 1.0 + (i % 20) as f64;
            let region = ["us", "eu", "jp", "apac"][i % 4];
            let rev = 80.0 + shift + 12.0 * (week / 5.0).sin() + 6.0 * (u - 0.5);
            vec![week.into(), region.into(), rev.into()]
        })
        .collect()
}

fn warmed_session(rows: usize, seed: u64) -> VerdictSession {
    let mut s = SessionBuilder::new(base_table(rows))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(seed)
        .build()
        .unwrap();
    for lo in (1..20).step_by(3) {
        s.execute(
            &format!(
                "SELECT AVG(rev), COUNT(*) FROM t WHERE week BETWEEN {lo} AND {}",
                lo + 3
            ),
            Mode::Verdict,
            StopPolicy::ScanAll,
        )
        .unwrap();
    }
    s
}

fn first_cell(r: &QueryResult) -> (u64, u64) {
    let c = &r.rows[0].values[0];
    (c.improved.answer.to_bits(), c.improved.error.to_bits())
}

/// The session's per-key synopses, decoded from its published state.
fn synopses(s: &VerdictSession) -> Vec<(AggKey, verdict::core::QuerySynopsis)> {
    EngineState::from_bytes(&s.snapshot().state_bytes())
        .unwrap()
        .synopses
}

fn opts(mode: Mode) -> QueryOptions {
    QueryOptions::new().with_mode(mode)
}

fn table_bytes(t: &Table) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_table(t, &mut enc);
    enc.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance invariant: after `ingest` of a shifted batch, every
    /// pre-existing snippet's stored error is ≥ its old error and its
    /// adjusted answer matches Lemma 3 bit for bit against the
    /// hand-computed formula (shift estimated from the pre-ingest sample
    /// vs the batch — independently recomputed here).
    #[test]
    fn ingest_adjusts_every_snippet_per_lemma3(
        shift in 1.0..10.0f64,
        batch_rows in 50usize..400,
        seed in 0u64..4,
    ) {
        let mut session = warmed_session(6_000, seed);
        let old_rows = session.table().num_rows();

        // Hand-compute the expected adjustments from the *current*
        // sample and the batch, before ingest mutates either.
        let batch = shifted_batch(batch_rows, shift);
        let old_values: Vec<f64> = session.snapshot().samples()[0]
            .table()
            .column("rev")
            .unwrap()
            .numeric()
            .unwrap()
            .to_vec();
        let new_values: Vec<f64> = batch.iter().map(|r| r[2].as_num().unwrap()).collect();
        let want_avg = AppendAdjustment::estimate(&old_values, &new_values, old_rows, batch_rows);
        let want_freq = AppendAdjustment::freq_worst_case(old_rows, batch_rows);

        let before: Vec<(AggKey, Vec<verdict::core::Observation>)> = synopses(&session)
            .into_iter()
            .map(|(k, synopsis)| {
                let obs = synopsis.entries().iter().map(|e| e.observation).collect();
                (k, obs)
            })
            .collect();
        prop_assert!(!before.is_empty());
        let total_snippets: usize = before.iter().map(|(_, o)| o.len()).sum();

        let report = session.ingest(&batch).unwrap();
        prop_assert_eq!(report.appended_rows, batch_rows);
        prop_assert_eq!(report.adjusted_keys, before.len());
        prop_assert_eq!(report.adjusted_snippets, total_snippets);
        prop_assert!(report.skipped_keys.is_empty());
        prop_assert_eq!(report.data_epoch, 1);
        prop_assert_eq!(session.table().num_rows(), old_rows + batch_rows);
        // One dictionary: the maintained sample encodes categorical
        // labels with the base table's codes, including labels the batch
        // introduced ("apac"), whether or not their rows were admitted.
        let snapshot = session.snapshot();
        prop_assert_eq!(
            snapshot.samples()[0]
                .table()
                .column("region")
                .unwrap()
                .labels()
                .unwrap(),
            snapshot.table().column("region").unwrap().labels().unwrap()
        );

        let after_all = synopses(&session);
        for (key, old_obs) in &before {
            let want = match key {
                AggKey::Freq => &want_freq,
                AggKey::Avg(_) => &want_avg,
            };
            let after = &after_all.iter().find(|(k, _)| k == key).unwrap().1;
            prop_assert_eq!(after.len(), old_obs.len());
            for (entry, old) in after.entries().iter().zip(old_obs.iter()) {
                let expect = want.adjust(*old);
                prop_assert_eq!(
                    entry.observation.answer.to_bits(),
                    expect.answer.to_bits()
                );
                prop_assert_eq!(entry.observation.error.to_bits(), expect.error.to_bits());
                prop_assert!(
                    entry.observation.error >= old.error,
                    "β' {} < β {}",
                    entry.observation.error,
                    old.error
                );
            }
        }
    }
}

/// The values of `column` over sample `k` of a resident session.
fn sample_values(s: &VerdictSession, k: usize, column: &str) -> Vec<f64> {
    let snapshot = s.snapshot();
    let table = snapshot.samples()[k].table();
    table.column(column).unwrap().numeric().unwrap().to_vec()
}

/// The stored observations of every `AVG` synopsis.
fn avg_observations(s: &VerdictSession) -> Vec<(AggKey, Vec<verdict::core::Observation>)> {
    synopses(s)
        .into_iter()
        .filter(|(key, _)| !key.is_freq())
        .map(|(key, synopsis)| {
            let obs = synopsis.entries().iter().map(|e| e.observation).collect();
            (key, obs)
        })
        .collect()
}

/// The shift of every ingest comes from running moments of the fixed
/// sample, which fold only the rows it admitted since the last ingest;
/// what they give must be, bit for bit, the estimate over the whole
/// sample as it stands — ingest after ingest, for a key first seen
/// between ingests, and after `set_active_sample` switches the sample.
#[test]
fn running_shift_moments_equal_a_fresh_pass_over_the_sample() {
    let mut s = SessionBuilder::new(base_table(6_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .num_samples(2)
        .seed(3)
        .build()
        .unwrap();
    let warm = |s: &mut VerdictSession, agg: &str| {
        for lo in (1..20).step_by(4) {
            let sql = format!("SELECT {agg} FROM t WHERE week BETWEEN {lo} AND {}", lo + 3);
            s.execute(&sql, Mode::Verdict, StopPolicy::ScanAll).unwrap();
        }
    };
    warm(&mut s, "AVG(rev), COUNT(*)");
    s.train().unwrap();
    for k in 0..5usize {
        if k == 2 {
            warm(&mut s, "AVG(week)");
        }
        if k == 3 {
            s.set_active_sample(1).unwrap();
        }
        let rows = 150 + 40 * k;
        let batch = shifted_batch(rows, k as f64);
        let old_rows = s.table().num_rows();
        let before = avg_observations(&s);
        assert_eq!(before.len(), if k < 2 { 1 } else { 2 });
        // The hand-computed estimate: the whole fixed sample vs the batch.
        let want: Vec<AppendAdjustment> = before
            .iter()
            .map(|(key, _)| {
                let AggKey::Avg(column) = key else {
                    unreachable!("AVG keys only")
                };
                let index = if column == "rev" { 2 } else { 0 };
                let new: Vec<f64> = batch.iter().map(|r| r[index].as_num().unwrap()).collect();
                let old = sample_values(&s, s.active_sample(), column);
                AppendAdjustment::estimate(&old, &new, old_rows, rows)
            })
            .collect();
        s.ingest(&batch).unwrap();
        let after = avg_observations(&s);
        for (((key, old), want), (_, after)) in before.iter().zip(&want).zip(&after) {
            for (got, old) in after.iter().zip(old) {
                let expect = want.adjust(*old);
                assert_eq!(
                    (got.answer.to_bits(), got.error.to_bits()),
                    (expect.answer.to_bits(), expect.error.to_bits()),
                    "{key} after ingest {k}"
                );
            }
        }
    }
}

/// A NaN or an infinity in an ingested measure says nothing about the
/// shift. It must not turn `µ`/`η` — and with them every stored snippet
/// of the key, durably — into NaN, neither in the batch that carries it
/// nor in later ingests, once the sample has admitted such rows.
#[test]
fn non_finite_measures_never_poison_the_synopsis() {
    let mut s = warmed_session(6_000, 2);
    s.train().unwrap();
    let mut batch = shifted_batch(300, 5.0);
    for (i, row) in batch.iter_mut().enumerate().filter(|(i, _)| i % 10 == 0) {
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(i / 10) % 3];
        row[2] = Value::Num(odd);
    }
    for batch in [batch, shifted_batch(200, 7.0)] {
        let before = synopses(&s);
        s.ingest(&batch).unwrap();
        for ((key, old), (_, new)) in before.iter().zip(&synopses(&s)) {
            for (old, new) in old.entries().iter().zip(new.entries()) {
                let (old, new) = (old.observation, new.observation);
                assert!(new.answer.is_finite(), "{key}: answer {}", new.answer);
                assert!(
                    new.error >= old.error,
                    "{key}: β' {} < β {}",
                    new.error,
                    old.error
                );
            }
        }
    }
    let snapshot = s.snapshot();
    let revs = snapshot.samples()[0].table().column("rev").unwrap();
    assert!(
        revs.numeric().unwrap().iter().any(|v| !v.is_finite()),
        "the sample admitted non-finite rows, so the second ingest saw them"
    );
}

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict-ingest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent_warmed(dir: &std::path::Path) -> VerdictSession {
    let mut s = SessionBuilder::new(base_table(6_000))
        .sample_fraction(0.2)
        .batch_size(200)
        .seed(7)
        .persist_to(dir)
        .build()
        .unwrap();
    for lo in (1..20).step_by(3) {
        s.execute(
            &format!(
                "SELECT AVG(rev), COUNT(*) FROM t WHERE week BETWEEN {lo} AND {}",
                lo + 3
            ),
            Mode::Verdict,
            StopPolicy::ScanAll,
        )
        .unwrap();
    }
    s.train().unwrap();
    s
}

/// Acceptance: a session killed mid-ingest (torn last ingest frame)
/// reopens to byte-identical state as of the last complete batch — on
/// the serial path and on the concurrent path — including the maintained
/// sample (proven by a bit-identical raw answer).
#[test]
fn mid_ingest_crash_reopens_byte_identical() {
    let dir = temp_store("crash");
    let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 5 AND 15";
    let wal = dir.join("wal.vlog");

    let (want_state, want_rows, want_answer, want_sample_bytes) = {
        let mut s = persistent_warmed(&dir);
        s.ingest(&shifted_batch(300, 4.0)).unwrap();
        // Everything after this point will be torn off.
        let wal_len_after_batch1 = std::fs::metadata(&wal).unwrap().len();
        let state = s.snapshot().state_bytes();
        let rows = s.table().num_rows();
        let answer = first_cell(
            &s.execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
                .unwrap()
                .unwrap_answered(),
        );
        let sample_bytes = table_bytes(s.snapshot().samples()[0].table());
        // NOTE: the NoLearn query above appended nothing to the WAL, so
        // batch 2's ingest record starts exactly at wal_len_after_batch1.
        s.ingest(&shifted_batch(200, 9.0)).unwrap();
        let wal_len_after_batch2 = std::fs::metadata(&wal).unwrap().len();
        drop(s);
        // The crash: tear the second ingest frame in half.
        let cut = (wal_len_after_batch1 + wal_len_after_batch2) / 2;
        assert!(cut > wal_len_after_batch1 && cut < wal_len_after_batch2);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..cut as usize]).unwrap();
        (state, rows, answer, sample_bytes)
    };

    // Serial reopen: byte-identical state, same table, same sample, same
    // raw answer bits.
    {
        let mut s = VerdictSession::open_with(&dir, OpenOptions::new()).unwrap();
        let report = s.recovery_report().unwrap();
        assert_eq!(report.ingests_replayed, 1, "only the complete batch");
        assert!(report.torn_bytes > 0, "the torn frame was truncated");
        assert_eq!(s.snapshot().state_bytes(), want_state);
        assert_eq!(s.table().num_rows(), want_rows);
        assert_eq!(
            table_bytes(s.snapshot().samples()[0].table()),
            want_sample_bytes,
            "maintained sample (rows, codes, AND dictionaries) must \
             rebuild bit-identically"
        );
        let got = first_cell(
            &s.execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
                .unwrap()
                .unwrap_answered(),
        );
        assert_eq!(got, want_answer, "raw answer must survive the crash");
    }

    // Catalog reopen of the same store: identical published state.
    {
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.snapshot("t").unwrap().state_bytes(), want_state);
        assert_eq!(db.table("t").unwrap().num_rows(), want_rows);
        assert_eq!(db.data_epoch("t").unwrap(), 1);
        let got = first_cell(
            &db.query(sql, &opts(Mode::NoLearn))
                .unwrap()
                .unwrap_answered(),
        );
        assert_eq!(got, want_answer);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint after ingest folds the log; the batches are already in
/// the part file, so reopening replays nothing and answers identically.
#[test]
fn checkpoint_after_ingest_replays_nothing() {
    let dir = temp_store("fold");
    let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 5 AND 15";
    let (want_state, want_rows, want_answer) = {
        let mut s = persistent_warmed(&dir);
        s.ingest(&shifted_batch(250, 3.0)).unwrap();
        s.checkpoint().unwrap();
        let answer = first_cell(
            &s.execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
                .unwrap()
                .unwrap_answered(),
        );
        (s.snapshot().state_bytes(), s.table().num_rows(), answer)
    };
    let mut s = VerdictSession::open_with(&dir, OpenOptions::new()).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!(report.records_replayed, 0, "checkpoint folded the log");
    assert_eq!(report.ingests_replayed, 0);
    assert_eq!(s.table().num_rows(), want_rows);
    assert_eq!(s.snapshot().state_bytes(), want_state);
    assert_eq!(s.snapshot().data_epoch(), 1, "data epoch survives the fold");
    let got = first_cell(
        &s.execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered(),
    );
    assert_eq!(got, want_answer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resident checkpoint after an ingest writes the snapshot alone: the
/// batch reached the table's part file at ingest. Two tables that differ
/// only in size (same dictionaries, same batch) write the same bytes,
/// and neither directory holds a table file.
#[test]
fn checkpoint_after_ingest_costs_the_snapshot_not_the_table() {
    let dir = temp_store("ckpt-size");
    let db = Database::builder()
        .register_table("small", base_table(2_000))
        .register_table("large", base_table(20_000))
        .persist_to(&dir)
        .build()
        .unwrap();
    let batch = shifted_batch(100, 2.0);
    let mut written = Vec::new();
    for name in ["small", "large"] {
        db.ingest(name, &batch).unwrap();
        written.push(db.checkpoint_table(name).unwrap().bytes_written);
    }
    assert_eq!(
        written[0], written[1],
        "checkpoint bytes grew with the table"
    );
    for name in ["small", "large"] {
        let tables: Vec<String> = std::fs::read_dir(dir.join("tables").join(name))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("table-"))
            .collect();
        assert!(tables.is_empty(), "{name} holds table files: {tables:?}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A categorical column may hold raw codes no label names
/// (`Value::Cat`). A persisted table of them — resident or paged — takes
/// an ingest, a checkpoint and a second ingest (left in the WAL), then
/// reopens to the live rows, learned state, data epoch and answers.
#[test]
fn unlabeled_codes_survive_checkpoint_and_reopen() {
    let dir = temp_store("raw-codes");
    let raw = |from: usize, n: usize| -> Vec<Vec<Value>> {
        (from..from + n)
            .map(|i| {
                let week = 1.0 + (i % 20) as f64;
                let rev = 80.0 + (i % 13) as f64;
                vec![week.into(), Value::Cat(40 + (i % 7) as u32), rev.into()]
            })
            .collect()
    };
    let mut base = base_table(0);
    base.push_rows(&raw(0, 3_000)).unwrap();
    let options = |partition| TableOptions {
        sample_fraction: 0.2,
        batch_size: 200,
        seed: 3,
        partition,
        ..TableOptions::default()
    };
    let db = Database::builder()
        .register_table_with("res", base.clone(), options(None))
        .register_table_with(
            "paged",
            base,
            options(Some(PartitionSpec::range("week", vec![7.0, 14.0]))),
        )
        .persist_to(&dir)
        .build()
        .unwrap();
    let sqls = |name: &str| {
        [
            format!("SELECT AVG(rev), COUNT(*) FROM {name} WHERE week BETWEEN 3 AND 11"),
            format!("SELECT SUM(rev) FROM {name} GROUP BY region"),
        ]
    };
    let answers = |db: &Database, name: &str| -> Vec<(u64, u64)> {
        sqls(name)
            .iter()
            .flat_map(|sql| {
                let r = db
                    .query(sql, &opts(Mode::NoLearn))
                    .unwrap()
                    .unwrap_answered();
                r.rows
                    .iter()
                    .flat_map(|row| row.values.iter())
                    .map(|c| (c.improved.answer.to_bits(), c.improved.error.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let mut live = Vec::new();
    for name in ["res", "paged"] {
        db.query(&sqls(name)[0], &opts(Mode::Verdict)).unwrap();
        db.ingest(name, &raw(3_000, 150)).unwrap();
        db.checkpoint_table(name).unwrap();
        db.ingest(name, &raw(3_150, 90)).unwrap();
        live.push((
            table_bytes(&db.table(name).unwrap()),
            db.snapshot(name).unwrap().state_bytes(),
            db.data_epoch(name).unwrap(),
            answers(&db, name),
        ));
    }
    drop(db);
    let db = Database::open(&dir).unwrap();
    for (name, (rows, state, epoch, answered)) in ["res", "paged"].into_iter().zip(&live) {
        assert!(
            table_bytes(&db.table(name).unwrap()) == *rows,
            "{name} rows"
        );
        assert!(
            db.snapshot(name).unwrap().state_bytes() == *state,
            "{name} state"
        );
        assert_eq!(db.data_epoch(name).unwrap(), *epoch, "{name} data epoch");
        assert_eq!(answers(&db, name), *answered, "{name} answers");
    }
    let res = db.table("res").unwrap();
    assert_eq!(res.num_rows(), 3_240);
    let region = res.column("region").unwrap();
    assert!(region.labels().unwrap().is_empty());
    assert_eq!(region.get(3_239), Value::Cat(40 + (3_239 % 7) as u32));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: `concurrent_reads_at_fixed_epoch` parity holds *across a
/// concurrent ingest* — a pinned snapshot pair keeps answering
/// bit-identically from its table/sample/model version while newer data
/// epochs are published, from multiple threads at once.
#[test]
fn pinned_snapshot_parity_across_concurrent_ingest() {
    let mut serial = warmed_session(6_000, 7);
    serial.train().unwrap();
    let concurrent = warmed_session(6_000, 7);
    let concurrent = {
        let mut c = concurrent;
        c.train().unwrap();
        c.into_database("t").unwrap()
    };

    let sqls: Vec<String> = (0..4)
        .map(|i| {
            format!(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN {} AND {}",
                2 + i,
                9 + 2 * i
            )
        })
        .collect();
    let pinned = concurrent.snapshot("t").unwrap();
    let pinned_data_epoch = pinned.data_epoch();

    // Reference: the identically-built serial session (bit-parity of the
    // concurrent read path against serial is the established invariant;
    // here we extend it across ingest).
    let want: Vec<(u64, u64)> = sqls
        .iter()
        .map(|sql| {
            first_cell(
                &serial
                    .execute(sql, Mode::Verdict, StopPolicy::ScanAll)
                    .unwrap()
                    .unwrap_answered(),
            )
        })
        .collect();

    // Ingest a strongly shifted batch through the shared handle.
    let report = concurrent.ingest("t", &shifted_batch(500, 15.0)).unwrap();
    assert_eq!(report.data_epoch, pinned_data_epoch + 1);
    assert!(report.adjusted_keys >= 1);
    assert_eq!(concurrent.data_epoch("t").unwrap(), pinned_data_epoch + 1);

    // Pinned reads from many threads: still bit-identical to the serial
    // pre-ingest reference.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let concurrent = &concurrent;
            let pinned = &pinned;
            let sqls = &sqls;
            let want = &want;
            scope.spawn(move || {
                for (sql, want) in sqls.iter().zip(want.iter()) {
                    let got = first_cell(
                        &concurrent
                            .query(sql, &opts(Mode::Verdict).pinned(pinned.clone()))
                            .unwrap()
                            .unwrap_answered(),
                    );
                    assert_eq!(&got, want, "pinned read drifted after ingest: {sql}");
                }
            });
        }
    });

    // And the *current* snapshot really did move: the same query now
    // reports a wider (or equal) model error — Lemma 3 lowered
    // confidence in the old answers.
    let now = concurrent
        .query(&sqls[0], &opts(Mode::Verdict))
        .unwrap()
        .unwrap_answered();
    let pinned_again = concurrent
        .query(&sqls[0], &opts(Mode::Verdict).pinned(pinned))
        .unwrap()
        .unwrap_answered();
    assert!(
        now.rows[0].values[0].improved.error >= pinned_again.rows[0].values[0].improved.error,
        "ingest must not tighten stale bounds: {} < {}",
        now.rows[0].values[0].improved.error,
        pinned_again.rows[0].values[0].improved.error
    );
}

/// Warm-started sessions keep ingesting: the rebuilt sample admits new
/// batches exactly as a never-restarted session would, and the shift
/// moments a reopened session rebuilds from its sample are the ones the
/// never-restarted session kept running (bit-identical state and answers
/// after the same two post-restart ingests).
#[test]
fn warm_start_then_ingest_matches_unrestarted_session() {
    let dir = temp_store("warmingest");
    let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 3 AND 12";
    // Reference session: never restarted.
    let mut reference = warmed_session(6_000, 7);
    reference.train().unwrap();
    reference.ingest(&shifted_batch(300, 4.0)).unwrap();
    reference.ingest(&shifted_batch(150, 6.0)).unwrap();
    reference.ingest(&shifted_batch(120, 8.0)).unwrap();
    // Capture the state *before* the probe query (a `Mode::Verdict`
    // execute observes snippets, mutating the state being compared).
    let want_state = reference.snapshot().state_bytes();
    let want = first_cell(
        &reference
            .execute(sql, Mode::Verdict, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered(),
    );

    // Same history, but with a restart between the two ingests.
    {
        let mut s = SessionBuilder::new(base_table(6_000))
            .sample_fraction(0.2)
            .batch_size(200)
            .seed(7)
            .persist_to(&dir)
            .build()
            .unwrap();
        for lo in (1..20).step_by(3) {
            s.execute(
                &format!(
                    "SELECT AVG(rev), COUNT(*) FROM t WHERE week BETWEEN {lo} AND {}",
                    lo + 3
                ),
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
        }
        s.train().unwrap();
        s.ingest(&shifted_batch(300, 4.0)).unwrap();
    }
    let mut s = VerdictSession::open_with(&dir, OpenOptions::new()).unwrap();
    s.ingest(&shifted_batch(150, 6.0)).unwrap();
    s.ingest(&shifted_batch(120, 8.0)).unwrap();
    assert_eq!(
        s.snapshot().state_bytes(),
        want_state,
        "state after restart+ingest must match the unrestarted session"
    );
    let got = first_cell(
        &s.execute(sql, Mode::Verdict, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered(),
    );
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}
