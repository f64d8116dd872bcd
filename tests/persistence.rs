//! End-to-end persistence guarantees through the public database API:
//! reopened databases answer identically, and crash-truncated stores
//! recover to a valid prefix of the learned state.

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::store::catalog::table_dir;
use verdict::workload::synthetic::{generate_table, SyntheticSpec};
use verdict::{Database, Mode, OpenOptions, QueryOptions, StopPolicy, TableOptions};
use verdict_storage::Table;

fn test_table(rows: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(41);
    let spec = SyntheticSpec {
        rows,
        ..Default::default()
    };
    generate_table(&spec, &mut rng)
}

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn warm_up(session: &Database) {
    for i in 0..14 {
        let lo = i as f64 * 0.7;
        session
            .query(
                &format!(
                    "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
                    lo + 0.7
                ),
                &opts(Mode::Verdict, StopPolicy::ScanAll),
            )
            .expect("warm-up query");
    }
}

const TEST_QUERIES: &[&str] = &[
    "SELECT AVG(m) FROM t WHERE d0 BETWEEN 1 AND 3",
    "SELECT AVG(m) FROM t WHERE d0 BETWEEN 4.2 AND 6.9",
    "SELECT SUM(m) FROM t WHERE d0 <= 5",
    "SELECT COUNT(*) FROM t WHERE d0 BETWEEN 2 AND 8",
];

/// A reopened session returns bit-identical improved answers and error
/// bounds to the session that wrote the store.
#[test]
fn reopened_session_answers_identically() {
    let dir = temp_store("identical");
    let mut answers = Vec::new();
    {
        let s = Database::builder()
            .register_table_with(
                "t",
                test_table(30_000),
                TableOptions {
                    sample_fraction: 0.1,
                    batch_size: 400,
                    seed: 3,
                    ..TableOptions::default()
                },
            )
            .persist_to(&dir)
            .build()
            .expect("persistent session");
        warm_up(&s);
        s.train("t").expect("train");
        for sql in TEST_QUERIES {
            let r = s
                .query(sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
                .expect("query")
                .unwrap_answered();
            let cell = r.rows[0].values[0];
            answers.push((cell.improved.answer, cell.improved.error, cell.raw_error));
        }
    }
    let s = Database::open_with(&dir, OpenOptions::new()).expect("open");
    for (sql, (answer, error, raw_error)) in TEST_QUERIES.iter().zip(&answers) {
        let r = s
            .query(sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
            .expect("query after reopen")
            .unwrap_answered();
        let cell = r.rows[0].values[0];
        assert_eq!(
            cell.improved.answer.to_bits(),
            answer.to_bits(),
            "answer drifted for {sql}"
        );
        assert_eq!(
            cell.improved.error.to_bits(),
            error.to_bits(),
            "bound drifted for {sql}"
        );
        assert_eq!(cell.raw_error.to_bits(), raw_error.to_bits());
        assert!(cell.improved.error <= cell.raw_error + 1e-12, "Theorem 1");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The warm-started session's first-query bound beats a cold session's,
/// and equals the raw bound at worst (the acceptance criterion).
#[test]
fn warm_start_beats_cold_start() {
    let dir = temp_store("beats-cold");
    let sql = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 3 AND 6";
    {
        let s = Database::builder()
            .register_table_with(
                "t",
                test_table(30_000),
                TableOptions {
                    sample_fraction: 0.1,
                    batch_size: 400,
                    seed: 3,
                    ..TableOptions::default()
                },
            )
            .persist_to(&dir)
            .build()
            .expect("persistent session");
        warm_up(&s);
        s.train("t").expect("train");
    }
    let warm = Database::open_with(&dir, OpenOptions::new()).expect("open");
    let warm_cell = warm
        .query(sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
        .expect("warm query")
        .unwrap_answered()
        .rows[0]
        .values[0];
    let cold = Database::builder()
        .register_table_with(
            "t",
            test_table(30_000),
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 400,
                seed: 3,
                ..TableOptions::default()
            },
        )
        .build()
        .expect("cold");
    let cold_cell = cold
        .query(sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
        .expect("cold query")
        .unwrap_answered()
        .rows[0]
        .values[0];
    assert!(warm_cell.improved.used_model, "warm session has the model");
    assert!(!cold_cell.improved.used_model, "cold session does not");
    assert!(
        warm_cell.improved.error < cold_cell.improved.error,
        "warm bound {} must beat cold bound {}",
        warm_cell.improved.error,
        cold_cell.improved.error
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-log crash safety end to end: whatever byte the "crash" cut the
/// log at, the store opens, the state is a valid prefix, and queries run.
#[test]
fn crash_truncation_always_recovers() {
    let dir = temp_store("crash");
    {
        let s = Database::builder()
            .register_table_with(
                "t",
                test_table(10_000),
                TableOptions {
                    sample_fraction: 0.1,
                    batch_size: 400,
                    seed: 3,
                    ..TableOptions::default()
                },
            )
            .persist_to(&dir)
            .build()
            .expect("persistent session");
        // Queries observed but never checkpointed: they live only in the
        // log.
        for i in 0..6 {
            let lo = i as f64 * 1.4;
            s.query(
                &format!(
                    "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
                    lo + 1.4
                ),
                &opts(Mode::Verdict, StopPolicy::ScanAll),
            )
            .expect("logged query");
        }
    }
    let wal = table_dir(&dir, "t").join("wal.vlog");
    let full = std::fs::read(&wal).expect("log bytes");
    let mut prev_replayed = 0u64;
    // Sweep truncation points across the whole file, including inside the
    // header and mid-record.
    for cut in (0..full.len()).step_by(11).chain([full.len() - 1]) {
        std::fs::write(&wal, &full[..cut]).expect("truncate");
        let s = Database::open_with(&dir, OpenOptions::new()).expect("open after crash");
        let report = s.recovery_report("t").unwrap().expect("report").clone();
        // The recovery is a valid prefix of what was logged: never more
        // records than were written, never fewer than a shorter cut
        // recovered, and the in-memory state mirrors the replay exactly.
        assert!(
            report.records_replayed <= 6,
            "phantom records at cut {cut}: {}",
            report.records_replayed
        );
        assert!(
            report.records_replayed >= prev_replayed,
            "cut {cut} recovered {} records, shorter cut recovered {prev_replayed}",
            report.records_replayed
        );
        prev_replayed = report.records_replayed;
        assert_eq!(
            s.snapshot("t").unwrap().stats().observed,
            report.records_replayed,
            "recovered state diverges from the replay count at cut {cut}"
        );
        // The recovered session still answers queries.
        let r = s
            .query(
                "SELECT AVG(m) FROM t WHERE d0 BETWEEN 1 AND 2",
                &opts(Mode::Verdict, StopPolicy::TupleBudget(400)),
            )
            .expect("query on recovered session");
        assert!(r.is_answered());
    }
    // The untruncated log recovers everything.
    std::fs::write(&wal, &full).expect("restore");
    let s = Database::open_with(&dir, OpenOptions::new()).expect("open intact");
    assert_eq!(
        s.recovery_report("t")
            .unwrap()
            .expect("report")
            .records_replayed,
        6
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction under sustained load: the log is periodically folded into
/// snapshots, old generations are pruned, and nothing is lost.
#[test]
fn sustained_load_compacts_without_losing_state() {
    let dir = temp_store("compact");
    use verdict::store::StorePolicy;
    let policy = StorePolicy {
        compact_after_records: 8,
        ..Default::default()
    };
    let total_queries = 30usize;
    {
        let s = Database::builder()
            .register_table_with(
                "t",
                test_table(10_000),
                TableOptions {
                    sample_fraction: 0.1,
                    batch_size: 400,
                    seed: 3,
                    ..TableOptions::default()
                },
            )
            .persist_to(&dir)
            .store_policy(policy)
            .build()
            .expect("persistent session");
        for i in 0..total_queries {
            let lo = (i % 12) as f64 * 0.8;
            s.query(
                &format!(
                    "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
                    lo + 0.8
                ),
                &opts(Mode::Verdict, StopPolicy::TupleBudget(500)),
            )
            .expect("query");
        }
        let observed_live = s.snapshot("t").unwrap().stats().observed;
        drop(s);
        let s = Database::open_with(&dir, OpenOptions::new()).expect("open");
        assert_eq!(
            s.snapshot("t").unwrap().stats().observed,
            observed_live,
            "compaction must not lose or duplicate observations"
        );
        let report = s.recovery_report("t").unwrap().unwrap();
        assert!(
            report.snapshot_gen >= 2,
            "sustained load produced snapshots (gen {})",
            report.snapshot_gen
        );
    }
    // Old generations pruned: at most keep_generations snapshot files.
    let snaps = std::fs::read_dir(table_dir(&dir, "t"))
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".vsnap")
        })
        .count();
    assert!(snaps <= 2, "generations pruned (found {snaps})");
    let _ = std::fs::remove_dir_all(&dir);
}
