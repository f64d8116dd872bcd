//! Persistence: the database stays smarter across restarts.
//!
//! The paper's thesis is that a database *becomes smarter every time* as
//! past answers accumulate. Without durability, that intelligence dies
//! with the process. This example runs the full lifecycle:
//!
//! 1. a fresh session, persisted to disk, warms up on range queries and
//!    trains its model — every observed snippet goes to the write-ahead
//!    snippet log, and training checkpoints a snapshot;
//! 2. the process "restarts" (the session is dropped);
//! 3. a new session opens the store and answers its *first* query with
//!    the same tightened error bound the old session had earned — no
//!    warm-up, no retraining, no extra scans;
//! 4. for contrast, a cold session (no store) answers the same query with
//!    only the raw AQP bound;
//! 5. a torn log tail (simulated crash mid-append) is truncated away on
//!    the next open, and the valid prefix still warm-starts.
//!
//! Run with: `cargo run --release --example persistence`

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::store::catalog::table_dir;
use verdict::workload::synthetic::{generate_table, SyntheticSpec};
use verdict::{Database, Mode, OpenOptions, QueryOptions, StopPolicy, TableOptions};

const SQL: &str = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 2.5 AND 5.5";

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("verdict-persistence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut rng = StdRng::seed_from_u64(7);
    let spec = SyntheticSpec {
        rows: 40_000,
        ..Default::default()
    };
    let table = generate_table(&spec, &mut rng);

    // ---- Session 1: learn, persist, train. -------------------------------
    println!("session 1: fresh store at {}", dir.display());
    let first = Database::builder()
        .register_table_with(
            "t",
            table.clone(),
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 7,
                ..TableOptions::default()
            },
        )
        .persist_to(&dir)
        .build()
        .expect("create persistent session");
    for i in 0..16 {
        let lo = i as f64 * 0.625;
        first
            .query(
                &format!(
                    "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
                    lo + 0.625
                ),
                &opts(Mode::Verdict, StopPolicy::ScanAll),
            )
            .expect("warm-up query");
    }
    first.train("t").expect("train + checkpoint");
    let r = first
        .query(SQL, &opts(Mode::Verdict, StopPolicy::ScanAll))
        .expect("query")
        .unwrap_answered();
    let before = r.rows[0].values[0];
    println!(
        "  improved ±{:.6} vs raw ±{:.6} (model used: {})",
        before.improved.error, before.raw_error, before.improved.used_model
    );
    drop(first); // ---- the process "restarts" ----------------------------

    // ---- Session 2: warm start from disk. --------------------------------
    let second = Database::open_with(&dir, OpenOptions::new()).expect("open store");
    let report = second
        .recovery_report("t")
        .unwrap()
        .expect("recovered")
        .clone();
    println!(
        "session 2: warm start from snapshot gen {} (+{} log records replayed)",
        report.snapshot_gen, report.records_replayed
    );
    let r = second
        .query(SQL, &opts(Mode::Verdict, StopPolicy::ScanAll))
        .expect("first query after reopen")
        .unwrap_answered();
    let after = r.rows[0].values[0];
    println!(
        "  first query: improved ±{:.6} vs raw ±{:.6} (model used: {})",
        after.improved.error, after.raw_error, after.improved.used_model
    );

    // ---- Cold session for contrast. --------------------------------------
    let cold = Database::builder()
        .register_table_with(
            "t",
            table,
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 7,
                ..TableOptions::default()
            },
        )
        .build()
        .expect("cold session");
    let r = cold
        .query(SQL, &opts(Mode::Verdict, StopPolicy::ScanAll))
        .expect("cold query")
        .unwrap_answered();
    let coldcell = r.rows[0].values[0];
    println!(
        "cold session (no store): improved ±{:.6} (model used: {})",
        coldcell.improved.error, coldcell.improved.used_model
    );

    // The acceptance criteria, asserted.
    assert!(
        after.improved.error <= after.raw_error,
        "improved bound must never exceed the raw AQP bound (Theorem 1)"
    );
    assert_eq!(
        after.improved.error.to_bits(),
        before.improved.error.to_bits(),
        "warm-started bound must match the pre-restart bound bit-exactly"
    );
    assert!(
        after.improved.used_model,
        "the trained model survived the restart"
    );
    assert!(
        !coldcell.improved.used_model,
        "the cold session has no model"
    );

    // ---- Crash simulation: torn tail on the snippet log. -----------------
    second
        .query(
            "SELECT AVG(m) FROM t WHERE d0 BETWEEN 7 AND 9",
            &opts(Mode::Verdict, StopPolicy::ScanAll),
        )
        .expect("post-restart query (logged, not yet snapshotted)");
    drop(second);
    let wal = table_dir(&dir, "t").join("wal.vlog");
    let bytes = std::fs::read(&wal).expect("read log");
    let torn = bytes.len() - 5; // chop mid-record
    std::fs::write(&wal, &bytes[..torn]).expect("tear log tail");
    println!(
        "simulated crash: log torn at byte {torn} of {}",
        bytes.len()
    );

    let third = Database::open_with(&dir, OpenOptions::new()).expect("open survives the torn tail");
    let report = third
        .recovery_report("t")
        .unwrap()
        .expect("recovered")
        .clone();
    println!(
        "session 3: recovered (gen {}, {} records replayed, {} torn bytes truncated)",
        report.snapshot_gen, report.records_replayed, report.torn_bytes
    );
    assert!(report.torn_bytes > 0, "the torn tail was detected");

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nthe model the first session learned kept working after two restarts —");
    println!("the database got smarter, and stayed smarter.");
}
