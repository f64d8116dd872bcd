//! The `Database` catalog front-end: multi-table registration, per-table
//! independent learning, one-directory persistence with bit-identical
//! warm starts, typed name-resolution errors, and the prepared-statement
//! serving path's bit-parity with ad-hoc execution.

use verdict::sql::SqlError;
use verdict::storage::Value;
use verdict::workload::multi::{orders_events, TwoTableSpec};
use verdict::{
    CatalogError, Database, Error, QueryOptions, SessionBuilder, StopPolicy, TableOptions,
};

fn spec() -> TwoTableSpec {
    TwoTableSpec {
        orders_rows: 20_000,
        events_rows: 15_000,
        seed: 7,
    }
}

fn build_db() -> Database {
    let (orders, events) = orders_events(&spec());
    Database::builder()
        .register_table_with(
            "orders",
            orders,
            TableOptions {
                sample_fraction: 0.2,
                batch_size: 250,
                seed: 5,
                ..Default::default()
            },
        )
        .register_table_with(
            "events",
            events,
            TableOptions {
                sample_fraction: 0.15,
                batch_size: 200,
                seed: 11,
                ..Default::default()
            },
        )
        .build()
        .unwrap()
}

fn warm_orders(db: &Database) {
    let opts = QueryOptions::new();
    for lo in (0..90).step_by(10) {
        db.query(
            &format!(
                "SELECT AVG(amount) FROM orders WHERE day BETWEEN {lo} AND {}",
                lo + 10
            ),
            &opts,
        )
        .unwrap();
    }
}

fn warm_events(db: &Database) {
    let opts = QueryOptions::new();
    for lo in (0..21).step_by(3) {
        db.query(
            &format!(
                "SELECT AVG(latency) FROM events WHERE hour BETWEEN {lo} AND {}",
                lo + 3
            ),
            &opts,
        )
        .unwrap();
    }
}

fn probe_orders(db: &Database) -> (f64, f64) {
    let r = db
        .query(
            "SELECT AVG(amount) FROM orders WHERE day BETWEEN 25 AND 45",
            &QueryOptions::new(),
        )
        .unwrap()
        .unwrap_answered();
    let cell = &r.rows[0].values[0];
    (cell.improved.answer, cell.improved.error)
}

fn probe_events_nolearn(db: &Database) -> (f64, f64) {
    let r = db
        .query(
            "SELECT AVG(latency) FROM events WHERE hour BETWEEN 6 AND 12",
            &QueryOptions::no_learn(),
        )
        .unwrap()
        .unwrap_answered();
    let cell = &r.rows[0].values[0];
    (cell.raw_answer, cell.raw_error)
}

#[test]
fn tables_learn_independently() {
    let db = build_db();
    let events_state_before = db.snapshot("events").unwrap().state_bytes();
    let events_probe_before = probe_events_nolearn(&db);

    // Heavy learning + training on orders only.
    warm_orders(&db);
    db.train("orders").unwrap();
    let (_, improved_err) = probe_orders(&db);
    assert!(improved_err.is_finite());
    let orders_avg = verdict::core::QualifiedAggKey::avg("orders", "amount");
    assert!(db.has_model(&orders_avg).unwrap(), "orders learned");

    // Events: not a bit of state moved, answers identical.
    let events_state_after = db.snapshot("events").unwrap().state_bytes();
    assert_eq!(
        events_state_before, events_state_after,
        "training orders must not change events state"
    );
    let events_probe_after = probe_events_nolearn(&db);
    assert_eq!(
        events_probe_before.0.to_bits(),
        events_probe_after.0.to_bits()
    );
    assert_eq!(
        events_probe_before.1.to_bits(),
        events_probe_after.1.to_bits()
    );
    let events_avg = verdict::core::QualifiedAggKey::avg("events", "latency");
    assert!(!db.has_model(&events_avg).unwrap());

    // The learned-keys listing is table-qualified and orders-only so far.
    let keys = db.learned_keys();
    assert!(keys.iter().any(|k| k == &orders_avg));
    assert!(keys.iter().all(|k| k.table == "orders"));
}

#[test]
fn one_dir_persists_whole_catalog_and_warm_starts_bit_identically() {
    let dir = std::env::temp_dir().join(format!("verdict-db-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (orders_state, events_state, orders_probe, events_probe) = {
        let (orders, events) = orders_events(&spec());
        let db = Database::builder()
            .register_table("orders", orders)
            .register_table("events", events)
            .persist_to(&dir)
            .build()
            .unwrap();
        assert!(db.is_persistent());
        warm_orders(&db);
        warm_events(&db);
        db.train_all().unwrap();
        // Probes first (a Verdict-mode probe itself observes), then a
        // checkpoint: read-path counter deltas are observability, not
        // WAL records, so only a checkpointed state is the exact state a
        // recovery must reproduce.
        let orders_probe = probe_orders(&db);
        let events_probe = probe_events_nolearn(&db);
        db.checkpoint().unwrap();
        (
            db.snapshot("orders").unwrap().state_bytes(),
            db.snapshot("events").unwrap().state_bytes(),
            orders_probe,
            events_probe,
        )
    };

    // "Restart": recover the whole catalog from the one directory.
    let db = Database::open(&dir).unwrap();
    assert_eq!(
        db.table_names(),
        &["orders".to_owned(), "events".to_owned()]
    );
    for name in ["orders", "events"] {
        assert!(
            db.recovery_report(name).unwrap().is_some(),
            "{name} warm-started"
        );
    }
    assert_eq!(
        db.snapshot("orders").unwrap().state_bytes(),
        orders_state,
        "orders learned state must survive bit-for-bit"
    );
    assert_eq!(
        db.snapshot("events").unwrap().state_bytes(),
        events_state,
        "events learned state must survive bit-for-bit"
    );
    let orders_after = probe_orders(&db);
    assert_eq!(orders_probe.0.to_bits(), orders_after.0.to_bits());
    assert_eq!(orders_probe.1.to_bits(), orders_after.1.to_bits());
    let events_after = probe_events_nolearn(&db);
    assert_eq!(events_probe.0.to_bits(), events_after.0.to_bits());
    assert_eq!(events_probe.1.to_bits(), events_after.1.to_bits());

    // A second builder refuses to clobber the directory.
    let (orders, _) = orders_events(&spec());
    drop(db);
    let err = Database::builder()
        .register_table("orders", orders)
        .persist_to(&dir)
        .build();
    assert!(matches!(err, Err(Error::Store(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A build that fails on its second table leaves nothing behind, so the
/// corrected build succeeds in the same directory and reopens.
#[test]
fn a_failed_persistent_build_can_be_retried() {
    let dir = std::env::temp_dir().join(format!("verdict-db-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = |fraction: f64| {
        let (orders, events) = orders_events(&spec());
        Database::builder()
            .register_table("orders", orders)
            .register_table_with(
                "events",
                events,
                TableOptions {
                    sample_fraction: fraction,
                    ..Default::default()
                },
            )
            .persist_to(&dir)
            .build()
    };
    assert!(matches!(
        build(2.0),
        Err(Error::Aqp(verdict::aqp::AqpError::InvalidConfig(_)))
    ));
    let db = build(0.15).expect("the retry builds");
    drop(db);
    let db = Database::open(&dir).expect("the retried build reopens");
    probe_orders(&db);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_from_is_typed_error() {
    let db = build_db();
    let err = db
        .query(
            "SELECT AVG(amount) FROM nope WHERE day > 1",
            &QueryOptions::new(),
        )
        .unwrap_err();
    match err {
        Error::Sql(SqlError::UnknownTable { name, known }) => {
            assert_eq!(name, "nope");
            assert_eq!(known, vec!["orders".to_owned(), "events".to_owned()]);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Case-insensitive resolution succeeds.
    assert!(db
        .query(
            "SELECT AVG(amount) FROM ORDERS WHERE day > 1",
            &QueryOptions::new()
        )
        .is_ok());
    // Catalog lookups are typed too.
    assert!(matches!(
        db.table("nope"),
        Err(Error::Sql(SqlError::UnknownTable { .. }))
    ));
}

#[test]
fn builder_registration_errors_are_typed() {
    let (orders, events) = orders_events(&spec());
    let err = Database::builder()
        .register_table("orders", orders)
        .register_table("Orders", events) // names are case-insensitive
        .build();
    match err {
        Err(Error::Catalog(CatalogError::DuplicateTable(name))) => assert_eq!(name, "Orders"),
        other => panic!("unexpected {other:?}"),
    }

    let (orders, _) = orders_events(&spec());
    let err = Database::builder()
        .register_table("not a name", orders)
        .build();
    assert!(matches!(
        err,
        Err(Error::Catalog(CatalogError::InvalidTableName(_)))
    ));

    assert!(matches!(
        Database::builder().build(),
        Err(Error::Catalog(CatalogError::NoTables))
    ));
}

#[test]
fn prepared_bind_errors_are_typed() {
    let db = build_db();
    let stmt = db
        .prepare("SELECT AVG(amount) FROM orders WHERE day BETWEEN ? AND ?")
        .unwrap();
    assert_eq!(stmt.placeholder_count(), 2);
    assert_eq!(stmt.table_name(), "orders");

    match stmt.bind(&[Value::Num(1.0)]).unwrap_err() {
        Error::Sql(SqlError::PlaceholderCount { expected, got }) => {
            assert_eq!((expected, got), (2, 1));
        }
        other => panic!("unexpected {other:?}"),
    }
    match stmt
        .bind(&[Value::Num(1.0), Value::Str("us".into())])
        .unwrap_err()
    {
        Error::Sql(SqlError::PlaceholderType { index, .. }) => assert_eq!(index, 1),
        other => panic!("unexpected {other:?}"),
    }

    // Ad-hoc execution of a placeholder-bearing statement is refused.
    assert!(db
        .query(
            "SELECT AVG(amount) FROM orders WHERE day BETWEEN ? AND ?",
            &QueryOptions::new()
        )
        .is_err());

    // Unsupported statements cannot be prepared.
    assert!(matches!(
        db.prepare("SELECT MIN(amount) FROM orders"),
        Err(Error::Unsupported(_))
    ));
}

/// An ad-hoc statement is a prepared one with no parameters, so its
/// statement-level errors are the prepared path's typed ones: a `?` has
/// nothing bound to it, and a predicate shape that does not fit its
/// column's type fails in the SQL layer, before any scan.
#[test]
fn ad_hoc_statement_errors_are_the_prepared_paths() {
    let db = build_db();
    let opts = QueryOptions::new();
    let before = db.snapshot("orders").unwrap().state_bytes();
    match db.query(
        "SELECT AVG(amount) FROM orders WHERE day BETWEEN ? AND ?",
        &opts,
    ) {
        Err(Error::Sql(SqlError::PlaceholderCount { expected, got })) => {
            assert_eq!((expected, got), (2, 0));
        }
        other => panic!("unexpected {other:?}"),
    }
    for sql in [
        "SELECT AVG(amount) FROM orders WHERE region BETWEEN 1 AND 2",
        "SELECT AVG(amount) FROM orders WHERE day IN (1, 2)",
    ] {
        match db.query(sql, &opts) {
            Err(Error::Sql(SqlError::Resolve(m))) => assert!(m.contains("expected"), "{m}"),
            other => panic!("{sql}: unexpected {other:?}"),
        }
    }
    assert_eq!(db.snapshot("orders").unwrap().state_bytes(), before);
}

/// The serving-path guarantee: prepare-once/bind-many answers must be
/// bit-identical to ad-hoc `query()` of the same statement with the
/// literals inlined — including the learning side effects, so after a
/// whole workload the two databases' learned states match byte for byte.
#[test]
fn prepared_runs_bit_identical_to_ad_hoc() {
    let ad_hoc = build_db();
    let prepared_db = build_db();

    let stmt = prepared_db
        .prepare("SELECT AVG(amount) FROM orders WHERE day BETWEEN ? AND ?")
        .unwrap();
    let opts = QueryOptions::new();
    for lo in [0.0_f64, 12.5, 25.0, 40.0, 62.5, 80.0] {
        let hi = lo + 15.0;
        let a = ad_hoc
            .query(
                &format!("SELECT AVG(amount) FROM orders WHERE day BETWEEN {lo} AND {hi}"),
                &opts,
            )
            .unwrap()
            .unwrap_answered();
        let p = stmt
            .bind(&[lo.into(), hi.into()])
            .unwrap()
            .run(&opts)
            .unwrap()
            .unwrap_answered();
        let (ca, cp) = (&a.rows[0].values[0], &p.rows[0].values[0]);
        assert_eq!(ca.improved.answer.to_bits(), cp.improved.answer.to_bits());
        assert_eq!(ca.improved.error.to_bits(), cp.improved.error.to_bits());
        assert_eq!(ca.raw_answer.to_bits(), cp.raw_answer.to_bits());
        assert_eq!(ca.raw_error.to_bits(), cp.raw_error.to_bits());
        assert_eq!(a.tuples_scanned, p.tuples_scanned);
        assert_eq!(a.epoch, p.epoch);
    }
    assert_eq!(
        ad_hoc.snapshot("orders").unwrap().state_bytes(),
        prepared_db.snapshot("orders").unwrap().state_bytes(),
        "identical workloads must leave identical learned state"
    );

    // Still bit-identical after training, with models engaged, and for a
    // grouped + categorical-placeholder statement.
    ad_hoc.train("orders").unwrap();
    prepared_db.train("orders").unwrap();
    let grouped = prepared_db
        .prepare("SELECT region, COUNT(*), AVG(amount) FROM orders WHERE day >= ? GROUP BY region")
        .unwrap();
    for lo in [10.0_f64, 30.0] {
        let a = ad_hoc
            .query(
                &format!(
                    "SELECT region, COUNT(*), AVG(amount) FROM orders WHERE day >= {lo} GROUP BY region"
                ),
                &opts,
            )
            .unwrap()
            .unwrap_answered();
        let p = grouped
            .bind(&[lo.into()])
            .unwrap()
            .run(&opts)
            .unwrap()
            .unwrap_answered();
        assert_eq!(a.rows.len(), p.rows.len());
        for (ra, rp) in a.rows.iter().zip(&p.rows) {
            assert_eq!(ra.group, rp.group);
            for (ca, cp) in ra.values.iter().zip(&rp.values) {
                assert_eq!(ca.improved.answer.to_bits(), cp.improved.answer.to_bits());
                assert_eq!(ca.improved.error.to_bits(), cp.improved.error.to_bits());
            }
        }
    }
}

#[test]
fn pinned_snapshot_must_match_table() {
    let db = build_db();
    let events_snapshot = db.snapshot("events").unwrap();
    let err = db
        .query(
            "SELECT AVG(amount) FROM orders WHERE day > 1",
            &QueryOptions::new().pinned(events_snapshot),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Catalog(CatalogError::SnapshotTableMismatch { .. })
    ));
}

#[test]
fn pinned_reads_are_pure_across_cross_table_ingest_and_learning() {
    let db = build_db();
    warm_orders(&db);
    db.train("orders").unwrap();

    let pinned = db.snapshot("orders").unwrap();
    let sql = "SELECT AVG(amount) FROM orders WHERE day BETWEEN 20 AND 60";
    let opts_pinned = QueryOptions::new().pinned(pinned.clone());
    let before = db.query(sql, &opts_pinned).unwrap().unwrap_answered();

    // Ingest into events and learn more on orders, from several threads.
    std::thread::scope(|s| {
        for t in 0..2 {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..4 {
                    let hour = (t * 4 + i) as f64;
                    db.ingest(
                        "events",
                        &[vec![Value::Num(hour % 24.0), Value::Num(50.0 + hour)]],
                    )
                    .unwrap();
                }
            });
        }
        {
            let db = db.clone();
            s.spawn(move || {
                for lo in [5.0_f64, 35.0, 65.0] {
                    db.query(
                        &format!(
                            "SELECT AVG(amount) FROM orders WHERE day BETWEEN {lo} AND {}",
                            lo + 7.0
                        ),
                        &QueryOptions::new(),
                    )
                    .unwrap();
                }
            });
        }
    });
    assert!(db.data_epoch("events").unwrap() >= 8);
    assert!(db.epoch("orders").unwrap() > pinned.epoch());

    // The pinned read is a pure function of the snapshot pair.
    let after = db.query(sql, &opts_pinned).unwrap().unwrap_answered();
    let (cb, ca) = (&before.rows[0].values[0], &after.rows[0].values[0]);
    assert_eq!(cb.improved.answer.to_bits(), ca.improved.answer.to_bits());
    assert_eq!(cb.improved.error.to_bits(), ca.improved.error.to_bits());
    assert_eq!(before.epoch, after.epoch);
}

/// The non-persisted knobs (here: sample rotation) can be re-applied on
/// warm start via `open_with`; a plain `open` reverts them to defaults.
#[test]
fn open_with_reapplies_non_persisted_options() {
    let dir = std::env::temp_dir().join(format!("verdict-db-openwith-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (orders, _) = orders_events(&spec());
        Database::builder()
            .register_table_with(
                "orders",
                orders,
                TableOptions {
                    sample_fraction: 0.1,
                    batch_size: 200,
                    seed: 5,
                    num_samples: 3,
                    ..Default::default()
                },
            )
            .persist_to(&dir)
            .build()
            .unwrap();
    }
    let sql = "SELECT AVG(amount) FROM orders WHERE day <= 50";
    let answers = |db: &Database| -> Vec<u64> {
        (0..3)
            .map(|_| {
                let r = db
                    .query(
                        sql,
                        &QueryOptions::no_learn().with_policy(StopPolicy::TupleBudget(400)),
                    )
                    .unwrap()
                    .unwrap_answered();
                r.rows[0].values[0].raw_answer.to_bits()
            })
            .collect()
    };
    {
        // Default open: rotation fixed → every query scans the same sample.
        let db = Database::open(&dir).unwrap();
        let a = answers(&db);
        assert!(a.iter().all(|&x| x == a[0]), "fixed rotation: {a:?}");
    }
    {
        // open_with round-robin: successive queries scan distinct samples.
        let db = Database::open_with(
            &dir,
            verdict::OpenOptions::new().with_rotation(verdict::SampleRotation::RoundRobin),
        )
        .unwrap();
        let a = answers(&db);
        assert!(
            a[0] != a[1] || a[1] != a[2],
            "round-robin must change the scanned sample: {a:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `memory_budget` bounds the partition cache of out-of-core tables; a
/// resident table has none, so the builder refuses the knob rather than
/// let a caller believe memory is capped.
#[test]
fn memory_budget_is_refused_on_a_resident_table() {
    let (orders, _) = orders_events(&spec());
    let built = Database::builder()
        .register_table("orders", orders)
        .memory_budget(40_000)
        .build();
    assert!(matches!(built, Err(Error::Aqp(_))));
}

/// A store written through `SessionBuilder::persist_to` keeps the flat
/// single-table layout, and `Database::open` serves it as table `t` with
/// a lenient `FROM` and its learned model intact.
#[test]
fn legacy_v2_store_opens_as_single_table_database() {
    let dir = std::env::temp_dir().join(format!("verdict-db-v2compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (orders, _) = orders_events(&spec());

    // A store written by the session builder (v2 single-table layout).
    {
        let db = SessionBuilder::new(orders)
            .sample_fraction(0.2)
            .batch_size(250)
            .seed(5)
            .persist_to(&dir)
            .build()
            .unwrap()
            .into_database("orders")
            .unwrap();
        warm_orders(&db);
        db.train("orders").unwrap();
    }

    // The session builder keeps the single-table layout: the store sits
    // at the directory root, with no catalog manifest around it.
    for file in ["wal.vlog", "LOCK"] {
        assert!(dir.join(file).is_file(), "{file} missing at the store root");
    }
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("snapshot-") && name.ends_with(".vsnap"))
        .count();
    assert!(
        snapshots >= 1,
        "snapshot generations live at the store root"
    );
    assert!(!dir.join("CATALOG").exists());
    assert!(!dir.join("tables").exists());

    // The catalog API opens it: one table named "t", lenient FROM.
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.table_names(), &["t".to_owned()]);
    let r = db
        .query(
            "SELECT AVG(amount) FROM anything WHERE day BETWEEN 25 AND 45",
            &QueryOptions::new(),
        )
        .unwrap()
        .unwrap_answered();
    let cell = &r.rows[0].values[0];
    assert!(cell.improved.used_model, "recovered model must engage");
    assert!(cell.improved.error <= cell.raw_error);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `VerdictSession::into_database` promotes the session's table under
/// the given name: it learns what a builder-registered twin learns, byte
/// for byte, and resolves `FROM` strictly.
#[test]
fn session_promotes_into_database() {
    let (orders, _) = orders_events(&spec());
    let twin = Database::builder()
        .register_table_with(
            "orders",
            orders.clone(),
            TableOptions {
                sample_fraction: 0.2,
                batch_size: 250,
                seed: 5,
                ..Default::default()
            },
        )
        .build()
        .unwrap();
    let db = SessionBuilder::new(orders)
        .sample_fraction(0.2)
        .batch_size(250)
        .seed(5)
        .build()
        .unwrap()
        .into_database("orders")
        .unwrap();
    assert_eq!(db.table_names(), &["orders".to_owned()]);
    for lo in [10, 30, 50] {
        let sql = format!("SELECT AVG(amount) FROM orders WHERE day BETWEEN {lo} AND 80");
        for db in [&db, &twin] {
            db.query(&sql, &QueryOptions::new()).unwrap();
        }
    }
    let snapshot = db.snapshot("orders").unwrap();
    assert_eq!(snapshot.table_name(), "orders");
    assert_eq!(
        snapshot.state_bytes(),
        twin.snapshot("orders").unwrap().state_bytes(),
        "promotion must publish the session's table to learn byte for byte"
    );
    // Strict FROM resolution after promotion.
    assert!(matches!(
        db.query(
            "SELECT AVG(amount) FROM t WHERE day > 1",
            &QueryOptions::new()
        ),
        Err(Error::Sql(SqlError::UnknownTable { .. }))
    ));
    assert!(db
        .query(
            "SELECT AVG(amount) FROM orders WHERE day > 1",
            &QueryOptions::new()
        )
        .is_ok());
}

/// Unset `parallelism` sizes each scan by its horizon: a 4,000-row sample
/// is far below one thread's worth of rows, so a default-built database
/// scans on the calling thread alone. A pinned count still spreads the
/// same scan, to the same bits.
#[test]
fn default_database_scans_a_small_sample_on_the_calling_thread() {
    let (orders, _) = orders_events(&spec());
    let build = |pinned: Option<usize>| {
        let mut b = Database::builder()
            .register_table_with(
                "orders",
                orders.clone(),
                TableOptions {
                    sample_fraction: 0.2,
                    batch_size: 250,
                    seed: 5,
                    ..Default::default()
                },
            )
            .query_log(4);
        if let Some(n) = pinned {
            b = b.parallelism(n);
        }
        b.build().unwrap()
    };
    let sql = "SELECT AVG(amount) FROM orders WHERE day BETWEEN 10 AND 80";
    let mut answers = Vec::new();
    for (pinned, workers) in [(None, 1), (Some(2), 2)] {
        let db = build(pinned);
        let r = db
            .query(sql, &QueryOptions::no_learn())
            .unwrap()
            .unwrap_answered();
        let trace = &db.recent_queries(1)[0];
        assert_eq!(trace.workers, workers, "pinned {pinned:?}");
        assert_eq!(trace.morsels == 0, workers == 1, "pinned {pinned:?}");
        let cell = &r.rows[0].values[0];
        answers.push((cell.raw_answer.to_bits(), cell.raw_error.to_bits()));
    }
    assert_eq!(answers[0], answers[1]);
}

#[test]
fn database_is_clone_send_sync() {
    fn assert_clone_send_sync<T: Clone + Send + Sync>() {}
    assert_clone_send_sync::<Database>();
    assert_clone_send_sync::<verdict::Prepared>();
    assert_clone_send_sync::<verdict::SessionSnapshot>();
}
