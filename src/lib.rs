//! # Verdict — Database Learning for approximate query processing
//!
//! A Rust reproduction of *"Database Learning: Toward a Database that
//! Becomes Smarter Every Time"* (Park, Tajik, Cafarella, Mozafari —
//! SIGMOD 2017). Verdict sits on top of a sample-based AQP engine, keeps a
//! synopsis of past query answers, fits a maximum-entropy (Gaussian)
//! model over them, and uses it to return **improved answers with smaller
//! error bounds** — provably never worse than the raw AQP answer
//! (Theorem 1).
//!
//! ## Quickstart: a multi-table [`Database`]
//!
//! The front door is the [`Database`] catalog: register any number of
//! tables, query them with `FROM <name>` resolved against the catalog,
//! and each table learns independently (its own samples, synopsis, and
//! models — see [`verdict_core::QualifiedAggKey`]).
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use verdict::{Database, QueryOptions};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let spec = verdict::workload::synthetic::SyntheticSpec {
//!     rows: 20_000,
//!     ..Default::default()
//! };
//! let orders = verdict::workload::synthetic::generate_table(&spec, &mut rng);
//! let events = verdict::workload::synthetic::generate_table(&spec, &mut rng);
//!
//! let db = Database::builder()
//!     .register_table("orders", orders)
//!     .register_table("events", events)
//!     .build()
//!     .expect("database");
//!
//! // Warm up the orders synopsis with a few queries, then train.
//! let opts = QueryOptions::new();
//! for lo in [0.0_f64, 2.0, 4.0, 6.0] {
//!     db.query(
//!         &format!("SELECT AVG(m) FROM orders WHERE d0 BETWEEN {lo} AND {}", lo + 2.0),
//!         &opts,
//!     )
//!     .expect("query");
//! }
//! db.train("orders").expect("train");
//!
//! // New queries on `orders` now come back with improved error bounds;
//! // `events` is untouched — tables learn independently.
//! let result = db
//!     .query("SELECT AVG(m) FROM orders WHERE d0 BETWEEN 1 AND 3", &opts)
//!     .expect("query")
//!     .unwrap_answered();
//! let cell = &result.rows[0].values[0];
//! assert!(cell.improved.error <= cell.raw_error);
//! ```
//!
//! ## Prepared statements: the serving path
//!
//! Repeated query shapes skip the SQL layer entirely:
//! [`Database::prepare`] runs parse → resolve `FROM` → check → compile
//! the plan template once, and every execution afterwards only re-binds
//! literals ([`Database::query`] is that path taken in one call).
//!
//! ```
//! # use rand::rngs::StdRng;
//! # use rand::SeedableRng;
//! # use verdict::{Database, QueryOptions};
//! # let mut rng = StdRng::seed_from_u64(7);
//! # let spec = verdict::workload::synthetic::SyntheticSpec {
//! #     rows: 5_000,
//! #     ..Default::default()
//! # };
//! # let orders = verdict::workload::synthetic::generate_table(&spec, &mut rng);
//! # let db = Database::builder().register_table("orders", orders).build().unwrap();
//! let stmt = db
//!     .prepare("SELECT AVG(m) FROM orders WHERE d0 BETWEEN ? AND ?")
//!     .expect("prepare");
//! for lo in [1.0_f64, 3.0, 5.0] {
//!     let out = stmt
//!         .bind(&[lo.into(), (lo + 2.0).into()])
//!         .expect("bind")
//!         .run(&QueryOptions::new())
//!         .expect("run")
//!         .unwrap_answered();
//!     assert_eq!(out.rows.len(), 1);
//! }
//! ```
//!
//! ## Persistence
//!
//! [`DatabaseBuilder::persist_to`] persists the whole catalog under one
//! directory (a `CATALOG` manifest plus one crash-safe store per table);
//! [`Database::open`] warm-starts every table from it with bit-identical
//! learned state — the first query after a restart already enjoys the
//! error bounds the previous process earned
//! (`cargo run --release --example catalog`).
//!
//! ## Evolving tables
//!
//! Tables are not frozen: [`Database::ingest`] appends row batches
//! through the full stack — table growth, sample maintenance at the
//! correct inclusion probability, WAL-logged recovery, and automatic
//! Lemma-3 widening of every stored snippet — serialized only within the
//! addressed table, so queries on other tables never stall
//! (`cargo run --release --example ingest`).
//!
//! ## Migrating from the session API
//!
//! There is one engine, the per-table shard behind [`Database`], and one
//! front door to it. The single-table session facade is gone; what is
//! left of it is [`SessionBuilder`], which writes the flat single-table
//! store layout, and [`VerdictSession::into_database`], which promotes
//! what it builds. To move code over:
//!
//! - `SessionBuilder::new(t)…build()` → `Database::builder()
//!   .register_table_with("t", t, TableOptions { .. }).build()`; the
//!   table knobs (sample fraction, batch size, seed, sample count, engine
//!   config, `partition`) live in [`TableOptions`], the serving knobs
//!   (`persist_to`, `memory_budget`, `parallelism`, `sample_rotation`,
//!   `metrics`, `query_log`, `store_policy`) on [`DatabaseBuilder`]. A
//!   persisted table's store then lives in `tables/t/` under the root.
//! - `session.execute(sql, mode, policy)` → `db.query(sql,
//!   &QueryOptions::new().with_mode(mode).with_policy(policy))`.
//! - `session.{train, ingest, snapshot, table, recovery_report}()` →
//!   the [`Database`] methods of the same name, given the table name;
//!   `checkpoint()` → [`Database::checkpoint`].
//! - `VerdictSession::open_with(dir, opts)` → [`Database::open_with`].
//! - `set_active_sample(k)` has no replacement: `Fixed` rotation scans
//!   sample 0, and [`DatabaseBuilder::sample_rotation`] with
//!   [`SampleRotation::RoundRobin`] rotates across the samples.
//! - `exact(agg, pred)` → `agg.eval_exact(&db.table("t")?, pred)`
//!   ([`verdict_storage::AggregateFn::eval_exact`]); an out-of-core table
//!   keeps its rows in its part files ([`verdict_store::read_part_rows`]).
//! - `apply_append(key, adjustment)` → [`Database::ingest`] of the rows,
//!   which estimates, logs and applies every Lemma-3 adjustment.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`verdict_core`] | snippets, synopsis, kernel, learning, inference, validation, append, read/learn split |
//! | [`verdict_aqp`] | uniform samples (resident or demand-paged), the shared-scan driver + morsel scheduler, the experiments' cost model |
//! | [`verdict_sql`] | parser (with `?` placeholders), supported-query checker, catalog name resolution, snippet decomposition, prepared plan templates |
//! | [`verdict_storage`] | columnar tables, predicates, exact aggregation, partition maps |
//! | [`verdict_store`] | durable stores: snippet log, snapshots, crash recovery, the v3 catalog manifest |
//! | [`verdict_workload`] | synthetic / TPC-H-style / Customer1-style / multi-table generators |
//! | [`verdict_obs`] | zero-dependency metrics registry, pipeline tracing, query log |
//! | [`verdict_stats`], [`verdict_linalg`] | math substrates |
//!
//! Root-crate layering: [`database`] holds the catalog and the per-table
//! shard — the one implementation of query, ingest, train, checkpoint
//! and shard construction; [`query`] the options and prepared
//! statements that drive it; [`session`] the result types, the executor
//! core the shard calls, and the single-table builder whose one output
//! promotes into a [`Database`];
//! [`metrics`] binds the zero-dependency observability primitives of
//! [`verdict_obs`] to every pipeline stage.
//!
//! ## Observability
//!
//! Attach a [`verdict_obs::MetricsHub`] and/or a bounded query log at
//! build time ([`DatabaseBuilder::metrics`] /
//! [`DatabaseBuilder::query_log`]) and the
//! engine reports per-table counters, gauges, and latency histograms
//! plus a per-query [`verdict_obs::QueryTrace`]; snapshot them with
//! [`Database::metrics_snapshot`] (Prometheus-style text or JSON) and
//! [`Database::recent_queries`]. Metrics observe the pipeline — they
//! never change an answer, and when disabled (the default) the hot path
//! touches no atomics and reads no stage clocks
//! (`cargo run --release --example observability`).

pub mod database;
pub mod metrics;
pub mod query;
pub mod session;

pub use database::{
    CatalogError, Database, DatabaseBuilder, OpenOptions, SessionSnapshot, TableOptions,
};
pub use metrics::CheckpointReport;
pub use query::{Bound, Prepared, QueryOptions};
pub use session::{
    CellAnswer, IngestReport, Mode, QueryOutcome, QueryResult, ResultRow, SampleRotation,
    SessionBuilder, StopPolicy, VerdictSession,
};

// Re-export the sub-crates under stable names.
pub use verdict_aqp as aqp;
pub use verdict_core as core;
pub use verdict_linalg as linalg;
pub use verdict_obs as obs;
pub use verdict_sql as sql;
pub use verdict_stats as stats;
pub use verdict_storage as storage;
pub use verdict_store as store;
pub use verdict_workload as workload;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// SQL front-end failure (parse, resolution, placeholder binding).
    Sql(verdict_sql::SqlError),
    /// Catalog failure (registration, table lookup, snapshot pinning).
    Catalog(CatalogError),
    /// The statement is outside Verdict's supported class (prepare-time;
    /// ad-hoc queries report this as [`QueryOutcome::Unsupported`]).
    Unsupported(Vec<verdict_sql::UnsupportedReason>),
    /// Inference-engine failure.
    Core(verdict_core::CoreError),
    /// AQP-engine failure.
    Aqp(verdict_aqp::AqpError),
    /// Storage failure.
    Storage(verdict_storage::StorageError),
    /// Durable-store failure.
    Store(verdict_store::StoreError),
}

impl From<verdict_sql::SqlError> for Error {
    fn from(e: verdict_sql::SqlError) -> Self {
        Error::Sql(e)
    }
}
impl From<CatalogError> for Error {
    fn from(e: CatalogError) -> Self {
        Error::Catalog(e)
    }
}
impl From<verdict_core::CoreError> for Error {
    fn from(e: verdict_core::CoreError) -> Self {
        Error::Core(e)
    }
}
impl From<verdict_aqp::AqpError> for Error {
    fn from(e: verdict_aqp::AqpError) -> Self {
        Error::Aqp(e)
    }
}
impl From<verdict_storage::StorageError> for Error {
    fn from(e: verdict_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}
impl From<verdict_store::StoreError> for Error {
    fn from(e: verdict_store::StoreError) -> Self {
        Error::Store(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Sql(e) => write!(f, "{e}"),
            Error::Catalog(e) => write!(f, "{e}"),
            Error::Unsupported(reasons) => {
                write!(f, "statement is outside the supported class: ")?;
                for (i, r) in reasons.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
            Error::Core(e) => write!(f, "{e}"),
            Error::Aqp(e) => write!(f, "{e}"),
            Error::Storage(e) => write!(f, "{e}"),
            Error::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
