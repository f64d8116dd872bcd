//! The multi-table serving front-end: a [`Database`] catalog of learned
//! tables.
//!
//! A `Database` owns, **per registered table**: the base table, its
//! maintained offline samples, its query synopsis and trained models, and
//! its serialized learn path. `FROM <name>` resolves against the catalog
//! ([`verdict_sql::resolve_from`]), so one handle serves a whole schema:
//!
//! ```text
//! let db = Database::builder()
//!     .register_table("orders", orders)
//!     .register_table("events", events)
//!     .persist_to("analytics-db")
//!     .build()?;
//! db.query("SELECT AVG(m) FROM orders WHERE d0 BETWEEN 1 AND 3", &opts)?;
//! db.query("SELECT COUNT(*) FROM events WHERE hour >= 6", &opts)?;
//! ```
//!
//! ## Architecture
//!
//! Each table is an independent **shard**: the read path loads the
//! shard's current published [`SessionSnapshot`] (a paired, immutable
//! view of learned state + data) and answers from it lock-free; what the
//! query learned funnels through the shard's own writer mutex. Because
//! the mutex is per table, concurrent reads on `orders` never serialize
//! behind an ingest on `events` — the learn paths of different tables are
//! fully independent, as are their [`verdict_core::AggKey`] spaces (one
//! engine per table, so `orders.AVG(m)` and `events.AVG(m)` are disjoint
//! state by construction; see [`verdict_core::QualifiedAggKey`]).
//!
//! `Database` is `Send + Sync + Clone` (one `Arc`). The shard is the
//! **only** implementation of every pipeline stage — query, ingest,
//! train, checkpoint — and of shard construction (one create path, one
//! recover path): [`DatabaseBuilder`] and the single-table
//! [`crate::SessionBuilder`] lower into the first, [`Database::open`] and
//! [`crate::VerdictSession::open_with`] into the second, and
//! [`crate::VerdictSession`] is a facade over one shard.
//!
//! Ordering the one engine fixes (the serial session used to differ on
//! each): a parked store error surfaces *before* [`Database::train`]
//! refits anything; `verdict_queries_started` counts a query after it
//! parsed and resolved its table (a statement that fails to parse never
//! started); and an ingest's Lemma-3 shift is estimated against the
//! shard's *fixed* sample.
//!
//! ## Persistence (catalog manifest v3)
//!
//! [`DatabaseBuilder::persist_to`] persists the whole catalog under one
//! root directory: a `CATALOG` manifest plus one complete per-table
//! synopsis store in `tables/<name>/` (WAL, snapshot generations, part
//! files and crash recovery, all per table). [`Database::open`]
//! warm-starts every table from that one directory; it also opens the
//! flat single-table directory [`crate::SessionBuilder::persist_to`]
//! creates (the table is then named `"t"` and any `FROM` resolves to it,
//! as in the session).
//!
//! ## One statement path
//!
//! [`Database::prepare`] runs parse → resolve `FROM` → check → compile
//! the plan template once; the returned [`crate::Prepared`] handle
//! re-executes with only literal re-binding (see [`crate::query`]), and
//! [`Database::query`] is that path in one call, with nothing to bind.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use verdict_aqp::{AqpError, Sample};
use verdict_core::append::AppendAdjustment;
use verdict_core::concurrent::{EngineSnapshot, Learner};
use verdict_core::{AggKey, QualifiedAggKey, SchemaInfo, Verdict, VerdictConfig};
use verdict_obs::{MetricsHub, MetricsSnapshot, QueryLog, QueryTrace, ScanTrace, Stopwatch};
use verdict_sql::checker::JoinPolicy;
use verdict_sql::{
    check_query, parse_query, prepare_query, resolve_from, PreparedQuery, Query, SupportVerdict,
};
use verdict_storage::{
    row_ids, AggregateFn, PartitionMap, PartitionSpec, Predicate, Schema, Table, Value,
};
use verdict_store::catalog::{catalog_exists, is_valid_table_name, table_dir};
use verdict_store::{
    read_catalog, read_part_rows, write_catalog, BaseRows, CatalogManifest, PagedState, Recovered,
    RecoveryReport, SessionMeta, SharedStore, StoreError, StorePolicy, SynopsisStore,
};

use crate::metrics::{CheckpointReport, TableObs};
use crate::query::{Prepared, QueryOptions};
use crate::session::{
    build_paged_samples, draw_samples, prepare_ingest, query_trace, run_shared_read,
    widening_magnitude, IngestReport, PagedRuntime, ReadOutcome, SampleMoments, SampleRotation,
    StagePrelude,
};
use crate::{Error, QueryOutcome, Result};

/// Catalog-level failures: registration and snapshot-pinning errors that
/// are about the *database*, not about one statement's SQL. (Unknown
/// table names — from `FROM` or a by-name API call — uniformly surface
/// as [`verdict_sql::SqlError::UnknownTable`], which lists the catalog.)
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CatalogError {
    /// A table name was registered twice (names are case-insensitive).
    DuplicateTable(String),
    /// A table name is not a valid identifier.
    InvalidTableName(String),
    /// The builder was asked to build a database with no tables.
    NoTables,
    /// A pinned snapshot from one table was used to query another.
    SnapshotTableMismatch {
        /// Table the snapshot was pinned from.
        snapshot: String,
        /// Table the query addressed.
        query: String,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::DuplicateTable(name) => {
                write!(f, "table {name} is already registered")
            }
            CatalogError::InvalidTableName(name) => write!(
                f,
                "invalid table name {name:?}: must be an identifier \
                 ([A-Za-z_][A-Za-z0-9_]*, at most 64 bytes)"
            ),
            CatalogError::NoTables => f.write_str("a database needs at least one table"),
            CatalogError::SnapshotTableMismatch { snapshot, query } => write!(
                f,
                "pinned snapshot belongs to table {snapshot}, query addresses {query}"
            ),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One immutable version of a table's *data*: the base table as of one
/// data epoch, plus the maintained offline samples drawn from it. Ingest
/// publishes a fresh `DataSet`; readers in flight keep the one they
/// loaded.
pub(crate) struct DataSet {
    pub(crate) data_epoch: u64,
    pub(crate) table: Arc<Table>,
    pub(crate) samples: Vec<Sample>,
}

/// An atomically paired view of one table at one instant: the learned
/// state ([`EngineSnapshot`]) together with the table/sample version
/// (`data_epoch`) that state describes.
///
/// Pin one with [`Database::snapshot`] (or
/// [`crate::VerdictSession::snapshot`]) and run any number of reads
/// against it via [`QueryOptions::pinned`]: every answer is a pure
/// function of the pair, bit-reproducible regardless of interleaved
/// writers or ingests — the pair keeps the exact table and sample version
/// alive even after newer epochs are published.
#[derive(Clone)]
pub struct SessionSnapshot {
    pub(crate) table_name: Arc<str>,
    pub(crate) engine: Arc<EngineSnapshot>,
    pub(crate) data: Arc<DataSet>,
}

impl SessionSnapshot {
    /// The catalog name of the table this snapshot pins.
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// The epoch of the learned state (see [`EngineSnapshot::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// The data epoch of the pinned table/sample version.
    pub fn data_epoch(&self) -> u64 {
        self.data.data_epoch
    }

    /// The model epoch of the pinned learned state (see
    /// [`EngineSnapshot::model_epoch`]): bumped only by answer-affecting
    /// mutations (train / ingest / restore), never by synopsis observes.
    /// Two snapshots of one table with equal
    /// `(model_epoch, data_epoch)` answer every query bit-identically.
    pub fn model_epoch(&self) -> u64 {
        self.engine.model_epoch()
    }

    /// The pinned learned state.
    pub fn engine_snapshot(&self) -> &EngineSnapshot {
        &self.engine
    }

    /// The pinned base table.
    pub fn table(&self) -> &Table {
        &self.data.table
    }

    /// The pinned version of the maintained offline samples, by sample
    /// index.
    pub fn samples(&self) -> &[Sample] {
        &self.data.samples
    }

    /// Encodes the pinned learned state (byte-identical to
    /// `Verdict::state_bytes` on the engine it was published from).
    pub fn state_bytes(&self) -> Vec<u8> {
        self.engine.state_bytes()
    }

    /// Whether the pinned state carries a trained model for `key`.
    pub fn has_model(&self, key: &AggKey) -> bool {
        self.engine.has_model(key)
    }

    /// Snippets the pinned state retains for `key`.
    pub fn synopsis_len(&self, key: &AggKey) -> usize {
        self.engine.synopsis_len(key)
    }

    /// The engine counters as of the pinned state.
    pub fn stats(&self) -> verdict_core::EngineStats {
        self.engine.stats()
    }
}

/// The serialized write path of one shard: the learner plus what
/// checkpointing and ingesting need.
struct Writer {
    learner: Learner,
    meta: SessionMeta,
    /// Where the base rows live.
    layout: Layout,
    /// Running moments of every `AVG` key over the fixed sample — the
    /// old side of each ingest's Lemma-3 shift, kept between ingests.
    moments: SampleMoments,
}

/// Where a table's base rows live — the one point at which a resident
/// and an out-of-core table differ.
enum Layout {
    /// In memory, as the published table. `partitions` is the base
    /// table's partition map of a partitioned table (kept current across
    /// ingests), which scopes each ingest's Lemma-3 widening to the
    /// regions its partitions can reach.
    Resident { partitions: Option<PartitionMap> },
    /// In partition files, demand-paged; only the resolution table and
    /// each sample's ingest tail stay resident.
    Paged(PagedRuntime),
}

/// One table's full runtime: published snapshot pair, serialized writer,
/// per-table durable store. The per-table unit of independence — nothing
/// in here is shared across tables — and the single implementation of
/// every pipeline stage.
pub(crate) struct Shard {
    pub(crate) name: Arc<str>,
    rotation: SampleRotation,
    /// The sample `Fixed` rotation and pinned reads scan, and every
    /// ingest estimates its Lemma-3 shift against.
    pub(crate) fixed_sample: usize,
    pub(crate) num_samples: usize,
    /// Next sample index under round-robin rotation.
    next_sample: AtomicUsize,
    /// Where readers load the current paired snapshot from. Only the
    /// writer stores into it (under the writer lock), so the engine half
    /// and the data half can never be observed mismatched.
    current: Mutex<SessionSnapshot>,
    /// The durable store, outside the writer lock: its own mutex
    /// serializes appends, and parked-error checks must not block on a
    /// training writer.
    pub(crate) store: Option<SharedStore>,
    writer: Mutex<Writer>,
    pub(crate) recovery: Option<RecoveryReport>,
    /// This table's observability endpoint (no-op when the database was
    /// built without metrics / query log).
    pub(crate) obs: TableObs,
    /// Pinned thread count for this table's shared scans, and the cap on
    /// its inference passes' (`None`: each query sizes its own —
    /// `session::scan_workers`, `session::inference_workers`).
    pub(crate) parallelism: Option<usize>,
}

impl Shard {
    /// **The create path**: draws `table`'s samples and starts a blank
    /// learned state, with a fresh durable store in `store_dir` if given.
    /// `opts.partition` clusters the samples by partition; combined with
    /// a store the table becomes out-of-core — split into one column file
    /// per partition and served demand-paged under `serve.memory_budget`.
    /// How the table is drawn comes from `opts`; how it is served from
    /// `serve`.
    pub(crate) fn create(
        name: &str,
        table: Table,
        opts: &TableOptions,
        store_dir: Option<PathBuf>,
        serve: &OpenOptions,
    ) -> Result<Shard> {
        let partition = opts.partition.as_ref();
        let paged = partition.is_some() && store_dir.is_some();
        if serve.memory_budget.is_some() && !paged {
            return Err(memory_budget_misuse());
        }
        let meta = SessionMeta {
            sample_fraction: opts.sample_fraction,
            batch_size: opts.batch_size as u64,
            seed: opts.seed,
            num_samples: opts.num_samples.max(1) as u64,
            original_rows: table.num_rows() as u64,
            config: opts.config.clone(),
            partition_spec: partition.filter(|_| paged).cloned(),
            paged,
        };
        // The dimension universe is fixed here, at creation.
        let verdict = Verdict::new(SchemaInfo::from_table(&table)?, opts.config.clone());
        let create_store = |dir: PathBuf, table: &Table| {
            SynopsisStore::create(
                dir,
                serve.store_policy.clone(),
                meta.clone(),
                table,
                &verdict.export_state(),
            )
            .map_err(Error::Store)
        };
        let (table, samples, store, layout) = match store_dir {
            Some(dir) if paged => {
                let (store, state) = create_store(dir, &table)?;
                let state = state.expect("a paged store is created with its paged state");
                // Only the zero-row resolution table stays resident; the
                // base rows live in their partition files from here on.
                let resolution = table.gather(&[]).map_err(Error::Storage)?;
                let runtime = PagedRuntime::new(
                    state.map,
                    state.original_part_rows,
                    state.total_rows,
                    serve.memory_budget,
                );
                let samples = build_paged_samples(
                    store.dir(),
                    &runtime,
                    &resolution,
                    state.total_rows,
                    state.tails,
                    &[],
                    &meta,
                )?;
                (resolution, samples, Some(store), Layout::Paged(runtime))
            }
            store_dir => {
                // Drawn before the store exists: an invalid sample
                // geometry leaves no store behind.
                let partitions = partition
                    .map(|spec| PartitionMap::build(&table, spec.clone()))
                    .transpose()
                    .map_err(Error::Storage)?;
                let samples = draw_samples(&table, &meta, partition)?;
                let store = store_dir.map(|dir| create_store(dir, &table)).transpose()?;
                let store = store.map(|(store, _)| store);
                (table, samples, store, Layout::Resident { partitions })
            }
        };
        Ok(Shard::new(
            name, table, samples, verdict, store, meta, None, layout, serve,
        ))
    }

    /// **The recover path**: rebuilds a table's shard from its opened
    /// store — redraw the original sample from the original row prefix
    /// (same seed → bit-identical draw), re-admit any ingested tail
    /// deterministically, and restore the learned state. Sample identity
    /// and engine config come from the persisted metadata; everything the
    /// store does not persist from `serve`.
    pub(crate) fn recover(
        name: &str,
        store: SynopsisStore,
        recovered: Recovered,
        serve: &OpenOptions,
    ) -> Result<Shard> {
        let meta = recovered.meta;
        let (table, samples, layout) = match recovered.base {
            BaseRows::Table(table) => {
                let samples = draw_samples(&table, &meta, None)?;
                (table, samples, Layout::Resident { partitions: None })
            }
            // Out-of-core table: no rows to redraw from — rebuild the
            // identical partition map and demand-paged samples from the
            // recovered paged state (segments re-derive from the same
            // frozen per-partition draw), then re-admit the replayed WAL
            // batches exactly as the live table absorbed them.
            BaseRows::Paged(pr) => {
                let state = pr.state;
                let replayed: u64 = pr
                    .replayed_batches
                    .iter()
                    .map(|b| b.num_rows() as u64)
                    .sum();
                let runtime = PagedRuntime::new(
                    state.map,
                    state.original_part_rows,
                    state.total_rows + replayed,
                    serve.memory_budget,
                );
                let samples = build_paged_samples(
                    store.dir(),
                    &runtime,
                    &pr.resolution,
                    state.total_rows,
                    state.tails,
                    &pr.replayed_batches,
                    &meta,
                )?;
                (pr.resolution, samples, Layout::Paged(runtime))
            }
        };
        // Reuse the *persisted* schema: deriving it from the recovered table
        // would pick up bounds widened by ingested rows and spuriously reject
        // the stored state as schema-mismatched.
        let mut verdict = Verdict::new(recovered.state.schema.clone(), meta.config.clone());
        verdict
            .restore_state(recovered.state)
            .map_err(Error::Core)?;
        verdict.set_data_epoch(recovered.data_epoch);
        Ok(Shard::new(
            name,
            table,
            samples,
            verdict,
            Some(store),
            meta,
            Some(recovered.report),
            layout,
            serve,
        ))
    }

    /// Assembles a shard from the parts either construction path
    /// produced, wiring the store's append hook into the engine and
    /// publishing the first snapshot.
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &str,
        table: Table,
        samples: Vec<Sample>,
        mut verdict: Verdict,
        store: Option<SynopsisStore>,
        meta: SessionMeta,
        recovery: Option<RecoveryReport>,
        layout: Layout,
        serve: &OpenOptions,
    ) -> Shard {
        let store = store.map(SharedStore::new);
        if let Some(store) = &store {
            verdict.set_observer(store.observer());
        }
        let data = Arc::new(DataSet {
            data_epoch: verdict.data_epoch(),
            table: Arc::new(table),
            samples,
        });
        let learner = Learner::new(verdict);
        let name: Arc<str> = Arc::from(name);
        let current = SessionSnapshot {
            table_name: Arc::clone(&name),
            engine: learner.snapshot(),
            data: Arc::clone(&data),
        };
        Shard {
            obs: TableObs::new(serve.metrics.clone(), serve.query_log.clone(), &name),
            name,
            rotation: serve.rotation,
            fixed_sample: 0,
            num_samples: data.samples.len(),
            next_sample: AtomicUsize::new(0),
            current: Mutex::new(current),
            store,
            writer: Mutex::new(Writer {
                learner,
                meta,
                layout,
                moments: SampleMoments::default(),
            }),
            recovery,
            parallelism: serve.parallelism,
        }
    }

    /// Re-registers the table under `name` in every snapshot published
    /// from here on (its metric series keep the label they were
    /// registered with).
    pub(crate) fn rename(&mut self, name: &str) {
        self.name = Arc::from(name);
        self.current
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .table_name = Arc::clone(&self.name);
    }

    /// Loads the current paired snapshot (brief lock, two `Arc` copies).
    pub(crate) fn current(&self) -> SessionSnapshot {
        self.current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Publishes the writer's current engine snapshot, paired with `data`
    /// (or, when `data` is `None`, with the currently published data set).
    /// Caller holds the writer lock, so pairs are never torn.
    fn publish_locked(&self, writer: &Writer, data: Option<Arc<DataSet>>) {
        let mut cur = self
            .current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let data = data.unwrap_or_else(|| Arc::clone(&cur.data));
        *cur = SessionSnapshot {
            table_name: Arc::clone(&self.name),
            engine: writer.learner.snapshot(),
            data,
        };
    }

    /// Whether repeated identical queries against one snapshot are
    /// bit-reproducible without consuming serving state: true under
    /// `Fixed` rotation (or a single sample, where rotation is a no-op).
    /// Round-robin rotation makes each run consume the rotation counter,
    /// so answers may legitimately differ run to run — a memoizing
    /// answer cache must not engage there.
    pub(crate) fn deterministic_serving(&self) -> bool {
        matches!(self.rotation, SampleRotation::Fixed) || self.num_samples == 1
    }

    /// Which sample the next live query scans, without consuming it.
    pub(crate) fn next_sample(&self) -> usize {
        match self.rotation {
            SampleRotation::Fixed => self.fixed_sample,
            SampleRotation::RoundRobin => {
                self.next_sample.load(Ordering::Relaxed) % self.num_samples
            }
        }
    }

    /// Claims the sample a live query scans: round-robin advances one
    /// shared counter; `Fixed` always scans the shard's fixed sample.
    fn pick_sample(&self) -> usize {
        match self.rotation {
            SampleRotation::Fixed => self.fixed_sample,
            SampleRotation::RoundRobin => {
                self.next_sample.fetch_add(1, Ordering::Relaxed) % self.num_samples
            }
        }
    }

    /// Makes `index` the fixed sample and the next one round-robin
    /// rotation scans. An out-of-range index is an error, never wrapped:
    /// a silent `%` would let a one-sample table accept any index and
    /// always scan sample 0, so the independence the caller thought they
    /// were buying would not exist.
    pub(crate) fn set_fixed_sample(&mut self, index: usize) -> Result<()> {
        if index >= self.num_samples {
            return Err(Error::Aqp(AqpError::InvalidConfig(format!(
                "sample index {index} out of range: session has {} sample(s)",
                self.num_samples
            ))));
        }
        self.fixed_sample = index;
        *self.next_sample.get_mut() = index;
        // The kept shift moments describe the old fixed sample.
        self.writer
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .moments = SampleMoments::default();
        Ok(())
    }

    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        // Writer state is consistent at rest; a poisoned lock only means
        // another thread panicked between mutations.
        self.writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Surfaces any error a background WAL append or deferred compaction
    /// parked since the last check (the observer hook has no error
    /// channel of its own).
    fn surface_store_error(&self) -> Result<()> {
        if let Some(store) = &self.store {
            if let Some(e) = store.lock().take_error() {
                return Err(Error::Store(e));
            }
        }
        Ok(())
    }

    /// Picks the snapshot a query runs against: the caller's pinned pair
    /// (fixed sample, learning skipped — a pinned read is a pure function
    /// of the snapshot) or the current one (rotation advances, learning
    /// on).
    fn pin(&self, opts: &QueryOptions) -> Result<(SessionSnapshot, usize, bool)> {
        match &opts.pinned_epoch {
            Some(snapshot) if *snapshot.table_name != *self.name => {
                Err(Error::Catalog(CatalogError::SnapshotTableMismatch {
                    snapshot: snapshot.table_name().to_owned(),
                    query: self.name.to_string(),
                }))
            }
            Some(snapshot) => Ok((snapshot.clone(), self.fixed_sample, false)),
            None => Ok((self.current(), self.pick_sample(), true)),
        }
    }

    /// The gate every query passes first: persistent tables surface store
    /// failures (a failed background log append, or a compaction that
    /// failed after an earlier query) here, *before* doing any work — a
    /// computed answer is never thrown away because persisting something
    /// else failed afterwards. Pinned reads are pure functions of their
    /// snapshot: they never touch the store, so they must neither surface
    /// nor *consume* a parked error (the writer path is promised to see
    /// it).
    pub(crate) fn begin_query(&self, opts: &QueryOptions) -> Result<()> {
        if opts.pinned_epoch.is_none() {
            self.surface_store_error()?;
        }
        self.obs.query_started();
        Ok(())
    }

    /// The front half every statement shares: the support check (§2.2,
    /// failing as [`Error::Unsupported`]), then the plan template,
    /// compiled against this table's schema (fixed at creation).
    pub(crate) fn compile(&self, query: &Query) -> Result<PreparedQuery> {
        if let SupportVerdict::Unsupported(reasons) = check_query(query, &JoinPolicy::none()) {
            return Err(Error::Unsupported(reasons));
        }
        Ok(prepare_query(query, &self.current().data.table)?)
    }

    /// Answers one parsed ad-hoc statement as the prepared statement with
    /// no placeholders it is; here an unsupported one is an outcome.
    pub(crate) fn ad_hoc(
        &self,
        query: &Query,
        sql: &str,
        opts: &QueryOptions,
        t0: Instant,
    ) -> Result<QueryOutcome> {
        self.begin_query(opts)?;
        match self.compile(query) {
            Ok(stmt) => self.answer(opts, sql, false, t0, &stmt, &[]),
            Err(Error::Unsupported(reasons)) => {
                self.obs.query_unsupported();
                Ok(QueryOutcome::Unsupported(reasons))
            }
            Err(e) => Err(e),
        }
    }

    /// The one post-gate run step of every statement (ad-hoc, prepared,
    /// the session facade): pin a snapshot pair, bind `params` into
    /// `stmt` against its sample, enumerate the groups present there,
    /// assemble the plan, answer every cell from one shared read, absorb
    /// what the read learned, trace. A `prepared` caller paid the SQL
    /// layer at prepare time; an ad-hoc one between `t0` and this call.
    pub(crate) fn answer(
        &self,
        opts: &QueryOptions,
        sql: &str,
        prepared: bool,
        t0: Instant,
        stmt: &PreparedQuery,
        params: &[Value],
    ) -> Result<QueryOutcome> {
        let tracing = self.obs.tracing();
        let parse_ns = if tracing && !prepared {
            t0.elapsed().as_nanos() as u64
        } else {
            0
        };
        let plan_sw = Stopwatch::started_if(tracing);
        let (snapshot, sample, learn) = self.pin(opts)?;
        let sample_data = &snapshot.data.samples[sample];
        // `table()` is the resident tail on a paged sample: binding and
        // planning need schema + dictionaries, and `<>` the codes the
        // partition summaries hold.
        let table = sample_data.table();
        let codes = |col: &str| sample_data.summary_code_bound(col);
        let base = stmt.bind_over(table, &codes, params)?;
        let group_keys = if stmt.group_cols().is_empty() {
            Vec::new()
        } else {
            sample_data.distinct_group_keys(&base, stmt.group_cols())?
        };
        let plan = stmt.plan_bound(base, table, &group_keys, snapshot.engine.config().nmax)?;
        let plan_ns = plan_sw.elapsed_ns();
        let mut scan = tracing.then(ScanTrace::default);
        let read = run_shared_read(
            sample_data,
            snapshot.engine.view(),
            &plan,
            opts.mode,
            opts.policy,
            snapshot.engine.epoch(),
            self.parallelism,
            scan.as_mut(),
        )?;
        if sample_data.is_paged() {
            self.obs.record_partition_cache(&read.cache);
        }
        let absorb_sw = Stopwatch::started_if(tracing);
        if learn {
            self.absorb_read(&read);
        }
        let absorb_ns = absorb_sw.elapsed_ns();
        let mut result = read.result;
        result.elapsed = t0.elapsed();
        if let Some(scan) = scan {
            self.obs.record_query(
                query_trace(
                    &self.name,
                    Some(sql),
                    prepared,
                    opts.mode,
                    snapshot.data_epoch(),
                    &result,
                    &scan,
                    StagePrelude {
                        parse_ns,
                        plan_ns,
                        absorb_ns,
                    },
                ),
                plan.groups_dropped,
            );
            self.refresh_engine_gauges(&snapshot);
        }
        Ok(QueryOutcome::Answered(result))
    }

    /// The learn path: one serialized absorb per query. Synopsis appends
    /// (and through the observer hook, WAL appends) happen in writer-lock
    /// order; the batch republishes once, paired with the current data
    /// set. No-op for reads that learned nothing (`Mode::NoLearn`).
    fn absorb_read(&self, read: &ReadOutcome) {
        if read.recorded.is_empty() && read.stats.is_zero() {
            return;
        }
        let mut writer = self.lock_writer();
        writer.learner.absorb(&read.recorded, read.stats);
        self.publish_locked(&writer, None);
        self.maybe_compact(&mut writer);
    }

    /// Applies a manual Lemma-3 adjustment to `key`'s synopsis and refits
    /// its model under the writer lock, republishes, then checkpoints:
    /// the rewrite has no WAL record, so only a fresh snapshot makes it
    /// durable. Returns the snippets adjusted.
    pub(crate) fn apply_append(
        &self,
        key: &AggKey,
        adjustment: &AppendAdjustment,
    ) -> Result<usize> {
        let mut writer = self.lock_writer();
        let adjusted = writer.learner.engine_mut().apply_append(key, adjustment);
        writer.learner.republish();
        self.publish_locked(&writer, None);
        self.maybe_compact(&mut writer);
        drop(writer);
        let adjusted = adjusted.map_err(Error::Core)?;
        self.checkpoint()?;
        Ok(adjusted)
    }

    /// Offline training pass (Algorithm 1) under the writer lock, then —
    /// for persistent shards — a checkpoint, so the (expensive) trained
    /// models are on disk and a restart warm-starts without refitting. A
    /// parked store error surfaces first: nothing is refit on a table
    /// whose store is known to be failing.
    pub(crate) fn train(&self) -> Result<()> {
        self.surface_store_error()?;
        let mut writer = self.lock_writer();
        let sw = Stopwatch::started_if(self.obs.tracing());
        let report = writer.learner.train().map_err(Error::Core)?;
        self.obs
            .record_train(Duration::from_nanos(sw.elapsed_ns()), &report);
        self.publish_locked(&writer, None);
        self.snapshot_now(&mut writer).map_err(Error::Store)?;
        Ok(())
    }

    /// Checkpoints the learned state into a fresh snapshot generation and
    /// truncates the log. Ingested rows are in their part files already,
    /// so this writes the snapshot file alone. All-zero report without a
    /// store.
    pub(crate) fn checkpoint(&self) -> Result<CheckpointReport> {
        self.surface_store_error()?;
        let mut writer = self.lock_writer();
        let receipt = self.snapshot_now(&mut writer).map_err(Error::Store)?;
        Ok(receipt
            .as_ref()
            .map(CheckpointReport::from_receipt)
            .unwrap_or_default())
    }

    /// The one store-snapshot path (explicit checkpoints and piggybacked
    /// compaction). Caller holds the writer lock, so neither the encoded
    /// state nor the current data set can move underneath the write.
    /// Metric recording lives here, so piggybacked compactions count the
    /// same way explicit checkpoints do.
    fn snapshot_now(
        &self,
        writer: &mut Writer,
    ) -> verdict_store::Result<Option<verdict_store::SnapshotReceipt>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let data = Arc::clone(&self.current().data);
        let engine = writer.learner.engine();
        let schema_fp = verdict_core::persist::fingerprint(engine.schema());
        let state_bytes = engine.state_bytes();
        // The base rows are durable in their part files already; the
        // snapshot takes the table's dictionaries (a paged table's is the
        // zero-row resolution table) and, out-of-core, the map and the
        // per-sample ingest tails, all a paged sample keeps resident.
        let paged = match &writer.layout {
            Layout::Paged(rt) => Some(PagedState {
                map: rt.map.read().map_err(poisoned_map)?.clone(),
                original_part_rows: rt.original_part_rows.clone(),
                total_rows: rt.total_rows,
                tails: data.samples.iter().map(Sample::table_arc).collect(),
            }),
            Layout::Resident { .. } => None,
        };
        let (receipt, stats) = {
            let mut guard = store.lock();
            let receipt = guard.snapshot(
                writer.meta.clone(),
                schema_fp,
                &state_bytes,
                &data.table,
                paged.as_ref(),
            )?;
            (receipt, guard.stats())
        };
        self.obs
            .record_checkpoint(&CheckpointReport::from_receipt(&receipt));
        self.obs.refresh_store(stats);
        Ok(Some(receipt))
    }

    /// Folds the log into a fresh snapshot when the store's compaction
    /// policy asks for it, so the log never grows without bound. Failures
    /// park in the store and surface at the next query/checkpoint — the
    /// answer that triggered the compaction is already computed and
    /// logged. Caller holds the writer lock.
    fn maybe_compact(&self, writer: &mut Writer) {
        let Some(store) = &self.store else {
            return;
        };
        if !store.lock().needs_compaction() {
            return;
        }
        if let Err(e) = self.snapshot_now(writer) {
            store.lock().park_error(e);
        }
    }

    /// Ingests a row batch into this shard's evolving table — the
    /// engine's fourth pipeline stage (read / learn / train / **ingest**)
    /// — serialized with its learn path (readers never block, other
    /// tables are not involved at all):
    ///
    /// 1. the batch is validated against the schema (atomically — a bad
    ///    row rejects the whole batch before anything mutates);
    /// 2. a Lemma-3 adjustment is estimated for every synopsis aggregate
    ///    (against the running moments of the fixed sample, which fold
    ///    only the rows it admitted since the last ingest) and the
    ///    engine-side rewrites and model refits — lengthscales kept — are
    ///    **staged**: fallible work, no mutation;
    /// 3. on persistent tables rows + adjustments are logged to the WAL
    ///    and the rows appended to the part files (fail-fast: a refused
    ///    append leaves memory and disk consistent; recovery replays
    ///    complete batches only);
    /// 4. the rows land, every maintained sample admits them at the
    ///    correct inclusion probability (deterministic per-row admission,
    ///    so recovery rebuilds the same sample), the staged rewrites
    ///    commit, and the grown data and widened state publish
    ///    **together** as the next snapshot pair.
    ///
    /// Resident and out-of-core tables differ only in how the rows land
    /// in memory: a resident table grows copy-on-write; an out-of-core
    /// table keeps just the dictionaries and each sample's ingest tail
    /// resident. On disk both write-extend their part files after the WAL
    /// record (crash replay re-appends a batch only to files that missed
    /// it): a resident table its one file, an out-of-core table the files
    /// of the partitions the batch touched.
    pub(crate) fn ingest(&self, rows: &[Vec<Value>]) -> Result<IngestReport> {
        self.surface_store_error()?;
        let t0 = Instant::now();
        let mut writer_guard = self.lock_writer();
        let writer = &mut *writer_guard;
        let snapshot = self.current();
        let old = &snapshot.data;
        if rows.is_empty() {
            return Ok(IngestReport {
                appended_rows: 0,
                admitted_rows: vec![0; self.num_samples],
                adjusted_keys: 0,
                adjusted_snippets: 0,
                skipped_keys: Vec::new(),
                data_epoch: snapshot.data_epoch(),
                elapsed: t0.elapsed(),
                shift_elapsed: Duration::ZERO,
                refit_elapsed: Duration::ZERO,
                wal_bytes: 0,
                widening_magnitude: 0.0,
            });
        }
        // WAL first: rows + adjustments, then the batch to the part
        // files `routed` sends each row to. Byte accounting is the store's
        // own cumulative counter (delta across the append) — no second
        // measurement.
        let log = |adjustments: &[(AggKey, AppendAdjustment)], batch: &Table, routed: &[u32]| {
            let Some(store) = &self.store else {
                return Ok(0);
            };
            let mut guard = store.lock();
            let before = guard.stats().wal_bytes;
            let seq = guard
                .append_ingest(rows, adjustments)
                .map_err(Error::Store)?;
            guard
                .append_parts(seq, batch, routed)
                .map_err(Error::Store)?;
            Ok::<_, Error>(guard.stats().wal_bytes - before)
        };
        // Build the next data set copy-on-write: the table clones once,
        // each sample's rows clone on its first admission.
        let mut table = (*old.table).clone();
        let mut samples = old.samples.clone();
        let sample = &old.samples[self.fixed_sample];
        let Writer {
            learner,
            meta,
            layout,
            moments,
        } = &mut *writer;
        // Materializing the batch as its own table validates every row
        // and gives the shift estimator columns to evaluate over. An
        // out-of-core batch is coded against the resolution table so the
        // rows written to partition files carry globally valid codes.
        let mut prepare = |mut batch: Table, first: usize, map: Option<&PartitionMap>| {
            batch.push_rows(rows).map_err(Error::Storage)?;
            let prepared = prepare_ingest(learner.engine(), sample, moments, &batch, first, map)?;
            Ok::<_, Error>((batch, prepared))
        };
        // Stage, log, then land the rows. What the samples admit from is
        // the grown table — or, out-of-core (no resident base rows), the
        // batch.
        let (first, prepared, wal_bytes, paged_batch) = match layout {
            Layout::Resident { partitions } => {
                let first = old.table.num_rows();
                let empty = Table::new(old.table.schema().clone());
                let (_, prepared) = prepare(empty, first, partitions.as_ref())?;
                // The unpublished table takes the rows first: its tail is
                // the batch coded against its dictionaries, which a
                // persisted table appends to its one part file.
                table.push_rows(rows).map_err(Error::Storage)?;
                let tail = row_ids(first..table.num_rows()).map_err(Error::Storage)?;
                let batch = table.gather(&tail).map_err(Error::Storage)?;
                let wal_bytes = log(&prepared.adjustments, &batch, &vec![0; rows.len()])?;
                // Route the appended rows into the partition map so the
                // next ingest's bounds see this batch's contribution (a
                // batch may split across several partitions; only those
                // summaries extend).
                if let Some(map) = partitions {
                    map.extend(&table).map_err(Error::Storage)?;
                }
                (first, prepared, wal_bytes, None)
            }
            Layout::Paged(rt) => {
                let first = rt.total_rows as usize;
                let map = rt.map.read().map_err(poisoned_map)?;
                let (batch, prepared) = prepare((*old.table).clone(), first, Some(&map))?;
                let routed = map
                    .route(&batch, 0..batch.num_rows())
                    .map_err(Error::Storage)?;
                drop(map);
                let wal_bytes = log(&prepared.adjustments, &batch, &routed)?;
                rt.map
                    .write()
                    .map_err(poisoned_map)?
                    .extend_batch(&batch)
                    .map_err(Error::Storage)?;
                table
                    .sync_dictionaries_from(&batch)
                    .map_err(Error::Storage)?;
                rt.total_rows += rows.len() as u64;
                (first, prepared, wal_bytes, Some(batch))
            }
        };
        let landed = paged_batch.as_ref().unwrap_or(&table);
        let (first, seed) = (first as u64, meta.seed);
        let admitted_rows = samples
            .iter_mut()
            .enumerate()
            .map(|(i, s)| s.absorb_appended(landed, first, seed, i as u64))
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(Error::Aqp)?;
        let adjusted_snippets = learner.engine_mut().commit_ingest(prepared.staged);
        learner.republish();
        let data = Arc::new(DataSet {
            data_epoch: old.data_epoch + 1,
            table: Arc::new(table),
            samples,
        });
        let data_epoch = data.data_epoch;
        self.publish_locked(writer, Some(data));
        self.maybe_compact(writer);
        let report = IngestReport {
            appended_rows: rows.len(),
            admitted_rows,
            adjusted_keys: prepared.adjustments.len(),
            adjusted_snippets,
            skipped_keys: prepared.skipped_keys,
            data_epoch,
            elapsed: t0.elapsed(),
            shift_elapsed: prepared.shift_elapsed,
            refit_elapsed: prepared.refit_elapsed,
            wal_bytes,
            widening_magnitude: widening_magnitude(&prepared.adjustments),
        };
        self.obs.record_ingest(&report);
        drop(writer_guard);
        self.refresh_engine_gauges(&self.current());
        Ok(report)
    }

    /// Exact (ground-truth) answer for an aggregate over the *base*
    /// table. An out-of-core table streams every partition file back in
    /// (an experiment convenience, deliberately not budget-bounded —
    /// ground truth needs the whole relation).
    pub(crate) fn exact(&self, agg: &AggregateFn, predicate: &Predicate) -> Result<f64> {
        let writer = self.lock_writer();
        let data = self.current().data;
        let table = &data.table;
        let (Layout::Paged(rt), Some(store)) = (&writer.layout, &self.store) else {
            return agg.eval_exact(table, predicate).map_err(Error::Storage);
        };
        let dir = store.lock().dir().to_path_buf();
        let mut full = (**table).clone();
        // Poison is absorbed: summaries and row counts only ever grow, so
        // a map a panicking ingest left half-extended still names rows
        // every partition file holds.
        let map = rt.map.read().unwrap_or_else(PoisonError::into_inner);
        for p in 0..map.num_partitions() {
            let rows = map.part(p).rows() as usize;
            if rows == 0 {
                continue;
            }
            let frag = read_part_rows(&dir, p as u32, table, rows).map_err(Error::Store)?;
            full.append(&frag).map_err(Error::Storage)?;
        }
        agg.eval_exact(&full, predicate).map_err(Error::Storage)
    }

    /// Re-publishes the engine-state gauges from a published snapshot.
    /// No-op without a metrics hub.
    fn refresh_engine_gauges(&self, snapshot: &SessionSnapshot) {
        self.obs.refresh_engine(
            snapshot.engine.synopsis_total_snippets(),
            snapshot.engine.synopsis_num_keys(),
            // `len()`, not `table().num_rows()`: a paged sample keeps only
            // its admitted tail resident.
            snapshot.data.samples[self.fixed_sample].len(),
            snapshot.engine.epoch(),
            snapshot.data.data_epoch,
        );
    }
}

/// The write paths' refusal of a poisoned partition map. Only an ingest
/// writes the map, so poison means one panicked mid-extension and may
/// have left the map half-extended; checkpointing or extending it could
/// persist a map no WAL replay reproduces. Reopening the table rebuilds
/// it from the store. Readers (queries, `exact()`) absorb the poison.
fn poisoned_map<T>(_: PoisonError<T>) -> StoreError {
    StoreError::Corrupt(
        "partition map poisoned by a panicked ingest; reopen the table to rebuild it".into(),
    )
}

/// `memory_budget` bounds the partition cache; a table without one has
/// nothing for it to bound, and silently ignoring the knob would let a
/// caller believe memory is capped.
pub(crate) fn memory_budget_misuse() -> Error {
    Error::Aqp(AqpError::InvalidConfig(
        "memory_budget only applies to out-of-core sessions \
         (partition_by + persist_to, or open() of a paged store)"
            .into(),
    ))
}

struct DbInner {
    shards: Vec<Arc<Shard>>,
    /// Registration-order names, the catalog `FROM` resolves against.
    names: Vec<String>,
    /// Compatibility fallback: resolve unknown `FROM` names to this shard
    /// (set for a session's single-table store, never by the builder).
    default_table: Option<usize>,
    /// Root directory of a persistent database — a catalog, or a
    /// session's single-table store — if any.
    root: Option<PathBuf>,
    /// The attached metrics hub, if any (every shard registered on it).
    metrics: Option<Arc<MetricsHub>>,
    /// The database-wide query log, if any (shared by every shard).
    query_log: Option<Arc<QueryLog>>,
}

/// A multi-table database handle: the catalog of learned tables.
///
/// `Send + Sync + Clone` — clone it into as many threads as you like; all
/// clones share the per-table shards. See the [module docs](self) for the
/// architecture.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.inner.names)
            .field("persistent", &self.is_persistent())
            .finish()
    }
}

/// How one table is drawn: sampling geometry, engine config, partitioning.
/// Defaults match [`crate::SessionBuilder`]'s.
///
/// One home per knob: a knob lives here when it describes how a table is
/// drawn (the store persists all of these), and in [`OpenOptions`] when a
/// process chooses it at each open.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Sampling fraction for each offline uniform sample (default 10%).
    pub sample_fraction: f64,
    /// Batch size in sample rows (default 1000).
    pub batch_size: usize,
    /// RNG seed for sample drawing.
    pub seed: u64,
    /// Number of independent offline samples (default 1).
    pub num_samples: usize,
    /// Inference-engine configuration.
    pub config: VerdictConfig,
    /// Horizontal partitioning of every maintained sample (default none;
    /// see [`crate::SessionBuilder::partition_by`]). With
    /// [`DatabaseBuilder::persist_to`] the table is **out-of-core**,
    /// demand-paged under [`DatabaseBuilder::memory_budget`].
    pub partition: Option<PartitionSpec>,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            sample_fraction: 0.1,
            batch_size: 1000,
            seed: 0,
            num_samples: 1,
            config: VerdictConfig::default(),
            partition: None,
        }
    }
}

/// How a process serves its tables, chosen at each open: exactly the
/// configuration the store does *not* persist. Sample identity (seed,
/// fraction, batch size, sample count) and the engine config always come
/// from the persisted metadata ([`TableOptions`] at creation). The
/// builders carry their serving knobs in one of these too, so every
/// construction path reads them from the same place.
///
/// Non-exhaustive — construct with [`OpenOptions::new`] and refine with
/// the `with_*` methods.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct OpenOptions {
    /// Compaction/durability policy for the per-table stores.
    pub store_policy: StorePolicy,
    /// Sample rotation, applied to every table (default fixed).
    pub rotation: SampleRotation,
    /// Metrics hub for every table's series (default none — metrics
    /// fully disabled).
    pub metrics: Option<Arc<MetricsHub>>,
    /// Shared query log for every table (default none).
    pub query_log: Option<Arc<QueryLog>>,
    /// Pinned threads per shared scan, also capping inference's (default
    /// `None`: each query runs on one thread per `2¹⁷` sample rows it can
    /// reach, up to the host's cores — see
    /// [`DatabaseBuilder::parallelism`]).
    pub parallelism: Option<usize>,
    /// Partition-cache byte budget for out-of-core (paged) tables
    /// (default: effectively unbounded). Ignored for resident tables.
    pub memory_budget: Option<u64>,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            store_policy: StorePolicy::default(),
            rotation: SampleRotation::Fixed,
            metrics: None,
            query_log: None,
            parallelism: None,
            memory_budget: None,
        }
    }
}

impl OpenOptions {
    /// The defaults (see field docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-table stores' compaction/durability policy.
    pub fn with_store_policy(mut self, p: StorePolicy) -> Self {
        self.store_policy = p;
        self
    }

    /// Sets every table's sample rotation.
    pub fn with_rotation(mut self, r: SampleRotation) -> Self {
        self.rotation = r;
        self
    }

    /// Attaches a metrics hub (see [`DatabaseBuilder::metrics`]).
    pub fn with_metrics(mut self, hub: Arc<MetricsHub>) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// Attaches a bounded query log (see [`DatabaseBuilder::query_log`]).
    pub fn with_query_log(mut self, capacity: usize) -> Self {
        self.query_log = Some(Arc::new(QueryLog::new(capacity)));
        self
    }

    /// Pins the thread count of every table's shared scans (see
    /// [`DatabaseBuilder::parallelism`]).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = Some(n.max(1));
        self
    }

    /// Bounds the partition cache of reopened out-of-core tables to
    /// `bytes` (see [`crate::SessionBuilder::memory_budget`]). Answers
    /// never change with the budget — only how often segments fault in.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }
}

/// Builder for a [`Database`]. Tables are registered up front; the
/// catalog is fixed for the database's lifetime.
pub struct DatabaseBuilder {
    tables: Vec<(String, Table, TableOptions)>,
    persist: Option<PathBuf>,
    /// Database-wide serving knobs; its rotation stays at the default
    /// (fixed), since the builder has no setter for it.
    serve: OpenOptions,
}

impl DatabaseBuilder {
    /// Registers a table under `name` with default [`TableOptions`].
    pub fn register_table(self, name: &str, table: Table) -> Self {
        self.register_table_with(name, table, TableOptions::default())
    }

    /// Registers a table under `name` with explicit options.
    pub fn register_table_with(mut self, name: &str, table: Table, opts: TableOptions) -> Self {
        self.tables.push((name.to_owned(), table, opts));
        self
    }

    /// Persists the whole catalog under `dir`: a `CATALOG` manifest plus
    /// one per-table store in `tables/<name>/`. Fails at build time if a
    /// database (or a session's single-table store) already exists there —
    /// reopen with [`Database::open`].
    pub fn persist_to(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist = Some(dir.into());
        self
    }

    /// Overrides the per-table stores' compaction/durability policy.
    pub fn store_policy(mut self, policy: StorePolicy) -> Self {
        self.serve.store_policy = policy;
        self
    }

    /// Attaches a metrics hub: every table registers its series
    /// (labelled `table="<name>"`) on it at build time and updates them
    /// lock-free from then on. Without a hub (the default) the metrics
    /// path is a true no-op — no atomics touched, no stage clocks read.
    pub fn metrics(mut self, hub: Arc<MetricsHub>) -> Self {
        self.serve.metrics = Some(hub);
        self
    }

    /// Attaches one database-wide bounded query log: every answered
    /// query (any table, ad-hoc or prepared) pushes a
    /// [`verdict_obs::QueryTrace`] into a ring holding the most recent
    /// `capacity` traces. Off by default.
    pub fn query_log(mut self, capacity: usize) -> Self {
        self.serve.query_log = Some(Arc::new(QueryLog::new(capacity)));
        self
    }

    /// Byte budget for the partition cache of out-of-core tables (see
    /// [`crate::SessionBuilder::memory_budget`]); `build()` refuses it
    /// when a registered table is resident.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.serve.memory_budget = Some(bytes);
        self
    }

    /// Pins the threads every table's shared scans run on (clamped to at
    /// least 1). Unset, each query picks its own: one thread per `2¹⁷`
    /// sample rows its stop policy lets it reach, up to the host's cores,
    /// so a small sample is scanned on the calling thread alone. The pin
    /// also caps a query's inference passes over model factors, which
    /// otherwise take one thread per `2⁹` snippets of the model, up to the
    /// cores; `parallelism(1)` keeps them on the calling thread too.
    /// Thread count never changes answers: partials merge in batch-index
    /// order and every element of a pass is the serial chain, so results
    /// are bit-identical to a serial run.
    pub fn parallelism(mut self, n: usize) -> Self {
        self.serve.parallelism = Some(n.max(1));
        self
    }

    /// Builds the database: validates the catalog, draws every table's
    /// samples, and (with persistence) writes the manifest and creates the
    /// per-table stores.
    pub fn build(self) -> Result<Database> {
        if self.tables.is_empty() {
            return Err(Error::Catalog(CatalogError::NoTables));
        }
        let mut seen: HashSet<String> = HashSet::new();
        for (name, _, _) in &self.tables {
            if !is_valid_table_name(name) {
                return Err(Error::Catalog(CatalogError::InvalidTableName(name.clone())));
            }
            if !seen.insert(name.to_ascii_lowercase()) {
                return Err(Error::Catalog(CatalogError::DuplicateTable(name.clone())));
            }
        }
        let names: Vec<String> = self.tables.iter().map(|(n, _, _)| n.clone()).collect();

        if let Some(root) = &self.persist {
            if catalog_exists(root) || SynopsisStore::exists(root) {
                return Err(Error::Store(verdict_store::StoreError::Mismatch(format!(
                    "a database or store already exists in {}; open it instead",
                    root.display()
                ))));
            }
        }

        let mut shards = Vec::with_capacity(self.tables.len());
        // The table stores this call creates. A failure part-way removes
        // exactly these, so the same directory can be built again.
        let mut created = Vec::new();
        let mut built = Ok(());
        for (name, table, opts) in self.tables {
            let store_dir = self.persist.as_ref().map(|root| table_dir(root, &name));
            if let Some(dir) = store_dir.as_ref().filter(|dir| !dir.exists()) {
                created.push(dir.clone());
            }
            match Shard::create(&name, table, &opts, store_dir, &self.serve) {
                Ok(shard) => shards.push(Arc::new(shard)),
                Err(e) => {
                    built = Err(e);
                    break;
                }
            }
        }
        // The manifest is written *last*: it is the commit point of the
        // build. A crash while the per-table stores were being created
        // leaves no CATALOG, so `open` cannot pick up a half-built
        // catalog (it reports "no snapshot" / not-found instead of a
        // missing-table surprise).
        if let (true, Some(root)) = (built.is_ok(), &self.persist) {
            built = write_catalog(
                root,
                &CatalogManifest {
                    tables: names.clone(),
                },
            )
            .map_err(Error::Store);
        }
        if let Err(e) = built {
            drop(shards);
            for dir in &created {
                let _ = std::fs::remove_dir_all(dir);
            }
            return Err(e);
        }
        Ok(Database {
            inner: Arc::new(DbInner {
                shards,
                names,
                default_table: None,
                root: self.persist,
                metrics: self.serve.metrics,
                query_log: self.serve.query_log,
            }),
        })
    }
}

impl Database {
    /// Starts an empty catalog builder.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder {
            tables: Vec::new(),
            persist: None,
            serve: OpenOptions::new(),
        }
    }

    /// Warm-starts a database from a directory previously created with
    /// [`DatabaseBuilder::persist_to`] — every table's samples are
    /// redrawn bit-identically and its learned state recovered (newest
    /// valid snapshot + WAL replay, per table). Equivalent to
    /// [`Database::open_with`] with default [`OpenOptions`].
    ///
    /// The flat single-table directory that
    /// [`crate::SessionBuilder::persist_to`] creates also opens: its table
    /// is named `"t"` and any `FROM` name resolves to it, as in the
    /// session.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(dir, OpenOptions::new())
    }

    /// [`Database::open`] with explicit [`OpenOptions`] — the knobs the
    /// store does **not** persist (store policy, sample rotation, …) and
    /// would otherwise reopen at their defaults. Everything sample-identity-affecting (seed,
    /// fraction, batch size, sample count, engine config) comes from the
    /// persisted metadata and cannot be overridden, exactly like the
    /// session API's warm start.
    pub fn open_with(dir: impl AsRef<Path>, opts: OpenOptions) -> Result<Database> {
        let root = dir.as_ref();
        let open = |dir: PathBuf, name: &str| -> Result<Arc<Shard>> {
            let (store, recovered) =
                SynopsisStore::open(dir, opts.store_policy.clone()).map_err(Error::Store)?;
            Ok(Arc::new(Shard::recover(name, store, recovered, &opts)?))
        };
        let (shards, names, default_table) = if catalog_exists(root) {
            let names = read_catalog(root).map_err(Error::Store)?.tables;
            let shards = names
                .iter()
                .map(|name| open(table_dir(root, name), name))
                .collect::<Result<Vec<_>>>()?;
            (shards, names, None)
        } else {
            // A session's single-table layout: the store files live at
            // the root itself and carry no table name.
            let shard = open(root.to_path_buf(), "t")?;
            (vec![shard], vec!["t".to_owned()], Some(0))
        };
        Ok(Database {
            inner: Arc::new(DbInner {
                shards,
                names,
                default_table,
                root: Some(root.to_path_buf()),
                metrics: opts.metrics,
                query_log: opts.query_log,
            }),
        })
    }

    /// Wraps one live shard (a promoted session) as a single-table
    /// database whose `FROM` resolves strictly against the shard's name.
    pub(crate) fn from_shard(shard: Shard) -> Database {
        Database {
            inner: Arc::new(DbInner {
                names: vec![shard.name.to_string()],
                default_table: None,
                root: None,
                metrics: shard.obs.hub().cloned(),
                query_log: shard.obs.log().cloned(),
                shards: vec![Arc::new(shard)],
            }),
        }
    }

    /// The registered table names, in registration order.
    pub fn table_names(&self) -> &[String] {
        &self.inner.names
    }

    /// The schema of `name`'s current base table: column names, physical
    /// types, and dimension/measure roles — everything a serving layer's
    /// `hello` handshake needs to advertise the catalog without reaching
    /// into catalog internals.
    ///
    /// ```
    /// use verdict::storage::{AttributeRole, ColumnDef, Schema, Table};
    /// use verdict::Database;
    ///
    /// let schema = Schema::new(vec![
    ///     ColumnDef::numeric_dimension("x"),
    ///     ColumnDef::measure("v"),
    /// ])
    /// .unwrap();
    /// let mut t = Table::new(schema);
    /// for i in 0..32 {
    ///     t.push_row(vec![(i as f64).into(), (2.0 * i as f64).into()])
    ///         .unwrap();
    /// }
    /// let db = Database::builder().register_table("t", t).build().unwrap();
    ///
    /// let schema = db.table_schema("t").unwrap();
    /// let names: Vec<&str> =
    ///     schema.columns().iter().map(|c| c.name.as_str()).collect();
    /// assert_eq!(names, ["x", "v"]);
    /// assert_eq!(schema.column("v").unwrap().role, AttributeRole::Measure);
    /// assert!(db.table_schema("nope").is_err());
    /// ```
    pub fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.shard(name)?.current().table().schema().clone())
    }

    /// The root directory of a persistent database.
    pub fn root_dir(&self) -> Option<&Path> {
        self.inner.root.as_deref()
    }

    /// Whether this database writes to durable stores.
    pub fn is_persistent(&self) -> bool {
        self.inner.shards.iter().any(|s| s.store.is_some())
    }

    /// Resolves a table name against the catalog.
    pub(crate) fn shard(&self, name: &str) -> Result<&Arc<Shard>> {
        let index =
            resolve_from(name, &self.inner.names, self.inner.default_table).map_err(Error::Sql)?;
        Ok(&self.inner.shards[index])
    }

    /// The current base table of `name` (newest published data epoch).
    /// Cheap: clones an `Arc`, not the rows.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(Arc::clone(&self.shard(name)?.current().data.table))
    }

    /// The current published snapshot pair of `name` — pin it via
    /// [`QueryOptions::pinned`] to run a batch of queries against one
    /// epoch.
    pub fn snapshot(&self, name: &str) -> Result<SessionSnapshot> {
        Ok(self.shard(name)?.current())
    }

    /// The learned-state epoch of `name`'s current snapshot. Monotone.
    pub fn epoch(&self, name: &str) -> Result<u64> {
        Ok(self.shard(name)?.current().epoch())
    }

    /// The data epoch of `name`'s current snapshot: how many ingested
    /// batches its visible table has absorbed. Monotone.
    pub fn data_epoch(&self, name: &str) -> Result<u64> {
        Ok(self.shard(name)?.current().data_epoch())
    }

    /// The model epoch of `name`'s current snapshot (see
    /// [`SessionSnapshot::model_epoch`]): moves only when training,
    /// ingest, or a state restore changes what queries answer — the
    /// validity token a serving-layer answer cache pairs with
    /// [`Database::data_epoch`]. Monotone.
    pub fn model_epoch(&self, name: &str) -> Result<u64> {
        Ok(self.shard(name)?.current().model_epoch())
    }

    /// The metrics hub this database registers its series on (set via
    /// [`DatabaseBuilder::metrics`] / [`OpenOptions::with_metrics`]), so a
    /// layer above — e.g. a network server — can publish its own series
    /// next to the engine's in one snapshot. `None` when metrics are off.
    pub fn metrics_hub(&self) -> Option<&Arc<MetricsHub>> {
        self.inner.metrics.as_ref()
    }

    /// The recovery report of `name`, when it was warm-started.
    pub fn recovery_report(&self, name: &str) -> Result<Option<&RecoveryReport>> {
        Ok(self.shard(name)?.recovery.as_ref())
    }

    /// Whether `key`'s table currently publishes a trained model for it.
    pub fn has_model(&self, key: &QualifiedAggKey) -> Result<bool> {
        Ok(self.shard(&key.table)?.current().has_model(&key.key))
    }

    /// Snippets `key`'s table currently retains for it.
    pub fn synopsis_len(&self, key: &QualifiedAggKey) -> Result<usize> {
        Ok(self.shard(&key.table)?.current().synopsis_len(&key.key))
    }

    /// Every aggregate the database has learned anything about, qualified
    /// by table (deterministic order: tables in registration order, keys
    /// sorted within a table).
    pub fn learned_keys(&self) -> Vec<QualifiedAggKey> {
        let mut out = Vec::new();
        for (name, shard) in self.inner.names.iter().zip(&self.inner.shards) {
            let snapshot = shard.current();
            for key in snapshot.engine.synopsis_keys() {
                out.push(key.qualify(name));
            }
        }
        out
    }

    /// Answers an ad-hoc SQL query under `opts`: [`Database::prepare`] +
    /// `bind(&[])` + `run` in one call, except that a statement outside
    /// the supported class is a [`QueryOutcome::Unsupported`], not an
    /// error. Safe from any number of threads; learning serializes only
    /// within the addressed table.
    pub fn query(&self, sql: &str, opts: &QueryOptions) -> Result<QueryOutcome> {
        let t0 = Instant::now();
        let query = parse_query(sql)?;
        self.shard(&query.from)?.ad_hoc(&query, sql, opts, t0)
    }

    /// Prepares a statement: parse → resolve `FROM` → check → compile the
    /// plan template, **once**. The returned handle executes repeatedly
    /// with only literal re-binding — see [`Prepared`].
    ///
    /// Unsupported statements fail here (they cannot be served), as do
    /// placeholders outside predicate-literal positions.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let query = parse_query(sql)?;
        let shard = self.shard(&query.from)?;
        let inner = shard.compile(&query)?;
        Ok(Prepared::new(Arc::clone(shard), inner, sql.to_owned()))
    }

    /// Ingests a row batch into `name`'s evolving table. Serialized with
    /// that table's learn path only — queries on other tables are
    /// completely unaffected.
    pub fn ingest(&self, name: &str, rows: &[Vec<Value>]) -> Result<IngestReport> {
        self.shard(name)?.ingest(rows)
    }

    /// Offline training pass (Algorithm 1) for `name`, checkpointed when
    /// persistent.
    pub fn train(&self, name: &str) -> Result<()> {
        self.shard(name)?.train()
    }

    /// Trains every table in the catalog.
    pub fn train_all(&self) -> Result<()> {
        for shard in &self.inner.shards {
            shard.train()?;
        }
        Ok(())
    }

    /// Checkpoints `name`'s learned state into a fresh store snapshot,
    /// reporting how much work the store actually did (zero for an
    /// in-memory table).
    pub fn checkpoint_table(&self, name: &str) -> Result<CheckpointReport> {
        self.shard(name)?.checkpoint()
    }

    /// Checkpoints every table; the report aggregates over all of them.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let mut report = CheckpointReport::default();
        for shard in &self.inner.shards {
            report.absorb(&shard.checkpoint()?);
        }
        Ok(report)
    }

    /// A point-in-time snapshot of every registered metric, or `None`
    /// when the database was built without a
    /// [`DatabaseBuilder::metrics`] hub. Render it with
    /// [`verdict_obs::MetricsSnapshot::to_text`] (Prometheus-style) or
    /// [`verdict_obs::MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.metrics.as_ref().map(|hub| hub.snapshot())
    }

    /// The shared bounded query log, when one was configured via
    /// [`DatabaseBuilder::query_log`]. All tables feed the same ring.
    pub fn query_log(&self) -> Option<&Arc<QueryLog>> {
        self.inner.query_log.as_ref()
    }

    /// The most recent `n` query traces, newest first (empty without a
    /// configured query log).
    pub fn recent_queries(&self, n: usize) -> Vec<Arc<QueryTrace>> {
        self.inner
            .query_log
            .as_ref()
            .map(|log| log.recent(n))
            .unwrap_or_default()
    }
}

// Compile-time proof of the headline property: a database handle crosses
// threads, and so does a pinned snapshot pair.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<SessionSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_storage::ColumnDef;

    /// A panicking ingest poisons a paged table's partition map. The
    /// write paths that persist or extend the map refuse with a typed
    /// error; queries and `exact()` keep answering; nothing panics.
    #[test]
    fn poisoned_partition_map_fails_writes_not_reads() {
        let dir = std::env::temp_dir().join(format!("verdict-poisoned-map-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for i in 0..4_000 {
            let week = (i % 100) as f64;
            table
                .push_row(vec![week.into(), (week * 2.0).into()])
                .unwrap();
        }
        let opts = TableOptions {
            partition: Some(PartitionSpec::range("week", vec![25.0, 50.0, 75.0])),
            ..TableOptions::default()
        };
        let db = Database::builder()
            .register_table_with("t", table, opts)
            .persist_to(&dir)
            .build()
            .unwrap();
        let map = match &db.inner.shards[0].lock_writer().layout {
            Layout::Paged(rt) => Arc::clone(&rt.map),
            Layout::Resident { .. } => panic!("a partitioned persistent table is paged"),
        };
        let poisoner = std::thread::spawn(move || {
            let _guard = map.write().unwrap();
            panic!("ingest panicked while extending the partition map");
        });
        assert!(poisoner.join().is_err());

        let row = vec![Value::from(10.0), Value::from(20.0)];
        assert!(matches!(db.ingest("t", &[row]), Err(Error::Store(_))));
        assert!(matches!(db.checkpoint(), Err(Error::Store(_))));
        let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 10 AND 30";
        assert!(db.query(sql, &QueryOptions::new()).unwrap().is_answered());
        let exact = db.inner.shards[0]
            .exact(
                &AggregateFn::Avg(verdict_storage::Expr::col("rev")),
                &Predicate::True,
            )
            .unwrap();
        assert_eq!(exact, 99.0);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
