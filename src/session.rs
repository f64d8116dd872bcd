//! The single-table facade, the query result types, and the executor
//! core: SQL in, improved answers out.
//!
//! ## One engine
//!
//! Every pipeline stage — query, ingest, train, checkpoint — is
//! implemented once, on the per-table shard of [`crate::database`]. A
//! [`VerdictSession`] is a **facade over one shard**: it owns no engine
//! state of its own, and each of its methods calls the shard method of
//! the same name ([`SessionBuilder::build`] lowers into the same create
//! and recover paths [`crate::DatabaseBuilder`] and
//! [`crate::Database::open`] use). What the facade adds is the
//! single-owner convenience of the original session API: positional
//! `Mode`/`StopPolicy` arguments, `FROM` ignored (there is only one
//! table), manual sample selection, and `&mut self` receivers that make
//! "one caller at a time" a compile-time fact. To share the table across
//! threads, pin snapshots, or prepare statements, promote it with
//! [`VerdictSession::into_database`].
//!
//! Because the facade runs the shard's code, it inherits the shard's
//! ordering where the old serial implementation had drifted:
//! [`VerdictSession::train`] surfaces a parked store error *before*
//! refitting (a failing store never costs a refit whose checkpoint
//! cannot land); `verdict_queries_started` counts a query after it
//! parsed, so a statement that fails to parse never "started"; and
//! [`VerdictSession::ingest`] estimates its Lemma-3 shift on the shard's
//! *fixed* sample — the one [`VerdictSession::set_active_sample`]
//! selects — even while round-robin rotation moves the scanned sample.
//!
//! ## The query dataflow
//!
//! [`VerdictSession::execute`] (like [`crate::Database::query`])
//! implements the paper's runtime dataflow (Figure 2 / Algorithm 2) as a
//! **shared scan**: every snippet of a query is answered from the *same*
//! single pass over the sample. The dataflow is
//! `ScanPlan → SharedScanDriver → priors + combine`:
//!
//! 1. parse and type-check the query (§2.2), then compile it into a plan
//!    template ([`verdict_sql::prepare_query`]) — the one statement path:
//!    an ad-hoc query is a prepared statement with no placeholders, and
//!    a [`crate::Prepared`] handle is this step done once and kept;
//! 2. bind the template's literals against the sample's dictionaries
//!    and enumerate the groups present in the sample's answer set
//!    ([`verdict_aqp::Sample::distinct_group_keys`], §2.3: the AQP
//!    engine's result set determines the groups). The pass runs on the
//!    scan's chunk kernels — zone-map skipping, selection bitmaps, keys
//!    read from set bits — and, when every group column is categorical,
//!    ends as soon as zone maps and partition summaries prove that no
//!    unseen key is left, pinning no segment of a paged sample it does
//!    not need; the key list (hence cell order and the `N_max` cut) is
//!    the row-by-row one in every case. Then assemble
//!    the scan plan ([`verdict_sql::ScanPlan`]): the decomposition of
//!    Figure 3 with its primitive streams deduplicated — `SUM` and
//!    `COUNT` share one `FREQ(*)` stream, `SUM` and `AVG` share one
//!    `AVG(e)` stream — and groups capped at `N_max`;
//! 3. drive one batch cursor over the sample
//!    ([`verdict_aqp::SharedScanDriver`] — the same driver whether the
//!    sample is resident or out-of-core; it pins a partition segment per
//!    batch when the rows are not resident): each batch evaluates the base
//!    predicate as a selection bitmap, routes every matching row to its
//!    group's accumulators, and refines all `groups × aggregates` cells at
//!    once — scan work is independent of the number of cells, where
//!    answering each snippet on its own would rescan the sample
//!    `O(G × A)` times;
//! 4. after each batch, improve the live cells' raw answers with the
//!    learned models and *freeze* each cell as soon as it meets the
//!    [`StopPolicy`]; the scan stops when every cell is frozen (this is
//!    where Verdict's speedup comes from: the target error is reached
//!    after fewer batches). Inference is split so that this costs O(1)
//!    per batch: the model-only priors of Eq. 11 — all the O(n²) work —
//!    are computed once per query, at the first evaluation
//!    ([`verdict_core::EngineView::priors`]: one pass over each model's
//!    Cholesky factor per ≤ 8 groups), and every evaluation only combines them
//!    with the current raw answers
//!    ([`verdict_core::EngineView::improve_from_prior`], Eq. 12);
//! 5. record the frozen raw answers into the query synopsis, in the same
//!    per-snippet order the paper's Algorithm 2 produces.
//!
//! `Mode::NoLearn` bypasses step 4's inference, giving the paper's
//! baseline within the identical pipeline. This is the only executor: the
//! snippet is the unit of *learning* (region, model key, synopsis record),
//! not of execution. What each cell must equal is pinned from outside by
//! two oracles that live in `verdict-aqp` and are reachable from no
//! builder or option — [`verdict_aqp::BatchEstimator`] (one snippet's
//! estimator over the cell's batch prefix) and the row-wise kernel
//! ([`verdict_aqp::SharedScanDriver::set_kernel`] on a hand-held driver)
//! — which `tests/parity.rs` and `tests/scan_parity.rs` hold `execute`
//! against, primitive for primitive and bit for bit.
//!
//! ## Read path vs. learn path
//!
//! The pipeline above is split into a pure **read path** and a serialized
//! **learn path**. The read path (`run_shared_read`, in this module)
//! answers every cell from immutable state — a published snapshot's
//! sample with a per-query scan cursor, plus a
//! [`verdict_core::EngineView`] of its learned state — and *returns* what
//! the query learned (raw snippet observations for the synopsis,
//! inference counters) instead of writing it anywhere. The learn path
//! absorbs those observations under the shard's writer lock: synopsis
//! append, WAL append on persistent tables, epoch bump, republish.
//!
//! ## The ingest path (evolving tables)
//!
//! Alongside read / learn / train sits the engine's fourth pipeline
//! stage: [`VerdictSession::ingest`] appends a row batch to the base
//! table, admits it into every maintained sample at the correct
//! inclusion probability, WAL-logs rows + adjustments on persistent
//! sessions, and widens every stored snippet per Appendix D's Lemma 3 so
//! old answers stay usable with honest error bounds until the next
//! retrain (`cargo run --release --example ingest`). This module holds
//! the fallible preparation the shard runs before anything mutates
//! (`prepare_ingest`).

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use verdict_aqp::{
    parallel_scan, AqpError, Horizon, PagedRep, Sample, ScanSpec, SegmentLoader, SharedScanDriver,
};
use verdict_core::append::AppendAdjustment;
use verdict_core::inference::CellPrior;
use verdict_core::{
    AggKey, EngineStats, EngineView, ImprovedAnswer, IngestBounds, Observation, Region,
    ShiftMoments, Snippet, Verdict, VerdictConfig,
};
use verdict_obs::{
    MetricsHub, MetricsSnapshot, QueryLog, QueryTrace, ScanTrace, StageTimings, Stopwatch,
};
use verdict_sql::{parse_query, Combiner, ScanPlan, UnsupportedReason};
use verdict_storage::{
    AggregateFn, CacheCounters, Expr, GroupKey, PartitionMap, PartitionSpec, PartitionStore,
    Predicate, StorageError, Table, Value,
};
use verdict_store::{
    read_part_rows, Recovered, RecoveryReport, SessionMeta, StoreError, StorePolicy, SynopsisStore,
};

use crate::database::{memory_budget_misuse, Database, SessionSnapshot, Shard};
use crate::metrics::CheckpointReport;
use crate::query::QueryOptions;
use crate::{CatalogError, Error, OpenOptions, Result, TableOptions};

/// What one [`VerdictSession::ingest`] (or [`crate::Database::ingest`])
/// call did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Rows appended to the base table.
    pub appended_rows: usize,
    /// Rows admitted into each maintained sample (index = sample index).
    pub admitted_rows: Vec<usize>,
    /// Aggregates whose synopses were adjusted (Lemma 3).
    pub adjusted_keys: usize,
    /// Stored snippets rewritten across all adjusted synopses. Zero is
    /// meaningful: the append predates any learning.
    pub adjusted_snippets: usize,
    /// Aggregates whose synopses could **not** be adjusted because their
    /// expression cannot be re-evaluated over the new data (e.g. a
    /// non-numeric or vanished column). Their stored answers are now
    /// stale-without-widening; retrain or
    /// [`VerdictSession::apply_append`] them manually.
    pub skipped_keys: Vec<AggKey>,
    /// The engine's data epoch after this batch.
    pub data_epoch: u64,
    /// Wall-clock for the whole ingest call (validation → commit).
    pub elapsed: Duration,
    /// Wall-clock spent estimating the Lemma-3 shifts (the fixed
    /// sample's running moments against the batch) and the partitions
    /// they reach — the first share of `elapsed`.
    pub shift_elapsed: Duration,
    /// Wall-clock spent staging the synopsis rewrites and model refits —
    /// the learn-side share of `elapsed`. What `elapsed` holds beyond
    /// these two is logging the batch and landing it.
    pub refit_elapsed: Duration,
    /// WAL bytes this batch appended (0 on a non-persistent session).
    /// Measured by the store itself ([`verdict_store::StoreStats`]), not
    /// by a second clock here.
    pub wal_bytes: u64,
    /// Total Lemma-3 widening applied: `Σ(|µ_k| + η_k)` over the batch's
    /// adjustments, in aggregate value units. `0.0` means the append
    /// predates any learning (nothing to widen).
    pub widening_magnitude: f64,
}

/// How a multi-sample session picks the offline sample each query scans.
///
/// The paper's engine "creates random samples of the original tables
/// offline"; rotating across them keeps the sampling errors of different
/// snippets independent — the `β_i ⊥ β_j` assumption behind Eq. (6). With
/// `Fixed`, queries keep scanning the currently active sample until
/// [`VerdictSession::set_active_sample`] changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleRotation {
    /// Keep scanning the active sample (manual control; default).
    Fixed,
    /// Advance to the next sample after every answered query.
    RoundRobin,
}

/// Whether inference improves answers (`Verdict`) or not (`NoLearn`).
///
/// Non-exhaustive: future engine generations may add modes, so downstream
/// matches must keep a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Mode {
    /// Baseline: raw AQP answers only.
    NoLearn,
    /// Full pipeline: inference + validation + synopsis recording.
    Verdict,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::NoLearn => "no-learn",
            Mode::Verdict => "verdict",
        })
    }
}

/// When to stop scanning sample batches for a snippet.
///
/// Non-exhaustive: new stop policies may be added, so downstream matches
/// must keep a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StopPolicy {
    /// Scan the entire sample (most accurate raw answer).
    ScanAll,
    /// Stop as soon as the *reported* relative error bound (at confidence
    /// `delta`) drops to `target` — e.g. `target = 0.025` for the paper's
    /// "2.5% error bound" rows in Table 4.
    RelativeErrorBound {
        /// Target relative half-width of the confidence interval.
        target: f64,
        /// Confidence level of the bound.
        delta: f64,
    },
    /// Scan at most this many sample tuples.
    TupleBudget(usize),
}

impl std::fmt::Display for StopPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopPolicy::ScanAll => f.write_str("scan-all"),
            StopPolicy::RelativeErrorBound { target, delta } => {
                write!(f, "rel-err(target={target}, delta={delta})")
            }
            StopPolicy::TupleBudget(n) => write!(f, "tuples({n})"),
        }
    }
}

/// One aggregate cell of the result set.
#[derive(Debug, Clone, Copy)]
pub struct CellAnswer {
    /// The answer returned to the user (improved under `Mode::Verdict`,
    /// raw under `Mode::NoLearn`).
    pub improved: ImprovedAnswer,
    /// The raw AQP answer at stop time.
    pub raw_answer: f64,
    /// The raw AQP error at stop time.
    pub raw_error: f64,
    /// Sample tuples scanned for this cell.
    pub tuples_scanned: usize,
}

/// One result row (one group).
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Group key (`None` for ungrouped queries).
    pub group: Option<GroupKey>,
    /// One cell per aggregate in select-list order.
    pub values: Vec<CellAnswer>,
}

/// A fully answered query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result rows.
    pub rows: Vec<ResultRow>,
    /// Sample tuples visited by the query's one shared scan. Every cell
    /// is answered from this single pass, so this is the query's real
    /// scan work, not a `max` over per-cell scans.
    pub tuples_scanned: usize,
    /// Whether the `N_max` cap dropped groups.
    pub truncated: bool,
    /// Epoch of the learned state this query read: the epoch of the
    /// published snapshot ([`verdict_core::EngineSnapshot`]) that
    /// answered every cell.
    pub epoch: u64,
    /// Real wall-clock for the query, measured the same way on the
    /// ad-hoc and prepared paths (entry to answer). Always populated —
    /// callers don't need a metrics hub for basic timing.
    pub elapsed: Duration,
}

/// Outcome of `execute`: answered, or classified unsupported.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The query was supported and answered.
    Answered(QueryResult),
    /// The query is outside Verdict's supported class; the paper forwards
    /// such queries to the AQP engine untouched (this reproduction's
    /// storage layer cannot evaluate `LIKE`/`OR` predicates, so only the
    /// classification is materialized).
    Unsupported(Vec<UnsupportedReason>),
}

impl QueryOutcome {
    /// The result, panicking if unsupported (test convenience).
    pub fn unwrap_answered(self) -> QueryResult {
        match self {
            QueryOutcome::Answered(r) => r,
            QueryOutcome::Unsupported(r) => panic!("query unsupported: {r:?}"),
        }
    }

    /// Whether the query was answered.
    pub fn is_answered(&self) -> bool {
        matches!(self, QueryOutcome::Answered(_))
    }
}

/// Builder for [`VerdictSession`]: the single-table front of the one
/// create path and the one recover path (see [`crate::database`]).
pub struct SessionBuilder {
    source: Source,
    /// Sampling geometry and engine config — on a warm start, what the
    /// store persisted (so an override is detectable).
    opts: TableOptions,
    /// Everything the store does not persist.
    serve: OpenOptions,
    persist: Option<PathBuf>,
}

/// What a [`SessionBuilder`] builds from.
enum Source {
    /// A fresh session over this base table.
    Table(Table),
    /// A warm start: the opened store and what recovery read out of it,
    /// held until `build()` wires them into the session.
    Store(SynopsisStore, Box<Recovered>),
}

/// Sample rows a query's scan must reach per thread before an unpinned
/// scan spreads over another one (2¹⁷). Measured on a 2-vCPU host: a
/// scoped helper costs ≈ 31 µs to spawn and join (`std::thread::scope`,
/// 2,000 reps), while 2¹⁷ rows are ≈ 0.4 ms of scan at the chunked
/// kernel's full-scan rate (≈ 3.3·10⁸ tuples/s) and ≈ 60 µs at the fastest
/// rate measured for it (2.2·10⁹ tuples/s). So a helper's start-up costs
/// under a tenth of the work it takes over, and about half at worst.
pub(crate) const MORSEL_ROWS: usize = 1 << 17;

/// Cores the host reports (1 when it cannot), read once per process.
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads one query's scan runs on: `pinned` if a builder set
/// `parallelism(n)`; otherwise one per [`MORSEL_ROWS`] of the rows the
/// scan can reach (`horizon_rows`), at least 1 and at most `cores` (≥ 1).
pub(crate) fn scan_workers(pinned: Option<usize>, horizon_rows: usize, cores: usize) -> usize {
    match pinned {
        Some(n) => n.max(1),
        None => (horizon_rows / MORSEL_ROWS).clamp(1, cores),
    }
}

/// The batch prefix a scan stopping at `tuple_cap` scanned tuples reaches
/// (`usize::MAX`: every batch), and the sample rows in it, from the batch
/// sizes in scan order. Every batch counts its full size toward
/// `tuples_scanned` — pruned partitions included — so the prefix is
/// exact, not a heuristic.
pub(crate) fn scan_horizon(
    batch_rows: impl IntoIterator<Item = usize>,
    tuple_cap: usize,
) -> (usize, usize) {
    let (mut batches, mut rows) = (0, 0);
    for n in batch_rows {
        batches += 1;
        rows += n;
        if rows >= tuple_cap {
            break;
        }
    }
    (batches, rows)
}

impl SessionBuilder {
    /// Starts a builder over the base table.
    pub fn new(table: Table) -> Self {
        SessionBuilder {
            source: Source::Table(table),
            opts: TableOptions::default(),
            serve: OpenOptions::new(),
            persist: None,
        }
    }

    /// Warm-starts a builder from a durable synopsis store previously
    /// created with [`SessionBuilder::persist_to`].
    ///
    /// Recovery loads the newest valid snapshot (base table, session
    /// parameters, synopses, trained models), truncates any torn tail off
    /// the snippet log, and replays surviving records. The resulting
    /// session answers its very first query with the error bounds the
    /// previous session had earned — the cold-start problem the paper's
    /// "smarter every time" promise otherwise hits at every restart.
    pub fn open(path: impl AsRef<Path>) -> Result<SessionBuilder> {
        let path = path.as_ref();
        let (store, recovered) =
            SynopsisStore::open(path, StorePolicy::default()).map_err(Error::Store)?;
        let meta = &recovered.meta;
        Ok(SessionBuilder {
            opts: TableOptions {
                sample_fraction: meta.sample_fraction,
                batch_size: meta.batch_size as usize,
                seed: meta.seed,
                num_samples: meta.num_samples as usize,
                config: meta.config.clone(),
                ..TableOptions::default()
            },
            serve: OpenOptions::new(),
            persist: Some(path.to_path_buf()),
            source: Source::Store(store, Box::new(recovered)),
        })
    }

    /// Attaches a durable synopsis store at `path` (created on build).
    ///
    /// Every snippet the session observes is appended to the store's
    /// write-ahead log; [`VerdictSession::train`] and the compaction
    /// policy checkpoint the full state. Fails at build time if a store
    /// already exists at `path` — reopen with [`SessionBuilder::open`].
    pub fn persist_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist = Some(path.into());
        self
    }

    /// Overrides the store's compaction/durability policy.
    pub fn store_policy(mut self, policy: StorePolicy) -> Self {
        self.serve.store_policy = policy;
        self
    }

    /// Attaches a metrics hub: the session registers its per-table
    /// series on it at build time and updates them lock-free from then
    /// on. Without a hub (the default) the metrics path is a true no-op
    /// — no atomics touched, no stage clocks read.
    pub fn metrics(mut self, hub: Arc<MetricsHub>) -> Self {
        self.serve.metrics = Some(hub);
        self
    }

    /// Attaches a bounded in-memory query log: every answered query
    /// pushes a [`verdict_obs::QueryTrace`] into a ring holding the most
    /// recent `capacity` traces (oldest evicted). Off by default.
    pub fn query_log(mut self, capacity: usize) -> Self {
        self.serve.query_log = Some(Arc::new(QueryLog::new(capacity)));
        self
    }

    /// Partitions every maintained sample horizontally by `spec` (range
    /// or hash on one column, [`verdict_storage::PartitionSpec`]). Each
    /// partition carries a min/max + code-set summary, so a query whose
    /// predicate is provably disjoint from a partition skips all of its
    /// batches without touching a chunk, and ingest widens only the
    /// synopses of regions the touched partitions can overlap
    /// (partition-aware Lemma 3).
    ///
    /// Combined with [`SessionBuilder::persist_to`], the session becomes
    /// **out-of-core**: the base table is split into one columnar
    /// `part-<id>.vcol` file per partition, the spec is persisted in the
    /// session metadata, and every sample is served demand-paged through
    /// a [`verdict_storage::PartitionStore`] buffer manager under the
    /// [`SessionBuilder::memory_budget`]. A warm start
    /// ([`SessionBuilder::open`]) rebuilds the identical partition map
    /// and sample draw from the manifest — do not also call
    /// `partition_by` on an opened builder; the spec comes from the
    /// store.
    pub fn partition_by(mut self, spec: PartitionSpec) -> Self {
        self.opts.partition = Some(spec);
        self
    }

    /// Byte budget for resident (cached) sample segments of an
    /// out-of-core session — the [`verdict_storage::PartitionStore`]
    /// evicts least-recently-used unpinned segments down to this bound.
    /// Answers are bit-identical at any budget ≥ one partition; only
    /// fault traffic changes. Unlimited when unset. `build()` refuses
    /// the knob on sessions that are not out-of-core
    /// (`partition_by` + `persist_to`, or `open` of a paged store).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.serve.memory_budget = Some(bytes);
        self
    }

    /// Pins the threads one query's shared scan runs on (clamped to at
    /// least 1). Unset, each query picks its own: one thread per
    /// `2¹⁷` sample rows its stop policy lets it reach, up to the host's
    /// cores — so a small sample never leaves the calling thread. Partials
    /// merge in deterministic batch order, so answers, error bounds, and
    /// synopsis bytes are bit-identical at every setting; `parallelism(1)`
    /// always scans on the calling thread.
    pub fn parallelism(mut self, n: usize) -> Self {
        self.serve.parallelism = Some(n.max(1));
        self
    }

    /// Sampling fraction for the offline uniform sample (default 10%).
    pub fn sample_fraction(mut self, f: f64) -> Self {
        self.opts.sample_fraction = f;
        self
    }

    /// Batch size in sample rows (default 1000).
    pub fn batch_size(mut self, b: usize) -> Self {
        self.opts.batch_size = b;
        self
    }

    /// RNG seed for sample drawing.
    pub fn seed(mut self, s: u64) -> Self {
        self.opts.seed = s;
        self
    }

    /// Verdict engine configuration override.
    pub fn verdict_config(mut self, c: VerdictConfig) -> Self {
        self.opts.config = c;
        self
    }

    /// Number of independent offline samples (default 1). The paper's
    /// engine "creates random samples of the original tables offline"; with
    /// several samples rotated across queries, the sampling errors of
    /// different snippets are independent — exactly the `β_i ⊥ β_j`
    /// assumption behind Eq. (6). A single shared sample correlates
    /// errors across the synopsis and makes conditioning overconfident.
    pub fn num_samples(mut self, k: usize) -> Self {
        self.opts.num_samples = k.max(1);
        self
    }

    /// Automatic sample rotation across queries (default
    /// [`SampleRotation::Fixed`]). With [`SampleRotation::RoundRobin`] a
    /// multi-sample session advances its active sample after every
    /// answered query, so the independent-error property of Eq. (6)
    /// arrives without manual [`VerdictSession::set_active_sample`] calls.
    pub fn sample_rotation(mut self, rotation: SampleRotation) -> Self {
        self.serve.rotation = rotation;
        self
    }

    /// Builds the session: a fresh build draws the samples, derives the
    /// dimension universe from the base table and (with persistence)
    /// creates the store at the directory root; a warm start restores the
    /// learned state and keeps appending to the store it was opened from.
    /// The session serves its one anonymous table as `t` (matching the
    /// `FROM t` its queries use), so its metric series carry that label.
    pub fn build(self) -> Result<VerdictSession> {
        let shard = match self.source {
            Source::Table(table) => {
                Shard::create("t", table, &self.opts, self.persist, &self.serve)?
            }
            Source::Store(mut store, recovered) => {
                let meta = &recovered.meta;
                // An opened store already knows its partition spec (and
                // whether it is paged); a second spec from the builder
                // could silently disagree with the files on disk.
                if self.opts.partition.is_some() {
                    return Err(Error::Aqp(AqpError::InvalidConfig(
                        "partition_by cannot be combined with open(): a persisted session's \
                         partition spec comes from the store's manifest"
                            .into(),
                    )));
                }
                if self.serve.memory_budget.is_some() && !meta.paged {
                    return Err(memory_budget_misuse());
                }
                // Sample identity is load-bearing: the recovered synopsis
                // holds raw answers drawn from the sample the persisted
                // parameters describe. Overriding seed / fraction / batch
                // size / sample count after open() would silently redraw a
                // different sample and rewrite the stored meta — refuse.
                if self.opts.sample_fraction != meta.sample_fraction
                    || self.opts.batch_size as u64 != meta.batch_size
                    || self.opts.seed != meta.seed
                    || self.opts.num_samples as u64 != meta.num_samples
                {
                    return Err(Error::Store(StoreError::Mismatch(
                        "sample parameters (seed, sample_fraction, batch_size, num_samples) \
                         cannot be overridden on a warm-started session: the persisted \
                         synopsis was observed through the stored sample"
                            .into(),
                    )));
                }
                // The engine config is equally load-bearing: WAL replay
                // applies records under the *stored* config (synopsis
                // capacity drives eviction), so a divergent live config
                // would make post-crash recovery disagree with the live
                // session.
                if self.opts.config != meta.config {
                    return Err(Error::Store(StoreError::Mismatch(
                        "verdict_config cannot be overridden on a warm-started session: \
                         log replay applies records under the stored configuration"
                            .into(),
                    )));
                }
                // A persist_to() after open() would silently split the
                // session from its recovered store — refuse instead.
                if let Some(p) = self.persist.filter(|p| p != store.dir()) {
                    return Err(Error::Store(StoreError::Mismatch(format!(
                        "session was opened from {} but persist_to names {}; \
                         a warm-started session always writes to its own store",
                        store.dir().display(),
                        p.display()
                    ))));
                }
                // Apply any store_policy() override made after open().
                store.set_policy(self.serve.store_policy.clone());
                Shard::recover("t", store, *recovered, &self.serve)?
            }
        };
        Ok(VerdictSession { shard })
    }
}

/// A live session over one (denormalized) table: the single-owner facade
/// over one shard of the engine (see the [module docs](self)).
pub struct VerdictSession {
    shard: Shard,
}

/// The shared out-of-core machinery of a paged table: every sample's
/// [`PagedRep`] holds `Arc`s of the same map and buffer manager, so
/// ingest-time map extension is visible to later scans and all samples
/// compete under one byte budget.
pub(crate) struct PagedRuntime {
    /// Routing + per-partition summaries over the whole base table
    /// (create rows + every ingest). `RwLock`: scans read, ingest writes.
    pub(crate) map: Arc<RwLock<PartitionMap>>,
    /// Buffer manager caching derived sample segments under the budget.
    pub(crate) store: Arc<PartitionStore>,
    /// Create-time rows per partition — the frozen sample-draw domain.
    pub(crate) original_part_rows: Vec<u64>,
    /// Base-table rows (create + ingested): what `exact()` normalizes by
    /// and where the next ingest's global row indices start.
    pub(crate) total_rows: u64,
}

impl PagedRuntime {
    /// A runtime over `map` caching segments under `budget` bytes
    /// (unlimited when unset).
    pub(crate) fn new(
        map: PartitionMap,
        original_part_rows: Vec<u64>,
        total_rows: u64,
        budget: Option<u64>,
    ) -> PagedRuntime {
        PagedRuntime {
            map: Arc::new(RwLock::new(map)),
            store: Arc::new(PartitionStore::new(budget.unwrap_or(u64::MAX))),
            original_part_rows,
            total_rows,
        }
    }
}

/// Per-sample draw seed of an out-of-core session: FNV-1a over the
/// session seed and the sample index. The segment shuffle seed inside
/// [`PagedRep`] mixes only `(draw_seed, partition)`, so without this
/// outer mix every sample of a multi-sample session would draw identical
/// segments — correlated errors, exactly what multiple samples exist to
/// avoid.
pub(crate) fn paged_draw_seed(seed: u64, sample_index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [seed, sample_index] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Builds the demand-paged samples of an out-of-core table — shared by
/// the create and recover paths. The loader faults a partition's base
/// rows from its `part-<id>.vcol` file, decoding against the resolution
/// prototype (a dictionary superset of every create-time fragment) and
/// stopping at the create-time row count so ingested appends never enter
/// the draw. `tails` seeds each sample's resident table — the rows it
/// admitted since the draw: zero-row at create, the snapshot's tail on a
/// warm open — with `base_rows` the row count that tail state corresponds
/// to; `replayed` WAL batches are then re-admitted in order, exactly as
/// the live table absorbed them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_paged_samples(
    dir: &Path,
    runtime: &PagedRuntime,
    resolution: &Table,
    base_rows: u64,
    tails: Vec<Arc<Table>>,
    replayed: &[Table],
    meta: &SessionMeta,
) -> Result<Vec<Sample>> {
    let proto = resolution.clone();
    let opr = runtime.original_part_rows.clone();
    let dir = dir.to_path_buf();
    let loader: Arc<SegmentLoader> = Arc::new(move |p: u32| {
        read_part_rows(&dir, p, &proto, opr[p as usize] as usize)
            .map_err(|e| StorageError::Io(format!("partition {p}: {e}")))
    });
    let mut samples = Vec::with_capacity(tails.len());
    for (i, tail) in tails.into_iter().enumerate() {
        let rep = PagedRep::new(
            Arc::clone(&runtime.store),
            Arc::clone(&loader),
            Arc::clone(&runtime.map),
            paged_draw_seed(meta.seed, i as u64),
            i as u32,
            runtime.original_part_rows.clone(),
        );
        let sample = Sample::paged(
            tail,
            base_rows as usize,
            meta.sample_fraction,
            meta.batch_size as usize,
            rep,
        )
        .map_err(Error::Aqp)?;
        samples.push(sample);
    }
    let mut first = base_rows;
    for batch in replayed {
        for (i, sample) in samples.iter_mut().enumerate() {
            sample
                .absorb_appended(batch, first, meta.seed, i as u64)
                .map_err(Error::Aqp)?;
        }
        first += batch.num_rows() as u64;
    }
    Ok(samples)
}

impl VerdictSession {
    /// The current base table (for an out-of-core session, the zero-row
    /// resolution table — the rows live in the partition files). Cheap:
    /// clones an `Arc`, not the rows.
    pub fn table(&self) -> Arc<Table> {
        Arc::clone(&self.shard.current().data.table)
    }

    /// The current published snapshot pair: the learned state plus the
    /// table/sample version it describes. This is the read accessor for
    /// everything the engine holds — [`SessionSnapshot::state_bytes`],
    /// [`SessionSnapshot::has_model`], [`SessionSnapshot::stats`], the
    /// maintained samples via [`SessionSnapshot::samples`]. There is no
    /// mutable access to the engine: every mutation goes through the
    /// shard's serialized learn path.
    pub fn snapshot(&self) -> SessionSnapshot {
        self.shard.current()
    }

    /// Number of independent offline samples.
    pub fn num_samples(&self) -> usize {
        self.shard.num_samples
    }

    /// Index of the sample the next query will scan.
    pub fn active_sample(&self) -> usize {
        self.shard.next_sample()
    }

    /// Selects which offline sample subsequent queries scan (and ingests
    /// estimate their Lemma-3 shift against). Rotating across queries
    /// keeps snippet errors independent (Eq. 6); see also
    /// [`SessionBuilder::sample_rotation`] for automatic rotation, which
    /// continues from `index`.
    ///
    /// An out-of-range index is an error, never silently wrapped.
    pub fn set_active_sample(&mut self, index: usize) -> Result<()> {
        self.shard.set_fixed_sample(index)
    }

    /// Promotes this session into a one-table [`crate::Database`] whose
    /// table is registered under `name` — the way to share the table
    /// across threads, pin snapshots and prepare statements. The current
    /// learned state stays published as is; unlike the session (which
    /// ignores `FROM`), the database resolves `FROM` *strictly* against
    /// `name`.
    pub fn into_database(mut self, name: &str) -> Result<Database> {
        if !verdict_store::catalog::is_valid_table_name(name) {
            return Err(Error::Catalog(CatalogError::InvalidTableName(
                name.to_owned(),
            )));
        }
        self.shard.rename(name);
        Ok(Database::from_shard(self.shard))
    }

    /// Whether this session serves its samples out-of-core
    /// (demand-paged partition files under a memory budget).
    pub fn is_paged(&self) -> bool {
        self.shard.current().data.samples[0].is_paged()
    }

    /// Cumulative partition-cache counters of an out-of-core session
    /// (`None` on a resident session): hits, misses, evictions, bytes
    /// faulted, and the resident-bytes gauge.
    pub fn partition_cache(&self) -> Option<CacheCounters> {
        let snapshot = self.shard.current();
        let rep = snapshot.data.samples[0].paged_rep()?;
        Some(rep.partition_store().counters())
    }

    /// The pinned scan thread count (`None`: each query picks its own —
    /// see [`SessionBuilder::parallelism`]).
    pub fn parallelism(&self) -> Option<usize> {
        self.shard.parallelism
    }

    /// Whether this session writes to a durable store.
    pub fn is_persistent(&self) -> bool {
        self.shard.store.is_some()
    }

    /// The recovery report, when this session was warm-started with
    /// [`SessionBuilder::open`].
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.shard.recovery.as_ref()
    }

    /// Checkpoints the full learned state into a fresh snapshot
    /// generation and truncates the snippet log, reporting what was
    /// written (duration and bytes come from the store's own receipt —
    /// the same numbers the metrics layer records). No-op without a
    /// store: the report is all zeros.
    ///
    /// Also surfaces any error a background log append or deferred
    /// compaction hit since the last checkpoint.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport> {
        self.shard.checkpoint()
    }

    /// Offline training pass (Algorithm 1). Persistent sessions
    /// checkpoint afterwards, so the (expensive) trained models are on
    /// disk and a restarted session warm-starts without refitting. A
    /// parked store error is returned *before* anything is refit.
    pub fn train(&mut self) -> Result<()> {
        self.shard.train()
    }

    /// A snapshot of every metric series this session's hub holds, or
    /// `None` when the session was built without
    /// [`SessionBuilder::metrics`]. Render with
    /// [`verdict_obs::MetricsSnapshot::to_text`] /
    /// [`verdict_obs::MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.shard.obs.hub().map(|h| h.snapshot())
    }

    /// The query log, when one was attached with
    /// [`SessionBuilder::query_log`].
    pub fn query_log(&self) -> Option<&Arc<QueryLog>> {
        self.shard.obs.log()
    }

    /// The `n` most recent query traces, newest first (empty without a
    /// query log).
    pub fn recent_queries(&self, n: usize) -> Vec<Arc<QueryTrace>> {
        self.query_log().map(|l| l.recent(n)).unwrap_or_default()
    }

    /// Applies a data-append adjustment (Appendix D, Lemma 3) to the
    /// synopsis of `key` and refits its model, then — for persistent
    /// sessions — checkpoints immediately: a manual adjustment rewrites
    /// stored observations in place without a WAL record, so only a fresh
    /// snapshot makes it durable. (The [`VerdictSession::ingest`] path
    /// logs its adjustments and does not need the eager checkpoint.)
    ///
    /// Returns how many stored snippets were adjusted; `0` means `key`
    /// has no synopsis yet, which callers should treat as "nothing was
    /// widened" rather than success-with-effect. Units as documented on
    /// [`verdict_core::append::AppendAdjustment::estimate`]: `µ`/`η` are
    /// in the aggregate's own value units (relative frequency for
    /// `FREQ`), scaled by `|r_a| / (|r| + |r_a|)`.
    pub fn apply_append(&mut self, key: &AggKey, adjustment: &AppendAdjustment) -> Result<usize> {
        self.shard.apply_append(key, adjustment)
    }

    /// Ingests a batch of new rows into the evolving table — the engine's
    /// fourth pipeline stage (read / learn / train / **ingest**): the
    /// batch is validated atomically, a Lemma-3
    /// [`verdict_core::append::AppendAdjustment`] is estimated for every
    /// synopsis aggregate (per-column shift of the session's fixed sample
    /// vs the incoming batch for `AVG` keys, the conservative worst case
    /// for `FREQ`), rows + adjustments are WAL-logged on persistent
    /// sessions, and only then does the table grow, every maintained
    /// sample admit the new rows at the correct inclusion probability,
    /// and every affected synopsis widen and refit (`data_epoch` bumps
    /// once). A failure at any step leaves memory and disk consistent.
    ///
    /// Old answers stay usable with honestly wider error bounds;
    /// [`VerdictSession::train`] re-tightens from fresh observations.
    pub fn ingest(&mut self, rows: &[Vec<Value>]) -> Result<IngestReport> {
        self.shard.ingest(rows)
    }

    /// Exact (ground-truth) answer for an aggregate over the *base* table;
    /// used by experiments to report actual errors. On an out-of-core
    /// session this streams every partition file back in.
    pub fn exact(&self, agg: &AggregateFn, predicate: &Predicate) -> Result<f64> {
        self.shard.exact(agg, predicate)
    }

    /// Parses, checks, compiles, and answers a SQL query from one shared
    /// sample scan (see the module docs; [`crate::Database::query`]'s
    /// path). `FROM` is not resolved — the session has exactly one table.
    ///
    /// Persistent sessions surface store failures (a failed background
    /// log append, or a compaction that failed after an earlier query)
    /// here, *before* scanning — a computed answer is never thrown away
    /// because persisting something else failed afterwards.
    pub fn execute(&mut self, sql: &str, mode: Mode, policy: StopPolicy) -> Result<QueryOutcome> {
        let t0 = Instant::now();
        let query = parse_query(sql)?;
        let opts = QueryOptions::new().with_mode(mode).with_policy(policy);
        self.shard.ad_hoc(&query, sql, &opts, t0)
    }
}

/// Draws a table's maintained offline samples exactly as every session
/// generation has: one shared RNG across the `num_samples` draws (draw
/// order is load-bearing — it is what makes a warm start's redraw
/// bit-identical), the *original* row prefix sampled uniformly, then any
/// appended tail re-admitted through the deterministic per-row admission
/// the ingest path uses. Shared by the create and recover paths.
pub(crate) fn draw_samples(
    table: &Table,
    meta: &SessionMeta,
    partition: Option<&PartitionSpec>,
) -> Result<Vec<Sample>> {
    let original_rows = meta.original_rows as usize;
    let batch_size = meta.batch_size as usize;
    let mut rng = StdRng::seed_from_u64(meta.seed);
    let mut samples = Vec::with_capacity(meta.num_samples as usize);
    for _ in 0..meta.num_samples {
        let sample = match partition {
            // Partitioned draws sample the whole current table: resident
            // partitions never combine with persistence, so there is no
            // recovered tail (`original_rows == table.num_rows()`) to
            // re-admit.
            Some(spec) => Sample::uniform_partitioned(
                table,
                spec.clone(),
                meta.sample_fraction,
                batch_size,
                &mut rng,
            ),
            None => Sample::uniform_prefix(
                table,
                original_rows,
                meta.sample_fraction,
                batch_size,
                &mut rng,
            ),
        }
        .map_err(Error::Aqp)?;
        samples.push(sample);
    }
    if table.num_rows() > original_rows {
        // Re-admission reads straight from the grown table: the sample
        // adopts the table's dictionaries and stores admitted rows as raw
        // codes, exactly as the live ingest path did.
        for (i, sample) in samples.iter_mut().enumerate() {
            sample
                .absorb_appended(table, original_rows as u64, meta.seed, i as u64)
                .map_err(Error::Aqp)?;
        }
    }
    Ok(samples)
}

/// The stage clocks the serving layer measures around the shared read
/// (the executor fills scan/infer itself via [`ScanTrace`]). `parse_ns`
/// is 0 on the prepared path.
pub(crate) struct StagePrelude {
    pub(crate) parse_ns: u64,
    pub(crate) plan_ns: u64,
    pub(crate) absorb_ns: u64,
}

/// Folds the serving-layer stage clocks, the executor's [`ScanTrace`],
/// and the answered result into one [`QueryTrace`] (sequence number
/// assigned when the log accepts it).
#[allow(clippy::too_many_arguments)] // one call site; a struct would just rename the args
pub(crate) fn query_trace(
    table: &str,
    sql: Option<&str>,
    prepared: bool,
    mode: Mode,
    data_epoch: u64,
    result: &QueryResult,
    scan: &ScanTrace,
    stages: StagePrelude,
) -> QueryTrace {
    QueryTrace {
        seq: 0,
        table: table.to_owned(),
        sql: sql.map(str::to_owned),
        prepared,
        mode: mode.to_string(),
        epoch: result.epoch,
        data_epoch,
        tuples_scanned: result.tuples_scanned as u64,
        batches: scan.batches,
        cells: scan.cells,
        cells_frozen_early: scan.cells_frozen_early,
        prior_evals: scan.prior_evals,
        snippets_observed: scan.snippets_observed,
        chunks: scan.chunks,
        chunks_pruned: scan.chunks_pruned,
        rows_matched: scan.rows_matched,
        morsels: scan.morsels,
        workers: scan.workers,
        partitions: scan.partitions,
        partitions_pruned: scan.partitions_pruned,
        partition_cache_hits: scan.partition_cache_hits,
        partition_cache_misses: scan.partition_cache_misses,
        partition_bytes_faulted: scan.partition_bytes_faulted,
        partition_fault_ns: scan.partition_fault_ns,
        stages: StageTimings {
            parse_ns: stages.parse_ns,
            plan_ns: stages.plan_ns,
            scan_ns: scan.scan_ns,
            infer_ns: scan.infer_ns,
            absorb_ns: stages.absorb_ns,
        },
        elapsed_ns: u64::try_from(result.elapsed.as_nanos()).unwrap_or(u64::MAX),
    }
}

/// Total Lemma-3 widening one ingest batch applied: `Σ(|µ_k| + η_k)`
/// over its adjustments, in aggregate value units.
pub(crate) fn widening_magnitude(adjustments: &[(AggKey, AppendAdjustment)]) -> f64 {
    adjustments
        .iter()
        .map(|(_, a)| a.mu_shift.abs() + a.eta)
        .sum()
}

/// Everything fallible about one ingest, computed up front: every
/// adjustment estimated and the engine-side rewrites + refits staged (no
/// engine mutation yet). The shard orders `prepare → WAL append → land
/// rows → admit into samples → commit`, so a failure at any step — a bad
/// row, an oversized WAL record, a refit that cannot factorize — leaves
/// memory and disk fully consistent, and a WAL record is never written
/// for an adjustment the engine then fails to apply.
pub(crate) struct PreparedIngest {
    /// Per-aggregate Lemma-3 adjustments (what gets WAL-logged).
    pub(crate) adjustments: Vec<(AggKey, AppendAdjustment)>,
    /// Aggregates whose expression could not be re-evaluated.
    pub(crate) skipped_keys: Vec<AggKey>,
    /// The staged engine-side rewrites, ready to commit.
    pub(crate) staged: verdict_core::StagedIngest,
    /// Wall-clock spent estimating the shifts and the partitions they
    /// reach. Like `refit_elapsed`, measured here once: the report and
    /// the metrics layer read this same value.
    pub(crate) shift_elapsed: Duration,
    /// Wall-clock spent staging the rewrites + refits.
    pub(crate) refit_elapsed: Duration,
}

/// Stages the full engine-side effect of ingesting `batch` (already
/// validated by materializing it as a table) after `old_rows` base rows
/// — see [`PreparedIngest`]. `sample` is the sample the shift is
/// estimated against (the shard's fixed one; the chosen values are what
/// gets WAL-logged and replayed, so recovery never re-estimates), and
/// `moments` the shard's running moments of it. `map` is the base-table
/// partition map of a partitioned table.
pub(crate) fn prepare_ingest(
    verdict: &Verdict,
    sample: &Sample,
    moments: &mut SampleMoments,
    batch: &Table,
    old_rows: usize,
    map: Option<&PartitionMap>,
) -> Result<PreparedIngest> {
    let shift_t0 = Instant::now();
    let (adjustments, skipped_keys) =
        compute_ingest_adjustments(&verdict.synopsis_keys(), sample, moments, batch, old_rows)?;
    // Partition-aware Lemma 3: bound what this batch touches, so AVG
    // snippets over provably-disjoint regions keep their answers and
    // error bounds (FREQ always widens — the denominator changed).
    let bounds = map
        .map(|map| IngestBounds::touched(map, batch))
        .transpose()
        .map_err(Error::Storage)?;
    let refit_t0 = Instant::now();
    let staged = verdict
        .stage_ingest_filtered(&adjustments, bounds.as_ref())
        .map_err(Error::Core)?;
    Ok(PreparedIngest {
        adjustments,
        skipped_keys,
        staged,
        shift_elapsed: refit_t0 - shift_t0,
        refit_elapsed: refit_t0.elapsed(),
    })
}

/// The old side of every `AVG` key's Lemma-3 shift, kept between
/// ingests: per key, the [`ShiftMoments`] of its expression over the
/// shard's fixed sample. An ingest then folds only the rows the sample
/// admitted since the last one, instead of re-reading — on a paged
/// table, re-faulting — the whole sample.
///
/// A sample grows only at the end of its resident table
/// ([`Sample::table`]: the whole of a resident sample, a paged sample's
/// admitted tail), and [`Sample::visit_fragments`] yields those rows
/// last. Folding them into the kept accumulators is therefore the fold a
/// fresh pass would run, and leaves its bits. A key not seen before costs
/// one pass over the sample, as does every key after the fixed sample
/// changes (the shard drops the cache) or the shard reopens (it starts
/// empty). The state is O(1) per key: nothing is kept per row.
#[derive(Default)]
pub(crate) struct SampleMoments {
    /// Rows of the sample's resident table folded so far.
    rows: usize,
    /// Per `AVG` key: its expression, and its moments over the sample —
    /// `None` when the expression cannot be evaluated against it.
    keys: HashMap<AggKey, (Expr, Option<ShiftMoments>)>,
}

impl SampleMoments {
    /// Brings the moments of every `AVG` key in `keys` up to date with
    /// `sample`: folds the rows it admitted since the last call into the
    /// kept accumulators, then — only if some key is new — runs one pass
    /// over the whole sample for the new keys.
    fn catch_up(&mut self, keys: &[AggKey], sample: &Sample) -> Result<()> {
        let tail = sample.table();
        debug_assert!(self.rows <= tail.num_rows(), "moments of another sample");
        for (expr, moments) in self.keys.values_mut() {
            fold(expr, tail, self.rows..tail.num_rows(), moments);
        }
        self.rows = tail.num_rows();
        let mut new: Vec<(AggKey, Expr, Option<ShiftMoments>)> = keys
            .iter()
            .filter(|key| !self.keys.contains_key(*key))
            .filter_map(|key| match key {
                AggKey::Avg(expr) => Some((
                    key.clone(),
                    Expr::parse(expr).ok()?,
                    Some(ShiftMoments::new()),
                )),
                AggKey::Freq => None,
            })
            .collect();
        if new.is_empty() {
            return Ok(());
        }
        sample
            .visit_fragments(|frag| {
                for (_, expr, moments) in &mut new {
                    fold(expr, frag, 0..frag.num_rows(), moments);
                }
                Ok(())
            })
            .map_err(Error::Aqp)?;
        self.keys
            .extend(new.into_iter().map(|(key, expr, m)| (key, (expr, m))));
        Ok(())
    }
}

/// Folds `expr` over `rows` of `table` into `moments`, which becomes
/// `None` if the expression does not compile against the table (missing
/// or non-numeric column).
fn fold(expr: &Expr, table: &Table, rows: Range<usize>, moments: &mut Option<ShiftMoments>) {
    let Some(acc) = moments else { return };
    match expr.compile(table) {
        Ok(compiled) => acc.extend(rows.map(|r| compiled.eval(r))),
        Err(_) => *moments = None,
    }
}

/// The per-key synopsis adjustments for one ingested batch, plus the
/// keys that had to be skipped (unevaluable expressions).
type IngestAdjustments = (Vec<(AggKey, AppendAdjustment)>, Vec<AggKey>);

/// Estimates one ingested batch's Lemma-3 adjustment per synopsis
/// aggregate.
///
/// For an `AVG(expr)` key the shift distribution is estimated from the
/// expression over the **sample** (a uniform stand-in for the old
/// relation — the paper estimates `µ_k`, `η_k` "from small samples of
/// `r` and `r_a`") versus the incoming batch. The sample side comes from
/// `moments`, kept up to date at the cost of the rows admitted since the
/// last ingest ([`SampleMoments`]) — same rows, same order, same
/// estimates at any memory budget as a fresh pass. For `FREQ` the
/// per-region indicator cannot be evaluated key-wide, so the conservative
/// worst case applies. Keys whose expression cannot be parsed, or fails
/// to compile against the sample or the batch (missing or non-numeric
/// column), are skipped and reported, never silently dropped.
///
/// The adjustment list is deterministic (keys pre-sorted by the caller
/// via `Verdict::synopsis_keys`), and it is what gets WAL-logged — replay
/// applies these exact values, so recomputation never has to agree with a
/// sample state that no longer exists.
fn compute_ingest_adjustments(
    keys: &[AggKey],
    sample: &Sample,
    moments: &mut SampleMoments,
    batch: &Table,
    old_rows: usize,
) -> Result<IngestAdjustments> {
    let appended_rows = batch.num_rows();
    moments.catch_up(keys, sample)?;
    let mut adjustments = Vec::with_capacity(keys.len());
    let mut skipped = Vec::new();
    for key in keys {
        let adjustment = match key {
            AggKey::Freq => Some(AppendAdjustment::freq_worst_case(old_rows, appended_rows)),
            AggKey::Avg(_) => match moments.keys.get(key) {
                Some((expr, Some(old))) => {
                    let mut new = Some(ShiftMoments::new());
                    fold(expr, batch, 0..appended_rows, &mut new);
                    new.map(|new| {
                        AppendAdjustment::from_moments(old, &new, old_rows, appended_rows)
                    })
                }
                _ => None,
            },
        };
        match adjustment {
            Some(a) => adjustments.push((key.clone(), a)),
            None => skipped.push(key.clone()),
        }
    }
    Ok((adjustments, skipped))
}

/// What one read-path execution produced: the answered result, the raw
/// snippet observations the learn path should absorb (Algorithm 2 line 6
/// — empty under `Mode::NoLearn`), and the inference counter delta.
///
/// The read path never mutates engine state; the shard's serialized learn
/// path absorbs the recorded observations afterwards.
pub(crate) struct ReadOutcome {
    pub(crate) result: QueryResult,
    pub(crate) recorded: Vec<(Snippet, Observation)>,
    pub(crate) stats: EngineStats,
    /// Partition-cache delta of this query's scan (all-zero on a
    /// resident sample; `resident_bytes` is the gauge value after).
    pub(crate) cache: CacheCounters,
}

/// Runs one shared scan to answer every cell of `plan` under the given
/// mode and stop policy, entirely against immutable state: a sample
/// (per-query cursor) and a read view of the learned state. This
/// is the planner→scan→infer core of the shard's one answer step: it
/// drives one morsel-parallel scan, runs the stop policy after every
/// ordered merge, and finalizes every cell; `epoch` is stamped into the
/// result so callers can tell which learned state answered.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shared_read(
    sample: &Sample,
    view: EngineView<'_>,
    plan: &ScanPlan,
    mode: Mode,
    policy: StopPolicy,
    epoch: u64,
    parallelism: Option<usize>,
    mut trace: Option<&mut ScanTrace>,
) -> Result<ReadOutcome> {
    let num_groups = plan.groups.len();
    let num_aggs = plan.aggregates.len();
    let num_cells = num_groups * num_aggs;
    if num_cells == 0 {
        // A grouped query whose predicate selects no sample rows: no
        // result rows and nothing to scan. A requested trace stays
        // all-zero.
        return Ok(ReadOutcome {
            result: QueryResult {
                rows: Vec::new(),
                tuples_scanned: 0,
                truncated: plan.truncated,
                epoch,
                elapsed: Duration::ZERO,
            },
            recorded: Vec::new(),
            stats: EngineStats::default(),
            cache: CacheCounters::default(),
        });
    }

    let scan_groups: Vec<GroupKey> = plan.groups.iter().flatten().cloned().collect();
    let spec = ScanSpec {
        predicate: &plan.base_predicate,
        group_cols: &plan.group_cols,
        groups: &scan_groups,
        primitives: &plan.primitives,
    };

    // One driver for every sample. Over a paged sample its draw-time
    // batches pin partition segments; a fault is latched (worker faults
    // land on the coordinator's latch) so the morsel coordinator always
    // completes structurally, and fails the query below.
    let pager = sample.paged_rep().map(|rep| {
        let store = rep.partition_store();
        (store, store.counters())
    });
    let mut driver = SharedScanDriver::over_sample(sample, &spec).map_err(Error::Aqp)?;
    let sink = driver.error_sink();

    let mut cells = CellEvaluator {
        view,
        plan,
        mode,
        n_base: sample.base_rows() as f64,
        learned: None,
        stats: EngineStats::default(),
    };

    // The stop policy bounds the *one* query-wide scan: a tuple budget
    // buys one prefix of the sample regardless of how many cells the
    // query has.
    let tuple_cap = match policy {
        StopPolicy::TupleBudget(n) => n,
        _ => usize::MAX,
    };

    // The scan's horizon: budgeted scans stop at a fixed tuple prefix, so
    // the batch prefix is known up front. Telling the scheduler keeps
    // workers from scanning batches the serial loop would never reach, and
    // the rows in it decide how many threads the scan can pay for.
    let (max_batches, horizon_rows) = scan_horizon(
        (0..sample.num_batches()).map(|i| sample.batch_range(i).len()),
        tuple_cap,
    );
    let workers = scan_workers(parallelism, horizon_rows, host_cores());
    // Only an error target can stop before the horizon; under the other
    // policies every batch in it is merged, so a paged scan may read each
    // segment's batches up to it in one run.
    let horizon = match policy {
        StopPolicy::ScanAll | StopPolicy::TupleBudget(_) => Horizon::Exact(max_batches),
        StopPolicy::RelativeErrorBound { .. } => Horizon::AtMost(max_batches),
    };

    // Per-cell stop tracking: a frozen cell holds the snapshot it had
    // when it met the policy; the scan stops when all cells froze.
    let mut frozen: Vec<Option<FrozenCell>> = (0..num_cells).map(|_| None).collect();
    let mut live = num_cells;
    // Snapshots of the cells that did NOT meet the bound at the most
    // recent evaluation, kept so an exhausted scan can finalize from
    // them instead of re-running the whole inference pass at the same
    // scan position.
    let mut last_unmet: Vec<(usize, FrozenCell)> = Vec::new();

    // Tracing clocks (no-ops when untraced — a disabled Stopwatch never
    // reads the OS clock): the whole scan+infer region is timed once,
    // inference passes are timed individually, and scan time is the
    // difference. Cells frozen before the scan's natural end are what
    // the stop policy bought.
    let tracing = trace.is_some();
    let loop_sw = Stopwatch::started_if(tracing);
    let mut infer_ns = 0u64;
    let mut frozen_early = 0u64;

    // Morsel-parallel shared scan: workers scan batch partials on their
    // own cursors while this thread scans too, merges them in batch-index
    // order and runs the stop policy after every ordered merge — the same
    // sequence of merged states the serial loop walks, so answers,
    // errors, and stop points are bit-identical at any thread count.
    let pstats = parallel_scan(
        &mut driver,
        workers,
        horizon,
        || {
            let mut d = SharedScanDriver::over_sample(sample, &spec).ok()?;
            d.set_error_sink(Arc::clone(&sink));
            Some(d)
        },
        |d| match policy {
            StopPolicy::ScanAll => true,
            StopPolicy::TupleBudget(_) => d.tuples_scanned() < tuple_cap,
            StopPolicy::RelativeErrorBound { target, delta } => {
                // Evaluate every live cell against the bound; freeze
                // those that meet it.
                let infer_sw = Stopwatch::started_if(tracing);
                let evaluated = cells.evaluate(d, &frozen);
                infer_ns += infer_sw.elapsed_ns();
                last_unmet.clear();
                for (cell, snapshot) in evaluated {
                    let bound = snapshot.improved.bound(delta);
                    let met = bound.is_finite()
                        && bound / snapshot.improved.answer.abs().max(1e-9) <= target;
                    if met {
                        frozen[cell] = Some(snapshot);
                        live -= 1;
                        frozen_early += 1;
                    } else {
                        last_unmet.push((cell, snapshot));
                    }
                }
                live > 0
            }
        },
    );

    // Finalize the cells still live at the end of the scan. If the
    // loop's last evaluation already ran at this exact scan position
    // (sample exhausted under RelativeErrorBound), reuse its
    // snapshots rather than repeating the inference pass.
    let tuples_scanned = driver.tuples_scanned();
    let infer_sw = Stopwatch::started_if(tracing);
    let finalized: Vec<(usize, FrozenCell)> =
        if !last_unmet.is_empty() && last_unmet[0].1.scanned == tuples_scanned {
            last_unmet
        } else {
            cells.evaluate(&driver, &frozen)
        };
    infer_ns += infer_sw.elapsed_ns();
    for (cell, snapshot) in finalized {
        frozen[cell] = Some(snapshot);
    }
    if let Some(t) = trace.as_deref_mut() {
        t.scan_ns = loop_sw.elapsed_ns().saturating_sub(infer_ns);
        t.infer_ns = infer_ns;
        t.batches = driver.batches_stepped() as u64;
        t.cells = num_cells as u64;
        t.cells_frozen_early = frozen_early;
        t.prior_evals = cells.prior_evals();
        t.chunks = driver.chunks_scanned();
        t.chunks_pruned = driver.chunks_pruned();
        t.rows_matched = driver.rows_matched();
        t.morsels = pstats.morsels;
        t.workers = pstats.workers;
        t.partitions = driver.partitions();
        t.partitions_pruned = driver.partitions_pruned();
    }
    let fault = driver.take_error();
    drop(driver);
    if let Some(e) = fault {
        return Err(Error::Storage(e));
    }

    // Collect the raw primitive observations the synopsis should record
    // (Verdict stores raw answers, not improved ones — Algorithm 2
    // line 6), in the per-snippet order of the Figure 3 decomposition.
    // The learn path applies them; the read path stays pure.
    let mut recorded: Vec<(Snippet, Observation)> = Vec::new();
    for (g, snippets) in cells.learned.iter().flatten().enumerate() {
        let Some(snippets) = snippets else { continue };
        for (a, spec) in plan.aggregates.iter().enumerate() {
            let cell = frozen[g * num_aggs + a].as_ref().expect("finalized");
            for (p, obs) in cell_prim_indices(spec).zip(cell.raw_prims.iter()) {
                if obs.error.is_finite() {
                    recorded.push((snippets[p].0.clone(), *obs));
                }
            }
        }
    }

    let mut rows: Vec<ResultRow> = Vec::with_capacity(num_groups);
    let mut slots = frozen.into_iter();
    for group in &plan.groups {
        let mut values = Vec::with_capacity(num_aggs);
        for _ in 0..num_aggs {
            let cell = slots.next().flatten().expect("finalized");
            values.push(CellAnswer {
                improved: cell.improved,
                raw_answer: cell.user_raw.0,
                raw_error: cell.user_raw.1,
                tuples_scanned: cell.scanned,
            });
        }
        rows.push(ResultRow {
            group: group.clone(),
            values,
        });
    }

    // Partition-cache delta of this query's scan (all-zero when resident).
    let cache = pager
        .map(|(store, before)| store.counters().since(&before))
        .unwrap_or_default();
    if let Some(t) = trace {
        t.snippets_observed = recorded.len() as u64;
        t.partition_cache_hits = cache.hits;
        t.partition_cache_misses = cache.misses;
        t.partition_bytes_faulted = cache.bytes_faulted;
        t.partition_fault_ns = cache.fault_ns;
    }

    Ok(ReadOutcome {
        result: QueryResult {
            rows,
            tuples_scanned,
            truncated: plan.truncated,
            epoch,
            // Stamped by the serving layer: wall-clock spans the whole
            // call (parse/pin/absorb included), not just the scan.
            elapsed: Duration::ZERO,
        },
        recorded,
        stats: cells.stats,
        cache,
    })
}

/// The state of one result cell frozen at its stop point: the raw
/// primitive observations (what the synopsis records), the combined
/// user-facing raw pair, the (possibly model-improved) answer, and the
/// scan position where the cell stopped.
struct FrozenCell {
    raw_prims: Vec<Observation>,
    user_raw: (f64, f64),
    improved: ImprovedAnswer,
    scanned: usize,
}

/// The primitive-stream indices one aggregate reads, in the canonical
/// AVG-before-FREQ order of the §2.3 decomposition (`SUM → [avg, freq]`).
fn cell_prim_indices(spec: &verdict_sql::AggregateSpec) -> impl Iterator<Item = usize> + '_ {
    spec.avg_prim.iter().chain(spec.freq_prim.iter()).copied()
}

/// The snippet of one `(group, primitive stream)` pair — what the synopsis
/// records its raw answer under — and its model-only prior (`None`: no
/// model for the key, or a degenerate region; the raw answer passes
/// through).
type LearnedPrim = (Snippet, Option<CellPrior>);

/// Turns the driver's raw answers into cell answers at any scan position.
/// Everything about a cell that no batch changes — its snippets and their
/// model-only priors (Eq. 11), i.e. all the O(n²) work of inference — is
/// prepared once per query, at the first evaluation; after that an
/// evaluation is a snapshot and an O(1) combine (Eq. 12) per primitive, so
/// a statement that checks its bounds after each of `b` batches costs one
/// inference, not `b`.
struct CellEvaluator<'a> {
    view: EngineView<'a>,
    plan: &'a ScanPlan,
    mode: Mode,
    n_base: f64,
    /// `[group][primitive stream]`, `None` for a group whose predicate is
    /// not a region (its cells are answered raw and teach nothing). Never
    /// built under `Mode::NoLearn`.
    learned: Option<Vec<Option<Vec<LearnedPrim>>>>,
    /// Inference counter bumps of this query (read path: merged later).
    stats: EngineStats,
}

impl CellEvaluator<'_> {
    fn prepare(&self) -> Vec<Option<Vec<LearnedPrim>>> {
        let keys: Vec<AggKey> = self
            .plan
            .primitives
            .iter()
            .map(|p| match p {
                AggregateFn::Avg(e) => AggKey::avg(&e.to_string()),
                AggregateFn::Freq => AggKey::Freq,
                _ => unreachable!("plan primitives are AVG/FREQ"),
            })
            .collect();
        let regions: Vec<Option<Region>> = self
            .plan
            .group_predicates
            .iter()
            .map(|p| Region::from_predicate(self.view.schema(), p).ok())
            .collect();
        let snippets: Vec<Snippet> = regions
            .iter()
            .flatten()
            .flat_map(|region| {
                keys.iter()
                    .map(move |key| Snippet::new(key.clone(), region.clone()))
            })
            .collect();
        // One pass over each model's factor of Σₙ per ≤ 8 groups.
        let priors = self.view.priors(&snippets.iter().collect::<Vec<_>>());
        let mut learned = snippets.into_iter().zip(priors);
        regions
            .iter()
            .map(|region| {
                region
                    .as_ref()
                    .map(|_| learned.by_ref().take(keys.len()).collect())
            })
            .collect()
    }

    /// Model-only priors this query computed.
    fn prior_evals(&self) -> u64 {
        let prims = self.learned.iter().flatten().flatten().flatten();
        prims.filter(|(_, prior)| prior.is_some()).count() as u64
    }

    /// Snapshots and improves every still-live cell at the driver's
    /// current scan position, against immutable state — counter bumps land
    /// in `self.stats`, one per improved primitive. Returns `(cell index,
    /// snapshot)` pairs; cell indices are group-major (`g * num_aggs + a`).
    fn evaluate(
        &mut self,
        driver: &SharedScanDriver<'_>,
        frozen: &[Option<FrozenCell>],
    ) -> Vec<(usize, FrozenCell)> {
        if self.mode == Mode::Verdict && self.learned.is_none() {
            self.learned = Some(self.prepare());
        }
        let num_aggs = self.plan.aggregates.len();
        let scanned = driver.tuples_scanned();
        let mut evaluated = Vec::new();
        for (cell, slot) in frozen.iter().enumerate() {
            if slot.is_some() {
                continue;
            }
            let (g, spec) = (cell / num_aggs, &self.plan.aggregates[cell % num_aggs]);
            let raw_prims: Vec<Observation> = cell_prim_indices(spec)
                .map(|p| {
                    let r = driver.raw(g, p);
                    Observation::new(r.answer, r.error)
                })
                .collect();
            let user_raw = combine_raw(spec.combiner, &raw_prims, self.n_base);
            let improved = match self.learned.as_ref().and_then(|l| l[g].as_ref()) {
                None => raw_as_improved(user_raw),
                Some(prims) => {
                    let improved_prims: Vec<ImprovedAnswer> = cell_prim_indices(spec)
                        .zip(&raw_prims)
                        .map(|(p, raw)| {
                            let (snippet, prior) = &prims[p];
                            self.view.improve_from_prior(
                                &snippet.key,
                                *prior,
                                *raw,
                                &mut self.stats,
                            )
                        })
                        .collect();
                    combine_improved(spec.combiner, &improved_prims, self.n_base)
                }
            };
            evaluated.push((
                cell,
                FrozenCell {
                    raw_prims,
                    user_raw,
                    improved,
                    scanned,
                },
            ));
        }
        evaluated
    }
}

/// A raw `(answer, error)` pair wrapped as an unimproved answer.
fn raw_as_improved(raw: (f64, f64)) -> ImprovedAnswer {
    ImprovedAnswer {
        answer: raw.0,
        error: raw.1,
        used_model: false,
    }
}

/// Combines raw primitive observations (AVG-before-FREQ order) into the
/// user-facing raw `(answer, error)` pair (§2.3 recovery formulas).
fn combine_raw(combiner: Combiner, raw: &[Observation], n_base: f64) -> (f64, f64) {
    match combiner {
        Combiner::Avg | Combiner::Freq => (raw[0].answer, raw[0].error),
        Combiner::Count => ((raw[0].answer * n_base).round(), raw[0].error * n_base),
        Combiner::Sum => product_with_error(
            raw[0].answer,
            raw[0].error,
            raw[1].answer * n_base,
            raw[1].error * n_base,
        ),
    }
}

/// Recombines per-primitive improved answers into the user-facing
/// improved answer (same recovery formulas as [`combine_raw`]).
fn combine_improved(
    combiner: Combiner,
    improved: &[ImprovedAnswer],
    n_base: f64,
) -> ImprovedAnswer {
    match combiner {
        Combiner::Avg | Combiner::Freq => improved[0],
        Combiner::Count => ImprovedAnswer {
            answer: (improved[0].answer * n_base).round().max(0.0),
            error: improved[0].error * n_base,
            used_model: improved[0].used_model,
        },
        Combiner::Sum => {
            let (answer, error) = product_with_error(
                improved[0].answer,
                improved[0].error,
                (improved[1].answer * n_base).max(0.0),
                improved[1].error * n_base,
            );
            ImprovedAnswer {
                answer,
                error,
                used_model: improved[0].used_model || improved[1].used_model,
            }
        }
    }
}

/// `SUM = AVG × COUNT` error propagation. The two factors are estimated
/// from the *same* scan, so their errors are positively correlated; the
/// conservative (perfect-correlation) bound `σ ≈ |a|σ_c + |c|σ_a` keeps
/// SUM error bounds honest where the independence formula under-covers.
fn product_with_error(a: f64, a_err: f64, c: f64, c_err: f64) -> (f64, f64) {
    let answer = a * c;
    if !a_err.is_finite() || !c_err.is_finite() {
        return (answer, f64::INFINITY);
    }
    (answer, (a * c_err).abs() + (c * a_err).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_core::persist::{EngineState, Persist};
    use verdict_storage::{ColumnDef, Schema};

    fn session(rows: usize) -> VerdictSession {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let mut state = 1u64;
        for i in 0..rows {
            // Cheap deterministic pseudo-random stream.
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
        SessionBuilder::new(t)
            .sample_fraction(0.2)
            .batch_size(200)
            .seed(5)
            .build()
            .unwrap()
    }

    /// The worker policy, row by row: a pinned count is used as given;
    /// unpinned, one thread per `MORSEL_ROWS` of horizon, between 1 and
    /// the host's cores.
    #[test]
    fn scan_workers_table() {
        const AUTO: Option<usize> = None;
        #[rustfmt::skip]
        let table: [(usize, [usize; 3]); 5] = [
            // horizon rows   auto at 1, 2, 8 cores
            (0,               [1, 1, 1]),
            (40_000,          [1, 1, 1]),
            (131_071,         [1, 1, 1]),
            (262_144,         [1, 2, 2]),
            (4_000_000,       [1, 2, 8]),
        ];
        for (rows, auto) in table {
            for (cores, want) in [1, 2, 8].into_iter().zip(auto) {
                assert_eq!(
                    scan_workers(AUTO, rows, cores),
                    want,
                    "{rows} rows, {cores} cores"
                );
                assert_eq!(scan_workers(Some(1), rows, cores), 1);
                assert_eq!(scan_workers(Some(4), rows, cores), 4);
            }
        }
        assert_eq!(scan_workers(Some(0), 0, 8), 1);
    }

    /// A budgeted scan's horizon is its batch prefix: the batch that
    /// reaches the budget is the last one, and only the prefix's rows
    /// count toward the worker policy. Unbudgeted, it is every batch.
    #[test]
    fn tuple_budget_horizon_counts_only_its_prefix() {
        // 4M sample rows in 4,096-row batches, the last one short.
        let batches = || (0..977).map(|i| if i < 976 { 4_096 } else { 2_304 });
        assert_eq!(scan_horizon(batches(), usize::MAX), (977, 4_000_000));
        assert_eq!(scan_horizon(batches(), 10_000), (3, 12_288));
        assert_eq!(scan_horizon(batches(), 8_192), (2, 8_192));
        assert_eq!(
            scan_horizon(batches(), 0),
            (1, 4_096),
            "one batch always runs"
        );
        assert_eq!(scan_horizon(std::iter::empty(), 10), (0, 0));
        let (_, prefix_rows) = scan_horizon(batches(), 10_000);
        assert_eq!(scan_workers(None, prefix_rows, 8), 1);
        assert_eq!(scan_workers(None, 4_000_000, 8), 8);
    }

    #[test]
    fn executes_simple_avg() {
        let mut s = session(20_000);
        let r = s
            .execute(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN 10 AND 30",
                Mode::NoLearn,
                StopPolicy::ScanAll,
            )
            .unwrap()
            .unwrap_answered();
        assert_eq!(r.rows.len(), 1);
        let cell = &r.rows[0].values[0];
        let exact = s
            .exact(
                &AggregateFn::Avg(Expr::col("rev")),
                &Predicate::between("week", 10.0, 30.0),
            )
            .unwrap();
        assert!((cell.raw_answer - exact).abs() / exact < 0.05);
    }

    #[test]
    fn unsupported_queries_classified() {
        let mut s = session(1000);
        let out = s
            .execute(
                "SELECT AVG(rev) FROM t WHERE region LIKE '%u%'",
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
        assert!(!out.is_answered());
    }

    #[test]
    fn verdict_improves_after_training() {
        let mut s = session(30_000);
        // Warm-up: overlapping range queries.
        for lo in (0..90).step_by(10) {
            s.execute(
                &format!(
                    "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
                    lo + 10
                ),
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
        }
        s.train().unwrap();
        let r = s
            .execute(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN 25 AND 45",
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap()
            .unwrap_answered();
        let cell = &r.rows[0].values[0];
        assert!(cell.improved.error <= cell.raw_error, "theorem 1");
        assert!(cell.improved.used_model, "model should engage");
    }

    #[test]
    fn group_by_produces_rows_per_group() {
        let mut s = session(5000);
        let r = s
            .execute(
                "SELECT region, COUNT(*) FROM t GROUP BY region",
                Mode::NoLearn,
                StopPolicy::ScanAll,
            )
            .unwrap()
            .unwrap_answered();
        assert_eq!(r.rows.len(), 3);
        let total: f64 = r.rows.iter().map(|row| row.values[0].raw_answer).sum();
        assert!((total - 5000.0).abs() / 5000.0 < 0.02, "total {total}");
    }

    #[test]
    fn sum_combines_avg_and_count() {
        let mut s = session(10_000);
        let r = s
            .execute(
                "SELECT SUM(rev) FROM t WHERE week <= 50",
                Mode::NoLearn,
                StopPolicy::ScanAll,
            )
            .unwrap()
            .unwrap_answered();
        let cell = &r.rows[0].values[0];
        let exact = s
            .exact(
                &AggregateFn::Sum(Expr::col("rev")),
                &Predicate::less_than("week", 50.0, true),
            )
            .unwrap();
        let rel = (cell.raw_answer - exact).abs() / exact;
        assert!(rel < 0.05, "sum rel err {rel}");
        assert!(cell.raw_error.is_finite());
    }

    #[test]
    fn stop_policy_early_exit() {
        let mut s = session(50_000);
        let all = s
            .execute("SELECT AVG(rev) FROM t", Mode::NoLearn, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
        let budget = s
            .execute(
                "SELECT AVG(rev) FROM t",
                Mode::NoLearn,
                StopPolicy::TupleBudget(500),
            )
            .unwrap()
            .unwrap_answered();
        assert!(budget.tuples_scanned < all.tuples_scanned);
        let target = s
            .execute(
                "SELECT AVG(rev) FROM t",
                Mode::NoLearn,
                StopPolicy::RelativeErrorBound {
                    target: 0.05,
                    delta: 0.95,
                },
            )
            .unwrap()
            .unwrap_answered();
        assert!(target.tuples_scanned <= all.tuples_scanned);
    }

    #[test]
    fn verdict_stops_earlier_than_nolearn_at_same_target() {
        let mut s = session(50_000);
        for lo in (0..95).step_by(5) {
            s.execute(
                &format!(
                    "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
                    lo + 5
                ),
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
        }
        s.train().unwrap();
        let policy = StopPolicy::RelativeErrorBound {
            target: 0.01,
            delta: 0.95,
        };
        let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 20 AND 60";
        let nolearn = s
            .execute(sql, Mode::NoLearn, policy)
            .unwrap()
            .unwrap_answered();
        let verdict = s
            .execute(sql, Mode::Verdict, policy)
            .unwrap()
            .unwrap_answered();
        assert!(
            verdict.tuples_scanned <= nolearn.tuples_scanned,
            "verdict {} vs nolearn {}",
            verdict.tuples_scanned,
            nolearn.tuples_scanned
        );
    }

    #[test]
    fn multi_sample_rotation_changes_raw_answers() {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let mut state = 9u64;
        for i in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            t.push_row(vec![((i % 100) as f64).into(), (10.0 * u).into()])
                .unwrap();
        }
        let mut s = SessionBuilder::new(t)
            .sample_fraction(0.1)
            .batch_size(200)
            .num_samples(3)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(s.num_samples(), 3);
        let sql = "SELECT AVG(rev) FROM t WHERE week <= 50";
        let mut answers = Vec::new();
        for i in 0..3 {
            s.set_active_sample(i).unwrap();
            let r = s
                .execute(sql, Mode::NoLearn, StopPolicy::TupleBudget(400))
                .unwrap()
                .unwrap_answered();
            answers.push(r.rows[0].values[0].raw_answer);
        }
        // Distinct samples yield distinct sampling noise.
        assert!(
            answers[0] != answers[1] || answers[1] != answers[2],
            "rotation produced identical answers: {answers:?}"
        );
        // An out-of-range index is refused, not wrapped: silent `% 3`
        // masked caller bugs (the active sample stays untouched).
        assert!(s.set_active_sample(3).is_err());
        assert_eq!(s.active_sample(), 2);
    }

    /// `set_active_sample(k)` selects the shard's fixed sample: `execute`
    /// scans sample `k`, and `ingest` estimates its Lemma-3 shift against
    /// sample `k` (not sample 0).
    #[test]
    fn set_active_sample_is_honoured_by_execute_and_ingest() {
        let mut s = SessionBuilder::new(base_rotation_table())
            .sample_fraction(0.1)
            .batch_size(200)
            .num_samples(3)
            .seed(1)
            .build()
            .unwrap();
        let sample_revs = |s: &VerdictSession, k: usize| -> Vec<f64> {
            let snapshot = s.snapshot();
            let table = snapshot.samples()[k].table();
            table.column("rev").unwrap().numeric().unwrap().to_vec()
        };
        // execute: a full scan's raw AVG is the mean of sample k's rows.
        let mut answers = Vec::new();
        for k in 0..3 {
            s.set_active_sample(k).unwrap();
            assert_eq!(s.active_sample(), k);
            let r = s
                .execute("SELECT AVG(rev) FROM t", Mode::NoLearn, StopPolicy::ScanAll)
                .unwrap()
                .unwrap_answered();
            let revs = sample_revs(&s, k);
            let mean = revs.iter().sum::<f64>() / revs.len() as f64;
            let got = r.rows[0].values[0].raw_answer;
            assert!((got - mean).abs() < 1e-9, "sample {k}: {got} vs {mean}");
            answers.push(got);
        }
        assert!(answers[0] != answers[1] && answers[1] != answers[2]);

        // ingest: the stored AVG observations move by the shift estimated
        // from the *active* sample's values, bit for bit.
        s.set_active_sample(2).unwrap();
        for hi in [30, 60, 90] {
            let sql = format!("SELECT AVG(rev) FROM t WHERE week <= {hi}");
            s.execute(&sql, Mode::Verdict, StopPolicy::ScanAll).unwrap();
        }
        let avg_observations = |s: &VerdictSession| -> Vec<Observation> {
            let state = EngineState::from_bytes(&s.snapshot().state_bytes()).unwrap();
            let (_, synopsis) = state
                .synopses
                .into_iter()
                .find(|(k, _)| *k == AggKey::avg("rev"))
                .unwrap();
            synopsis.entries().iter().map(|e| e.observation).collect()
        };
        let before = avg_observations(&s);
        assert_eq!(before.len(), 3);
        let old_rows = s.table().num_rows();
        let new_values: Vec<f64> = (0..300).map(|i| 20.0 + (i % 7) as f64).collect();
        let estimate =
            |k: usize| AppendAdjustment::estimate(&sample_revs(&s, k), &new_values, old_rows, 300);
        let (want, other) = (estimate(2), estimate(0));
        assert_ne!(want.mu_shift.to_bits(), other.mu_shift.to_bits());
        let batch: Vec<Vec<Value>> = new_values
            .iter()
            .enumerate()
            .map(|(i, v)| vec![((i % 100) as f64).into(), "us".into(), (*v).into()])
            .collect();
        s.ingest(&batch).unwrap();
        for (after, old) in avg_observations(&s).iter().zip(&before) {
            let expect = want.adjust(*old);
            assert_eq!(after.answer.to_bits(), expect.answer.to_bits());
            assert_eq!(after.error.to_bits(), expect.error.to_bits());
        }
    }

    #[test]
    fn round_robin_rotation_advances_per_query() {
        let mut s = SessionBuilder::new(base_rotation_table())
            .sample_fraction(0.2)
            .batch_size(100)
            .num_samples(3)
            .sample_rotation(SampleRotation::RoundRobin)
            .seed(4)
            .build()
            .unwrap();
        let sql = "SELECT AVG(rev) FROM t WHERE week <= 50";
        assert_eq!(s.active_sample(), 0);
        let mut answers = Vec::new();
        for expect_next in [1, 2, 0, 1] {
            let r = s
                .execute(sql, Mode::NoLearn, StopPolicy::TupleBudget(400))
                .unwrap()
                .unwrap_answered();
            answers.push(r.rows[0].values[0].raw_answer);
            assert_eq!(s.active_sample(), expect_next, "advances after the query");
        }
        // Queries 0 and 3 hit sample 0 again: identical answers; the
        // middle queries saw different samples, so some answer differs.
        assert_eq!(answers[0].to_bits(), answers[3].to_bits());
        assert!(
            answers[0] != answers[1] || answers[1] != answers[2],
            "rotation must change the scanned sample: {answers:?}"
        );
        // Unsupported queries do not advance the rotation.
        let before = s.active_sample();
        let out = s
            .execute(
                "SELECT AVG(rev) FROM t WHERE region LIKE '%u%'",
                Mode::NoLearn,
                StopPolicy::ScanAll,
            )
            .unwrap();
        assert!(!out.is_answered());
        assert_eq!(s.active_sample(), before);
    }

    fn base_rotation_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let mut state = 9u64;
        for i in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let region = ["us", "eu", "jp"][i % 3];
            t.push_row(vec![
                ((i % 100) as f64).into(),
                region.into(),
                (10.0 * u).into(),
            ])
            .unwrap();
        }
        t
    }

    fn temp_store(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("verdict-session-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn session_persistent(rows: usize, dir: &std::path::Path) -> VerdictSession {
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
        SessionBuilder::new(t)
            .sample_fraction(0.2)
            .batch_size(200)
            .seed(5)
            .persist_to(dir)
            .build()
            .unwrap()
    }

    #[test]
    fn persistent_session_warm_starts_with_identical_bounds() {
        let dir = temp_store("warm");
        let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 25 AND 45";
        let (bound_before, raw_before) = {
            let mut s = session_persistent(30_000, &dir);
            assert!(s.is_persistent());
            for lo in (0..90).step_by(10) {
                s.execute(
                    &format!(
                        "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
                        lo + 10
                    ),
                    Mode::Verdict,
                    StopPolicy::ScanAll,
                )
                .unwrap();
            }
            s.train().unwrap();
            let r = s
                .execute(sql, Mode::Verdict, StopPolicy::ScanAll)
                .unwrap()
                .unwrap_answered();
            let cell = &r.rows[0].values[0];
            assert!(cell.improved.used_model);
            (cell.improved.error, cell.raw_error)
        };
        // "Restart": a brand-new session recovered purely from disk.
        let mut s = SessionBuilder::open(&dir).unwrap().build().unwrap();
        let report = s.recovery_report().expect("warm start").clone();
        assert!(report.records_replayed > 0 || report.snapshot_last_seq > 0);
        let r = s
            .execute(sql, Mode::Verdict, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
        let cell = &r.rows[0].values[0];
        assert!(cell.improved.used_model, "model must survive the restart");
        assert_eq!(
            cell.improved.error.to_bits(),
            bound_before.to_bits(),
            "warm-started bound must match the pre-restart bound exactly"
        );
        assert_eq!(cell.raw_error.to_bits(), raw_before.to_bits());
        assert!(cell.improved.error <= cell.raw_error);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_session_has_no_model_but_warm_does() {
        let dir = temp_store("coldwarm");
        {
            let mut s = session_persistent(20_000, &dir);
            for lo in (0..90).step_by(10) {
                s.execute(
                    &format!(
                        "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
                        lo + 10
                    ),
                    Mode::Verdict,
                    StopPolicy::ScanAll,
                )
                .unwrap();
            }
            s.train().unwrap();
        }
        let warm = SessionBuilder::open(&dir).unwrap().build().unwrap();
        assert!(warm.snapshot().has_model(&AggKey::avg("rev")));
        // A cold session over the same table knows nothing.
        let cold = session(20_000);
        assert!(!cold.snapshot().has_model(&AggKey::avg("rev")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drift fix: the serial session used to refit first and only then
    /// return a parked store error (from the checkpoint), leaving the
    /// models mutated by a call that reported failure.
    #[test]
    fn train_surfaces_parked_store_error_before_refitting() {
        let dir = temp_store("parked-train");
        let mut s = session_persistent(20_000, &dir);
        for lo in (0..90).step_by(10) {
            s.execute(
                &format!(
                    "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
                    lo + 10
                ),
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
        }
        let before = s.snapshot().state_bytes();
        let store = s.shard.store.as_ref().expect("persistent session");
        store
            .lock()
            .park_error(StoreError::Mismatch("injected failure".into()));
        assert!(matches!(s.train(), Err(Error::Store(_))));
        assert_eq!(s.snapshot().state_bytes(), before, "nothing was refit");
        assert!(!s.snapshot().has_model(&AggKey::avg("rev")));
        // Surfacing consumed the error: the retry trains and checkpoints.
        s.train().unwrap();
        assert!(s.snapshot().has_model(&AggKey::avg("rev")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_to_existing_store_refused() {
        let dir = temp_store("exists");
        {
            let _ = session_persistent(1000, &dir);
        }
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..100 {
            t.push_row(vec![(i as f64).into(), 1.0.into()]).unwrap();
        }
        let err = SessionBuilder::new(t).persist_to(&dir).build();
        assert!(
            matches!(err, Err(Error::Store(_))),
            "must refuse to clobber"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_session_keeps_logging_and_compacting() {
        let dir = temp_store("relog");
        {
            let mut s = session_persistent(5000, &dir);
            s.execute(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN 1 AND 20",
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
        }
        {
            let mut s = SessionBuilder::open(&dir).unwrap().build().unwrap();
            let observed_before = s.snapshot().stats().observed;
            s.execute(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN 30 AND 60",
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
            assert!(s.snapshot().stats().observed > observed_before);
            s.checkpoint().unwrap();
        }
        // Third generation of the session still sees everything.
        let s = SessionBuilder::open(&dir).unwrap().build().unwrap();
        assert_eq!(
            s.recovery_report().unwrap().records_replayed,
            0,
            "checkpoint folded the log"
        );
        assert!(s.snapshot().synopsis_len(&AggKey::avg("rev")) >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_policy_override_after_open_is_honored() {
        let dir = temp_store("policy");
        {
            let mut s = session_persistent(5000, &dir);
            s.execute(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN 1 AND 20",
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
        }
        // Warm start with an aggressive compaction policy: every query
        // must fold the log into a new snapshot generation.
        {
            let mut s = SessionBuilder::open(&dir)
                .unwrap()
                .store_policy(verdict_store::StorePolicy {
                    compact_after_records: 1,
                    ..Default::default()
                })
                .build()
                .unwrap();
            let gen_before = s.recovery_report().unwrap().snapshot_gen;
            s.execute(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN 30 AND 50",
                Mode::Verdict,
                StopPolicy::ScanAll,
            )
            .unwrap();
            drop(s);
            let s = SessionBuilder::open(&dir).unwrap().build().unwrap();
            assert!(
                s.recovery_report().unwrap().snapshot_gen > gen_before,
                "override must reach the store (gen did not advance)"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_to_after_open_with_other_path_refused() {
        let dir = temp_store("split");
        {
            let _s = session_persistent(2000, &dir);
        }
        let other = temp_store("split-other");
        let err = SessionBuilder::open(&dir)
            .unwrap()
            .persist_to(&other)
            .build();
        assert!(matches!(err, Err(Error::Store(_))), "split stores refused");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
    }

    #[test]
    fn count_answer_scales_to_base() {
        let mut s = session(10_000);
        let r = s
            .execute(
                "SELECT COUNT(*) FROM t WHERE week <= 10",
                Mode::NoLearn,
                StopPolicy::ScanAll,
            )
            .unwrap()
            .unwrap_answered();
        let cell = &r.rows[0].values[0];
        // Weeks cycle 1..=100 → ~10% of rows.
        assert!(
            (cell.raw_answer - 1000.0).abs() < 150.0,
            "{}",
            cell.raw_answer
        );
    }
}
