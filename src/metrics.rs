//! Engine-side observability glue: pre-registered per-table metric
//! handles and the public [`CheckpointReport`].
//!
//! The zero-dependency primitives (counters, gauges, histograms, the
//! query trace/log) live in [`verdict_obs`] (re-exported as
//! [`crate::obs`]); this module binds them to the engine's pipeline.
//! Every shard owns a `TableObs`: when metrics are enabled it
//! holds one pre-registered handle per metric (registration walks a
//! `Mutex`-guarded map, so it happens once at build time; the hot path
//! only touches lock-free atomics), and when disabled every recording
//! method returns immediately without reading a clock or touching an
//! atomic.
//!
//! ## Metric catalog
//!
//! All series carry a `table` label. Counters (monotone):
//!
//! | name | meaning |
//! |---|---|
//! | `verdict_queries_started` | `execute`/`query` calls that parsed, resolved their table, and passed the store-error gate |
//! | `verdict_queries_answered` | queries that produced a [`crate::QueryResult`] |
//! | `verdict_queries_unsupported` | queries classified outside the supported class |
//! | `verdict_tuples_scanned_total` | sample tuples visited by shared scans |
//! | `verdict_scan_chunks_total` | chunk segments visited by the chunked scan kernel |
//! | `verdict_scan_chunks_pruned_total` | chunk segments skipped via zone maps without touching data |
//! | `verdict_scan_morsels_total` | morsels claimed by parallel scan workers |
//! | `verdict_scan_workers_total` | threads shared scans ran on, the calling one included (1 per serial scan) |
//! | `verdict_partitions_pruned_total` | sample partitions skipped wholesale via partition summaries |
//! | `verdict_partition_cache_hits_total` | out-of-core segment pins served from the partition cache |
//! | `verdict_partition_cache_misses_total` | out-of-core segment pins that faulted the segment from disk |
//! | `verdict_partition_fault_ns_total` | nanoseconds spent faulting those segments in (read, CRC check, decode, draw); ÷ misses = cost of one fault |
//! | `verdict_partition_cache_evictions_total` | cached segments evicted to stay under the memory budget |
//! | `verdict_rows_matched_total` | scanned rows that passed the base predicate |
//! | `verdict_cells_total` | result cells (groups × aggregates) answered |
//! | `verdict_cells_frozen_early_total` | cells that met the stop policy before the scan ended |
//! | `verdict_snippets_observed_total` | raw observations absorbed into the synopsis |
//! | `verdict_groups_dropped_total` | groups dropped by the `N_max` cap |
//! | `verdict_ingest_batches_total` / `verdict_ingest_rows_total` | ingest calls / rows appended |
//! | `verdict_train_total` | training passes |
//! | `verdict_checkpoints_total` / `verdict_checkpoint_bytes_total` | snapshot generations written / bytes |
//!
//! Histograms (log₂ buckets, nanoseconds unless noted):
//! `verdict_query_latency_ns`, per-stage `verdict_stage_{parse,plan,scan,
//! infer,absorb}_ns`, `verdict_ingest_latency_ns` with its two timed
//! shares `verdict_ingest_shift_ns` (the Lemma-3 shift estimate) and
//! `verdict_refit_ns` (synopsis rewrite + model refit),
//! `verdict_checkpoint_ns`, `verdict_train_ns` (a training pass under the
//! writer lock) with its two halves `verdict_train_search_ns` (the
//! lengthscale searches, in wall time: a search's starts run concurrently,
//! so it reads about the slowest start's time, not the sum over starts)
//! and `verdict_train_fit_ns` (`Σₙ`, its factor, `α`), and
//! `verdict_scan_selectivity_pct` (percent of scanned rows that matched
//! the base predicate, one sample per answered query).
//!
//! Gauges (last written value): `verdict_synopsis_snippets`,
//! `verdict_synopsis_keys`, `verdict_sample_rows`, `verdict_epoch`,
//! `verdict_data_epoch`, `verdict_widening_magnitude` (Lemma-3
//! `Σ(|µ|+η)` of the most recent ingest),
//! `verdict_partitions_resident_bytes` (bytes of paged sample segments
//! currently cached in memory), and the store poll
//! `verdict_wal_appends`, `verdict_wal_bytes`,
//! `verdict_store_snapshots`, `verdict_store_snapshot_bytes`.

use std::sync::Arc;
use std::time::Duration;

use verdict_core::TrainReport;
use verdict_obs::{Counter, Gauge, Histogram, MetricsHub, QueryLog, QueryTrace};
use verdict_storage::CacheCounters;
use verdict_store::StoreStats;

use crate::session::IngestReport;

/// What one [`crate::VerdictSession::checkpoint`] (or
/// [`crate::Database::checkpoint`]) call wrote.
///
/// All zeros when the session has no durable store (checkpoint is a
/// no-op there). The numbers come from the store's own
/// [`verdict_store::SnapshotReceipt`] — the single timing source the
/// metrics layer also reads, so the report and the
/// `verdict_checkpoint_*` series can never disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Snapshot generations written (one per checkpointed table).
    pub snapshots_written: u64,
    /// Bytes written across those snapshot files (base rows go to their
    /// part files at ingest, never at a checkpoint).
    pub bytes_written: u64,
    /// Wall-clock spent encoding and writing.
    pub elapsed: Duration,
}

impl CheckpointReport {
    /// Folds another table's checkpoint into this one (database-wide
    /// checkpoints aggregate per-shard receipts).
    pub(crate) fn absorb(&mut self, other: &CheckpointReport) {
        self.snapshots_written += other.snapshots_written;
        self.bytes_written += other.bytes_written;
        self.elapsed += other.elapsed;
    }

    /// Builds a one-snapshot report from a store receipt.
    pub(crate) fn from_receipt(receipt: &verdict_store::SnapshotReceipt) -> CheckpointReport {
        CheckpointReport {
            snapshots_written: 1,
            bytes_written: receipt.bytes_written,
            elapsed: receipt.elapsed,
        }
    }
}

/// Pre-registered handles for every per-table series (present iff the
/// hub is attached). Handles are `Arc`-backed, so cloning the bundle
/// shares the underlying atomics.
#[derive(Clone)]
struct Handles {
    queries_started: Counter,
    queries_answered: Counter,
    queries_unsupported: Counter,
    query_latency_ns: Histogram,
    stage_parse_ns: Histogram,
    stage_plan_ns: Histogram,
    stage_scan_ns: Histogram,
    stage_infer_ns: Histogram,
    stage_absorb_ns: Histogram,
    tuples_scanned: Counter,
    scan_chunks: Counter,
    scan_chunks_pruned: Counter,
    scan_morsels: Counter,
    scan_workers: Counter,
    partitions_pruned: Counter,
    partition_cache_hits: Counter,
    partition_cache_misses: Counter,
    partition_fault_ns: Counter,
    partition_cache_evictions: Counter,
    partitions_resident_bytes: Gauge,
    rows_matched: Counter,
    scan_selectivity_pct: Histogram,
    cells: Counter,
    cells_frozen_early: Counter,
    snippets_observed: Counter,
    groups_dropped: Counter,
    ingest_batches: Counter,
    ingest_rows: Counter,
    ingest_latency_ns: Histogram,
    shift_ns: Histogram,
    refit_ns: Histogram,
    widening_magnitude: Gauge,
    train_total: Counter,
    train_ns: Histogram,
    train_search_ns: Histogram,
    train_fit_ns: Histogram,
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    checkpoint_ns: Histogram,
    wal_appends: Gauge,
    wal_bytes: Gauge,
    store_snapshots: Gauge,
    store_snapshot_bytes: Gauge,
    synopsis_snippets: Gauge,
    synopsis_keys: Gauge,
    sample_rows: Gauge,
    epoch: Gauge,
    data_epoch: Gauge,
}

impl Handles {
    fn register(hub: &MetricsHub, table: &str) -> Handles {
        Handles {
            queries_started: hub.table_counter("verdict_queries_started", table),
            queries_answered: hub.table_counter("verdict_queries_answered", table),
            queries_unsupported: hub.table_counter("verdict_queries_unsupported", table),
            query_latency_ns: hub.table_histogram("verdict_query_latency_ns", table),
            stage_parse_ns: hub.table_histogram("verdict_stage_parse_ns", table),
            stage_plan_ns: hub.table_histogram("verdict_stage_plan_ns", table),
            stage_scan_ns: hub.table_histogram("verdict_stage_scan_ns", table),
            stage_infer_ns: hub.table_histogram("verdict_stage_infer_ns", table),
            stage_absorb_ns: hub.table_histogram("verdict_stage_absorb_ns", table),
            tuples_scanned: hub.table_counter("verdict_tuples_scanned_total", table),
            scan_chunks: hub.table_counter("verdict_scan_chunks_total", table),
            scan_chunks_pruned: hub.table_counter("verdict_scan_chunks_pruned_total", table),
            scan_morsels: hub.table_counter("verdict_scan_morsels_total", table),
            scan_workers: hub.table_counter("verdict_scan_workers_total", table),
            partitions_pruned: hub.table_counter("verdict_partitions_pruned_total", table),
            partition_cache_hits: hub.table_counter("verdict_partition_cache_hits_total", table),
            partition_cache_misses: hub
                .table_counter("verdict_partition_cache_misses_total", table),
            partition_fault_ns: hub.table_counter("verdict_partition_fault_ns_total", table),
            partition_cache_evictions: hub
                .table_counter("verdict_partition_cache_evictions_total", table),
            partitions_resident_bytes: hub.table_gauge("verdict_partitions_resident_bytes", table),
            rows_matched: hub.table_counter("verdict_rows_matched_total", table),
            scan_selectivity_pct: hub.table_histogram("verdict_scan_selectivity_pct", table),
            cells: hub.table_counter("verdict_cells_total", table),
            cells_frozen_early: hub.table_counter("verdict_cells_frozen_early_total", table),
            snippets_observed: hub.table_counter("verdict_snippets_observed_total", table),
            groups_dropped: hub.table_counter("verdict_groups_dropped_total", table),
            ingest_batches: hub.table_counter("verdict_ingest_batches_total", table),
            ingest_rows: hub.table_counter("verdict_ingest_rows_total", table),
            ingest_latency_ns: hub.table_histogram("verdict_ingest_latency_ns", table),
            shift_ns: hub.table_histogram("verdict_ingest_shift_ns", table),
            refit_ns: hub.table_histogram("verdict_refit_ns", table),
            widening_magnitude: hub.table_gauge("verdict_widening_magnitude", table),
            train_total: hub.table_counter("verdict_train_total", table),
            train_ns: hub.table_histogram("verdict_train_ns", table),
            train_search_ns: hub.table_histogram("verdict_train_search_ns", table),
            train_fit_ns: hub.table_histogram("verdict_train_fit_ns", table),
            checkpoints: hub.table_counter("verdict_checkpoints_total", table),
            checkpoint_bytes: hub.table_counter("verdict_checkpoint_bytes_total", table),
            checkpoint_ns: hub.table_histogram("verdict_checkpoint_ns", table),
            wal_appends: hub.table_gauge("verdict_wal_appends", table),
            wal_bytes: hub.table_gauge("verdict_wal_bytes", table),
            store_snapshots: hub.table_gauge("verdict_store_snapshots", table),
            store_snapshot_bytes: hub.table_gauge("verdict_store_snapshot_bytes", table),
            synopsis_snippets: hub.table_gauge("verdict_synopsis_snippets", table),
            synopsis_keys: hub.table_gauge("verdict_synopsis_keys", table),
            sample_rows: hub.table_gauge("verdict_sample_rows", table),
            epoch: hub.table_gauge("verdict_epoch", table),
            data_epoch: hub.table_gauge("verdict_data_epoch", table),
        }
    }
}

/// One table's observability endpoint: the (optional) metric handle
/// bundle plus the (optional) shared query log. Both halves are
/// independent — a session can keep a query log with no metrics hub and
/// vice versa. Cloning shares both.
#[derive(Clone, Default)]
pub(crate) struct TableObs {
    hub: Option<Arc<MetricsHub>>,
    handles: Option<Handles>,
    log: Option<Arc<QueryLog>>,
}

impl TableObs {
    pub(crate) fn new(
        hub: Option<Arc<MetricsHub>>,
        log: Option<Arc<QueryLog>>,
        table: &str,
    ) -> TableObs {
        let handles = hub.as_ref().map(|h| Handles::register(h, table));
        TableObs { hub, handles, log }
    }

    /// Whether per-stage stopwatches should run (metrics or query log
    /// attached). When false the execute path reads no stage clocks.
    pub(crate) fn tracing(&self) -> bool {
        self.handles.is_some() || self.log.is_some()
    }

    pub(crate) fn hub(&self) -> Option<&Arc<MetricsHub>> {
        self.hub.as_ref()
    }

    pub(crate) fn log(&self) -> Option<&Arc<QueryLog>> {
        self.log.as_ref()
    }

    /// A parsed, resolved query passed the store-error gate.
    pub(crate) fn query_started(&self) {
        if let Some(h) = &self.handles {
            h.queries_started.inc();
        }
    }

    /// A query was classified unsupported (it still "finished").
    pub(crate) fn query_unsupported(&self) {
        if let Some(h) = &self.handles {
            h.queries_unsupported.inc();
        }
    }

    /// An answered query: bump every engine-fact series and push the
    /// trace into the query log.
    pub(crate) fn record_query(&self, trace: QueryTrace, groups_dropped: usize) {
        if let Some(h) = &self.handles {
            h.queries_answered.inc();
            h.query_latency_ns.record(trace.elapsed_ns);
            h.stage_parse_ns.record(trace.stages.parse_ns);
            h.stage_plan_ns.record(trace.stages.plan_ns);
            h.stage_scan_ns.record(trace.stages.scan_ns);
            h.stage_infer_ns.record(trace.stages.infer_ns);
            h.stage_absorb_ns.record(trace.stages.absorb_ns);
            h.tuples_scanned.add(trace.tuples_scanned);
            h.scan_chunks.add(trace.chunks);
            h.scan_chunks_pruned.add(trace.chunks_pruned);
            h.scan_morsels.add(trace.morsels);
            h.scan_workers.add(trace.workers);
            h.partitions_pruned.add(trace.partitions_pruned);
            h.rows_matched.add(trace.rows_matched);
            if let Some(sel) = (trace.rows_matched * 100).checked_div(trace.tuples_scanned) {
                h.scan_selectivity_pct.record(sel);
            }
            h.cells.add(trace.cells);
            h.cells_frozen_early.add(trace.cells_frozen_early);
            h.snippets_observed.add(trace.snippets_observed);
            h.groups_dropped.add(groups_dropped as u64);
            h.epoch.set(trace.epoch as f64);
            h.data_epoch.set(trace.data_epoch as f64);
        }
        if let Some(log) = &self.log {
            log.push(trace);
        }
    }

    /// One ingest call, from the report the caller is about to return —
    /// the report *is* the instrumentation, so the metrics and the
    /// returned numbers share one clock.
    pub(crate) fn record_ingest(&self, report: &IngestReport) {
        if let Some(h) = &self.handles {
            h.ingest_batches.inc();
            h.ingest_rows.add(report.appended_rows as u64);
            h.ingest_latency_ns.record(duration_ns(report.elapsed));
            h.shift_ns.record(duration_ns(report.shift_elapsed));
            h.refit_ns.record(duration_ns(report.refit_elapsed));
            h.widening_magnitude.set(report.widening_magnitude);
            h.data_epoch.set(report.data_epoch as f64);
        }
    }

    /// One shared scan's partition-cache activity (`delta` is the
    /// counter movement during that scan; `resident_bytes` is the cache
    /// occupancy after it).
    pub(crate) fn record_partition_cache(&self, delta: &CacheCounters) {
        if let Some(h) = &self.handles {
            h.partition_cache_hits.add(delta.hits);
            h.partition_cache_misses.add(delta.misses);
            h.partition_fault_ns.add(delta.fault_ns);
            h.partition_cache_evictions.add(delta.evictions);
            h.partitions_resident_bytes.set(delta.resident_bytes as f64);
        }
    }

    /// One training pass: its wall time under the writer lock, and the
    /// engine's own split of it into lengthscale search and model fit.
    pub(crate) fn record_train(&self, elapsed: Duration, report: &TrainReport) {
        if let Some(h) = &self.handles {
            h.train_total.inc();
            h.train_ns.record(duration_ns(elapsed));
            h.train_search_ns.record(report.search_ns);
            h.train_fit_ns.record(report.fit_ns);
        }
    }

    /// A snapshot write (explicit checkpoint or query-piggybacked
    /// compaction), from the store's own receipt.
    pub(crate) fn record_checkpoint(&self, report: &CheckpointReport) {
        if let Some(h) = &self.handles {
            h.checkpoints.add(report.snapshots_written);
            h.checkpoint_bytes.add(report.bytes_written);
            h.checkpoint_ns.record(duration_ns(report.elapsed));
        }
    }

    /// Polls the store's cumulative WAL/snapshot counters into gauges.
    pub(crate) fn refresh_store(&self, stats: StoreStats) {
        if let Some(h) = &self.handles {
            h.wal_appends.set(stats.wal_appends as f64);
            h.wal_bytes.set(stats.wal_bytes as f64);
            h.store_snapshots.set(stats.snapshots as f64);
            h.store_snapshot_bytes.set(stats.snapshot_bytes as f64);
        }
    }

    /// Refreshes the engine-state gauges (synopsis/sample sizes, epochs).
    pub(crate) fn refresh_engine(
        &self,
        synopsis_snippets: usize,
        synopsis_keys: usize,
        sample_rows: usize,
        epoch: u64,
        data_epoch: u64,
    ) {
        if let Some(h) = &self.handles {
            h.synopsis_snippets.set(synopsis_snippets as f64);
            h.synopsis_keys.set(synopsis_keys as f64);
            h.sample_rows.set(sample_rows as f64);
            h.epoch.set(epoch as f64);
            h.data_epoch.set(data_epoch as f64);
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
