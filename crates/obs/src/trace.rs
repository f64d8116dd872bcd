//! Per-query pipeline tracing and the bounded in-memory query log.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::lock;

/// Wall-clock nanoseconds spent in each pipeline stage of one query.
///
/// Stages map onto the engine pipeline: lex/parse → plan (incl. group
/// enumeration) → shared scan → inference → observe/absorb (learning,
/// with snapshot publication folded in — publication is a pointer swap
/// and not worth its own clock). Stages that did not run (e.g. `parse_ns`
/// on the prepared path, `absorb_ns` when nothing was learned) are 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Lex + parse + check + resolve (0 on the prepared path).
    pub parse_ns: u64,
    /// Snippet decomposition / plan construction / group enumeration.
    pub plan_ns: u64,
    /// The shared sample scan (batch stepping), inference excluded.
    pub scan_ns: u64,
    /// Max-entropy inference: per-batch bound evaluation + finalization.
    pub infer_ns: u64,
    /// Synopsis absorb + model update + snapshot publication.
    pub absorb_ns: u64,
}

impl StageTimings {
    /// Sum of all stage clocks (≤ the query's total elapsed time; the
    /// difference is glue: snapshot pinning, row assembly, …).
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.plan_ns + self.scan_ns + self.infer_ns + self.absorb_ns
    }
}

/// Counters filled by the shared-scan executor while a traced query runs.
/// This is the executor-facing half of a [`QueryTrace`]; the serving
/// layer folds it into the full trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanTrace {
    /// Nanoseconds spent stepping the scan (inference excluded).
    pub scan_ns: u64,
    /// Nanoseconds spent evaluating bounds / finalizing answers.
    pub infer_ns: u64,
    /// Scan batches actually stepped.
    pub batches: u64,
    /// Result cells (rows × aggregates) in the answer.
    pub cells: u64,
    /// Cells frozen before the scan ended (error target met early).
    pub cells_frozen_early: u64,
    /// Model-only priors (Eq. 11) computed — once per query, however many
    /// batches re-evaluated the bounds. 0 under `no-learn`.
    pub prior_evals: u64,
    /// Snippets recorded for the synopsis by this query.
    pub snippets_observed: u64,
    /// Chunk segments visited by the chunked kernel (0 row-wise).
    pub chunks: u64,
    /// Chunk segments skipped via zone maps without touching data.
    pub chunks_pruned: u64,
    /// Rows that passed the query's base predicate.
    pub rows_matched: u64,
    /// Morsels claimed by parallel scan workers (0 on a serial scan).
    pub morsels: u64,
    /// Threads the scan ran on, the calling one included (1 serial; 0
    /// only when nothing was scanned).
    pub workers: u64,
    /// Threads the passes over model factors (the O(n²) half of
    /// inference) ran on, the calling one included, summed over the
    /// models the query read: 1 per model read serially, 0 when it read
    /// none.
    pub infer_workers: u64,
    /// Horizontal partitions of the scanned sample (0 unpartitioned).
    pub partitions: u64,
    /// Partitions whose batches were skipped wholesale (summary provably
    /// disjoint from the predicate).
    pub partitions_pruned: u64,
    /// Out-of-core segment pins served from the partition cache (0 on a
    /// fully-resident sample).
    pub partition_cache_hits: u64,
    /// Out-of-core segment pins that faulted the segment from disk.
    pub partition_cache_misses: u64,
    /// Bytes faulted in from partition files by this query's scan.
    pub partition_bytes_faulted: u64,
    /// Nanoseconds this query's scan spent faulting segments in.
    pub partition_fault_ns: u64,
}

/// One query's trace: per-stage timings plus engine facts. Stored in the
/// [`QueryLog`] and (as [`std::sync::Arc`]) on the query result.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Monotone per-log sequence number (assigned at push).
    pub seq: u64,
    /// Catalog table the query addressed.
    pub table: String,
    /// Statement text. The prepared path stamps the template's SQL (with
    /// `?` placeholders, not the bound literals), so server-side logs
    /// stay attributable; `None` only for producers with no statement
    /// text at all.
    pub sql: Option<String>,
    /// Whether this execution came through a prepared statement.
    pub prepared: bool,
    /// Inference mode, rendered (`"verdict"` / `"no-learn"`).
    pub mode: String,
    /// Learned-state epoch the read pinned.
    pub epoch: u64,
    /// Data version the read pinned.
    pub data_epoch: u64,
    /// Sample tuples scanned.
    pub tuples_scanned: u64,
    /// Scan batches stepped.
    pub batches: u64,
    /// Result cells (rows × aggregates).
    pub cells: u64,
    /// Cells frozen before the scan ended.
    pub cells_frozen_early: u64,
    /// Model-only priors (Eq. 11, the O(n²) half of inference) this query
    /// computed: at most one per `(group, primitive stream)` pair with a
    /// model, whatever the number of batches. 0 under `no-learn`.
    pub prior_evals: u64,
    /// Snippets recorded for the synopsis.
    pub snippets_observed: u64,
    /// Chunk segments the scan visited (0 under the row-wise kernel).
    pub chunks: u64,
    /// Chunk segments skipped via zone maps without touching data.
    pub chunks_pruned: u64,
    /// Rows that passed the query's base predicate.
    pub rows_matched: u64,
    /// Morsels claimed by parallel scan workers (0 on a serial scan).
    pub morsels: u64,
    /// Threads the scan ran on, the calling one included (1 serial; 0
    /// only when nothing was scanned).
    pub workers: u64,
    /// Threads the passes over model factors (the O(n²) half of
    /// inference) ran on, the calling one included, summed over the
    /// models the query read: 1 per model read serially, 0 when it read
    /// none.
    pub infer_workers: u64,
    /// Horizontal partitions of the scanned sample (0 unpartitioned).
    pub partitions: u64,
    /// Partitions skipped wholesale by partition-level summaries.
    pub partitions_pruned: u64,
    /// Out-of-core segment pins served from the partition cache.
    pub partition_cache_hits: u64,
    /// Out-of-core segment pins that faulted the segment from disk.
    pub partition_cache_misses: u64,
    /// Bytes faulted in from partition files by this query's scan.
    pub partition_bytes_faulted: u64,
    /// Nanoseconds this query's scan spent faulting segments in.
    pub partition_fault_ns: u64,
    /// Per-stage wall-clock.
    pub stages: StageTimings,
    /// Total wall-clock for the query, nanoseconds.
    pub elapsed_ns: u64,
}

/// A bounded in-memory ring buffer of recent [`QueryTrace`]s.
///
/// Pushes assign a monotone sequence number; once `capacity` traces are
/// held, each push evicts the oldest. Cheap to share (`Arc<QueryLog>`),
/// safe from any thread.
#[derive(Debug)]
pub struct QueryLog {
    capacity: usize,
    next_seq: AtomicU64,
    ring: Mutex<VecDeque<Arc<QueryTrace>>>,
}

impl QueryLog {
    /// A log holding at most `capacity` traces (capacity 0 keeps nothing
    /// but still assigns sequence numbers).
    pub fn new(capacity: usize) -> QueryLog {
        QueryLog {
            capacity,
            next_seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    /// Whether the log holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever pushed (= the next sequence number).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Assigns the trace its sequence number, pushes it, and returns the
    /// shared handle.
    pub fn push(&self, mut trace: QueryTrace) -> Arc<QueryTrace> {
        trace.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let arc = Arc::new(trace);
        let mut ring = lock(&self.ring);
        if self.capacity > 0 {
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(Arc::clone(&arc));
        }
        arc
    }

    /// The `n` most recent traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<QueryTrace>> {
        let ring = lock(&self.ring);
        ring.iter().rev().take(n).cloned().collect()
    }
}

/// A clock that reads `Instant::now()` only when enabled — the metrics
/// hub's disabled path must not touch the OS clock at all.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts the clock.
    pub fn started() -> Stopwatch {
        Stopwatch(Some(Instant::now()))
    }

    /// A stopped clock: [`Stopwatch::elapsed_ns`] returns 0 and no time
    /// syscall is ever made.
    pub fn disabled() -> Stopwatch {
        Stopwatch(None)
    }

    /// Starts the clock only when `enabled`.
    pub fn started_if(enabled: bool) -> Stopwatch {
        if enabled {
            Stopwatch::started()
        } else {
            Stopwatch::disabled()
        }
    }

    /// Nanoseconds since the clock started (0 when disabled; saturates
    /// at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        match self.0 {
            Some(t) => {
                let n = t.elapsed().as_nanos();
                if n > u64::MAX as u128 {
                    u64::MAX
                } else {
                    n as u64
                }
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(table: &str) -> QueryTrace {
        QueryTrace {
            seq: 0,
            table: table.to_string(),
            sql: Some("SELECT 1".to_string()),
            prepared: false,
            mode: "verdict".to_string(),
            epoch: 0,
            data_epoch: 0,
            tuples_scanned: 0,
            batches: 0,
            cells: 0,
            cells_frozen_early: 0,
            prior_evals: 0,
            snippets_observed: 0,
            chunks: 0,
            chunks_pruned: 0,
            rows_matched: 0,
            morsels: 0,
            workers: 0,
            infer_workers: 0,
            partitions: 0,
            partitions_pruned: 0,
            partition_cache_hits: 0,
            partition_cache_misses: 0,
            partition_bytes_faulted: 0,
            partition_fault_ns: 0,
            stages: StageTimings::default(),
            elapsed_ns: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_monotone_seq() {
        let log = QueryLog::new(3);
        for i in 0..5 {
            let t = log.push(trace(&format!("t{i}")));
            assert_eq!(t.seq, i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total_pushed(), 5);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        // Newest first, oldest two evicted.
        assert_eq!(recent[0].seq, 4);
        assert_eq!(recent[2].seq, 2);
        assert_eq!(log.recent(1).len(), 1);
    }

    #[test]
    fn zero_capacity_log_retains_nothing() {
        let log = QueryLog::new(0);
        log.push(trace("t"));
        assert!(log.is_empty());
        assert_eq!(log.total_pushed(), 1);
    }

    #[test]
    fn disabled_stopwatch_reads_zero() {
        let sw = Stopwatch::disabled();
        assert!(sw.0.is_none());
        assert_eq!(sw.elapsed_ns(), 0);
        assert!(Stopwatch::started_if(true).0.is_some());
        assert!(Stopwatch::started_if(false).0.is_none());
    }

    #[test]
    fn stage_total_sums_all_clocks() {
        let s = StageTimings {
            parse_ns: 1,
            plan_ns: 2,
            scan_ns: 3,
            infer_ns: 4,
            absorb_ns: 5,
        };
        assert_eq!(s.total_ns(), 15);
    }
}
