//! # verdict-obs — observability substrate for the Verdict engine
//!
//! Zero-dependency metrics, pipeline tracing, and an in-memory query log.
//! This crate knows nothing about SQL, samples, or synopses — it is the
//! neutral substrate the engine crates instrument themselves with:
//!
//! - [`MetricsHub`] — a lock-free metrics registry. Registration (the
//!   cold path) takes a mutex once per distinct metric; the returned
//!   [`Counter`] / [`Gauge`] / [`Histogram`] handles are `Arc`'d atomics
//!   that hot paths update with relaxed atomic ops — no locks, no
//!   allocation, no syscalls.
//! - [`Histogram`] — fixed 64-bucket log₂-scale histogram with
//!   p50/p90/p99 extraction. Bucket *i* covers `[2^i, 2^(i+1))`, so
//!   percentiles carry ~±50% resolution; that is deliberate — the buckets
//!   are cheap, bounded, and mergeable, which is what a hot query path
//!   can afford.
//! - [`MetricsSnapshot`] — a point-in-time typed tree of every registered
//!   metric, with stable [`MetricsSnapshot::to_text`] (Prometheus-style
//!   lines) and [`MetricsSnapshot::to_json`] renderings.
//! - [`QueryTrace`] / [`StageTimings`] — one record per query: per-stage
//!   wall-clock (parse → plan → shared-scan → infer → absorb/publish) and
//!   engine facts (epoch read, tuples scanned, cells frozen early,
//!   snippets observed, prepared-vs-ad-hoc, table name).
//! - [`QueryLog`] — a bounded in-memory ring buffer of recent
//!   [`QueryTrace`]s with a monotone sequence number.
//!
//! ## The disabled path is a true no-op
//!
//! The engine threads `Option<Arc<MetricsHub>>` through its pipeline.
//! When the option is `None` nothing in this crate runs: no clocks are
//! read (see [`Stopwatch::disabled`]), no atomics are touched, and no
//! trace is allocated. The only residual cost in the engine is one
//! pointer-null check per instrumentation site, which is how the
//! ≤2% disabled-overhead guarantee is met.
//!
//! Answers are never affected by instrumentation: metrics observe the
//! pipeline, they do not participate in it. The root crate's parity test
//! proves metrics-on vs metrics-off answers are byte-identical.

mod hub;
mod snapshot;
mod trace;

pub use hub::{Counter, Gauge, Histogram, MetricsHub};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
pub use trace::{QueryLog, QueryTrace, ScanTrace, StageTimings, Stopwatch};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, absorbing poison. Every mutex in this crate guards a
/// registry map or a trace ring that each update leaves whole, so a
/// thread that panicked while recording must not take the metrics (and
/// every query that records into them) down with it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
