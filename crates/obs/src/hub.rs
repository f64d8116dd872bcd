//! The metrics registry and its lock-free handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};

/// Number of log₂ buckets in a [`Histogram`]. Bucket `i` covers values in
/// `[2^i, 2^(i+1))` (bucket 0 also absorbs 0), so 64 buckets cover the
/// whole `u64` range.
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event count. Cloning shares the underlying
/// atomic; updates are relaxed atomic adds — safe and cheap from any
/// thread.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up or down (f64, stored as bits in an atomic).
/// `set` is a plain store; `add` is a CAS loop — both lock-free.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A fixed-bucket log₂-scale histogram: 64 buckets, bucket `i` covering
/// `[2^i, 2^(i+1))`. Recording is two relaxed adds and one relaxed
/// increment — no locks, no allocation. Percentiles are extracted from
/// the bucket counts with ~±50% resolution (each bucket is represented by
/// its geometric midpoint `1.5·2^i`).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Representative value for bucket `i` (geometric midpoint of its range).
pub(crate) fn bucket_mid(i: usize) -> f64 {
    1.5 * (i as f64).exp2()
}

impl Histogram {
    fn new() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

/// Registry key: metric name plus an optional `table` label.
type Key = (String, Option<String>);

/// The metrics registry.
///
/// One hub serves a whole [`Database`](https://docs.rs/verdict): share it
/// via `Arc`. Metric handles are get-or-create by `(name, table-label)`;
/// registration locks a mutex (cold path, typically once per table at
/// build time), after which the returned handle updates shared atomics
/// without any locking.
///
/// Names follow Prometheus conventions (`verdict_queries_started_total`);
/// the only label in use is `table`.
#[derive(Default)]
pub struct MetricsHub {
    counters: Mutex<BTreeMap<Key, Counter>>,
    gauges: Mutex<BTreeMap<Key, Gauge>>,
    histograms: Mutex<BTreeMap<Key, Histogram>>,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub").finish_non_exhaustive()
    }
}

impl MetricsHub {
    /// A fresh, empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Get-or-create an unlabelled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_for(name, None)
    }

    /// Get-or-create a counter labelled `table="..."`.
    pub fn table_counter(&self, name: &str, table: &str) -> Counter {
        self.counter_for(name, Some(table))
    }

    /// Get-or-create an unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_for(name, None)
    }

    /// Get-or-create a gauge labelled `table="..."`.
    pub fn table_gauge(&self, name: &str, table: &str) -> Gauge {
        self.gauge_for(name, Some(table))
    }

    /// Get-or-create an unlabelled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_for(name, None)
    }

    /// Get-or-create a histogram labelled `table="..."`.
    pub fn table_histogram(&self, name: &str, table: &str) -> Histogram {
        self.histogram_for(name, Some(table))
    }

    fn counter_for(&self, name: &str, table: Option<&str>) -> Counter {
        let mut map = lock(&self.counters);
        map.entry((name.to_string(), table.map(str::to_string)))
            .or_insert_with(Counter::new)
            .clone()
    }

    fn gauge_for(&self, name: &str, table: Option<&str>) -> Gauge {
        let mut map = lock(&self.gauges);
        map.entry((name.to_string(), table.map(str::to_string)))
            .or_insert_with(Gauge::new)
            .clone()
    }

    fn histogram_for(&self, name: &str, table: Option<&str>) -> Histogram {
        let mut map = lock(&self.histograms);
        map.entry((name.to_string(), table.map(str::to_string)))
            .or_insert_with(Histogram::new)
            .clone()
    }

    /// Captures a point-in-time snapshot of every registered metric.
    /// Values are read with relaxed ordering; concurrent updates may or
    /// may not be included, but each individual metric is internally
    /// consistent enough for monitoring (histogram `count`/`sum`/buckets
    /// are read as three separate loads).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|((name, table), c)| CounterSnapshot {
                name: name.clone(),
                table: table.clone(),
                value: c.value(),
            })
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|((name, table), g)| GaugeSnapshot {
                name: name.clone(),
                table: table.clone(),
                value: g.value(),
            })
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|((name, table), h)| {
                HistogramSnapshot::from_parts(
                    name.clone(),
                    table.clone(),
                    h.count(),
                    h.sum(),
                    h.bucket_counts(),
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shares_state_across_clones() {
        let hub = MetricsHub::new();
        let a = hub.counter("verdict_x_total");
        let b = hub.counter("verdict_x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3);
        assert_eq!(hub.counter("verdict_x_total").value(), 3);
        // A different label is a different series.
        assert_eq!(hub.table_counter("verdict_x_total", "t").value(), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let hub = MetricsHub::new();
        let g = hub.table_gauge("verdict_rows", "t");
        g.set(10.0);
        g.add(-2.5);
        assert_eq!(g.value(), 7.5);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let hub = MetricsHub::new();
        let h = hub.histogram("verdict_latency_ns");
        // 90 small values, 10 large: p50 lands in the small bucket,
        // p99 in the large one.
        for _ in 0..90 {
            h.record(1000); // bucket 9 (512..1024 is bucket 9? 1000 < 1024 → idx 9)
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 90 * 1000 + 10 * 1_000_000);
        let snap = hub.snapshot();
        let hs = snap.histogram("verdict_latency_ns", None).unwrap();
        let p50 = hs.percentile(0.50).unwrap();
        let p99 = hs.percentile(0.99).unwrap();
        // Log-bucket resolution: within a factor of 2.
        assert!((512.0..=2048.0).contains(&p50), "p50={p50}");
        assert!((500_000.0..=2_000_000.0).contains(&p99), "p99={p99}");
        assert!(hs.percentile(0.0).is_some());
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn empty_histogram_has_no_percentile() {
        let hub = MetricsHub::new();
        hub.histogram("verdict_empty");
        let snap = hub.snapshot();
        let hs = snap.histogram("verdict_empty", None).unwrap();
        assert_eq!(hs.count, 0);
        assert!(hs.percentile(0.5).is_none());
    }
}
