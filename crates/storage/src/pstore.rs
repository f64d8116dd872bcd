//! A memory-budgeted buffer manager for demand-paged partition segments.
//!
//! Out-of-core serving keeps partition data on disk and faults it into
//! memory only when a scan actually needs it. [`PartitionStore`] is the
//! cache in the middle: segments (immutable [`Table`]s, one per
//! `(sample, partition)` pair) are loaded through a caller-supplied
//! fault function, accounted by `Table::heap_bytes`, and evicted in
//! LRU order once the configured byte budget is exceeded.
//!
//! # Pinning
//!
//! A scan pins the segment it is reading ([`PartitionStore::pin`]
//! returns a [`SegmentPin`] guard); pinned segments are never evicted,
//! so eviction can never race a scan — a worker's column slices stay
//! valid for as long as its pin lives. A serial scan whose horizon is
//! exact pins each segment once per query and holds the pin across that
//! segment's whole run of batches; the morsel scheduler's helpers, and a
//! scan that may stop at any batch, pin once per batch. Either way a
//! scanning thread holds one pin at a time. Pins may push residency past
//! the budget transiently: correctness requires only that the budget
//! admits one partition at a time, which is the documented floor.
//!
//! A fault runs its loader under the cache lock, and the map changes only
//! once the loader has returned, so a loader that panics leaves the map
//! whole: the lock absorbs the poison and later pins proceed.
//!
//! # Determinism
//!
//! The cache affects *when* I/O happens, never *what* a scan computes:
//! the fault function is a pure function of the segment key, so answers
//! are bit-identical at every budget. Only the counters
//! ([`PartitionStore::counters`]) reflect cache behavior.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::{Result, Table};

/// Identifies one cached segment: partition `partition` of sample
/// `sample` (samples of one session share a store and a budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentKey {
    /// Index of the offline sample the segment belongs to.
    pub sample: u32,
    /// Partition id within the sample's partition map.
    pub partition: u32,
}

/// Monotonic counters and the residency gauge of one
/// [`PartitionStore`], cheap to snapshot at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Pins served from a resident segment.
    pub hits: u64,
    /// Pins that had to fault the segment in.
    pub misses: u64,
    /// Segments evicted to make room.
    pub evictions: u64,
    /// Bytes loaded by faults (monotonic).
    pub bytes_faulted: u64,
    /// Wall-clock nanoseconds spent inside fault loaders (monotonic;
    /// failed faults included). `fault_ns / misses` is what one segment
    /// fault costs.
    pub fault_ns: u64,
    /// Bytes currently resident (gauge).
    pub resident_bytes: u64,
}

impl CacheCounters {
    /// Counter-wise difference against an earlier snapshot (the gauge
    /// keeps its current value — a delta of a gauge is meaningless).
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            bytes_faulted: self.bytes_faulted - earlier.bytes_faulted,
            fault_ns: self.fault_ns - earlier.fault_ns,
            resident_bytes: self.resident_bytes,
        }
    }
}

struct Entry {
    table: Arc<Table>,
    bytes: u64,
    pins: u32,
    /// Logical clock of the most recent touch (LRU ordering).
    last_used: u64,
}

struct Resident {
    entries: HashMap<SegmentKey, Entry>,
    clock: u64,
    resident_bytes: u64,
}

/// The buffer manager. Shared (`Arc`) between a session and its scan
/// workers; all methods take `&self`.
pub struct PartitionStore {
    budget_bytes: u64,
    inner: Mutex<Resident>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes_faulted: AtomicU64,
    fault_ns: AtomicU64,
}

impl std::fmt::Debug for PartitionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("PartitionStore")
            .field("budget_bytes", &self.budget_bytes)
            .field("counters", &c)
            .finish()
    }
}

impl PartitionStore {
    /// A store evicting down to `budget_bytes` of resident segments.
    /// The budget is best-effort under pinning: pinned segments are
    /// never evicted even when they exceed it.
    pub fn new(budget_bytes: u64) -> PartitionStore {
        PartitionStore {
            budget_bytes,
            inner: Mutex::new(Resident {
                entries: HashMap::new(),
                clock: 0,
                resident_bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_faulted: AtomicU64::new(0),
            fault_ns: AtomicU64::new(0),
        }
    }

    /// Locks the residency map, absorbing poison: a panicking loader
    /// leaves the map whole (see the module docs).
    fn lock(&self) -> MutexGuard<'_, Resident> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins segment `key`, faulting it in through `load` on a miss, and
    /// returns a guard keeping it resident. The fault runs under the
    /// cache lock, serializing concurrent faults of the *same* segment
    /// into one load.
    pub fn pin(
        self: &Arc<Self>,
        key: SegmentKey,
        load: impl FnOnce() -> Result<Table>,
    ) -> Result<SegmentPin> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.entries.get_mut(&key) {
            e.pins += 1;
            e.last_used = clock;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(SegmentPin {
                store: Arc::clone(self),
                key,
                table: Arc::clone(&e.table),
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A fault reads and decodes a whole partition, milliseconds against
        // the clock read's tens of nanoseconds.
        let started = Instant::now();
        let loaded = load();
        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.fault_ns.fetch_add(ns, Ordering::Relaxed);
        let table = Arc::new(loaded?);
        let bytes = table.heap_bytes();
        self.bytes_faulted.fetch_add(bytes, Ordering::Relaxed);
        inner.resident_bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                table: Arc::clone(&table),
                bytes,
                pins: 1,
                last_used: clock,
            },
        );
        self.evict_over_budget(&mut inner);
        Ok(SegmentPin {
            store: Arc::clone(self),
            key,
            table,
        })
    }

    /// LRU-touches `key` if it is resident (no fault) — the scan driver
    /// bumps every resident unpruned segment before scanning, so warm
    /// ("hot") segments outlive cold ones under eviction pressure.
    pub fn touch(&self, key: SegmentKey) -> bool {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = clock;
                true
            }
            None => false,
        }
    }

    /// Whether `key` is resident right now (no fault, no touch).
    #[cfg(test)]
    pub(crate) fn contains(&self, key: SegmentKey) -> bool {
        self.lock().entries.contains_key(&key)
    }

    /// Snapshot of the cache counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_faulted: self.bytes_faulted.load(Ordering::Relaxed),
            fault_ns: self.fault_ns.load(Ordering::Relaxed),
            resident_bytes: self.lock().resident_bytes,
        }
    }

    /// Evicts least-recently-used unpinned segments until residency is
    /// within budget (or only pinned segments remain).
    fn evict_over_budget(&self, inner: &mut Resident) {
        while inner.resident_bytes > self.budget_bytes {
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            if let Some(e) = inner.entries.remove(&key) {
                inner.resident_bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn unpin(&self, key: SegmentKey) {
        let mut inner = self.lock();
        if let Some(e) = inner.entries.get_mut(&key) {
            debug_assert!(e.pins > 0, "unpin without pin");
            e.pins = e.pins.saturating_sub(1);
        }
        self.evict_over_budget(&mut inner);
    }
}

/// Keeps one segment resident while alive; dropping unpins (and lets
/// deferred eviction reclaim space if the cache is over budget).
pub struct SegmentPin {
    store: Arc<PartitionStore>,
    key: SegmentKey,
    table: Arc<Table>,
}

impl SegmentPin {
    /// The pinned segment's rows.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }
}

impl Drop for SegmentPin {
    fn drop(&mut self) {
        self.store.unpin(self.key);
    }
}

impl std::fmt::Debug for SegmentPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentPin")
            .field("key", &self.key)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, Schema};

    fn segment(rows: usize, tag: f64) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..rows {
            t.push_row(vec![(i as f64).into(), tag.into()]).unwrap();
        }
        t
    }

    fn key(p: u32) -> SegmentKey {
        SegmentKey {
            sample: 0,
            partition: p,
        }
    }

    #[test]
    fn hit_after_miss_and_counters() {
        let bytes_one = segment(10, 0.0).heap_bytes();
        let store = Arc::new(PartitionStore::new(bytes_one * 10));
        let a = store
            .pin(key(1), || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(segment(10, 1.0))
            })
            .unwrap();
        assert_eq!(a.table().num_rows(), 10);
        let faulting = store.counters().fault_ns;
        assert!(faulting >= 2_000_000, "the loader's time is counted");
        let b = store.pin(key(1), || panic!("must not refault")).unwrap();
        assert!(Arc::ptr_eq(a.table(), b.table()), "one resident copy");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (1, 1, 0));
        assert_eq!(c.fault_ns, faulting, "a hit adds no fault time");
        assert_eq!(c.bytes_faulted, bytes_one);
        assert_eq!(c.resident_bytes, bytes_one);
    }

    #[test]
    fn lru_eviction_under_budget_pressure() {
        let bytes_one = segment(100, 0.0).heap_bytes();
        // Room for two segments.
        let store = Arc::new(PartitionStore::new(bytes_one * 2));
        for p in 0..2 {
            drop(store.pin(key(p), || Ok(segment(100, p as f64))).unwrap());
        }
        // Touch 0 so 1 is the LRU victim when 2 faults in.
        assert!(store.touch(key(0)));
        drop(store.pin(key(2), || Ok(segment(100, 2.0))).unwrap());
        assert!(store.contains(key(0)));
        assert!(!store.contains(key(1)), "LRU segment must be evicted");
        assert!(store.contains(key(2)));
        let c = store.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.resident_bytes, bytes_one * 2);
    }

    #[test]
    fn pinned_segments_survive_over_budget() {
        let bytes_one = segment(100, 0.0).heap_bytes();
        // Budget fits only one segment.
        let store = Arc::new(PartitionStore::new(bytes_one));
        let p0 = store.pin(key(0), || Ok(segment(100, 0.0))).unwrap();
        let p1 = store.pin(key(1), || Ok(segment(100, 1.0))).unwrap();
        // Both pinned: nothing evictable, residency transiently exceeds
        // the budget, and both tables stay readable.
        assert_eq!(store.counters().resident_bytes, bytes_one * 2);
        assert_eq!(p0.table().num_rows(), 100);
        assert_eq!(p1.table().num_rows(), 100);
        drop(p0);
        // Unpinning triggers the deferred eviction of the now-LRU entry.
        assert!(!store.contains(key(0)));
        assert!(store.contains(key(1)));
        drop(p1);
    }

    /// A loader that panics mid-fault poisons the cache lock, but the
    /// map was not touched: the next pin of the same key faults it in.
    #[test]
    fn panicking_fault_does_not_poison_the_cache() {
        let store = Arc::new(PartitionStore::new(u64::MAX));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = store.pin(key(4), || panic!("loader died"));
        }));
        assert!(crashed.is_err());
        assert!(!store.contains(key(4)));
        let pin = store.pin(key(4), || Ok(segment(10, 4.0))).unwrap();
        assert_eq!(pin.table().num_rows(), 10);
        drop(pin);
        assert!(store.contains(key(4)));
        let c = store.counters();
        assert_eq!((c.hits, c.misses), (0, 2));
        assert_eq!(c.resident_bytes, segment(10, 4.0).heap_bytes());
    }

    #[test]
    fn fault_error_leaves_cache_unchanged() {
        let store = Arc::new(PartitionStore::new(u64::MAX));
        let r = store.pin(key(7), || {
            Err(crate::StorageError::TypeError("boom".into()))
        });
        assert!(r.is_err());
        assert!(!store.contains(key(7)));
        let c = store.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.resident_bytes, 0);
    }
}
