//! Work-stealing morsel scheduler for the shared scan.
//!
//! One query's scan spans all cores, morsel-driven (Leis et al.'s
//! "morsel" = a small contiguous span of work claimed by whichever
//! worker is free): the batch range is cut into morsels of whole sample
//! batches (batches themselves split at `CHUNK_ROWS` boundaries inside
//! the chunked kernel), morsels are dealt round-robin into per-worker
//! deques, and an idle worker steals from the *back* of a victim's deque.
//! Each worker owns a private [`SharedScanDriver`] — its own compiled
//! query, predicate mask scratch and, over a paged sample, its own
//! segment pins (held one batch at a time) — and produces one
//! [`BatchPartial`] per batch via [`SharedScanDriver::scan_batch`].
//!
//! # Determinism
//!
//! Scheduling is racy on purpose; *merging is not*. A single coordinator
//! (the calling thread) folds partials into the main driver strictly in
//! batch-index order via [`SharedScanDriver::merge_partial`], and the
//! stop decision (`on_batch`) runs on the coordinator after every
//! ordered merge — exactly where the serial loop would have made it.
//! The merged answers, error bounds, counters, and the stop point are
//! therefore pure functions of the batch sequence: bit-identical
//! run-to-run and independent of thread count. Only the scheduling
//! counters ([`ParallelScanStats`]) are nondeterministic — they describe
//! how the work was shared, not what was computed.
//!
//! Workers that race past the stop point have their unmerged partials
//! discarded; nothing they computed leaks into answers or counters.
//!
//! # Deadlock freedom
//!
//! A bounded reorder window keeps memory in check: a worker blocks
//! before publishing a partial more than `window` batches ahead of the
//! merge cursor. Because owners drain their own deque front-to-back
//! (ascending morsels) and thieves take whole morsels, the worker
//! holding the cursor's morsel is never blocked by the window
//! (`window ≥ morsel` batches), so the coordinator always makes
//! progress while any worker lives. A worker never exits mid-morsel on
//! an I/O error either: a segment fault is latched on the driver and the
//! batch still yields a partial (see [`crate::driver`]). If every worker
//! has exited (e.g. scanner construction failed), the coordinator scans
//! the remaining batches itself via [`SharedScanDriver::step`] — same
//! fold, same bits.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::driver::{BatchPartial, SharedScanDriver};

/// Scheduling counters of one parallel scan — observability only; both
/// are nondeterministic under work stealing and early stop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelScanStats {
    /// Morsels claimed by workers (0 when the scan ran serially).
    pub morsels: u64,
    /// Morsels a worker stole from another worker's deque.
    pub morsels_stolen: u64,
}

/// Coordinator-side shared state: out-of-order partials awaiting their
/// turn at the merge cursor.
struct Coord {
    ready: BTreeMap<usize, BatchPartial>,
    /// Next batch index the coordinator will merge.
    expected: usize,
    /// Workers that have not exited yet.
    active: usize,
}

struct Shared {
    state: Mutex<Coord>,
    cv: Condvar,
    stop: AtomicBool,
    morsels: AtomicU64,
    stolen: AtomicU64,
    /// Per-worker morsel deques; owner pops front, thieves pop back.
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
    /// Reorder window in batches (≥ morsel size; see module docs).
    window: usize,
}

impl Shared {
    /// Publishes one batch partial, blocking while it is too far ahead
    /// of the merge cursor; `false` if the scan stopped meanwhile.
    fn submit(&self, batch: usize, partial: BatchPartial) -> bool {
        let mut st = self.state.lock().unwrap();
        while !self.stop.load(Ordering::Acquire) && batch >= st.expected + self.window {
            st = self.cv.wait(st).unwrap();
        }
        if self.stop.load(Ordering::Acquire) {
            return false;
        }
        st.ready.insert(batch, partial);
        self.cv.notify_all();
        true
    }

    /// Claims the next morsel: own deque front first, then steal from
    /// the back of the first victim that has one.
    fn next_morsel(&self, worker: usize) -> Option<Range<usize>> {
        if let Some(m) = self.queues[worker].lock().unwrap().pop_front() {
            return Some(m);
        }
        for k in 1..self.queues.len() {
            let victim = (worker + k) % self.queues.len();
            if let Some(m) = self.queues[victim].lock().unwrap().pop_back() {
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(m);
            }
        }
        None
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        drop(self.state.lock().unwrap());
        self.cv.notify_all();
    }

    fn worker_exit(&self) {
        self.state.lock().unwrap().active -= 1;
        self.cv.notify_all();
    }
}

/// One worker: claim morsels, scan each batch into a partial with a
/// private driver, publish partials through the reorder window.
fn run_worker<'w>(
    shared: &Shared,
    worker: usize,
    make_scanner: &(impl Fn() -> Option<SharedScanDriver<'w>> + Sync),
) {
    let Some(mut scanner) = make_scanner() else {
        shared.worker_exit();
        return;
    };
    'work: while !shared.stop.load(Ordering::Acquire) {
        let Some(morsel) = shared.next_morsel(worker) else {
            break;
        };
        shared.morsels.fetch_add(1, Ordering::Relaxed);
        for batch in morsel {
            if shared.stop.load(Ordering::Acquire) {
                break 'work;
            }
            let Some(partial) = scanner.scan_batch(batch) else {
                break 'work;
            };
            if !shared.submit(batch, partial) {
                break 'work;
            }
        }
    }
    shared.worker_exit();
}

/// Drives `main`'s shared scan over at most `max_batches` further
/// batches using `threads` workers, merging partials in deterministic
/// batch-index order.
///
/// `make_scanner` builds a worker-private driver over the same
/// [`crate::ScanSpec`] (and kernel) as `main`; it runs on the worker's
/// own thread. `on_batch` runs on the calling thread after every
/// ordered merge — return `false` to stop the scan (the stop point is
/// deterministic; see the module docs). With `threads <= 1`, or when
/// there is at most one batch of work, the scan runs serially on the
/// calling thread via [`SharedScanDriver::step`] and the returned
/// morsel counters are zero; the merged state is bit-identical either
/// way.
pub fn parallel_scan<'m, 'w>(
    main: &mut SharedScanDriver<'m>,
    threads: usize,
    max_batches: usize,
    make_scanner: impl Fn() -> Option<SharedScanDriver<'w>> + Sync,
    mut on_batch: impl FnMut(&SharedScanDriver<'m>) -> bool,
) -> ParallelScanStats {
    let start = main.batches_stepped();
    let total = main.batches_remaining().min(max_batches);
    if threads <= 1 || total <= 1 {
        for _ in 0..total {
            if !main.step() || !on_batch(main) {
                break;
            }
        }
        return ParallelScanStats::default();
    }

    let morsel = (total / (threads * 4)).clamp(1, 64);
    let mut queues: Vec<Mutex<VecDeque<Range<usize>>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut lo = start;
    let mut m = 0usize;
    while lo < start + total {
        let hi = (lo + morsel).min(start + total);
        queues[m % threads].get_mut().unwrap().push_back(lo..hi);
        lo = hi;
        m += 1;
    }
    let shared = Shared {
        state: Mutex::new(Coord {
            ready: BTreeMap::new(),
            expected: start,
            active: threads,
        }),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
        morsels: AtomicU64::new(0),
        stolen: AtomicU64::new(0),
        queues,
        window: morsel * threads * 2,
    };

    std::thread::scope(|scope| {
        for w in 0..threads {
            let shared = &shared;
            let make_scanner = &make_scanner;
            scope.spawn(move || run_worker(shared, w, make_scanner));
        }
        for i in 0..total {
            let batch = start + i;
            let mut st = shared.state.lock().unwrap();
            let partial = loop {
                if let Some(p) = st.ready.remove(&batch) {
                    break Some(p);
                }
                if st.active == 0 {
                    break None;
                }
                st = shared.cv.wait(st).unwrap();
            };
            drop(st);
            let stepped = match partial {
                Some(p) => {
                    main.merge_partial(&p);
                    true
                }
                // All workers gone (construction failure or early
                // exit): scan the batch on this thread — same fold.
                None => main.step(),
            };
            shared.state.lock().unwrap().expected = batch + 1;
            shared.cv.notify_all();
            if !stepped || !on_batch(main) {
                break;
            }
        }
        shared.request_stop();
    });

    ParallelScanStats {
        morsels: shared.morsels.load(Ordering::Relaxed),
        morsels_stolen: shared.stolen.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, OnlineAggregation, Sample, ScanSpec, StorageTier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verdict_storage::{
        distinct_group_keys, AggregateFn, ColumnDef, Expr, Predicate, Schema, Table,
    };

    fn base(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::categorical_dimension("g"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            let g = ["a", "b", "c", "d"][i % 4];
            t.push_row(vec![(i as f64).into(), g.into(), ((i % 17) as f64).into()])
                .unwrap();
        }
        t
    }

    fn engine(t: &Table) -> OnlineAggregation {
        let mut rng = StdRng::seed_from_u64(23);
        let s = Sample::uniform(t, 0.8, 96, &mut rng).unwrap();
        OnlineAggregation::new(s, CostModel::default(), StorageTier::Cached)
    }

    /// Full-scan cells must be bit-identical at every thread count, and
    /// the scheduler must report morsels when it actually ran.
    #[test]
    fn thread_count_does_not_change_bits() {
        let t = base(6_000);
        let e = engine(&t);
        let pred = Predicate::between("x", 500.0, 5_000.0);
        let cols = vec!["g".to_owned()];
        let keys = distinct_group_keys(e.sample().table(), &pred, &cols).unwrap();
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &cols,
            groups: &keys,
            primitives: &prims,
        };
        let mut reference = e.shared_scan(&spec).unwrap();
        while reference.step() {}
        for threads in [1usize, 2, 4, 8] {
            let mut main = e.shared_scan(&spec).unwrap();
            let stats = parallel_scan(
                &mut main,
                threads,
                usize::MAX,
                || e.shared_scan(&spec).ok(),
                |_| true,
            );
            assert_eq!(main.tuples_scanned(), reference.tuples_scanned());
            assert_eq!(main.rows_matched(), reference.rows_matched());
            assert_eq!(main.chunks_scanned(), reference.chunks_scanned());
            assert_eq!(main.chunks_pruned(), reference.chunks_pruned());
            for g in 0..keys.len() {
                for p in 0..prims.len() {
                    let (a, b) = (main.raw(g, p), reference.raw(g, p));
                    assert_eq!(
                        a.answer.to_bits(),
                        b.answer.to_bits(),
                        "t{threads} g{g} p{p}"
                    );
                    assert_eq!(a.error.to_bits(), b.error.to_bits(), "t{threads} g{g} p{p}");
                }
            }
            if threads > 1 {
                assert!(stats.morsels > 0, "scheduler must have run");
            } else {
                assert_eq!(stats.morsels, 0);
            }
        }
    }

    /// An `on_batch` early stop lands on the same batch — and the same
    /// bits — regardless of thread count.
    #[test]
    fn early_stop_point_is_deterministic() {
        let t = base(6_000);
        let e = engine(&t);
        let prims = vec![AggregateFn::Avg(Expr::col("v"))];
        let spec = ScanSpec {
            predicate: &Predicate::True,
            group_cols: &[],
            groups: &[],
            primitives: &prims,
        };
        let cap = e.sample().len() / 3;
        let mut reference = e.shared_scan(&spec).unwrap();
        while reference.step() {
            if reference.tuples_scanned() >= cap {
                break;
            }
        }
        for threads in [2usize, 4, 8] {
            let mut main = e.shared_scan(&spec).unwrap();
            parallel_scan(
                &mut main,
                threads,
                usize::MAX,
                || e.shared_scan(&spec).ok(),
                |d| d.tuples_scanned() < cap,
            );
            assert_eq!(main.tuples_scanned(), reference.tuples_scanned());
            assert_eq!(main.batches_stepped(), reference.batches_stepped());
            let (a, b) = (main.raw(0, 0), reference.raw(0, 0));
            assert_eq!(a.answer.to_bits(), b.answer.to_bits());
            assert_eq!(a.error.to_bits(), b.error.to_bits());
        }
    }

    /// `max_batches` bounds the work dispatched in one call.
    #[test]
    fn max_batches_caps_dispatch() {
        let t = base(4_000);
        let e = engine(&t);
        let prims = vec![AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &Predicate::True,
            group_cols: &[],
            groups: &[],
            primitives: &prims,
        };
        for threads in [1usize, 4] {
            let mut main = e.shared_scan(&spec).unwrap();
            parallel_scan(
                &mut main,
                threads,
                7,
                || e.shared_scan(&spec).ok(),
                |_| true,
            );
            assert_eq!(main.batches_stepped(), 7, "threads={threads}");
        }
    }
}
