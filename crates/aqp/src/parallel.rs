//! Morsel-driven parallel shared scan (Leis et al., SIGMOD 2014: a
//! "morsel" is a small span of work claimed by whichever worker is free).
//!
//! A scan runs on the calling thread plus `threads − 1` scoped helpers,
//! each claiming the next morsel of whole sample batches in ascending
//! order from one atomic cursor. A helper scans its morsel with a private
//! [`SharedScanDriver`] (its own compiled query, mask scratch and, over a
//! paged sample, segment pins held one batch at a time) into one
//! `BatchPartial` per batch, then publishes the run under one lock.
//!
//! # Determinism
//!
//! Scheduling is racy on purpose; *merging is not*. The caller folds runs
//! into the main driver strictly in batch order
//! (`SharedScanDriver::merge_partial`; a morsel it claims at the merge
//! cursor it steps, the same fold) and runs the stop decision (`on_batch`)
//! after every merged batch, exactly where the serial loop would, so every
//! answer, bound, counter and stop point is the same at any thread count.
//!
//! # Progress
//!
//! The caller waits only when every morsel is claimed and the run at its
//! merge cursor is unpublished; otherwise it claims and scans a morsel
//! itself. That run always arrives: a drop guard publishes every claimed
//! morsel (scanned, stopped or panicking), and the caller scans what a run
//! lacks. Segment faults are latched, not fatal (see [`crate::driver`]).
//! Run-ahead is bounded by `max_batches`; helpers stop between batches.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::driver::{BatchPartial, SharedScanDriver};
use crate::lock;

/// Scheduling counters of one scan — observability only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelScanStats {
    /// Morsels claimed, the caller's included (0 when the scan ran
    /// serially); nondeterministic under early stop.
    pub morsels: u64,
    /// Threads the scan ran on, the caller included (1 when serial).
    pub workers: u64,
}

impl Default for ParallelScanStats {
    fn default() -> Self {
        ParallelScanStats {
            morsels: 0,
            workers: 1,
        }
    }
}

struct Shared {
    /// First batch of the next unclaimed morsel.
    cursor: AtomicUsize,
    end: usize,
    morsel: usize,
    stop: AtomicBool,
    morsels: AtomicU64,
    /// Published runs by first batch: (morsel end, leading partials).
    runs: Mutex<BTreeMap<usize, (usize, Vec<BatchPartial>)>>,
    ready: Condvar,
}

/// A claimed morsel; dropping it publishes its run.
struct Claim<'s> {
    shared: &'s Shared,
    morsel: Range<usize>,
    partials: Vec<BatchPartial>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let run = (self.morsel.end, std::mem::take(&mut self.partials));
        lock(&self.shared.runs).insert(self.morsel.start, run);
        self.shared.ready.notify_one();
    }
}

impl Shared {
    /// Claims the next morsel in ascending batch order (none once stopped).
    fn claim(&self) -> Option<Range<usize>> {
        let lo = self.cursor.fetch_add(self.morsel, Ordering::Relaxed);
        (lo < self.end && !self.stop.load(Ordering::Acquire)).then(|| {
            self.morsels.fetch_add(1, Ordering::Relaxed);
            lo..(lo + self.morsel).min(self.end)
        })
    }

    /// Scans `morsel` into a run (left empty without a scanner).
    fn scan(&self, morsel: Range<usize>, scanner: Option<&mut SharedScanDriver<'_>>) {
        let mut claim = Claim {
            shared: self,
            morsel,
            partials: Vec::new(),
        };
        let Some(scanner) = scanner else { return };
        for batch in claim.morsel.clone() {
            match scanner.scan_batch(batch) {
                Some(partial) if !self.stop.load(Ordering::Acquire) => claim.partials.push(partial),
                _ => break,
            }
        }
    }

    /// The run at `batch` once published; `None` while morsels are left.
    fn take(&self, batch: usize) -> Option<(usize, Vec<BatchPartial>)> {
        let mut runs = lock(&self.runs);
        loop {
            if let Some(run) = runs.remove(&batch) {
                return Some(run);
            }
            if self.cursor.load(Ordering::Relaxed) < self.end {
                return None;
            }
            runs = self.ready.wait(runs).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// How many further batches a scan may reach, and whether the stop check
/// can end it sooner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// Every one of the next `n` batches (or up to the sample's end) is
    /// merged: `ScanAll` and tuple or time budgets, whose prefix is known
    /// before the scan starts.
    Exact(usize),
    /// At most the next `n` batches: the stop check may end the scan
    /// after any of them.
    AtMost(usize),
}

impl From<usize> for Horizon {
    /// A bare batch count is an upper bound.
    fn from(max_batches: usize) -> Horizon {
        Horizon::AtMost(max_batches)
    }
}

/// Drives `main`'s shared scan over at most `horizon` further batches on
/// `threads` threads (the calling one and `threads − 1` scoped helpers,
/// each scanning with its own `make_scanner()` driver over `main`'s
/// [`crate::ScanSpec`]), merging partials in batch order. `on_batch` runs
/// on the calling thread after every merged batch; `false` stops the scan.
///
/// With `threads <= 1`, or at most one batch, the calling thread scans
/// alone. Under a [`Horizon::Exact`] horizon it reads a paged sample in
/// segment runs (`SharedScanDriver::scan_run`): the first time the
/// merge cursor reaches a segment, every batch of it up to the horizon is
/// scanned under one pin, and the partials wait, keyed by batch, until
/// the cursor reaches them. Otherwise each batch is scanned at the cursor.
pub fn parallel_scan<'m, 'w>(
    main: &mut SharedScanDriver<'m>,
    threads: usize,
    horizon: impl Into<Horizon>,
    make_scanner: impl Fn() -> Option<SharedScanDriver<'w>> + Sync,
    mut on_batch: impl FnMut(&SharedScanDriver<'m>) -> bool,
) -> ParallelScanStats {
    let (max_batches, exact) = match horizon.into() {
        Horizon::Exact(n) => (n, true),
        Horizon::AtMost(n) => (n, false),
    };
    let start = main.batches_stepped();
    let total = main.batches_remaining().min(max_batches);
    if threads <= 1 || total <= 1 {
        let mut ahead = BTreeMap::new();
        for batch in start..start + total {
            let run_end = if exact { start + total } else { batch + 1 };
            let partial = match ahead.remove(&batch) {
                Some(partial) => partial,
                None => match main.scan_run(batch, run_end, &mut ahead) {
                    Some(partial) => partial,
                    None => break,
                },
            };
            main.merge_partial(&partial);
            if !on_batch(main) {
                break;
            }
        }
        return ParallelScanStats::default();
    }

    let threads = threads.min(total);
    let shared = Shared {
        cursor: AtomicUsize::new(start),
        end: start + total,
        morsel: (total / (threads * 4)).clamp(1, 64),
        stop: AtomicBool::new(false),
        morsels: AtomicU64::new(0),
        runs: Mutex::new(BTreeMap::new()),
        ready: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                if let Some(mut scanner) = make_scanner() {
                    while let Some(morsel) = shared.claim() {
                        shared.scan(morsel, Some(&mut scanner));
                    }
                }
            });
        }
        let (mut own, mut next) = (None, start);
        'merge: while next < shared.end {
            // Not ready: claim a morsel, to step here or scan as a run.
            let (hi, partials) = match shared.take(next) {
                Some(run) => run,
                None => match shared.claim() {
                    Some(morsel) if morsel.start == next => (morsel.end, Vec::new()),
                    Some(morsel) => {
                        shared.scan(morsel, own.get_or_insert_with(&make_scanner).as_mut());
                        continue;
                    }
                    None => continue,
                },
            };
            let mut partials = partials.into_iter();
            for _ in next..hi {
                // Merge the published partial, or scan the batch here.
                let stepped = partials.next().map(|p| main.merge_partial(&p)).is_some();
                if !(stepped || main.step()) || !on_batch(main) {
                    break 'merge;
                }
            }
            next = hi;
        }
        shared.stop.store(true, Ordering::Release);
    });

    ParallelScanStats {
        morsels: shared.morsels.load(Ordering::Relaxed),
        workers: threads as u64,
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
            assert_eq!(stats.workers, threads as u64, "the caller is a worker");
        }
    }

    /// A helper that panics cannot hang the scan: the caller scans every
    /// batch no helper published, and the panic surfaces after the join.
    #[test]
    fn panicking_helpers_cannot_hang_the_scan() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let t = base(4_000);
            let e = engine(&t);
            let prims = vec![AggregateFn::Freq];
            let spec = ScanSpec {
                predicate: &Predicate::True,
                group_cols: &[],
                groups: &[],
                primitives: &prims,
            };
            let caller = std::thread::current().id();
            let mut merged = 0;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut main = e.shared_scan(&spec).unwrap();
                parallel_scan(
                    &mut main,
                    4,
                    usize::MAX,
                    || {
                        assert_eq!(std::thread::current().id(), caller, "helper dies");
                        e.shared_scan(&spec).ok()
                    },
                    |d| {
                        merged = d.batches_stepped();
                        true
                    },
                );
            }));
            tx.send((outcome.is_err(), merged, e.sample().num_batches()))
                .unwrap();
        });
        let (panicked, merged, batches) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("parallel_scan hung on a panicking helper");
        assert!(panicked, "the scope re-raises the helper's panic");
        assert_eq!(merged, batches, "the caller scanned every batch");
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
