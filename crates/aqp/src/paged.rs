//! Demand-paged samples: out-of-core partition segments under a budget.
//!
//! A resident [`Sample`] gathers every sampled row into one table. A
//! *paged* sample ([`Sample::paged`]) has the same batch geometry but
//! keeps its draw-time rows out of memory: the base table's partitions
//! live in on-disk column files, and the draw is defined *implicitly*.
//!
//! # Segments
//!
//! Partition `p`'s **segment** is the rows the sample drew from `p`:
//! `want_p` rows (proportional allocation, exactly like
//! [`Sample::uniform_partitioned`]) chosen by a shuffle seeded purely
//! from `(draw_seed, p)` over the partition's *create-time* rows. Because
//! the draw is a pure function of the segment key, any segment can be
//! (re)derived on demand, in any order, on any thread, and the result is
//! always the same rows in the same order. Rows ingested later never
//! enter a segment; they are admitted into the sample's resident table
//! ([`Sample::absorb_appended`]) and scanned as its stride tail.
//!
//! [`PagedRep`] is the pager that produces segments: the fault path
//! (`loader` → `PagedRep::derive_segment`), the [`PartitionStore`] buffer
//! manager caching derived segments under the session's byte budget, and
//! the shared [`PartitionMap`] whose summaries prune partitions *without
//! any I/O*. It is immutable once built — ingest touches only the
//! sample's table and (through the shared lock) the map's summaries.
//!
//! # Pinning
//!
//! There is no separate out-of-core executor. The one scan driver
//! ([`crate::SharedScanDriver`]) resolves each batch to where its rows
//! are: a draw-time batch of a paged sample is scanned in a **segment
//! run**. The run pins its partition's segment in the buffer manager —
//! faulting it in on a miss — compiles the query against the pinned table
//! once, and runs the ordinary kernels over each of its batches; the pin
//! drops with the run, after which the segment is evictable again.
//!
//! How long a run is depends on the scan's horizon
//! ([`crate::Horizon`]). Draw-time batches interleave the partitions, so a
//! scan that visits them one by one would pin — and, under a cache
//! smaller than the sample, fault — a segment per batch. When every batch
//! up to the horizon is certain to be merged (`ScanAll`, a tuple or time
//! budget) and the scan runs on one thread, the first time the merge
//! cursor reaches a segment its run takes every batch of that segment up
//! to the horizon: one pin and one compile per segment per query. The
//! partials past the cursor wait, keyed by batch, and are still folded
//! strictly in batch order, so answers, bounds, counters and stop points
//! are the per-batch scan's bits; what waits is at most one partial per
//! batch of the horizon. When the stop check may end the scan at any
//! batch, and on the morsel scheduler's helpers, a run is one batch.
//!
//! Batches of partitions the map summaries reject never pin anything. A
//! fault that fails is latched on the driver and every batch of its run
//! contributes an all-miss partial, so the scan always completes
//! structurally and the caller fails the query afterwards.
//!
//! Answers, error bounds, and stop points are bit-identical to scanning
//! [`Sample::materialize_resident`] at any thread count and any budget;
//! only cache and chunk counters reflect the paging.

use std::sync::{Arc, RwLock};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use verdict_storage::pstore::{PartitionStore, SegmentKey, SegmentPin};
use verdict_storage::{PartitionMap, StorageError, Table};

#[cfg(doc)]
use crate::Sample;

/// The fault function: produces the *base* rows of one partition
/// (create-time rows only — ingested appends never enter the draw).
pub type SegmentLoader = dyn Fn(u32) -> verdict_storage::Result<Table> + Send + Sync;

/// Seed of partition `p`'s segment shuffle: FNV-1a over the sample's
/// draw seed and the partition id, so segments are decorrelated and each
/// is derivable in isolation.
fn segment_seed(draw_seed: u64, partition: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [draw_seed, u64::from(partition)] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The pager behind a demand-paged [`Sample`] (see the [module
/// docs](self)).
pub struct PagedRep {
    /// Buffer manager caching derived segments (shared session-wide, so
    /// all samples compete under one byte budget).
    store: Arc<PartitionStore>,
    /// Faults the base rows of one partition from disk.
    loader: Arc<SegmentLoader>,
    /// The base table's partition map — routing plus the summaries that
    /// prune partitions without I/O. Shared with the owning session so
    /// ingest-time extension is visible to later scans.
    pub(crate) map: Arc<RwLock<PartitionMap>>,
    /// Seed of this sample's segment shuffles.
    draw_seed: u64,
    /// Which of the session's samples this is (half of the cache key).
    sample_index: u32,
    /// Create-time base rows per partition: the domain each segment's
    /// shuffle draws from. Frozen at create so ingested rows (which are
    /// admitted into the sample's table instead) never perturb the draw.
    pub(crate) original_part_rows: Vec<u64>,
}

impl std::fmt::Debug for PagedRep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedRep")
            .field("sample_index", &self.sample_index)
            .field("draw_seed", &self.draw_seed)
            .field("original_part_rows", &self.original_part_rows)
            .finish()
    }
}

impl PagedRep {
    /// Assembles the pager of sample `sample_index`.
    pub fn new(
        store: Arc<PartitionStore>,
        loader: Arc<SegmentLoader>,
        map: Arc<RwLock<PartitionMap>>,
        draw_seed: u64,
        sample_index: u32,
        original_part_rows: Vec<u64>,
    ) -> PagedRep {
        PagedRep {
            store,
            loader,
            map,
            draw_seed,
            sample_index,
            original_part_rows,
        }
    }

    /// The buffer manager caching this sample's segments.
    pub fn partition_store(&self) -> &Arc<PartitionStore> {
        &self.store
    }

    /// This sample's cache key for partition `p`.
    fn key(&self, p: u32) -> SegmentKey {
        SegmentKey {
            sample: self.sample_index,
            partition: p,
        }
    }

    /// Derives partition `p`'s `want`-row segment from scratch: fault the
    /// base fragment, shuffle its row indices with the `(draw_seed, p)`
    /// seed, keep the first `want`, gather. Pure — every derivation of
    /// the same segment yields identical rows in identical order.
    pub(crate) fn derive_segment(&self, p: u32, want: usize) -> verdict_storage::Result<Table> {
        let frag = (self.loader)(p)?;
        let n = self.original_part_rows[p as usize] as usize;
        if frag.num_rows() < n {
            return Err(StorageError::Io(format!(
                "partition {p} fragment has {} rows, expected ≥ {n}",
                frag.num_rows()
            )));
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(segment_seed(self.draw_seed, p)));
        idx.truncate(want);
        frag.gather(&idx)
    }

    /// Pins partition `p`'s `want`-row segment in the buffer manager,
    /// deriving it on a miss. The returned guard keeps it resident
    /// (unevictable) until dropped.
    pub(crate) fn pin_segment(&self, p: u32, want: usize) -> verdict_storage::Result<SegmentPin> {
        self.store.pin(self.key(p), || self.derive_segment(p, want))
    }

    /// LRU-touches partition `p`'s segment if it is resident (no fault).
    pub(crate) fn touch_segment(&self, p: u32) {
        self.store.touch(self.key(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parallel_scan, Horizon, Sample, ScanSpec, SharedScanDriver};
    use verdict_storage::{
        distinct_group_keys, AggregateFn, ColumnDef, Expr, GroupKey, PartitionSpec, Predicate,
        Schema,
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
            let g = ["a", "b", "c"][i % 3];
            t.push_row(vec![(i as f64).into(), g.into(), ((i % 13) as f64).into()])
                .unwrap();
        }
        t
    }

    /// Splits `t` into per-partition fragments and assembles a paged
    /// sample whose loader serves them from memory — the unit-test stand-in
    /// for on-disk partition column files. Partition `broken`, if any,
    /// always fails to load.
    fn paged_fixture_with(
        t: &Table,
        bounds: Vec<f64>,
        fraction: f64,
        batch_size: usize,
        budget: u64,
        broken: Option<u32>,
    ) -> Sample {
        let n = t.num_rows();
        let map = PartitionMap::build(t, PartitionSpec::range("x", bounds)).unwrap();
        let routed = map.route(t, 0..n).unwrap();
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); map.num_partitions()];
        for (r, &p) in routed.iter().enumerate() {
            rows[p as usize].push(r);
        }
        let frags: Vec<Table> = rows.iter().map(|r| t.gather(r).unwrap()).collect();
        let original_part_rows: Vec<u64> = frags.iter().map(|f| f.num_rows() as u64).collect();
        let loader: Arc<SegmentLoader> = Arc::new(move |p: u32| {
            if broken == Some(p) {
                return Err(StorageError::Io("disk gone".into()));
            }
            Ok(frags[p as usize].clone())
        });
        let rep = PagedRep::new(
            Arc::new(PartitionStore::new(budget)),
            loader,
            Arc::new(RwLock::new(map)),
            42,
            0,
            original_part_rows,
        );
        // Zero rows, full dictionaries: the tail a fresh paged table has.
        Sample::paged(
            Arc::new(t.gather(&[]).unwrap()),
            n,
            fraction,
            batch_size,
            rep,
        )
        .unwrap()
    }

    fn paged_fixture(
        t: &Table,
        bounds: Vec<f64>,
        fraction: f64,
        batch_size: usize,
        budget: u64,
    ) -> Sample {
        paged_fixture_with(t, bounds, fraction, batch_size, budget, None)
    }

    /// `n` appended rows continuing `base`'s pattern, with a brand-new
    /// label `z`, coded against `t`'s dictionaries like a real ingest.
    fn appended_batch(t: &Table, n: usize) -> Table {
        let mut batch = t.gather(&[]).unwrap();
        let first = t.num_rows();
        for i in 0..n {
            let g = ["a", "b", "c", "z"][i % 4];
            batch
                .push_row(vec![
                    ((first + i) as f64).into(),
                    g.into(),
                    ((i % 7) as f64).into(),
                ])
                .unwrap();
        }
        batch
    }

    fn avg_and_freq() -> Vec<AggregateFn> {
        vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq]
    }

    /// Every cell's `(answer, error)` bits.
    fn cell_bits(d: &SharedScanDriver<'_>) -> Vec<(u64, u64)> {
        let mut cells = Vec::new();
        for g in 0..d.num_groups() {
            for p in 0..d.num_primitives() {
                let r = d.raw(g, p);
                cells.push((r.answer.to_bits(), r.error.to_bits()));
            }
        }
        cells
    }

    /// Steps `paged` and a driver over its materialization in lockstep,
    /// asserting bit parity after every batch.
    fn assert_stepwise_parity(
        s: &Sample,
        pred: &Predicate,
        cols: &[String],
        keys: &[GroupKey],
        prims: &[AggregateFn],
    ) {
        let resident = s.materialize_resident().unwrap();
        let spec = ScanSpec {
            predicate: pred,
            group_cols: cols,
            groups: keys,
            primitives: prims,
        };
        let mut paged = SharedScanDriver::over_sample(s, &spec).unwrap();
        let mut refd = SharedScanDriver::over_sample(&resident, &spec).unwrap();
        loop {
            let (a, b) = (paged.step(), refd.step());
            assert_eq!(a, b);
            assert_eq!(paged.tuples_scanned(), refd.tuples_scanned());
            assert_eq!(cell_bits(&paged), cell_bits(&refd));
            if !a {
                break;
            }
        }
        assert!(paged.take_error().is_none());
        assert_eq!(paged.rows_matched(), refd.rows_matched());
        assert_eq!(paged.tuples_scanned(), s.len());
    }

    /// One geometry: an unpartitioned, a resident-partitioned and a paged
    /// sample of the same table answer `len`, `num_batches`,
    /// `batch_range` and `batch_partition` through the same accessors —
    /// the paged one reproducing `uniform_partitioned`'s allocation,
    /// batch cuts and interleaving from the per-partition cardinalities
    /// alone — and keep doing so after a tail admission.
    #[test]
    fn layout_matches_resident_partitioned_geometry() {
        let mut t = base(2_000);
        let bounds = vec![400.0, 800.0, 1_200.0, 1_600.0];
        let spec = PartitionSpec::range("x", bounds.clone());
        let mut flat = Sample::uniform(&t, 0.3, 24, &mut StdRng::seed_from_u64(5)).unwrap();
        let mut resident =
            Sample::uniform_partitioned(&t, spec, 0.3, 24, &mut StdRng::seed_from_u64(5)).unwrap();
        let mut paged = paged_fixture(&t, bounds, 0.3, 24, u64::MAX);
        let drawn = resident.len();
        let draw_batches = resident.num_batches();
        assert_eq!(resident.layout().covered_rows(), drawn);
        assert_eq!(resident.layout().num_draw_batches(), draw_batches);

        let check = |flat: &Sample, resident: &Sample, paged: &Sample, admitted: usize| {
            // The stride-only sample: no tags, `batch_size` strides.
            assert_eq!(flat.len(), 600 + admitted);
            assert_eq!(flat.num_batches(), flat.len().div_ceil(24));
            for i in 0..flat.num_batches() {
                assert_eq!(flat.batch_partition(i), None);
                assert_eq!(flat.batch_range(i), i * 24..(i * 24 + 24).min(flat.len()));
            }
            // Partitioned, resident or paged: identical in every batch.
            assert_eq!(paged.len(), drawn + admitted);
            assert_eq!(paged.len(), resident.len());
            assert_eq!(paged.num_batches(), draw_batches + admitted.div_ceil(24));
            assert_eq!(paged.num_batches(), resident.num_batches());
            let mut rows = 0;
            for i in 0..paged.num_batches() {
                assert_eq!(paged.batch_range(i), resident.batch_range(i), "batch {i}");
                assert_eq!(paged.batch_partition(i), resident.batch_partition(i));
                assert_eq!(paged.batch_partition(i).is_some(), i < draw_batches);
                assert!(paged.batch_range(i).len() <= 24);
                rows += paged.batch_range(i).len();
            }
            assert_eq!(rows, paged.len(), "batches tile the sample");
        };
        check(&flat, &resident, &paged, 0);

        // Same seed and sample index: all three admit the same rows.
        let batch = appended_batch(&t, 500);
        t.append(&batch).unwrap();
        let admitted = paged.absorb_appended(&batch, 2_000, 42, 0).unwrap();
        assert!(admitted > 24, "the tail must span several stride batches");
        assert_eq!(flat.absorb_appended(&t, 2_000, 42, 0).unwrap(), admitted);
        assert_eq!(
            resident.absorb_appended(&t, 2_000, 42, 0).unwrap(),
            admitted
        );
        for s in [&flat, &resident, &paged] {
            assert_eq!(s.base_rows(), 2_500);
        }
        assert_eq!(
            paged.table().num_rows(),
            admitted,
            "only the tail is resident"
        );
        assert_eq!(paged.batch_range(draw_batches).start, drawn);
        check(&flat, &resident, &paged, admitted);
    }

    /// Core parity: a paged scan must match a scan of the materialized
    /// sample bit for bit at *every* step — answers, error bounds, and
    /// tuples scanned (hence identical stop points under any policy).
    #[test]
    fn stepwise_parity_with_materialized_resident() {
        let t = base(3_000);
        let s = paged_fixture(&t, vec![750.0, 1_500.0, 2_250.0], 0.4, 64, u64::MAX);
        let resident = s.materialize_resident().unwrap();
        assert_eq!(resident.len(), s.len());
        assert_eq!(resident.num_batches(), s.num_batches());
        for i in 0..s.num_batches() {
            assert_eq!(resident.batch_range(i), s.batch_range(i), "batch {i}");
            assert_eq!(resident.batch_partition(i), s.batch_partition(i));
        }
        let pred = Predicate::between("x", 200.0, 2_600.0);
        let cols = vec!["g".to_owned()];
        let keys = s.distinct_group_keys(&pred, &cols).unwrap();
        assert_eq!(
            keys,
            distinct_group_keys(resident.table(), &pred, &cols).unwrap()
        );
        assert_stepwise_parity(&s, &pred, &cols, &keys, &avg_and_freq());
    }

    /// A band query the summaries reject for all but one partition must
    /// fault exactly that partition — the pruned ones are answered with
    /// zero I/O — and still match the fully-resident scan.
    #[test]
    fn pruned_band_query_reads_zero_partition_files() {
        let t = base(2_000);
        let s = paged_fixture(&t, vec![500.0, 1_000.0, 1_500.0], 0.5, 32, u64::MAX);
        let store = Arc::clone(s.paged_rep().unwrap().partition_store());
        let before = store.counters();
        let pred = Predicate::between("x", 600.0, 800.0);
        let prims = vec![AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &[],
            groups: &[],
            primitives: &prims,
        };
        let mut d = SharedScanDriver::over_sample(&s, &spec).unwrap();
        while d.step() {}
        assert!(d.take_error().is_none());
        assert_eq!(d.partitions(), 4);
        assert_eq!(d.partitions_pruned(), 3);
        let delta = store.counters().since(&before);
        assert_eq!(delta.misses, 1, "only the matching partition faults");
        assert_eq!(delta.evictions, 0);
        let resident = s.materialize_resident().unwrap();
        let mut r = SharedScanDriver::over_sample(&resident, &spec).unwrap();
        while r.step() {}
        assert_eq!(cell_bits(&d), cell_bits(&r));
        assert_eq!(d.tuples_scanned(), r.tuples_scanned());
    }

    /// The budget changes when I/O happens, never what is computed: a
    /// one-byte budget (evicting everything on unpin) produces the same
    /// bits as an unbounded one.
    #[test]
    fn answers_identical_at_any_budget() {
        let t = base(2_400);
        let pred = Predicate::between("x", 100.0, 2_300.0);
        let cols = vec!["g".to_owned()];
        let prims = avg_and_freq();
        let run = |budget: u64| {
            let s = paged_fixture(&t, vec![600.0, 1_200.0, 1_800.0], 0.5, 48, budget);
            let keys = s.distinct_group_keys(&pred, &cols).unwrap();
            let spec = ScanSpec {
                predicate: &pred,
                group_cols: &cols,
                groups: &keys,
                primitives: &prims,
            };
            let mut d = SharedScanDriver::over_sample(&s, &spec).unwrap();
            while d.step() {}
            assert!(d.take_error().is_none());
            let counters = s.paged_rep().unwrap().partition_store().counters();
            (cell_bits(&d), d.tuples_scanned(), counters.evictions)
        };
        let tight = run(1);
        let roomy = run(u64::MAX);
        assert_eq!(tight.0, roomy.0);
        assert_eq!(tight.1, roomy.1);
        assert!(tight.2 > 0, "a one-byte budget must evict");
        assert_eq!(roomy.2, 0, "an unbounded budget never evicts");
    }

    /// Morsel-parallel paged scans (worker drivers pinning their own
    /// segments, sharing the main driver's fault latch) are bit-identical
    /// to the serial paged scan.
    #[test]
    fn parallel_paged_scan_is_bit_identical() {
        let t = base(3_000);
        let s = paged_fixture(&t, vec![1_000.0, 2_000.0], 0.6, 40, u64::MAX);
        let pred = Predicate::between("x", 50.0, 2_900.0);
        let cols = vec!["g".to_owned()];
        let keys = s.distinct_group_keys(&pred, &cols).unwrap();
        let prims = avg_and_freq();
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &cols,
            groups: &keys,
            primitives: &prims,
        };
        let mut reference = SharedScanDriver::over_sample(&s, &spec).unwrap();
        while reference.step() {}
        assert!(reference.take_error().is_none());
        for threads in [2usize, 4] {
            let mut main = SharedScanDriver::over_sample(&s, &spec).unwrap();
            let sink = main.error_sink();
            let stats = parallel_scan(
                &mut main,
                threads,
                usize::MAX,
                || {
                    let mut d = SharedScanDriver::over_sample(&s, &spec).ok()?;
                    d.set_error_sink(Arc::clone(&sink));
                    Some(d)
                },
                |_| true,
            );
            assert!(stats.morsels > 0, "the scheduler must have run");
            assert!(main.take_error().is_none());
            assert_eq!(main.tuples_scanned(), reference.tuples_scanned());
            assert_eq!(main.rows_matched(), reference.rows_matched());
            assert_eq!(cell_bits(&main), cell_bits(&reference), "t{threads}");
        }
    }

    /// Tail admission keeps parity: after an ingest (including a
    /// brand-new categorical label) the paged scan still matches the
    /// materialized sample bit for bit, and group enumeration sees the
    /// new label.
    #[test]
    fn ingest_tail_preserves_parity() {
        let t = base(1_500);
        let mut s = paged_fixture(&t, vec![500.0, 1_000.0], 0.5, 32, u64::MAX);
        let admitted = s
            .absorb_appended(&appended_batch(&t, 400), 1_500, 42, 0)
            .unwrap();
        assert!(admitted > 0);
        assert_eq!(s.base_rows(), 1_900);
        assert_eq!(s.table().num_rows(), admitted);
        let resident = s.materialize_resident().unwrap();
        assert_eq!(resident.len(), s.len());
        let pred = Predicate::True;
        let cols = vec!["g".to_owned()];
        let keys = s.distinct_group_keys(&pred, &cols).unwrap();
        assert_eq!(
            keys,
            distinct_group_keys(resident.table(), &pred, &cols).unwrap()
        );
        assert_eq!(keys.len(), 4, "the ingested label must be enumerable");
        assert_stepwise_parity(&s, &pred, &cols, &keys, &avg_and_freq());
    }

    /// Enumeration stops pinning segments the moment the partition
    /// summaries prove the key set complete, and pins every unpruned
    /// segment — still exactly the oracle's keys — when one candidate of
    /// the summaries never shows up in the sample.
    #[test]
    fn enumeration_pins_segments_only_until_the_key_set_is_complete() {
        let t = base(2_400);
        // A one-byte budget: far smaller than the sample, every pin faults.
        let s = paged_fixture(&t, vec![600.0, 1_200.0, 1_800.0], 0.5, 48, 1);
        let rep = s.paged_rep().unwrap();
        let store = Arc::clone(rep.partition_store());
        let cols = vec!["g".to_owned()];
        let pins = |pred: &Predicate| {
            let before = store.counters();
            let keys = s.distinct_group_keys(pred, &cols).unwrap();
            let resident = s.materialize_resident().unwrap();
            assert_eq!(
                keys,
                distinct_group_keys(resident.table(), pred, &cols).unwrap()
            );
            assert_eq!(keys.len(), 3);
            let delta = store.counters().since(&before);
            delta.hits + delta.misses
        };
        // Every segment holds all three labels: the first one pinned
        // completes the set, over the full range or a band of partitions.
        let band = Predicate::between("x", 700.0, 2_400.0);
        assert_eq!(pins(&Predicate::True), 1);
        assert_eq!(pins(&band), 1);
        // An ingest lands a brand-new label in the last partition's
        // summaries, but its row is not admitted into the sample: the
        // candidate can never be seen, so every unpruned segment is read.
        let mut batch = t.gather(&[]).unwrap();
        batch
            .push_row(vec![2_399.5.into(), "z".into(), 1.0.into()])
            .unwrap();
        rep.map.write().unwrap().extend_batch(&batch).unwrap();
        assert_eq!(pins(&Predicate::True), 4);
        assert_eq!(pins(&band), 3, "the pruned partition is never pinned");
        // A predicate that excludes the phantom label restores the exit.
        let abc = band.and(Predicate::cat_in("g", vec![0, 1, 2]));
        assert_eq!(pins(&abc), 1);
    }

    /// `Sample::distinct_group_keys` is the enumeration of the
    /// materialized sample for every key shape, tail or no tail.
    #[test]
    fn paged_enumeration_matches_the_materialized_sample() {
        let t = base(2_000);
        let mut s = paged_fixture(&t, vec![500.0, 1_000.0, 1_500.0], 0.4, 32, 1);
        for tail in [false, true] {
            if tail {
                s.absorb_appended(&appended_batch(&t, 300), 2_000, 42, 0)
                    .unwrap();
            }
            let resident = s.materialize_resident().unwrap();
            for cols in [vec!["g"], vec!["v"], vec!["v", "g"]] {
                let cols: Vec<String> = cols.into_iter().map(str::to_owned).collect();
                for pred in [
                    Predicate::True,
                    Predicate::between("x", 300.0, 1_200.0),
                    Predicate::between("x", 300.0, 2_200.0).and(Predicate::cat_in("g", vec![1, 3])),
                    Predicate::between("x", -5.0, -1.0),
                ] {
                    assert_eq!(
                        s.distinct_group_keys(&pred, &cols).unwrap(),
                        distinct_group_keys(resident.table(), &pred, &cols).unwrap(),
                        "tail {tail} cols {cols:?} pred {pred:?}"
                    );
                }
            }
        }
    }

    /// An admission copies only the resident table: while a reader still
    /// holds the previous snapshot of the sample, the new one shares the
    /// very same pager and layout (no per-ingest deep copy), and the
    /// reader's view is untouched.
    #[test]
    fn admission_shares_the_pager_with_older_snapshots() {
        let t = base(1_200);
        let mut s = paged_fixture(&t, vec![600.0], 0.5, 32, u64::MAX);
        let pinned = s.clone();
        let admitted = s
            .absorb_appended(&appended_batch(&t, 300), 1_200, 42, 0)
            .unwrap();
        assert!(admitted > 0);
        assert!(Arc::ptr_eq(
            s.paged_rep().unwrap(),
            pinned.paged_rep().unwrap()
        ));
        assert!(std::ptr::eq(s.layout(), pinned.layout()));
        assert!(!Arc::ptr_eq(&s.table_arc(), &pinned.table_arc()));
        assert_eq!(pinned.table().num_rows(), 0);
        assert_eq!(pinned.len() + admitted, s.len());
        assert_eq!(pinned.base_rows(), 1_200);
    }

    /// A failing loader must not wedge the scan: the error is latched,
    /// the scan completes structurally — every batch merged, the faulted
    /// ones as all-miss partials — and `take_error` surfaces it, serially
    /// and under the morsel scheduler.
    #[test]
    fn fault_failure_is_latched_not_fatal() {
        let t = base(600);
        let s = paged_fixture_with(&t, vec![300.0], 0.5, 32, u64::MAX, Some(1));
        let prims = vec![AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &Predicate::True,
            group_cols: &[],
            groups: &[],
            primitives: &prims,
        };
        for threads in [1usize, 4] {
            let mut d = SharedScanDriver::over_sample(&s, &spec).unwrap();
            let sink = d.error_sink();
            parallel_scan(
                &mut d,
                threads,
                usize::MAX,
                || {
                    let mut w = SharedScanDriver::over_sample(&s, &spec).ok()?;
                    w.set_error_sink(Arc::clone(&sink));
                    Some(w)
                },
                |_| true,
            );
            assert_eq!(d.batches_stepped(), s.num_batches(), "t{threads}");
            assert_eq!(d.tuples_scanned(), s.len());
            match d.take_error() {
                Some(StorageError::Io(m)) => assert!(m.contains("disk gone")),
                other => panic!("expected a latched Io error, got {other:?}"),
            }
            // Latch is take-once.
            assert!(d.take_error().is_none());
        }
    }

    /// Under an exact horizon a serial scan reads each segment in one run
    /// — one pin and one compiled query per partition, where the
    /// per-batch scan pins and compiles once per draw-time batch — and
    /// still lands on the per-batch scan's bits. A segment whose loader
    /// fails is tried once: one error latched, and its batches (only
    /// those) merge as all-miss partials, exactly as per batch.
    #[test]
    fn exact_horizon_scans_each_segment_in_one_run() {
        let t = base(3_000);
        let pred = Predicate::between("x", 50.0, 2_900.0);
        let cols = vec!["g".to_owned()];
        let prims = avg_and_freq();
        let keys = paged_fixture(&t, vec![1_000.0, 2_000.0], 0.6, 40, u64::MAX)
            .distinct_group_keys(&pred, &cols)
            .unwrap();
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &cols,
            groups: &keys,
            primitives: &prims,
        };
        for broken in [None, Some(1)] {
            // A one-byte budget: no segment outlives its pin.
            let s = paged_fixture_with(&t, vec![1_000.0, 2_000.0], 0.6, 40, 1, broken);
            let store = Arc::clone(s.paged_rep().unwrap().partition_store());
            let scan = |horizon: Horizon| {
                let before = store.counters();
                let mut d = SharedScanDriver::over_sample(&s, &spec).unwrap();
                parallel_scan(
                    &mut d,
                    1,
                    horizon,
                    || SharedScanDriver::over_sample(&s, &spec).ok(),
                    |_| true,
                );
                let pins = store.counters().since(&before);
                let error = d.take_error().map(|e| e.to_string());
                let bits = (cell_bits(&d), d.tuples_scanned(), d.rows_matched());
                (bits, error, pins.hits + pins.misses, d.segment_compiles())
            };
            let batches = s.num_batches();
            let broken_batches = (0..batches)
                .filter(|&i| broken.is_some() && s.batch_partition(i) == broken)
                .count() as u64;
            let per_batch = scan(Horizon::AtMost(batches));
            let runs = scan(Horizon::Exact(batches));
            assert_eq!(runs.0, per_batch.0, "broken {broken:?}");
            assert_eq!(runs.1, per_batch.1, "broken {broken:?}");
            assert_eq!(runs.1.is_some(), broken.is_some());
            assert_eq!(per_batch.2, batches as u64, "one pin per batch");
            assert_eq!(per_batch.3, batches as u64 - broken_batches);
            assert_eq!(runs.2, 3, "one pin per segment");
            assert_eq!(
                runs.3,
                3 - u64::from(broken.is_some()),
                "one compile per run"
            );
        }
    }
}
