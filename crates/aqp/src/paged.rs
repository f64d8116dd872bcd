//! Demand-paged samples: out-of-core partition segments under a budget.
//!
//! A resident [`Sample`] gathers every sampled row into one table. A
//! *paged* sample keeps no sampled rows resident at all: the base table's
//! partitions live in on-disk column files, and the sample is defined
//! *implicitly* — partition `p` contributes `want_p` rows (proportional
//! allocation, exactly like [`Sample::uniform_partitioned`]) drawn by a
//! shuffle seeded purely from `(draw_seed, p)`. Because the draw is a
//! pure function of the segment key, any segment can be (re)derived
//! on demand, in any order, on any thread, and the result is always the
//! same rows in the same order.
//!
//! [`PagedRep`] is that implicit representation: the fault path
//! (`loader` → `PagedRep::derive_segment`), the
//! [`PartitionStore`] buffer manager caching derived segments under the
//! session's byte budget, the shared [`PartitionMap`] whose summaries
//! prune partitions *without any I/O*, and the resident ingest tail.
//!
//! [`PagedScanDriver`] executes a shared scan over such a sample. It
//! reuses the resident executor wholesale: for each batch it pins the
//! owning segment, wraps the pinned table in an ephemeral single-segment
//! [`Sample`], runs a throwaway [`SharedScanDriver`] over it, and
//! renumbers the produced [`BatchPartial`] to the global batch index.
//! The long-lived "merge" driver (over the paged sample's zero-row
//! resolution table) folds partials in batch order exactly like the
//! resident path, so answers, error bounds, and stop points are
//! bit-identical to scanning [`Sample::materialize_resident`] at any
//! thread count and any budget ≥ one partition. Only cache and chunk
//! counters reflect the paging.

use std::ops::Range;
use std::sync::{Arc, Mutex, RwLock};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use verdict_storage::predicate::ChunkMatch;
use verdict_storage::pstore::{PartitionStore, SegmentKey, SegmentPin};
use verdict_storage::{AggregateFn, GroupKey, PartitionMap, Predicate, StorageError, Table};

use crate::driver::{BatchPartial, ScanDriver, ScanKernel, ScanSpec, SharedScanDriver};
use crate::engine::{AqpEngine, OnlineAggregation, RawAnswer};
use crate::stratified::{stratum_slots, Allocation};
use crate::{AqpError, Result, Sample};

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

/// The batch/row geometry of a paged sample — a pure function of the
/// per-partition base cardinalities, the sampling fraction, and the
/// batch size, so warm starts rebuild it identically from the manifest.
#[derive(Debug, Clone)]
pub struct PagedLayout {
    /// Sampled rows drawn from each partition (0 for empty partitions).
    pub(crate) part_want: Vec<usize>,
    /// Global row offset of each partition's segment in the materialized
    /// row order (segments concatenated in partition-id order).
    pub(crate) seg_start: Vec<usize>,
    /// Explicit batches in scan order: the owning partition and the
    /// batch's *local* row range within that partition's segment.
    /// Interleaved across partitions exactly like
    /// [`Sample::uniform_partitioned`].
    pub(crate) batches: Vec<(u32, Range<usize>)>,
    /// Sample rows covered by the explicit batches (Σ `part_want`).
    pub(crate) covered_rows: usize,
}

impl PagedLayout {
    /// Derives the layout: proportional per-partition allocation (every
    /// non-empty partition gets ≥ 1 row), per-partition batches of
    /// `batch_size` rows, deterministically interleaved so any scan
    /// prefix covers all partitions near-proportionally.
    pub fn derive(original_part_rows: &[u64], fraction: f64, batch_size: usize) -> PagedLayout {
        let total: u64 = original_part_rows.iter().sum();
        let n_parts = original_part_rows.iter().filter(|&&n| n > 0).count();
        let mut part_want = vec![0usize; original_part_rows.len()];
        let mut seg_start = vec![0usize; original_part_rows.len()];
        let mut covered = 0usize;
        for (p, &n) in original_part_rows.iter().enumerate() {
            seg_start[p] = covered;
            if n == 0 {
                continue;
            }
            part_want[p] = stratum_slots(
                Allocation::Proportional,
                n as usize,
                total as usize,
                fraction,
                n_parts,
                1,
            );
            covered += part_want[p];
        }
        // Same interleaving key and tie-break as `uniform_partitioned`:
        // batch j of a b-batch partition sorts at (j + ½)/b.
        let mut keyed: Vec<(f64, u32, usize, Range<usize>)> = Vec::new();
        for (p, &want) in part_want.iter().enumerate() {
            if want == 0 {
                continue;
            }
            let b = want.div_ceil(batch_size);
            for j in 0..b {
                let s = j * batch_size;
                let e = (s + batch_size).min(want);
                keyed.push(((j as f64 + 0.5) / b as f64, p as u32, j, s..e));
            }
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let batches = keyed.into_iter().map(|k| (k.1, k.3)).collect();
        PagedLayout {
            part_want,
            seg_start,
            batches,
            covered_rows: covered,
        }
    }

    /// Rows drawn from each partition.
    pub fn part_want(&self) -> &[usize] {
        &self.part_want
    }

    /// Number of explicit (partition-owned) batches.
    pub fn num_explicit_batches(&self) -> usize {
        self.batches.len()
    }

    /// Sample rows covered by the explicit batches.
    pub fn covered_rows(&self) -> usize {
        self.covered_rows
    }
}

/// The demand-paged representation behind a paged [`Sample`].
#[derive(Clone)]
pub struct PagedRep {
    /// Buffer manager caching derived segments (shared session-wide, so
    /// all samples compete under one byte budget).
    pub(crate) store: Arc<PartitionStore>,
    /// Faults the base rows of one partition from disk.
    pub(crate) loader: Arc<SegmentLoader>,
    /// The base table's partition map — routing plus the summaries that
    /// prune partitions without I/O. Shared with the owning session so
    /// ingest-time extension is visible to later scans.
    pub(crate) map: Arc<RwLock<PartitionMap>>,
    /// Seed of this sample's segment shuffles.
    pub(crate) draw_seed: u64,
    /// Which of the session's samples this is (half of the cache key).
    pub(crate) sample_index: u32,
    pub(crate) fraction: f64,
    pub(crate) batch_size: usize,
    pub(crate) layout: PagedLayout,
    /// Create-time base rows per partition: the domain each segment's
    /// shuffle draws from. Frozen at create so ingested rows (which are
    /// admitted into the tail instead) never perturb the draw.
    pub(crate) original_part_rows: Vec<u64>,
    /// Resident ingest tail: rows admitted by sample maintenance, in
    /// admission order, scanned as untagged stride batches after the
    /// explicit batches (exactly like the resident partitioned layout).
    pub(crate) tail: Arc<Table>,
}

impl std::fmt::Debug for PagedRep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedRep")
            .field("sample_index", &self.sample_index)
            .field("draw_seed", &self.draw_seed)
            .field("fraction", &self.fraction)
            .field("batch_size", &self.batch_size)
            .field("covered_rows", &self.layout.covered_rows)
            .field("tail_rows", &self.tail.num_rows())
            .finish()
    }
}

impl PagedRep {
    /// Assembles the representation; the layout is derived from
    /// `original_part_rows`, `fraction`, and `batch_size`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: Arc<PartitionStore>,
        loader: Arc<SegmentLoader>,
        map: Arc<RwLock<PartitionMap>>,
        draw_seed: u64,
        sample_index: u32,
        fraction: f64,
        batch_size: usize,
        original_part_rows: Vec<u64>,
        tail: Table,
    ) -> PagedRep {
        let layout = PagedLayout::derive(&original_part_rows, fraction, batch_size);
        PagedRep {
            store,
            loader,
            map,
            draw_seed,
            sample_index,
            fraction,
            batch_size,
            layout,
            original_part_rows,
            tail: Arc::new(tail),
        }
    }

    /// The batch/row geometry.
    pub fn layout(&self) -> &PagedLayout {
        &self.layout
    }

    /// The buffer manager caching this sample's segments.
    pub fn partition_store(&self) -> &Arc<PartitionStore> {
        &self.store
    }

    /// This sample's cache key for partition `p`.
    pub(crate) fn key(&self, p: u32) -> SegmentKey {
        SegmentKey {
            sample: self.sample_index,
            partition: p,
        }
    }

    /// Derives partition `p`'s segment from scratch: fault the base
    /// fragment, shuffle its row indices with the `(draw_seed, p)` seed,
    /// keep the first `want_p`, gather. Pure — every derivation of the
    /// same segment yields identical rows in identical order.
    pub(crate) fn derive_segment(&self, p: u32) -> verdict_storage::Result<Table> {
        let frag = (self.loader)(p)?;
        let n = self.original_part_rows[p as usize] as usize;
        if frag.num_rows() < n {
            return Err(StorageError::Io(format!(
                "partition {p} fragment has {} rows, expected ≥ {n}",
                frag.num_rows()
            )));
        }
        let want = self.layout.part_want[p as usize];
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(segment_seed(self.draw_seed, p)));
        idx.truncate(want);
        frag.gather(&idx)
    }

    /// Pins partition `p`'s segment in the buffer manager, deriving it
    /// on a miss. The returned guard keeps it resident (unevictable)
    /// until dropped.
    pub(crate) fn pin_segment(&self, p: u32) -> verdict_storage::Result<SegmentPin> {
        self.store.pin(self.key(p), || self.derive_segment(p))
    }

    /// Classifies every partition against `predicate` using only the
    /// resident map summaries — zero I/O. `true` = provably no matching
    /// row. Sound for segments because a segment's rows are a subset of
    /// its partition's base rows.
    pub(crate) fn pruned_partitions(
        &self,
        predicate: &Predicate,
        resolution: &Table,
    ) -> verdict_storage::Result<Vec<bool>> {
        let pred = predicate.compile(resolution)?;
        let map = self.map.read().expect("partition map poisoned");
        Ok((0..map.num_partitions())
            .map(|p| pred.classify_partition(map.part(p)) == ChunkMatch::NoRows)
            .collect())
    }
}

impl OnlineAggregation {
    /// Starts an out-of-core shared scan over this engine's paged
    /// sample — the demand-paged counterpart of
    /// [`OnlineAggregation::shared_scan`].
    pub fn paged_scan<'e>(&'e self, spec: &ScanSpec<'_>) -> Result<PagedScanDriver<'e>> {
        PagedScanDriver::new(self.sample(), spec)
    }
}

/// Out-of-core shared-scan driver (see the module docs).
pub struct PagedScanDriver<'e> {
    sample: &'e Sample,
    rep: Arc<PagedRep>,
    /// Holds the running grids and counters; built over the paged
    /// sample's zero-row resolution table, so it only ever merges.
    merge: SharedScanDriver<'e>,
    /// Owned copy of the spec, rebuilt per segment for the ephemeral
    /// per-segment drivers.
    predicate: Predicate,
    group_cols: Vec<String>,
    groups: Vec<GroupKey>,
    primitives: Vec<AggregateFn>,
    kernel: ScanKernel,
    /// Per-partition verdict from the base map summaries: `true` means
    /// the batch is answered without faulting anything in.
    pruned: Vec<bool>,
    partitions: u64,
    partitions_pruned: u64,
    /// First fault failure, latched here (shared across worker-private
    /// drivers) so the scan completes structurally and the caller fails
    /// the query afterwards — a mid-scan I/O error must not deadlock the
    /// morsel coordinator.
    error: Arc<Mutex<Option<StorageError>>>,
}

impl<'e> PagedScanDriver<'e> {
    /// Starts an out-of-core shared scan over a paged sample.
    pub fn new(sample: &'e Sample, spec: &ScanSpec<'_>) -> Result<PagedScanDriver<'e>> {
        let rep = Arc::clone(sample.paged_rep().ok_or_else(|| {
            AqpError::InvalidConfig("paged scan requires a demand-paged sample".into())
        })?);
        let merge = SharedScanDriver::over_sample(sample, spec)?;
        let pruned = rep
            .pruned_partitions(spec.predicate, sample.table())
            .map_err(AqpError::Storage)?;
        let partitions = pruned.len() as u64;
        let partitions_pruned = pruned.iter().filter(|&&b| b).count() as u64;
        // Hot-first: bump every resident segment this scan will touch so
        // LRU eviction sacrifices cold segments (and segments of other
        // queries) before the ones about to be read.
        for (p, &dead) in pruned.iter().enumerate() {
            if !dead && rep.layout.part_want[p] > 0 {
                rep.store.touch(rep.key(p as u32));
            }
        }
        Ok(PagedScanDriver {
            sample,
            rep,
            merge,
            predicate: spec.predicate.clone(),
            group_cols: spec.group_cols.to_vec(),
            groups: spec.groups.to_vec(),
            primitives: spec.primitives.to_vec(),
            kernel: ScanKernel::default(),
            pruned,
            partitions,
            partitions_pruned,
            error: Arc::new(Mutex::new(None)),
        })
    }

    /// Shares another driver's error latch (the session wires every
    /// worker-private driver to the main driver's latch, so a worker's
    /// fault failure surfaces on the coordinator).
    pub fn set_error_sink(&mut self, sink: Arc<Mutex<Option<StorageError>>>) {
        self.error = sink;
    }

    /// This driver's error latch.
    pub fn error_sink(&self) -> Arc<Mutex<Option<StorageError>>> {
        Arc::clone(&self.error)
    }

    /// Takes the first fault failure, if any batch hit one.
    pub fn take_error(&self) -> Option<StorageError> {
        self.error.lock().expect("error latch poisoned").take()
    }

    fn record_error(&self, e: StorageError) {
        let mut slot = self.error.lock().expect("error latch poisoned");
        slot.get_or_insert(e);
    }

    /// Scans one batch through an ephemeral resident driver over the
    /// pinned fragment, renumbering the partial to the global index.
    fn scan_fragment(
        &self,
        fragment: Arc<Table>,
        local_batch: usize,
        global: usize,
        rows: u64,
    ) -> BatchPartial {
        let seg_sample = Sample::from_shared(
            fragment,
            self.sample.base_rows(),
            self.sample.fraction(),
            self.sample.batch_size(),
        );
        let spec = ScanSpec {
            predicate: &self.predicate,
            group_cols: &self.group_cols,
            groups: &self.groups,
            primitives: &self.primitives,
        };
        let mut d = match SharedScanDriver::over_sample(&seg_sample, &spec) {
            Ok(d) => d,
            Err(e) => {
                self.record_error(StorageError::Io(format!("segment scan setup failed: {e}")));
                return self.merge.empty_partial(global, rows);
            }
        };
        d.set_kernel(self.kernel);
        match d.scan_batch(local_batch) {
            Some(partial) => partial.renumbered(global),
            None => {
                self.record_error(StorageError::Io(format!(
                    "segment batch {local_batch} out of range"
                )));
                self.merge.empty_partial(global, rows)
            }
        }
    }
}

impl ScanDriver for PagedScanDriver<'_> {
    fn set_kernel(&mut self, kernel: ScanKernel) {
        self.kernel = kernel;
    }

    fn step(&mut self) -> bool {
        match self.scan_batch(self.merge.batches_stepped()) {
            Some(partial) => {
                self.merge.merge_partial(&partial);
                true
            }
            None => false,
        }
    }

    fn scan_batch(&mut self, index: usize) -> Option<BatchPartial> {
        if index >= self.sample.num_batches() {
            return None;
        }
        let explicit = self.rep.layout.batches.len();
        if index < explicit {
            let (p, local) = self.rep.layout.batches[index].clone();
            let rows = local.len() as u64;
            // Prune from summaries alone: the exact all-miss partial,
            // zero partition files read.
            if self.pruned[p as usize] {
                return Some(self.merge.empty_partial(index, rows));
            }
            let pin = match self.rep.pin_segment(p) {
                Ok(pin) => pin,
                Err(e) => {
                    self.record_error(e);
                    return Some(self.merge.empty_partial(index, rows));
                }
            };
            // The batch's local index within the single-segment sample:
            // explicit batches are cut at batch_size boundaries.
            let local_batch = local.start / self.rep.batch_size;
            Some(self.scan_fragment(Arc::clone(pin.table()), local_batch, index, rows))
        } else {
            // Ingest-tail stride batch over the resident tail (never
            // pruned, exactly like the resident layout's tail).
            let k = index - explicit;
            let start = k * self.rep.batch_size;
            let end = (start + self.rep.batch_size).min(self.rep.tail.num_rows());
            let rows = (end - start) as u64;
            Some(self.scan_fragment(Arc::clone(&self.rep.tail), k, index, rows))
        }
    }

    fn merge_partial(&mut self, partial: &BatchPartial) {
        self.merge.merge_partial(partial);
    }

    fn raw(&self, group: usize, primitive: usize) -> RawAnswer {
        self.merge.raw(group, primitive)
    }

    fn tuples_scanned(&self) -> usize {
        self.merge.tuples_scanned()
    }

    fn rows_matched(&self) -> u64 {
        self.merge.rows_matched()
    }

    fn chunks_scanned(&self) -> u64 {
        self.merge.chunks_scanned()
    }

    fn chunks_pruned(&self) -> u64 {
        self.merge.chunks_pruned()
    }

    fn partitions(&self) -> u64 {
        self.partitions
    }

    fn partitions_pruned(&self) -> u64 {
        self.partitions_pruned
    }

    fn batches_stepped(&self) -> usize {
        self.merge.batches_stepped()
    }

    fn batches_remaining(&self) -> usize {
        self.sample.num_batches() - self.merge.batches_stepped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_scan;
    use verdict_storage::{distinct_group_keys, ColumnDef, Expr, PartitionSpec, Schema};

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
    /// for on-disk partition column files.
    fn paged_fixture(
        t: &Table,
        bounds: Vec<f64>,
        fraction: f64,
        batch_size: usize,
        budget: u64,
    ) -> Sample {
        let n = t.num_rows();
        let spec = PartitionSpec::range("x", bounds);
        let map = PartitionMap::build(t, spec).unwrap();
        let routed = map.route(t, 0..n).unwrap();
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); map.num_partitions()];
        for (r, &p) in routed.iter().enumerate() {
            rows[p as usize].push(r);
        }
        let frags: Vec<Table> = rows.iter().map(|r| t.gather(r).unwrap()).collect();
        let original_part_rows: Vec<u64> = frags.iter().map(|f| f.num_rows() as u64).collect();
        let loader: Arc<SegmentLoader> = Arc::new(move |p: u32| Ok(frags[p as usize].clone()));
        let mut resolution = Table::new(t.schema().clone());
        resolution.sync_dictionaries_from(t).unwrap();
        let rep = PagedRep::new(
            Arc::new(PartitionStore::new(budget)),
            loader,
            Arc::new(RwLock::new(map)),
            42,
            0,
            fraction,
            batch_size,
            original_part_rows,
            resolution.clone(),
        );
        Sample::paged(resolution, n, rep).unwrap()
    }

    /// The paged layout must reproduce `uniform_partitioned`'s geometry
    /// (allocation, batch sizes, interleaving) from the per-partition
    /// cardinalities alone.
    #[test]
    fn layout_matches_resident_partitioned_geometry() {
        let t = base(2_000);
        let spec = PartitionSpec::range("x", vec![400.0, 800.0, 1_200.0, 1_600.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let resident = Sample::uniform_partitioned(&t, spec.clone(), 0.3, 24, &mut rng).unwrap();
        let map = PartitionMap::build(&t, spec).unwrap();
        let routed = map.route(&t, 0..t.num_rows()).unwrap();
        let mut counts = vec![0u64; map.num_partitions()];
        for &p in &routed {
            counts[p as usize] += 1;
        }
        let layout = PagedLayout::derive(&counts, 0.3, 24);
        assert_eq!(layout.covered_rows(), resident.len());
        assert_eq!(layout.num_explicit_batches(), resident.num_batches());
        for i in 0..layout.num_explicit_batches() {
            assert_eq!(
                Some(layout.batches[i].0),
                resident.batch_partition(i),
                "batch {i}"
            );
            assert_eq!(
                layout.batches[i].1.len(),
                resident.batch_range(i).len(),
                "batch {i}"
            );
        }
    }

    /// Core parity: a paged scan must match a scan of the materialized
    /// sample bit for bit at *every* step — answers, error bounds, and
    /// tuples scanned (hence identical stop points under any policy).
    #[test]
    fn paged_scan_matches_materialized_resident_stepwise() {
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
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &cols,
            groups: &keys,
            primitives: &prims,
        };
        let mut paged = PagedScanDriver::new(&s, &spec).unwrap();
        let mut refd = SharedScanDriver::over_sample(&resident, &spec).unwrap();
        loop {
            let a = paged.step();
            let b = refd.step();
            assert_eq!(a, b);
            assert_eq!(paged.tuples_scanned(), refd.tuples_scanned());
            for g in 0..keys.len() {
                for p in 0..prims.len() {
                    let (x, y) = (paged.raw(g, p), refd.raw(g, p));
                    assert_eq!(x.answer.to_bits(), y.answer.to_bits(), "g{g} p{p}");
                    assert_eq!(x.error.to_bits(), y.error.to_bits(), "g{g} p{p}");
                }
            }
            if !a {
                break;
            }
        }
        assert!(paged.take_error().is_none());
        assert_eq!(paged.rows_matched(), refd.rows_matched());
        assert_eq!(paged.tuples_scanned(), s.len());
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
        let mut d = PagedScanDriver::new(&s, &spec).unwrap();
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
        assert_eq!(d.raw(0, 0).answer.to_bits(), r.raw(0, 0).answer.to_bits());
        assert_eq!(d.raw(0, 0).error.to_bits(), r.raw(0, 0).error.to_bits());
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
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let run = |budget: u64| {
            let s = paged_fixture(&t, vec![600.0, 1_200.0, 1_800.0], 0.5, 48, budget);
            let keys = s.distinct_group_keys(&pred, &cols).unwrap();
            let spec = ScanSpec {
                predicate: &pred,
                group_cols: &cols,
                groups: &keys,
                primitives: &prims,
            };
            let mut d = PagedScanDriver::new(&s, &spec).unwrap();
            while d.step() {}
            assert!(d.take_error().is_none());
            let mut cells = Vec::new();
            for g in 0..keys.len() {
                for p in 0..prims.len() {
                    let r = d.raw(g, p);
                    cells.push((r.answer.to_bits(), r.error.to_bits()));
                }
            }
            let counters = s.paged_rep().unwrap().partition_store().counters();
            (cells, d.tuples_scanned(), counters.evictions)
        };
        let tight = run(1);
        let roomy = run(u64::MAX);
        assert_eq!(tight.0, roomy.0);
        assert_eq!(tight.1, roomy.1);
        assert!(tight.2 > 0, "a one-byte budget must evict");
        assert_eq!(roomy.2, 0, "an unbounded budget never evicts");
    }

    /// Morsel-parallel paged scans (worker drivers sharing the main
    /// driver's error latch) are bit-identical to the serial paged scan.
    #[test]
    fn parallel_paged_scan_is_bit_identical() {
        let t = base(3_000);
        let s = paged_fixture(&t, vec![1_000.0, 2_000.0], 0.6, 40, u64::MAX);
        let pred = Predicate::between("x", 50.0, 2_900.0);
        let cols = vec!["g".to_owned()];
        let keys = s.distinct_group_keys(&pred, &cols).unwrap();
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &cols,
            groups: &keys,
            primitives: &prims,
        };
        let mut reference = PagedScanDriver::new(&s, &spec).unwrap();
        while reference.step() {}
        assert!(reference.take_error().is_none());
        for threads in [2usize, 4] {
            let mut main = PagedScanDriver::new(&s, &spec).unwrap();
            let sink = main.error_sink();
            parallel_scan(
                &mut main,
                threads,
                usize::MAX,
                || {
                    let mut d = PagedScanDriver::new(&s, &spec).ok()?;
                    d.set_error_sink(Arc::clone(&sink));
                    Some(d)
                },
                |_| true,
            );
            assert!(main.take_error().is_none());
            assert_eq!(main.tuples_scanned(), reference.tuples_scanned());
            assert_eq!(main.rows_matched(), reference.rows_matched());
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
        let mut batch = Table::new(t.schema().clone());
        batch.sync_dictionaries_from(&t).unwrap();
        for i in 0..400usize {
            let g = ["a", "b", "c", "z"][i % 4];
            batch
                .push_row(vec![
                    ((1_500 + i) as f64).into(),
                    g.into(),
                    ((i % 7) as f64).into(),
                ])
                .unwrap();
        }
        let admitted = s.paged_absorb_appended(&batch, 1_500, 42, 0).unwrap();
        assert!(admitted > 0);
        assert_eq!(s.base_rows(), 1_900);
        assert_eq!(s.paged_tail().unwrap().num_rows(), admitted);
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
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &cols,
            groups: &keys,
            primitives: &prims,
        };
        let mut a = PagedScanDriver::new(&s, &spec).unwrap();
        let mut b = SharedScanDriver::over_sample(&resident, &spec).unwrap();
        while a.step() {
            assert!(b.step());
        }
        assert!(!b.step());
        assert!(a.take_error().is_none());
        for g in 0..keys.len() {
            for p in 0..prims.len() {
                let (x, y) = (a.raw(g, p), b.raw(g, p));
                assert_eq!(x.answer.to_bits(), y.answer.to_bits(), "g{g} p{p}");
                assert_eq!(x.error.to_bits(), y.error.to_bits(), "g{g} p{p}");
            }
        }
    }

    /// A failing loader must not wedge the scan: the error is latched,
    /// the scan completes structurally, and `take_error` surfaces it.
    #[test]
    fn fault_failure_is_latched_not_fatal() {
        let t = base(600);
        let n = t.num_rows();
        let spec_p = PartitionSpec::range("x", vec![300.0]);
        let map = PartitionMap::build(&t, spec_p).unwrap();
        let routed = map.route(&t, 0..n).unwrap();
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); map.num_partitions()];
        for (r, &p) in routed.iter().enumerate() {
            rows[p as usize].push(r);
        }
        let frags: Vec<Table> = rows.iter().map(|r| t.gather(r).unwrap()).collect();
        let original_part_rows: Vec<u64> = frags.iter().map(|f| f.num_rows() as u64).collect();
        // Partition 1 always fails to load.
        let loader: Arc<SegmentLoader> = Arc::new(move |p: u32| {
            if p == 1 {
                Err(StorageError::Io("disk gone".into()))
            } else {
                Ok(frags[p as usize].clone())
            }
        });
        let mut resolution = Table::new(t.schema().clone());
        resolution.sync_dictionaries_from(&t).unwrap();
        let rep = PagedRep::new(
            Arc::new(PartitionStore::new(u64::MAX)),
            loader,
            Arc::new(RwLock::new(map)),
            42,
            0,
            0.5,
            32,
            original_part_rows,
            resolution.clone(),
        );
        let s = Sample::paged(resolution, n, rep).unwrap();
        let prims = vec![AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &Predicate::True,
            group_cols: &[],
            groups: &[],
            primitives: &prims,
        };
        let mut d = PagedScanDriver::new(&s, &spec).unwrap();
        while d.step() {}
        match d.take_error() {
            Some(StorageError::Io(m)) => assert!(m.contains("disk gone")),
            other => panic!("expected a latched Io error, got {other:?}"),
        }
        // Latch is take-once.
        assert!(d.take_error().is_none());
    }
}
