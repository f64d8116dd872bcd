//! The shared-scan driver: one sample pass per query.
//!
//! The paper's Figure 3 decomposition, taken literally, answers a
//! `GROUP BY` query with `G` groups and `A` aggregates as `G × A`
//! independent snippets, each its own pass over the sample.
//! [`SharedScanDriver`] is the executor the paper's runtime (Figure 2 /
//! Algorithm 2) actually implies: a single batch cursor walks the sample
//! once, evaluating the query's *base* predicate and extracting each row's
//! group index in the same pass, and routes every matching row to a
//! (group × primitive) grid of accumulators. Scan work is therefore
//! independent of `G × A`; the snippet survives as the unit of *learning*
//! (region, model key, synopsis record), not of execution, and
//! [`crate::BatchEstimator`] keeps the literal per-snippet estimator as
//! the oracle each grid cell is tested against.
//!
//! It is the *only* scan driver: every [`Sample`] has one batch geometry,
//! and the driver resolves each batch to where its rows are — the
//! sample's resident table (every batch of a resident sample, the stride
//! tail of a paged one; the query is compiled against it once per
//! driver) or a partition segment of a paged sample, pinned in the buffer
//! manager and compiled against once per *segment run* — the batches of
//! that segment one `SharedScanDriver::scan_run` scans under the one
//! pin (see [`crate::paged`]). Either way the same kernels run over each
//! batch's rows and produce the same `BatchPartial`.
//!
//! # Execution kernels
//!
//! Every query runs the chunked kernel; the row-wise one is its oracle
//! ([`ScanKernel`], selectable only on a driver a test or bench holds —
//! [`SharedScanDriver::set_kernel`]):
//!
//! - **Chunked**: each sample batch is split at
//!   [`verdict_storage::CHUNK_ROWS`] boundaries. Per chunk the driver
//!   first consults the table's zone maps
//!   ([`CompiledPredicate::classify_chunk`]): a chunk that cannot match
//!   is skipped without touching data (its rows still count as scanned —
//!   the scan *considered* them, exactly like an all-zero mask). Otherwise
//!   [`CompiledPredicate::fill_mask`] evaluates every conjunct as a
//!   branch-free tight loop into a `u64` selection bitmap (range and
//!   narrow membership conjuncts through AVX2 when the host has it, the
//!   scalar loops being the fallback and the oracle they are tested
//!   against bit for bit), group keys are resolved per-chunk from raw
//!   dictionary codes ([`GroupIndexer::fill_groups`], or, when the
//!   bit-packed code mirror exists,
//!   [`verdict_storage::PackedCodes::map_range`], which decodes a whole
//!   `u64` word per step through the indexer's dense LUT; a segment
//!   under a quarter matched resolves only its surviving rows, through
//!   the same LUT — [`GroupIndexer::group_of`]), and the accumulator
//!   grid consumes the whole chunk under the mask — with a dense fast
//!   path when the mask is all-ones.
//! - **RowWise**: the per-row reference path, kept for parity testing and
//!   benchmarking. It never consults zone maps.
//!
//! # Bit-parity contract
//!
//! Both kernels produce *bit-identical* results: the same answers, the
//! same error bounds, the same `tuples_scanned`. This holds because the
//! selection mask is exact, zone classification is conservative and sound
//! (`NoRows`/`AllRows` only when provable), group resolution is
//! semantically identical, and every Welford accumulator receives its
//! values in ascending row order within the chunk sequence — the only
//! reordering is *across* independent accumulators, which cannot change
//! any per-cell result. `FREQ` counters are bulk-added per chunk
//! (integer addition is associative). Per-cell estimates come from the
//! same functions the per-snippet estimator uses, so both kernels and the
//! estimator oracle agree bit for bit — property-tested here and in the
//! root crate's parity suites.
//! Partition pruning is equally transparent: a batch of a partition the
//! summaries reject yields the exact all-miss partial the kernels would
//! produce, its rows still counted as scanned.
//!
//! # Batch partials and ordered merge
//!
//! The canonical accumulation of a cell is a *left fold of per-batch
//! partials in batch-index order*: `SharedScanDriver::scan_batch`
//! scans one batch into an owned `BatchPartial` (a private
//! group × primitive grid plus the batch's counters), and
//! `SharedScanDriver::merge_partial` folds partials into the running
//! grids with [`Welford::merge`], strictly in batch order.
//! [`SharedScanDriver::step`] is exactly scan-then-merge, so the serial
//! scan *is* the fold reference; the morsel scheduler
//! ([`crate::parallel_scan`]) computes the same partials on worker
//! threads and merges them in the same order, which is why answers,
//! errors, and `tuples_scanned` are bit-identical at every thread count.
//! A segment run (`SharedScanDriver::scan_run`) only changes *when* a
//! partial is computed: the ones past the merge cursor wait, keyed by
//! batch, until the fold reaches them — at most one partial per batch of
//! the scan's horizon.
//! [`crate::BatchEstimator::consume`] folds the same per-batch Welford
//! partial into its state, keeping the per-snippet oracle in lockstep.
//!
//! # Faults
//!
//! `scan_batch` and `scan_run` cannot fail: a segment that cannot be
//! pinned or compiled against latches the first [`StorageError`] on the
//! driver (worker drivers share the coordinator's latch through
//! [`SharedScanDriver::set_error_sink`]) and contributes the all-miss
//! partial for every batch of the run, so the merge order — and the
//! morsel coordinator — never stalls on an I/O error. The caller checks
//! [`SharedScanDriver::take_error`] after the scan and fails the query.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use verdict_stats::Welford;
use verdict_storage::chunk::{chunk_segments, SelectionMask, ZoneMaps};
use verdict_storage::expr::CompiledExpr;
use verdict_storage::predicate::ChunkMatch;
use verdict_storage::{
    AggregateFn, CompiledPredicate, GroupIndexer, GroupKey, Predicate, StorageError, Table,
};

use crate::engine::RawAnswer;
use crate::estimator::{avg_estimate, freq_estimate};
use crate::{lock, AqpError, OnlineAggregation, Result, Sample};

/// Which executor loop a [`SharedScanDriver`] runs. Not a serving option:
/// no builder or wire request carries one, so every query runs
/// [`ScanKernel::Chunked`]; tests and benches flip a driver they hold to
/// [`ScanKernel::RowWise`] to compare against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanKernel {
    /// Typed columnar chunk execution: selection bitmaps, zone-map chunk
    /// skipping, per-chunk group resolution (what every query runs).
    #[default]
    Chunked,
    /// The per-row reference path (the kernel oracle).
    RowWise,
}

/// What one shared scan computes: the query's base predicate, its group
/// columns and enumerated group keys, and the deduplicated primitive
/// streams (`AVG(e)` / `FREQ(*)`) every cell draws from.
pub struct ScanSpec<'a> {
    /// The query's `WHERE` predicate *without* any group equalities.
    pub predicate: &'a Predicate,
    /// Group-by columns (empty for ungrouped queries).
    pub group_cols: &'a [String],
    /// Enumerated group keys (ignored when `group_cols` is empty; an
    /// ungrouped scan has exactly one implicit group).
    pub groups: &'a [GroupKey],
    /// Primitive streams: `AggregateFn::Avg` or `AggregateFn::Freq` only.
    pub primitives: &'a [AggregateFn],
}

/// An owned [`ScanSpec`]: what a driver over a paged sample keeps so it
/// can compile the query against each segment it pins.
struct OwnedSpec {
    predicate: Predicate,
    group_cols: Vec<String>,
    groups: Vec<GroupKey>,
    primitives: Vec<AggregateFn>,
}

/// Kind and same-kind slot of one primitive stream, mapping the public
/// `(group, primitive)` cell addressing onto the split accumulator grids.
#[derive(Clone, Copy)]
enum PrimSlot {
    Avg(usize),
    Freq(usize),
}

/// One batch's contribution to a shared scan: a private
/// (group × primitive) accumulator grid plus the batch's counters.
///
/// Partials are produced by [`SharedScanDriver::scan_batch`] — on any
/// thread, in any order — and folded into the running grids by
/// [`SharedScanDriver::merge_partial`] strictly in batch-index order, so
/// the merged state is a pure function of the batch sequence.
#[derive(Debug)]
pub(crate) struct BatchPartial {
    /// Which batch this partial covers.
    batch: usize,
    /// Welford partial per `group * n_avg + avg_slot` cell.
    avg: Vec<Welford>,
    /// Indicator counts per `group * n_freq + freq_slot` cell.
    freq: Vec<u64>,
    rows_scanned: u64,
    rows_matched: u64,
    chunks_scanned: u64,
    chunks_pruned: u64,
}

/// One query compiled against one table — the sample's resident table or
/// a pinned segment — plus the kernels that scan a row range of it into a
/// [`BatchPartial`].
struct TableScan<'t> {
    table: &'t Table,
    pred: CompiledPredicate<'t>,
    indexer: Option<GroupIndexer<'t>>,
    /// Compiled expression per AVG slot, plus the raw column slice when
    /// the expression is a bare column (the streaming fast path).
    avg_exprs: Vec<CompiledExpr<'t>>,
    avg_cols: Vec<Option<&'t [f64]>>,
    n_avg: usize,
    n_freq: usize,
    n_groups: usize,
    /// Zone maps of `table`, fetched on first chunked scan.
    zones: Option<Arc<ZoneMaps>>,
    mask: SelectionMask,
    gbuf: Vec<u32>,
}

impl<'t> TableScan<'t> {
    /// Binds `spec` (primitives already validated as AVG/FREQ) to `table`.
    fn compile(table: &'t Table, spec: &ScanSpec<'_>) -> Result<TableScan<'t>> {
        let pred = spec.predicate.compile(table)?;
        let (indexer, n_groups) = if spec.group_cols.is_empty() {
            (None, 1)
        } else {
            (
                Some(GroupIndexer::new(table, spec.group_cols, spec.groups)?),
                spec.groups.len(),
            )
        };
        let mut avg_exprs = Vec::new();
        for agg in spec.primitives {
            if let AggregateFn::Avg(e) = agg {
                avg_exprs.push(e.compile(table)?);
            }
        }
        Ok(TableScan {
            table,
            pred,
            indexer,
            avg_cols: avg_exprs.iter().map(CompiledExpr::as_col).collect(),
            n_avg: avg_exprs.len(),
            n_freq: spec.primitives.len() - avg_exprs.len(),
            avg_exprs,
            n_groups,
            zones: None,
            mask: SelectionMask::new(),
            gbuf: Vec::new(),
        })
    }

    /// The exact partial a kernel pass produces over `rows` rows none of
    /// which match: zeroed grids, rows counted as scanned. Every scan
    /// starts from it; pruned and faulted batches return it as is.
    fn empty_partial(&self, batch: usize, rows: u64) -> BatchPartial {
        BatchPartial {
            batch,
            avg: vec![Welford::new(); self.n_groups * self.n_avg],
            freq: vec![0; self.n_groups * self.n_freq],
            rows_scanned: rows,
            rows_matched: 0,
            chunks_scanned: 0,
            chunks_pruned: 0,
        }
    }

    /// Scans rows `range` of the table into batch `batch`'s partial.
    fn scan(&mut self, kernel: ScanKernel, batch: usize, range: Range<usize>) -> BatchPartial {
        let mut out = self.empty_partial(batch, range.len() as u64);
        match kernel {
            ScanKernel::RowWise => self.step_rowwise(range, &mut out),
            ScanKernel::Chunked => self.step_chunked(range, &mut out),
        }
        out
    }

    /// The per-row reference path: one mask per batch, one hash lookup
    /// and one accumulator push per matching row.
    fn step_rowwise(&mut self, range: Range<usize>, out: &mut BatchPartial) {
        self.pred.fill_mask(range.clone(), &mut self.mask);
        for (i, row) in range.enumerate() {
            if !self.mask.get(i) {
                continue;
            }
            out.rows_matched += 1;
            let group = match &self.indexer {
                None => 0,
                Some(ix) => match ix.group_of(row) {
                    Some(g) => g,
                    // Key dropped by the N_max cap: contributes nowhere.
                    None => continue,
                },
            };
            self.route_row(out, row, group);
        }
    }

    /// Pushes one matching row into every primitive stream of `group`.
    #[inline]
    fn route_row(&self, out: &mut BatchPartial, row: usize, group: usize) {
        let abase = group * self.n_avg;
        for s in 0..self.n_avg {
            let x = match self.avg_cols[s] {
                Some(data) => data[row],
                None => self.avg_exprs[s].eval(row),
            };
            out.avg[abase + s].push(x);
        }
        let fbase = group * self.n_freq;
        for f in &mut out.freq[fbase..fbase + self.n_freq] {
            *f += 1;
        }
    }

    /// The chunked kernel: zone-classify each chunk segment, fill a
    /// selection bitmap only when needed, resolve groups per chunk, and
    /// consume whole segments under the mask.
    fn step_chunked(&mut self, range: Range<usize>, out: &mut BatchPartial) {
        let zones = Arc::clone(self.zones.get_or_insert_with(|| self.table.zone_maps()));
        for (chunk, seg) in chunk_segments(range) {
            out.chunks_scanned += 1;
            match self.pred.classify_chunk(&zones, chunk) {
                ChunkMatch::NoRows => {
                    // Equivalent to an all-zero mask: no row matches, so
                    // no accumulator moves. The rows still count as
                    // scanned (`rows_scanned` covers the whole batch).
                    out.chunks_pruned += 1;
                }
                ChunkMatch::AllRows => self.consume_dense(seg, &zones, out),
                ChunkMatch::SomeRows => {
                    self.pred.fill_mask(seg.clone(), &mut self.mask);
                    if self.mask.all_ones() {
                        self.consume_dense(seg, &zones, out);
                    } else if self.mask.any() {
                        self.consume_masked(seg, &zones, out);
                    }
                }
            }
        }
    }

    /// Resolves the group index of every row in `seg` into `gbuf`,
    /// decoding the bit-packed code mirror a word at a time when the
    /// group-by is a single narrow categorical column with one available.
    fn fill_group_buf(&mut self, seg: Range<usize>, zones: &ZoneMaps) {
        let ix = self.indexer.as_ref().expect("grouped path");
        if let Some((col, lut)) = ix.dense_cat_lut() {
            if let Some(packed) = zones.packed_codes(col) {
                packed.map_range(seg, lut, GroupIndexer::NO_GROUP, &mut self.gbuf);
                return;
            }
        }
        ix.fill_groups(seg, &mut self.gbuf);
    }

    /// Consumes a segment every row of which matches (all-ones mask).
    fn consume_dense(&mut self, seg: Range<usize>, zones: &ZoneMaps, out: &mut BatchPartial) {
        out.rows_matched += seg.len() as u64;
        if self.indexer.is_none() {
            // Ungrouped: stream each AVG column straight into its single
            // Welford chain; FREQ counters bulk-add the row count.
            for s in 0..self.n_avg {
                let w = &mut out.avg[s];
                match self.avg_cols[s] {
                    Some(data) => {
                        for &x in &data[seg.clone()] {
                            w.push(x);
                        }
                    }
                    None => {
                        for row in seg.clone() {
                            w.push(self.avg_exprs[s].eval(row));
                        }
                    }
                }
            }
            for f in &mut out.freq[..self.n_freq] {
                *f += seg.len() as u64;
            }
            return;
        }
        self.fill_group_buf(seg.clone(), zones);
        let (gbuf, n_avg, n_freq) = (&self.gbuf, self.n_avg, self.n_freq);
        for s in 0..n_avg {
            match self.avg_cols[s] {
                Some(data) => {
                    for (&g, &x) in gbuf.iter().zip(&data[seg.clone()]) {
                        if g != GroupIndexer::NO_GROUP {
                            out.avg[g as usize * n_avg + s].push(x);
                        }
                    }
                }
                None => {
                    for (i, &g) in gbuf.iter().enumerate() {
                        if g != GroupIndexer::NO_GROUP {
                            let x = self.avg_exprs[s].eval(seg.start + i);
                            out.avg[g as usize * n_avg + s].push(x);
                        }
                    }
                }
            }
        }
        for s in 0..n_freq {
            for &g in gbuf {
                if g != GroupIndexer::NO_GROUP {
                    out.freq[g as usize * n_freq + s] += 1;
                }
            }
        }
    }

    /// Consumes a segment under a partial selection mask.
    fn consume_masked(&mut self, seg: Range<usize>, zones: &ZoneMaps, out: &mut BatchPartial) {
        let matched = self.mask.count_ones();
        out.rows_matched += matched;
        if self.indexer.is_none() {
            for s in 0..self.n_avg {
                let w = &mut out.avg[s];
                match self.avg_cols[s] {
                    Some(data) => {
                        let chunk = &data[seg.clone()];
                        self.mask.for_each_set(|i| w.push(chunk[i]));
                    }
                    None => {
                        let expr = &self.avg_exprs[s];
                        self.mask.for_each_set(|i| w.push(expr.eval(seg.start + i)));
                    }
                }
            }
            for f in &mut out.freq[..self.n_freq] {
                *f += matched;
            }
            return;
        }
        // Sparse grouped segments: one group lookup per *surviving* row
        // beats materialising a group index for every row in the segment.
        // Per-cell push order is unchanged (ascending rows), so results
        // stay bit-identical with the gathered path.
        if (matched as usize) * 4 < seg.len() {
            self.route_sparse(seg, out);
        } else {
            self.route_gathered(seg, zones, out);
        }
    }

    /// Routes the masked rows of a grouped segment one
    /// [`GroupIndexer::group_of`] lookup at a time.
    fn route_sparse(&self, seg: Range<usize>, out: &mut BatchPartial) {
        let ix = self.indexer.as_ref().expect("grouped path");
        self.mask.for_each_set(|i| {
            let row = seg.start + i;
            if let Some(group) = ix.group_of(row) {
                self.route_row(out, row, group);
            }
        });
    }

    /// Routes the masked rows of a grouped segment through a group index
    /// materialised for the whole segment, one primitive stream at a time.
    fn route_gathered(&mut self, seg: Range<usize>, zones: &ZoneMaps, out: &mut BatchPartial) {
        self.fill_group_buf(seg.clone(), zones);
        let (mask, gbuf, n_avg, n_freq) = (&self.mask, &self.gbuf, self.n_avg, self.n_freq);
        for s in 0..n_avg {
            match self.avg_cols[s] {
                Some(data) => {
                    let chunk = &data[seg.clone()];
                    mask.for_each_set(|i| {
                        let g = gbuf[i];
                        if g != GroupIndexer::NO_GROUP {
                            out.avg[g as usize * n_avg + s].push(chunk[i]);
                        }
                    });
                }
                None => {
                    let expr = &self.avg_exprs[s];
                    mask.for_each_set(|i| {
                        let g = gbuf[i];
                        if g != GroupIndexer::NO_GROUP {
                            out.avg[g as usize * n_avg + s].push(expr.eval(seg.start + i));
                        }
                    });
                }
            }
        }
        for s in 0..n_freq {
            mask.for_each_set(|i| {
                let g = gbuf[i];
                if g != GroupIndexer::NO_GROUP {
                    out.freq[g as usize * n_freq + s] += 1;
                }
            });
        }
    }
}

/// One in-flight shared scan over a sample.
pub struct SharedScanDriver<'e> {
    sample: &'e Sample,
    /// The query compiled against the sample's resident table.
    resident: TableScan<'e>,
    /// The query itself, kept only when the sample has segments to
    /// compile it against.
    segment_spec: Option<OwnedSpec>,
    /// Per-primitive routing into the grids.
    slots: Vec<PrimSlot>,
    /// The running fold of every merged partial: `batch` is the merge
    /// cursor (the next batch to fold), the counters are cumulative.
    merged: BatchPartial,
    kernel: ScanKernel,
    /// Per-partition verdicts: `true` means the predicate provably
    /// matches no row of that partition, so its batches skip the kernels
    /// (and, when paged, the fault) entirely. Empty when unpartitioned.
    partition_pruned: Vec<bool>,
    /// First segment fault, latched so the scan completes structurally
    /// (see the module docs).
    error: Arc<Mutex<Option<StorageError>>>,
    /// Queries compiled against pinned segments.
    #[cfg(test)]
    segment_compiles: u64,
}

impl OnlineAggregation {
    /// Starts a shared scan answering every (group × primitive) cell of
    /// one query from a single pass over this engine's sample.
    pub fn shared_scan<'e>(&'e self, spec: &ScanSpec<'_>) -> Result<SharedScanDriver<'e>> {
        SharedScanDriver::over_sample(self.sample(), spec)
    }
}

impl<'e> SharedScanDriver<'e> {
    /// Starts a shared scan directly over `sample` (what
    /// [`OnlineAggregation::shared_scan`] does).
    pub fn over_sample(sample: &'e Sample, spec: &ScanSpec<'_>) -> Result<SharedScanDriver<'e>> {
        let mut slots = Vec::with_capacity(spec.primitives.len());
        let (mut n_avg, mut n_freq) = (0, 0);
        for agg in spec.primitives {
            match agg {
                AggregateFn::Avg(_) => {
                    slots.push(PrimSlot::Avg(n_avg));
                    n_avg += 1;
                }
                AggregateFn::Freq => {
                    slots.push(PrimSlot::Freq(n_freq));
                    n_freq += 1;
                }
                other => {
                    return Err(AqpError::InvalidConfig(format!(
                        "shared-scan primitives are AVG/FREQ, got {}",
                        other.label()
                    )))
                }
            }
        }
        let resident = TableScan::compile(sample.table(), spec)?;
        // Classify every partition once up front; batches of a `NoRows`
        // partition never reach the kernels.
        let partition_pruned = sample.pruned_partitions(&resident.pred);
        if let Some(rep) = sample.paged_rep() {
            // Hot-first: bump every resident segment this scan will touch
            // so LRU eviction sacrifices cold segments (and segments of
            // other queries) before the ones about to be read.
            let spans = sample.layout().spans.iter();
            for (p, (span, &dead)) in spans.zip(&partition_pruned).enumerate() {
                if !dead && !span.is_empty() {
                    rep.touch_segment(p as u32);
                }
            }
        }
        let segment_spec = sample.is_paged().then(|| OwnedSpec {
            predicate: spec.predicate.clone(),
            group_cols: spec.group_cols.to_vec(),
            groups: spec.groups.to_vec(),
            primitives: spec.primitives.to_vec(),
        });
        Ok(SharedScanDriver {
            sample,
            merged: resident.empty_partial(0, 0),
            resident,
            segment_spec,
            slots,
            kernel: ScanKernel::default(),
            partition_pruned,
            error: Arc::default(),
            #[cfg(test)]
            segment_compiles: 0,
        })
    }
}

impl SharedScanDriver<'_> {
    /// Selects the executor kernel — how a test or bench runs the
    /// row-wise oracle. Call before the first [`SharedScanDriver::step`];
    /// both kernels are bit-identical, so switching mid-scan is harmless
    /// but pointless.
    pub fn set_kernel(&mut self, kernel: ScanKernel) {
        self.kernel = kernel;
    }

    /// The active executor kernel.
    pub fn kernel(&self) -> ScanKernel {
        self.kernel
    }

    /// Shares another driver's fault latch: every worker-private driver
    /// of a parallel scan is wired to the coordinator's, so a worker's
    /// segment fault surfaces where the query is answered.
    pub fn set_error_sink(&mut self, sink: Arc<Mutex<Option<StorageError>>>) {
        self.error = sink;
    }

    /// This driver's fault latch.
    pub fn error_sink(&self) -> Arc<Mutex<Option<StorageError>>> {
        Arc::clone(&self.error)
    }

    /// Takes the first segment fault, if any batch hit one.
    pub fn take_error(&self) -> Option<StorageError> {
        lock(&self.error).take()
    }

    /// Consumes the next batch; `false` once the sample is exhausted.
    ///
    /// Exactly `SharedScanDriver::scan_batch` of the merge cursor's
    /// batch followed by `SharedScanDriver::merge_partial` — the serial
    /// reference for the ordered-merge fold.
    pub fn step(&mut self) -> bool {
        match self.scan_batch(self.merged.batch) {
            Some(partial) => {
                self.merge_partial(&partial);
                true
            }
            None => false,
        }
    }

    /// Scans batch `index` into an owned [`BatchPartial`] without
    /// touching the running grids or the merge cursor; `None` past the
    /// end of the sample. Safe to call for any batch in any order — this
    /// is the worker half of the morsel scheduler.
    pub(crate) fn scan_batch(&mut self, index: usize) -> Option<BatchPartial> {
        self.scan_run(index, index.saturating_add(1), &mut BTreeMap::new())
    }

    /// Scans batch `index` as [`SharedScanDriver::scan_batch`] does. When
    /// it is a batch of a paged segment, the same pin and the same
    /// compiled query also scan every later batch of that segment before
    /// batch `end`, and those partials go into `ahead`, keyed by batch,
    /// for the caller to fold once its merge cursor reaches them. A
    /// segment that cannot be pinned or compiled against latches one error
    /// and yields the all-miss partial for each batch of the run.
    pub(crate) fn scan_run(
        &mut self,
        index: usize,
        end: usize,
        ahead: &mut BTreeMap<usize, BatchPartial>,
    ) -> Option<BatchPartial> {
        if index >= self.sample.num_batches() {
            return None;
        }
        let (segment, range) = self.sample.locate_batch(index);
        // Partition pruning: a batch of a provably-disjoint partition
        // yields the exact partial the kernels would produce (no row can
        // match), minus the chunk work — and, for a segment, minus the
        // fault. Its rows still count as scanned.
        if let Some(p) = self.sample.batch_partition(index) {
            if self.partition_pruned[p as usize] {
                return Some(self.resident.empty_partial(index, range.len() as u64));
            }
        }
        let Some(p) = segment else {
            return Some(self.resident.scan(self.kernel, index, range));
        };
        let run: Vec<(usize, Range<usize>)> = (index..end.min(self.sample.num_batches()))
            .filter(|&i| self.sample.batch_partition(i) == Some(p))
            .map(|i| (i, self.sample.locate_batch(i).1))
            .collect();
        let partials = self.scan_segment(p, &run).unwrap_or_else(|e| {
            lock(&self.error).get_or_insert(e);
            run.into_iter()
                .map(|(i, rows)| self.resident.empty_partial(i, rows.len() as u64))
                .collect()
        });
        let mut partials = partials.into_iter();
        let first = partials.next();
        ahead.extend(partials.map(|partial| (partial.batch, partial)));
        first
    }

    /// Scans the `run` batches (ascending, all of partition `p`) of `p`'s
    /// segment, pinned from here until the last partial is complete.
    fn scan_segment(
        &mut self,
        p: u32,
        run: &[(usize, Range<usize>)],
    ) -> verdict_storage::Result<Vec<BatchPartial>> {
        let pin = self.sample.pin_segment(p)?;
        let rows = pin.table().num_rows();
        if let Some((index, range)) = run.iter().find(|(_, range)| range.end > rows) {
            return Err(StorageError::Io(format!(
                "partition {p} segment has {rows} rows, batch {index} reads {range:?}"
            )));
        }
        let spec = self.segment_spec.as_ref().expect("paged samples keep it");
        let spec = ScanSpec {
            predicate: &spec.predicate,
            group_cols: &spec.group_cols,
            groups: &spec.groups,
            primitives: &spec.primitives,
        };
        let mut scan = TableScan::compile(pin.table(), &spec)
            .map_err(|e| StorageError::Io(format!("segment scan setup failed: {e}")))?;
        #[cfg(test)]
        {
            self.segment_compiles += 1;
        }
        let kernel = self.kernel;
        Ok(run
            .iter()
            .map(|(index, range)| scan.scan(kernel, *index, range.clone()))
            .collect())
    }

    /// Times the query was compiled against a pinned segment: once per
    /// segment run, so once per pinned batch when every run is one batch.
    #[cfg(test)]
    pub(crate) fn segment_compiles(&self) -> u64 {
        self.segment_compiles
    }

    /// Folds one batch's partial into the running grids and advances the
    /// merge cursor. Partials must arrive in batch-index order — the
    /// caller (serial [`SharedScanDriver::step`] or the morsel
    /// coordinator) enforces this; it is what makes the merged state
    /// independent of which thread scanned which batch.
    pub(crate) fn merge_partial(&mut self, partial: &BatchPartial) {
        let merged = &mut self.merged;
        debug_assert_eq!(partial.batch, merged.batch, "out-of-order merge");
        merged.batch += 1;
        merged.rows_scanned += partial.rows_scanned;
        merged.rows_matched += partial.rows_matched;
        merged.chunks_scanned += partial.chunks_scanned;
        merged.chunks_pruned += partial.chunks_pruned;
        for (cell, part) in merged.avg.iter_mut().zip(&partial.avg) {
            cell.merge(part);
        }
        for (cell, part) in merged.freq.iter_mut().zip(&partial.freq) {
            *cell += part;
        }
    }

    /// Sample rows visited so far — the cost of the *one* scan, which is
    /// what the session charges to `tuples_scanned` / the cost model.
    /// Rows in zone-pruned chunks count: the scan considered them.
    pub fn tuples_scanned(&self) -> usize {
        self.merged.rows_scanned as usize
    }

    /// Number of groups in the grid.
    pub fn num_groups(&self) -> usize {
        self.resident.n_groups
    }

    /// Number of primitive streams per group.
    #[cfg(test)]
    pub(crate) fn num_primitives(&self) -> usize {
        self.slots.len()
    }

    /// Sample rows that passed the base predicate so far (before the
    /// group lookup — rows whose key the N_max cap dropped still count).
    pub fn rows_matched(&self) -> u64 {
        self.merged.rows_matched
    }

    /// Chunk segments visited so far (chunked kernel only).
    pub fn chunks_scanned(&self) -> u64 {
        self.merged.chunks_scanned
    }

    /// Chunk segments skipped by zone maps (chunked kernel only).
    pub fn chunks_pruned(&self) -> u64 {
        self.merged.chunks_pruned
    }

    /// Partitions the sample's summaries cover (0 when unpartitioned).
    pub fn partitions(&self) -> u64 {
        self.partition_pruned.len() as u64
    }

    /// Partitions the predicate provably rejects; their batches skip the
    /// kernels entirely while their rows still count as scanned.
    pub fn partitions_pruned(&self) -> u64 {
        self.partition_pruned.iter().filter(|&&b| b).count() as u64
    }

    /// Batches consumed so far.
    pub fn batches_stepped(&self) -> usize {
        self.merged.batch
    }

    /// Batches remaining.
    pub(crate) fn batches_remaining(&self) -> usize {
        self.sample.num_batches() - self.merged.batch
    }

    /// Current raw answer of cell `(group, primitive)` — same estimate and
    /// standard error the per-snippet [`crate::BatchEstimator`] would
    /// report for the equivalent single-cell query after the same batches.
    pub fn raw(&self, group: usize, primitive: usize) -> RawAnswer {
        let (merged, scan) = (&self.merged, &self.resident);
        let (answer, error) = match self.slots[primitive] {
            PrimSlot::Avg(s) => {
                avg_estimate(merged.rows_scanned, &merged.avg[group * scan.n_avg + s])
            }
            PrimSlot::Freq(s) => {
                freq_estimate(merged.rows_scanned, merged.freq[group * scan.n_freq + s])
            }
        };
        RawAnswer {
            answer,
            error,
            tuples_scanned: merged.rows_scanned as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchEstimator, CostModel, StorageTier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verdict_storage::{distinct_group_keys, ColumnDef, Expr, Schema, Table};

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
            t.push_row(vec![(i as f64).into(), g.into(), ((i % 10) as f64).into()])
                .unwrap();
        }
        t
    }

    fn engine(n: usize, fraction: f64) -> OnlineAggregation {
        let t = base(n);
        let mut rng = StdRng::seed_from_u64(11);
        let s = Sample::uniform(&t, fraction, 100, &mut rng).unwrap();
        OnlineAggregation::new(s, CostModel::default(), StorageTier::Cached)
    }

    /// The shared driver's cells must equal independent per-cell
    /// estimators over the per-group predicates, batch for batch — with
    /// either kernel.
    #[test]
    fn grid_matches_per_cell_estimators() {
        for kernel in [ScanKernel::Chunked, ScanKernel::RowWise] {
            let e = engine(5_000, 0.5);
            let table = e.sample().table();
            let pred = Predicate::between("x", 100.0, 4_000.0);
            let cols = vec!["g".to_owned()];
            let keys = distinct_group_keys(table, &pred, &cols).unwrap();
            assert_eq!(keys.len(), 3);
            let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
            let mut driver = e
                .shared_scan(&ScanSpec {
                    predicate: &pred,
                    group_cols: &cols,
                    groups: &keys,
                    primitives: &prims,
                })
                .unwrap();
            driver.set_kernel(kernel);

            // Reference: one estimator per (group × primitive) with the
            // group equality folded into the predicate.
            let mut refs: Vec<BatchEstimator<'_>> = Vec::new();
            for key in &keys {
                let code = match key[0] {
                    verdict_storage::Value::Cat(c) => c,
                    _ => panic!("categorical key"),
                };
                let cell_pred = pred.clone().and(Predicate::cat_eq("g", code));
                for agg in &prims {
                    refs.push(
                        BatchEstimator::new(table, e.sample().base_rows(), agg, &cell_pred)
                            .unwrap(),
                    );
                }
            }

            let mut batch = 0;
            while driver.step() {
                let range = e.sample().batch_range(batch);
                batch += 1;
                for est in refs.iter_mut() {
                    est.consume(range.clone());
                }
                for g in 0..keys.len() {
                    for p in 0..prims.len() {
                        let shared = driver.raw(g, p);
                        let (ans, err) = refs[g * prims.len() + p].current();
                        assert_eq!(
                            shared.answer.to_bits(),
                            ans.to_bits(),
                            "{kernel:?} g{g} p{p}"
                        );
                        assert_eq!(
                            shared.error.to_bits(),
                            err.to_bits(),
                            "{kernel:?} g{g} p{p}"
                        );
                    }
                }
            }
            assert_eq!(driver.tuples_scanned(), e.sample().len());
        }
    }

    /// Both kernels agree bit for bit on every cell, and the chunked one
    /// reports chunk counters.
    #[test]
    fn kernels_are_bit_identical() {
        let e = engine(5_000, 0.5);
        let table = e.sample().table();
        let pred = Predicate::between("x", 100.0, 4_000.0);
        let cols = vec!["g".to_owned()];
        let keys = distinct_group_keys(table, &pred, &cols).unwrap();
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &cols,
            groups: &keys,
            primitives: &prims,
        };
        let mut chunked = e.shared_scan(&spec).unwrap();
        let mut rowwise = e.shared_scan(&spec).unwrap();
        rowwise.set_kernel(ScanKernel::RowWise);
        assert_eq!(chunked.kernel(), ScanKernel::Chunked);
        loop {
            let a = chunked.step();
            let b = rowwise.step();
            assert_eq!(a, b);
            if !a {
                break;
            }
            assert_eq!(chunked.rows_matched(), rowwise.rows_matched());
            for g in 0..keys.len() {
                for p in 0..prims.len() {
                    let (ca, ra) = (chunked.raw(g, p), rowwise.raw(g, p));
                    assert_eq!(ca.answer.to_bits(), ra.answer.to_bits(), "g{g} p{p}");
                    assert_eq!(ca.error.to_bits(), ra.error.to_bits(), "g{g} p{p}");
                    assert_eq!(ca.tuples_scanned, ra.tuples_scanned);
                }
            }
        }
        assert!(chunked.chunks_scanned() > 0);
        assert_eq!(rowwise.chunks_scanned(), 0);
    }

    /// The two grouped routings of a masked segment — one lookup per
    /// surviving row (taken when `matched * 4 < len`) and a group index
    /// gathered for the whole segment — resolve groups through the same
    /// LUT (or the same key map) and must fill bit-identical partials,
    /// whichever side of the threshold a segment falls on.
    #[test]
    fn sparse_and_gathered_routing_are_bit_identical() {
        let t = base(3_000);
        let prims = vec![
            AggregateFn::Avg(Expr::col("v")),
            AggregateFn::Avg(Expr::parse("(v + x)").unwrap()),
            AggregateFn::Freq,
        ];
        let cell_bits = |p: &BatchPartial| {
            let avg = |w: &Welford| (w.count(), w.mean().to_bits(), w.sample_variance().to_bits());
            (p.avg.iter().map(avg).collect::<Vec<_>>(), p.freq.clone())
        };
        for cols in [vec!["g".to_owned()], vec!["v".to_owned(), "g".to_owned()]] {
            let mut keys = distinct_group_keys(&t, &Predicate::True, &cols).unwrap();
            // Drop a key, as the N_max cap does: its rows route nowhere.
            keys.pop();
            // About 4 %, 24 %, 26 % and 81 % of the chunk's rows match
            // (`v <= 8` keeps nine in ten): both sides of the cut.
            for hi in [40.0, 270.0, 300.0, 920.0] {
                let pred = Predicate::between("x", 0.0, hi).and(Predicate::between("v", 0.0, 8.0));
                let spec = ScanSpec {
                    predicate: &pred,
                    group_cols: &cols,
                    groups: &keys,
                    primitives: &prims,
                };
                let mut scan = TableScan::compile(&t, &spec).unwrap();
                let zones = t.zone_maps();
                let seg = 0..1024;
                scan.pred.fill_mask(seg.clone(), &mut scan.mask);
                assert!(scan.mask.any() && !scan.mask.all_ones());
                let mut sparse = scan.empty_partial(0, 1024);
                let mut gathered = scan.empty_partial(0, 1024);
                scan.route_sparse(seg.clone(), &mut sparse);
                scan.route_gathered(seg.clone(), &zones, &mut gathered);
                assert_eq!(cell_bits(&sparse), cell_bits(&gathered), "{cols:?} hi {hi}");
                assert!(sparse.freq.iter().sum::<u64>() > 0);
                // And whichever of the two `scan` picks equals both.
                let picked = scan.scan(ScanKernel::Chunked, 0, seg);
                assert_eq!(cell_bits(&picked), cell_bits(&sparse), "{cols:?} hi {hi}");
            }
        }
    }

    /// A partitioned sample with a selective range predicate must prune
    /// most partitions — and still agree bit for bit with unpruned
    /// per-cell estimators that scan every batch, with pruned rows
    /// counting toward tuples scanned.
    #[test]
    fn partition_pruning_is_bit_transparent() {
        let t = base(8_000);
        let spec =
            verdict_storage::PartitionSpec::range("x", (1..8).map(|i| (i * 1000) as f64).collect());
        let mut rng = StdRng::seed_from_u64(29);
        let s = Sample::uniform_partitioned(&t, spec, 0.5, 100, &mut rng).unwrap();
        let e = OnlineAggregation::new(s, CostModel::default(), StorageTier::Cached);
        let table = e.sample().table();
        // Only partition 2 (x in [2000, 3000)) can match.
        let pred = Predicate::between("x", 2_100.0, 2_700.0);
        let cols = vec!["g".to_owned()];
        let keys = distinct_group_keys(table, &pred, &cols).unwrap();
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let mut driver = e
            .shared_scan(&ScanSpec {
                predicate: &pred,
                group_cols: &cols,
                groups: &keys,
                primitives: &prims,
            })
            .unwrap();
        assert_eq!(driver.partitions(), 8);
        assert_eq!(driver.partitions_pruned(), 7);

        let mut refs: Vec<BatchEstimator<'_>> = Vec::new();
        for key in &keys {
            let code = match key[0] {
                verdict_storage::Value::Cat(c) => c,
                _ => panic!("categorical key"),
            };
            let cell_pred = pred.clone().and(Predicate::cat_eq("g", code));
            for agg in &prims {
                refs.push(
                    BatchEstimator::new(table, e.sample().base_rows(), agg, &cell_pred).unwrap(),
                );
            }
        }
        let mut batch = 0;
        while driver.step() {
            let range = e.sample().batch_range(batch);
            batch += 1;
            for est in refs.iter_mut() {
                est.consume(range.clone());
            }
            for g in 0..keys.len() {
                for p in 0..prims.len() {
                    let shared = driver.raw(g, p);
                    let (ans, err) = refs[g * prims.len() + p].current();
                    assert_eq!(shared.answer.to_bits(), ans.to_bits(), "g{g} p{p}");
                    assert_eq!(shared.error.to_bits(), err.to_bits(), "g{g} p{p}");
                }
            }
        }
        // Pruned batches never touched the chunk machinery, yet every
        // sampled row counts as scanned.
        assert_eq!(driver.tuples_scanned(), e.sample().len());
        assert!(driver.rows_matched() > 0);
    }

    /// Zone maps must prune chunks on an order-preserving sample with a
    /// selective predicate — without changing any answer.
    #[test]
    fn zone_maps_prune_ordered_full_scan() {
        let t = base(6_000);
        let s = Sample::full(&t, 512).unwrap();
        let e = OnlineAggregation::new(s, CostModel::default(), StorageTier::Cached);
        // Rows are ordered by x, so most chunks sit wholly outside.
        let pred = Predicate::between("x", 2_000.0, 2_200.0);
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let spec = ScanSpec {
            predicate: &pred,
            group_cols: &[],
            groups: &[],
            primitives: &prims,
        };
        let mut chunked = e.shared_scan(&spec).unwrap();
        let mut rowwise = e.shared_scan(&spec).unwrap();
        rowwise.set_kernel(ScanKernel::RowWise);
        while chunked.step() {}
        while rowwise.step() {}
        assert!(chunked.chunks_pruned() > 0, "ordered scan must prune");
        assert_eq!(chunked.rows_matched(), rowwise.rows_matched());
        for p in 0..prims.len() {
            let (ca, ra) = (chunked.raw(0, p), rowwise.raw(0, p));
            assert_eq!(ca.answer.to_bits(), ra.answer.to_bits());
            assert_eq!(ca.error.to_bits(), ra.error.to_bits());
        }
        assert_eq!(chunked.tuples_scanned(), rowwise.tuples_scanned());
    }

    #[test]
    fn ungrouped_scan_has_one_group() {
        let e = engine(2_000, 0.5);
        let prims = vec![AggregateFn::Freq];
        let mut driver = e
            .shared_scan(&ScanSpec {
                predicate: &Predicate::True,
                group_cols: &[],
                groups: &[],
                primitives: &prims,
            })
            .unwrap();
        assert_eq!(driver.num_groups(), 1);
        while driver.step() {}
        let raw = driver.raw(0, 0);
        assert!((raw.answer - 1.0).abs() < 1e-12, "FREQ of True is 1");
    }

    #[test]
    fn scan_work_is_independent_of_group_count() {
        // Same sample, 1 group vs 3 groups: identical tuples scanned.
        let e = engine(3_000, 0.5);
        let table = e.sample().table();
        let cols = vec!["g".to_owned()];
        let keys = distinct_group_keys(table, &Predicate::True, &cols).unwrap();
        let prims = vec![AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
        let mut grouped = e
            .shared_scan(&ScanSpec {
                predicate: &Predicate::True,
                group_cols: &cols,
                groups: &keys,
                primitives: &prims,
            })
            .unwrap();
        let mut ungrouped = e
            .shared_scan(&ScanSpec {
                predicate: &Predicate::True,
                group_cols: &[],
                groups: &[],
                primitives: &prims,
            })
            .unwrap();
        while grouped.step() {}
        while ungrouped.step() {}
        assert_eq!(grouped.tuples_scanned(), ungrouped.tuples_scanned());
        assert_eq!(grouped.tuples_scanned(), e.sample().len());
    }

    #[test]
    fn sum_and_count_primitives_rejected() {
        let e = engine(100, 1.0);
        let err = e.shared_scan(&ScanSpec {
            predicate: &Predicate::True,
            group_cols: &[],
            groups: &[],
            primitives: &[AggregateFn::Count],
        });
        assert!(err.is_err());
    }
}
