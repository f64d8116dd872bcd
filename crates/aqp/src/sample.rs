//! Offline uniform random samples split into batches.
//!
//! `NoLearn` "creates random samples of the original tables offline and
//! splits them into multiple batches of tuples" (paper §8.1). A [`Sample`]
//! holds the sampled rows (a gathered sub-table), the sampling fraction,
//! the base-table cardinality (needed to scale `FREQ` into `COUNT`), and
//! the batch boundaries used by online aggregation.
//!
//! The sampled rows live behind an `Arc`: a sample is immutable once
//! drawn, so cloning a `Sample` (engine snapshots, concurrent sessions
//! handing one sample to many reader threads) shares the gathered table
//! instead of copying it. Scan state lives in per-query cursors
//! ([`crate::SharedScanDriver`], [`crate::engine::Session`]), never in the
//! sample itself.

use std::ops::Range;
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use verdict_storage::{GroupKey, GroupKeyCollector, PartitionMap, PartitionSpec, Predicate, Table};

use crate::paged::PagedRep;
use crate::stratified::{stratum_slots, Allocation};
use crate::{AqpError, Result};

/// A uniform row-level random sample of a base table.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The sampled rows — or, for a paged sample, the zero-row
    /// *resolution table* (schema + full dictionaries) every planning
    /// step (predicate compilation, label/code resolution, group-key
    /// binding) runs against while the rows themselves stay on disk.
    table: Arc<Table>,
    base_rows: usize,
    fraction: f64,
    batch_size: usize,
    /// Partition-clustered batch layout; `None` for unpartitioned samples.
    layout: Option<Arc<PartitionLayout>>,
    /// Demand-paged representation; `None` for resident samples.
    paged: Option<Arc<PagedRep>>,
}

/// The partition structure of a sample drawn with
/// [`Sample::uniform_partitioned`].
///
/// Sampled rows are gathered *clustered by partition*, so each explicit
/// batch holds rows of exactly one partition and carries that partition's
/// id. The [`PartitionMap`] is built over the sampled rows themselves
/// (the gathered table inherits the base table's dictionaries verbatim,
/// so its code space — and therefore any predicate compiled against the
/// sample — lines up with the summaries). A scan can then skip every
/// batch of a partition the predicate provably rejects, without touching
/// a chunk.
///
/// Rows admitted later by [`Sample::absorb_appended`] sit past
/// `covered_rows` in plain stride batches with no partition tag; they are
/// never pruned, which keeps pruning sound as the sample grows without
/// rewriting draw-time batches.
#[derive(Debug)]
pub struct PartitionLayout {
    /// Row span of each explicit (draw-time) batch, in scan order.
    batches: Vec<Range<usize>>,
    /// The partition each explicit batch's rows belong to.
    batch_partitions: Vec<u32>,
    /// Sample rows covered by the explicit batches.
    covered_rows: usize,
    /// Routing + per-partition summaries over the sampled rows.
    map: PartitionMap,
}

impl PartitionLayout {
    /// Routing and per-partition summaries over the sampled rows.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Number of draw-time (partition-tagged) batches.
    pub fn num_explicit_batches(&self) -> usize {
        self.batches.len()
    }
}

impl Sample {
    /// Draws a uniform sample of `fraction ∈ (0, 1]` of `base`, shuffled so
    /// that every prefix is itself a uniform sample, split into batches of
    /// `batch_size` rows.
    pub fn uniform<R: Rng>(
        base: &Table,
        fraction: f64,
        batch_size: usize,
        rng: &mut R,
    ) -> Result<Sample> {
        let n = base.num_rows();
        Sample::uniform_prefix(base, n, fraction, batch_size, rng)
    }

    /// Draws a uniform sample of the first `prefix_rows` rows of `base`,
    /// consuming exactly the RNG stream [`Sample::uniform`] would consume
    /// over a `prefix_rows`-row table.
    ///
    /// This is the warm-start half of sample maintenance: a session whose
    /// table has grown through ingests re-draws the *original* sample from
    /// the original row prefix (same seed → bit-identical draw), then
    /// re-admits the appended tail through
    /// [`Sample::absorb_appended`] — reproducing the live session's
    /// maintained sample exactly.
    pub fn uniform_prefix<R: Rng>(
        base: &Table,
        prefix_rows: usize,
        fraction: f64,
        batch_size: usize,
        rng: &mut R,
    ) -> Result<Sample> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(AqpError::InvalidConfig(format!(
                "sample fraction must be in (0,1], got {fraction}"
            )));
        }
        if batch_size == 0 {
            return Err(AqpError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        if prefix_rows > base.num_rows() {
            return Err(AqpError::InvalidConfig(format!(
                "sample prefix of {prefix_rows} rows exceeds the table's {}",
                base.num_rows()
            )));
        }
        let n = prefix_rows;
        let k = ((n as f64 * fraction).round() as usize).clamp(1, n.max(1));
        let mut rows: Vec<usize> = (0..n).collect();
        rows.shuffle(rng);
        rows.truncate(k);
        let table = base.gather(&rows)?;
        Ok(Sample {
            table: Arc::new(table),
            base_rows: n,
            fraction,
            batch_size,
            layout: None,
            paged: None,
        })
    }

    /// Draws a partitioned uniform sample: rows are routed by `spec`,
    /// each partition is sampled proportionally to its size (a partition
    /// is a stratum under [`Allocation::Proportional`], with every
    /// non-empty partition guaranteed at least one row), and the sampled
    /// rows are gathered clustered by partition so each batch belongs to
    /// exactly one partition.
    ///
    /// Batches are then *interleaved deterministically* across partitions
    /// (batch `j` of a `b`-batch partition sorts at key `(j + ½)/b`) so
    /// any scan prefix covers all partitions near-proportionally — an
    /// online-aggregation prefix stays a roughly self-weighted sample
    /// instead of reading partitions one after another.
    pub fn uniform_partitioned<R: Rng>(
        base: &Table,
        spec: PartitionSpec,
        fraction: f64,
        batch_size: usize,
        rng: &mut R,
    ) -> Result<Sample> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(AqpError::InvalidConfig(format!(
                "sample fraction must be in (0,1], got {fraction}"
            )));
        }
        if batch_size == 0 {
            return Err(AqpError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        let n = base.num_rows();
        let router = PartitionMap::build(base, spec.clone()).map_err(AqpError::Storage)?;
        let routed = router.route(base, 0..n).map_err(AqpError::Storage)?;
        let mut part_rows: Vec<Vec<usize>> = vec![Vec::new(); router.num_partitions()];
        for (r, &p) in routed.iter().enumerate() {
            part_rows[p as usize].push(r);
        }
        // Select per partition, concatenating partition-clustered.
        let n_parts = part_rows.iter().filter(|r| !r.is_empty()).count();
        let mut selected: Vec<usize> = Vec::new();
        let mut spans: Vec<(u32, Range<usize>)> = Vec::new();
        for (p, rows) in part_rows.iter().enumerate() {
            let want = stratum_slots(
                Allocation::Proportional,
                rows.len(),
                n,
                fraction,
                n_parts,
                1,
            );
            if want == 0 {
                continue;
            }
            let mut rows = rows.clone();
            rows.shuffle(rng);
            rows.truncate(want);
            let start = selected.len();
            selected.extend(rows);
            spans.push((p as u32, start..selected.len()));
        }
        let table = base.gather(&selected).map_err(AqpError::Storage)?;
        // Cut each partition's span into batches and interleave.
        let mut keyed: Vec<(f64, u32, usize, Range<usize>)> = Vec::new();
        for (p, span) in &spans {
            let b = span.len().div_ceil(batch_size);
            for j in 0..b {
                let s = span.start + j * batch_size;
                let e = (s + batch_size).min(span.end);
                keyed.push(((j as f64 + 0.5) / b as f64, *p, j, s..e));
            }
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let batches: Vec<Range<usize>> = keyed.iter().map(|k| k.3.clone()).collect();
        let batch_partitions: Vec<u32> = keyed.iter().map(|k| k.1).collect();
        // Summaries over the sampled rows themselves: the gathered table
        // shares the base table's dictionary codes, so they are sound
        // against predicates compiled on the sample — and tighter than
        // base-table summaries.
        let map = PartitionMap::build(&table, spec).map_err(AqpError::Storage)?;
        let covered_rows = table.num_rows();
        Ok(Sample {
            table: Arc::new(table),
            base_rows: n,
            fraction,
            batch_size,
            layout: Some(Arc::new(PartitionLayout {
                batches,
                batch_partitions,
                covered_rows,
                map,
            })),
            paged: None,
        })
    }

    /// Admits the appended tail of a grown base table into the maintained
    /// sample: rows `first_row_index..base.num_rows()` of `base`, which
    /// must already contain the ingested batch.
    ///
    /// Each appended row enters the sample independently with probability
    /// equal to the sampling `fraction`, so the sample stays an honest
    /// uniform sample of the *grown* table: original rows were included
    /// with probability `≈ fraction` at draw time, and appended rows get
    /// exactly the same inclusion probability. `base_rows` grows to the
    /// whole new table size either way, keeping `FREQ → COUNT` scaling
    /// correct.
    ///
    /// The sample first adopts `base`'s categorical dictionaries and then
    /// pushes admitted rows as raw codes, so a sample code always decodes
    /// to the same label as the base-table code — even when an
    /// *unadmitted* row introduced a new label. (Pushing raw label
    /// strings instead would grow the sample's dictionary in admission
    /// order and silently diverge from the base table's.)
    ///
    /// Admission is decided by [`appended_row_admitted`] — a pure function
    /// of `(seed, sample_index, absolute row index, fraction)` rather than
    /// a streaming RNG, so crash-recovery replay admits *exactly* the rows
    /// the live session admitted regardless of how the batches were cut.
    ///
    /// Returns the number of rows admitted.
    pub fn absorb_appended(
        &mut self,
        base: &Table,
        first_row_index: u64,
        seed: u64,
        sample_index: u64,
    ) -> Result<usize> {
        let table = Arc::make_mut(&mut self.table);
        table
            .sync_dictionaries_from(base)
            .map_err(AqpError::Storage)?;
        let mut admitted = 0usize;
        for r in first_row_index as usize..base.num_rows() {
            if appended_row_admitted(seed, sample_index, r as u64, self.fraction) {
                table.push_row(base.row(r)).map_err(AqpError::Storage)?;
                admitted += 1;
            }
        }
        self.base_rows = base.num_rows();
        Ok(admitted)
    }

    /// Assembles a sample from pre-gathered rows (stratified and other
    /// custom builders).
    pub fn from_parts(
        table: Table,
        base_rows: usize,
        fraction: f64,
        batch_size: usize,
    ) -> Result<Sample> {
        if batch_size == 0 {
            return Err(AqpError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        Ok(Sample {
            table: Arc::new(table),
            base_rows,
            fraction,
            batch_size,
            layout: None,
            paged: None,
        })
    }

    /// Wraps an already-shared table as a resident sample without copying
    /// it. The out-of-core driver uses this to treat one pinned partition
    /// segment (or the ingest tail) as a tiny standalone sample so the
    /// ordinary resident executor can scan it.
    pub fn from_shared(
        table: Arc<Table>,
        base_rows: usize,
        fraction: f64,
        batch_size: usize,
    ) -> Sample {
        debug_assert!(batch_size > 0, "batch size must be positive");
        Sample {
            table,
            base_rows,
            fraction,
            batch_size,
            layout: None,
            paged: None,
        }
    }

    /// Assembles a demand-paged sample: no sampled rows are resident —
    /// `resolution` is a zero-row table carrying the schema and the full
    /// categorical dictionaries (so planning works), and `rep` describes
    /// how to fault any partition's segment in on demand.
    pub fn paged(resolution: Table, base_rows: usize, rep: PagedRep) -> Result<Sample> {
        if !(rep.fraction > 0.0 && rep.fraction <= 1.0) {
            return Err(AqpError::InvalidConfig(format!(
                "sample fraction must be in (0,1], got {}",
                rep.fraction
            )));
        }
        if rep.batch_size == 0 {
            return Err(AqpError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        if resolution.num_rows() != 0 {
            return Err(AqpError::InvalidConfig(
                "the paged resolution table must have zero rows".into(),
            ));
        }
        let (fraction, batch_size) = (rep.fraction, rep.batch_size);
        Ok(Sample {
            table: Arc::new(resolution),
            base_rows,
            fraction,
            batch_size,
            layout: None,
            paged: Some(Arc::new(rep)),
        })
    }

    /// Wraps an existing table as a "sample" covering the whole base table
    /// (used for exact evaluation paths and tests).
    pub fn full(base: &Table, batch_size: usize) -> Result<Sample> {
        if batch_size == 0 {
            return Err(AqpError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        Ok(Sample {
            table: Arc::new(base.clone()),
            base_rows: base.num_rows(),
            fraction: 1.0,
            batch_size,
            layout: None,
            paged: None,
        })
    }

    /// The sampled rows as a table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The shared handle to the sampled rows (cheap to clone; what
    /// [`Sample::clone`] itself shares).
    pub fn table_arc(&self) -> Arc<Table> {
        Arc::clone(&self.table)
    }

    /// Cardinality of the base table the sample was drawn from.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Sampling fraction requested at construction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Number of sampled rows. For a paged sample the rows are not
    /// resident, but their count is fixed by the layout (plus the
    /// resident ingest tail).
    pub fn len(&self) -> usize {
        match &self.paged {
            None => self.table.num_rows(),
            Some(rep) => rep.layout.covered_rows + rep.tail.num_rows(),
        }
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Batch size in rows.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of batches (last batch may be short). For a partitioned
    /// sample: the explicit draw-time batches plus stride batches over
    /// any rows admitted later by [`Sample::absorb_appended`].
    pub fn num_batches(&self) -> usize {
        if let Some(rep) = &self.paged {
            return rep.layout.batches.len() + rep.tail.num_rows().div_ceil(self.batch_size);
        }
        match self.layout.as_deref() {
            None => self.len().div_ceil(self.batch_size),
            Some(l) => l.batches.len() + (self.len() - l.covered_rows).div_ceil(self.batch_size),
        }
    }

    /// Row range `[start, end)` of batch `i`. For a paged sample the
    /// range is expressed in the *materialized* row order (segments
    /// concatenated in partition-id order, tail last) — exactly the
    /// coordinates [`Sample::materialize_resident`] produces.
    pub fn batch_range(&self, i: usize) -> Range<usize> {
        if let Some(rep) = &self.paged {
            if let Some((p, local)) = rep.layout.batches.get(i) {
                let s = rep.layout.seg_start[*p as usize];
                return s + local.start..s + local.end;
            }
            let k = i - rep.layout.batches.len();
            let start = rep.layout.covered_rows + k * self.batch_size;
            let end = (start + self.batch_size).min(self.len());
            return start..end;
        }
        match self.layout.as_deref() {
            None => {
                let start = i * self.batch_size;
                let end = ((i + 1) * self.batch_size).min(self.len());
                start..end
            }
            Some(l) => {
                if let Some(r) = l.batches.get(i) {
                    r.clone()
                } else {
                    let k = i - l.batches.len();
                    let start = l.covered_rows + k * self.batch_size;
                    let end = (start + self.batch_size).min(self.len());
                    start..end
                }
            }
        }
    }

    /// The partition layout, if this sample was drawn partitioned.
    pub fn partition_layout(&self) -> Option<&PartitionLayout> {
        self.layout.as_deref()
    }

    /// Routing + per-partition summaries over the sampled rows, if
    /// partitioned.
    pub fn partition_map(&self) -> Option<&PartitionMap> {
        self.layout.as_deref().map(PartitionLayout::map)
    }

    /// The partition batch `i`'s rows belong to. `None` when the sample
    /// is unpartitioned or `i` is an ingest-tail stride batch (tail rows
    /// carry no tag and are never pruned).
    pub fn batch_partition(&self, i: usize) -> Option<u32> {
        if let Some(rep) = &self.paged {
            return rep.layout.batches.get(i).map(|(p, _)| *p);
        }
        self.layout.as_deref()?.batch_partitions.get(i).copied()
    }

    /// Whether this sample is demand-paged (rows faulted in per
    /// partition rather than resident).
    pub fn is_paged(&self) -> bool {
        self.paged.is_some()
    }

    /// The demand-paged representation, if any.
    pub fn paged_rep(&self) -> Option<&Arc<PagedRep>> {
        self.paged.as_ref()
    }

    /// The resident ingest tail of a paged sample (rows admitted by
    /// [`Sample::paged_absorb_appended`] after the draw).
    pub fn paged_tail(&self) -> Option<&Table> {
        self.paged.as_deref().map(|rep| rep.tail.as_ref())
    }

    /// Materializes a paged sample into an ordinary resident partitioned
    /// sample: every partition's segment is faulted in and concatenated
    /// in partition-id order, the ingest tail appended last — exactly the
    /// row order [`Sample::batch_range`] reports for the paged form, so
    /// scanning either representation visits identical rows in identical
    /// batch geometry. Returns a plain clone when already resident.
    ///
    /// This is the parity oracle: answers, error bounds, and stop points
    /// of a paged scan must be bit-identical to a scan of the
    /// materialized sample.
    pub fn materialize_resident(&self) -> Result<Sample> {
        let Some(rep) = &self.paged else {
            return Ok(self.clone());
        };
        // Resolution clone: zero rows, full dictionaries — segment codes
        // land verbatim.
        let mut table = self.table.as_ref().clone();
        for (p, want) in rep.layout.part_want.iter().enumerate() {
            if *want == 0 {
                continue;
            }
            let seg = rep.derive_segment(p as u32).map_err(AqpError::Storage)?;
            table.append(&seg).map_err(AqpError::Storage)?;
        }
        let covered_rows = table.num_rows();
        debug_assert_eq!(covered_rows, rep.layout.covered_rows);
        let spec = rep
            .map
            .read()
            .expect("partition map lock poisoned")
            .spec()
            .clone();
        let map = PartitionMap::build(&table, spec).map_err(AqpError::Storage)?;
        let mut batches = Vec::with_capacity(rep.layout.batches.len());
        let mut batch_partitions = Vec::with_capacity(rep.layout.batches.len());
        for (p, local) in &rep.layout.batches {
            let s = rep.layout.seg_start[*p as usize];
            batches.push(s + local.start..s + local.end);
            batch_partitions.push(*p);
        }
        table.append(&rep.tail).map_err(AqpError::Storage)?;
        Ok(Sample {
            table: Arc::new(table),
            base_rows: self.base_rows,
            fraction: self.fraction,
            batch_size: self.batch_size,
            layout: Some(Arc::new(PartitionLayout {
                batches,
                batch_partitions,
                covered_rows,
                map,
            })),
            paged: None,
        })
    }

    /// Paged counterpart of [`Sample::absorb_appended`]: admits the rows
    /// of an ingested `batch` (absolute base-table indices starting at
    /// `first_row_index`) into the resident ingest tail, using the same
    /// pure per-row admission function — so a warm-started paged session
    /// rebuilds the identical tail from WAL replay.
    ///
    /// The resolution table and tail adopt `batch`'s dictionaries first,
    /// so tail codes stay aligned with the session code space even when
    /// an unadmitted row introduced a new label.
    pub fn paged_absorb_appended(
        &mut self,
        batch: &Table,
        first_row_index: u64,
        seed: u64,
        sample_index: u64,
    ) -> Result<usize> {
        let fraction = self.fraction;
        let Some(rep) = &mut self.paged else {
            return Err(AqpError::InvalidConfig(
                "paged_absorb_appended called on a resident sample".into(),
            ));
        };
        Arc::make_mut(&mut self.table)
            .sync_dictionaries_from(batch)
            .map_err(AqpError::Storage)?;
        let rep = Arc::make_mut(rep);
        let tail = Arc::make_mut(&mut rep.tail);
        tail.sync_dictionaries_from(batch)
            .map_err(AqpError::Storage)?;
        let mut admitted = 0usize;
        for r in 0..batch.num_rows() {
            if appended_row_admitted(seed, sample_index, first_row_index + r as u64, fraction) {
                tail.push_row(batch.row(r)).map_err(AqpError::Storage)?;
                admitted += 1;
            }
        }
        self.base_rows = first_row_index as usize + batch.num_rows();
        Ok(admitted)
    }

    /// Enumerates the distinct group keys among the sample rows matching
    /// `predicate`, key-sorted. A resident sample is one fragment; a paged
    /// sample faults in one partition segment at a time (never more than
    /// one non-tail segment resident on this path), skipping without I/O
    /// the partitions whose base summaries provably reject the predicate
    /// — sound because no row of theirs can match. Either way the result
    /// is exactly what one-pass enumeration over the materialized sample
    /// yields.
    pub fn distinct_group_keys(
        &self,
        predicate: &Predicate,
        group_cols: &[String],
    ) -> Result<Vec<GroupKey>> {
        let mut collector = GroupKeyCollector::new(group_cols);
        let Some(rep) = &self.paged else {
            collector
                .observe(&self.table, predicate)
                .map_err(AqpError::Storage)?;
            return Ok(collector.finish());
        };
        let pruned = rep
            .pruned_partitions(predicate, &self.table)
            .map_err(AqpError::Storage)?;
        for (p, want) in rep.layout.part_want.iter().enumerate() {
            if *want == 0 || pruned[p] {
                continue;
            }
            let pin = rep.pin_segment(p as u32).map_err(AqpError::Storage)?;
            collector
                .observe(pin.table(), predicate)
                .map_err(AqpError::Storage)?;
        }
        collector
            .observe(&rep.tail, predicate)
            .map_err(AqpError::Storage)?;
        Ok(collector.finish())
    }

    /// Streams the sample's rows through `f` one fragment at a time: a
    /// resident sample is a single fragment; a paged sample yields each
    /// partition's segment in partition-id order, then the ingest tail,
    /// pinning one segment at a time. Fragment boundaries are an artifact
    /// of paging; concatenated, the fragments are exactly the
    /// materialized sample's rows in order.
    pub fn visit_fragments(&self, mut f: impl FnMut(&Table) -> Result<()>) -> Result<()> {
        let Some(rep) = &self.paged else {
            return f(&self.table);
        };
        for (p, want) in rep.layout.part_want.iter().enumerate() {
            if *want == 0 {
                continue;
            }
            let pin = rep.pin_segment(p as u32).map_err(AqpError::Storage)?;
            f(pin.table())?;
        }
        f(&rep.tail)
    }
}

/// Whether appended base-table row `row_index` enters sample
/// `sample_index` of a session seeded with `seed`, at inclusion
/// probability `fraction`.
///
/// Deliberately a pure function of its arguments (a fresh deterministic
/// RNG per decision) instead of a draw from a long-lived streaming RNG:
/// a streaming RNG's state would depend on how ingests were batched and
/// on everything else the session ever drew, so crash-recovery replay
/// could not reproduce the sample. With per-row derivation, replaying the
/// WAL's ingest records — whatever batch boundaries survived — admits
/// exactly the rows the live session admitted.
pub fn appended_row_admitted(seed: u64, sample_index: u64, row_index: u64, fraction: f64) -> bool {
    // FNV-1a over the three coordinates decorrelates neighboring rows and
    // samples before the RNG expands the hash.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [seed, sample_index, row_index] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(h);
    rng.gen_bool(fraction.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verdict_storage::{ColumnDef, Schema, Table};

    fn base(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![(i as f64).into(), ((i * 2) as f64).into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn uniform_sample_size() {
        let t = base(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let s = Sample::uniform(&t, 0.1, 25, &mut rng).unwrap();
        assert_eq!(s.len(), 100);
        assert_eq!(s.base_rows(), 1000);
        assert_eq!(s.num_batches(), 4);
    }

    #[test]
    fn batch_ranges_cover_sample() {
        let t = base(103);
        let mut rng = StdRng::seed_from_u64(7);
        let s = Sample::uniform(&t, 1.0, 10, &mut rng).unwrap();
        assert_eq!(s.num_batches(), 11);
        let total: usize = (0..s.num_batches()).map(|i| s.batch_range(i).len()).sum();
        assert_eq!(total, 103);
        assert_eq!(s.batch_range(10), 100..103);
    }

    #[test]
    fn invalid_configs_rejected() {
        let t = base(10);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(Sample::uniform(&t, 0.0, 10, &mut rng).is_err());
        assert!(Sample::uniform(&t, 1.5, 10, &mut rng).is_err());
        assert!(Sample::uniform(&t, 0.5, 0, &mut rng).is_err());
    }

    #[test]
    fn sample_rows_come_from_base() {
        let t = base(50);
        let mut rng = StdRng::seed_from_u64(42);
        let s = Sample::uniform(&t, 0.2, 5, &mut rng).unwrap();
        let xs = s.table().column("x").unwrap().numeric().unwrap();
        for &x in xs {
            assert!((0.0..50.0).contains(&x));
            let v = s.table().column("v").unwrap().numeric().unwrap()
                [xs.iter().position(|&y| y == x).unwrap()];
            assert_eq!(v, 2.0 * x);
        }
    }

    #[test]
    fn sample_is_unbiased_roughly() {
        // The sample mean of `v` should be close to the base mean.
        let t = base(10_000);
        let mut rng = StdRng::seed_from_u64(3);
        let s = Sample::uniform(&t, 0.05, 50, &mut rng).unwrap();
        let vs = s.table().column("v").unwrap().numeric().unwrap();
        let mean: f64 = vs.iter().sum::<f64>() / vs.len() as f64;
        // Base mean of v = 2 * mean(0..9999) = 9999.
        assert!((mean - 9999.0).abs() < 600.0, "sample mean {mean}");
    }

    #[test]
    fn full_sample_covers_everything() {
        let t = base(20);
        let s = Sample::full(&t, 7).unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.fraction(), 1.0);
        assert_eq!(s.num_batches(), 3);
    }

    #[test]
    fn uniform_prefix_matches_uniform_over_prefix_table() {
        // Drawing a prefix sample from a grown table must bit-match the
        // draw the original (ungrown) table produced: same RNG stream,
        // same row indices, same gathered values.
        let small = base(400);
        let mut grown = small.clone();
        for i in 0..250 {
            grown
                .push_row(vec![((1000 + i) as f64).into(), 0.0.into()])
                .unwrap();
        }
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let a = Sample::uniform(&small, 0.25, 50, &mut rng_a).unwrap();
        let b = Sample::uniform_prefix(&grown, 400, 0.25, 50, &mut rng_b).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.base_rows(), b.base_rows());
        let xa = a.table().column("x").unwrap().numeric().unwrap();
        let xb = b.table().column("x").unwrap().numeric().unwrap();
        assert_eq!(xa, xb);
        // And the two generators end in the same RNG state.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        // An over-long prefix is refused.
        assert!(Sample::uniform_prefix(&small, 401, 0.25, 50, &mut rng_a).is_err());
    }

    #[test]
    fn absorb_appended_admits_at_sampling_fraction() {
        let mut t = base(2000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Sample::uniform(&t, 0.2, 50, &mut rng).unwrap();
        let before = s.len();
        for i in 0..5000 {
            t.push_row(vec![((2000 + i) as f64).into(), 1.0.into()])
                .unwrap();
        }
        let admitted = s.absorb_appended(&t, 2000, 5, 0).unwrap();
        assert_eq!(s.len(), before + admitted);
        assert_eq!(s.base_rows(), 7000);
        // Binomial(5000, 0.2): far tails only.
        assert!(
            (700..=1300).contains(&admitted),
            "admitted {admitted} of 5000 at fraction 0.2"
        );
    }

    #[test]
    fn absorb_is_batch_boundary_invariant() {
        // Admission depends only on the absolute row index, so splitting
        // one ingest into many batches yields the identical sample.
        let t = base(100);
        let grow = |t: &Table, upto: usize| {
            let mut g = t.clone();
            for i in 0..upto {
                g.push_row(vec![((100 + i) as f64).into(), (i as f64).into()])
                    .unwrap();
            }
            g
        };
        let mut rng = StdRng::seed_from_u64(9);
        let whole = {
            let mut s = Sample::uniform(&t, 0.5, 10, &mut rng).unwrap();
            s.absorb_appended(&grow(&t, 60), 100, 9, 3).unwrap();
            s
        };
        let mut rng = StdRng::seed_from_u64(9);
        let split = {
            let mut s = Sample::uniform(&t, 0.5, 10, &mut rng).unwrap();
            for (start, len) in [(0usize, 13usize), (13, 1), (14, 30), (44, 16)] {
                s.absorb_appended(&grow(&t, start + len), 100 + start as u64, 9, 3)
                    .unwrap();
            }
            s
        };
        assert_eq!(whole.len(), split.len());
        assert_eq!(whole.base_rows(), split.base_rows());
        assert_eq!(
            whole.table().column("x").unwrap().numeric().unwrap(),
            split.table().column("x").unwrap().numeric().unwrap()
        );
    }

    #[test]
    fn absorb_keeps_one_dictionary_with_the_base_table() {
        // An unadmitted row introduces label "first-new" before an
        // admitted row introduces "second-new": the sample must still
        // encode labels with the *base table's* codes, not its own
        // admission-order codes.
        let schema = crate::Sample::full(
            &{
                let schema = verdict_storage::Schema::new(vec![
                    verdict_storage::ColumnDef::categorical_dimension("g"),
                    verdict_storage::ColumnDef::measure("v"),
                ])
                .unwrap();
                let mut t = Table::new(schema);
                for i in 0..40 {
                    t.push_row(vec![["a", "b"][i % 2].into(), (i as f64).into()])
                        .unwrap();
                }
                t
            },
            10,
        )
        .unwrap();
        let mut base = schema.table().clone();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = Sample::uniform(&base, 0.5, 10, &mut rng).unwrap();
        // Find one unadmitted and one later admitted appended index.
        let unadmitted = (40u64..)
            .find(|&r| !appended_row_admitted(2, 0, r, 0.5))
            .unwrap();
        let admitted = (unadmitted + 1..)
            .find(|&r| appended_row_admitted(2, 0, r, 0.5))
            .unwrap();
        for r in 40..=admitted {
            let label = if r == unadmitted {
                "first-new"
            } else if r == admitted {
                "second-new"
            } else {
                "a"
            };
            base.push_row(vec![label.into(), (r as f64).into()])
                .unwrap();
        }
        s.absorb_appended(&base, 40, 2, 0).unwrap();
        // One shared dictionary: identical labels in identical order.
        assert_eq!(
            s.table().column("g").unwrap().labels().unwrap(),
            base.column("g").unwrap().labels().unwrap()
        );
        // The admitted row's code decodes to the right label through
        // either table.
        let sample_g = s.table().column("g").unwrap();
        let last = sample_g.categorical().unwrap().last().copied().unwrap();
        assert_eq!(sample_g.label_of(last), Some("second-new"));
        assert_eq!(base.column("g").unwrap().label_of(last), Some("second-new"));
    }

    #[test]
    fn admission_is_deterministic_and_decorrelated() {
        let a = appended_row_admitted(7, 0, 123, 0.3);
        assert_eq!(a, appended_row_admitted(7, 0, 123, 0.3));
        // Different samples of the same session make independent choices:
        // over many rows the two decision streams must disagree somewhere.
        let disagree = (0..500)
            .filter(|&i| appended_row_admitted(7, 0, i, 0.5) != appended_row_admitted(7, 1, i, 0.5))
            .count();
        assert!(disagree > 100, "streams nearly identical: {disagree}");
        assert!(!appended_row_admitted(7, 0, 9, 0.0));
        assert!(appended_row_admitted(7, 0, 9, 1.0));
    }

    #[test]
    fn partitioned_batches_are_partition_pure() {
        let t = base(2000);
        let spec = PartitionSpec::range("x", vec![500.0, 1000.0, 1500.0]);
        let mut rng = StdRng::seed_from_u64(11);
        let s = Sample::uniform_partitioned(&t, spec, 0.3, 32, &mut rng).unwrap();
        let layout = s.partition_layout().expect("partitioned");
        let map = layout.map();
        // Every explicit batch's rows all route to the batch's partition,
        // and the batches tile the sample exactly once.
        let mut seen = vec![false; s.len()];
        for i in 0..s.num_batches() {
            let p = s.batch_partition(i).expect("no ingest tail yet");
            let routed = map.route(s.table(), s.batch_range(i)).unwrap();
            assert!(routed.iter().all(|&q| q == p), "batch {i} impure");
            for r in s.batch_range(i) {
                assert!(!seen[r], "row {r} in two batches");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "batches must cover the sample");
        // Proportional sizing: each quarter-sized partition gets roughly
        // a quarter of the sample.
        let total: u64 = map.parts().iter().map(|p| p.rows()).sum();
        assert_eq!(total as usize, s.len());
        for p in map.parts() {
            let share = p.rows() as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.05, "share {share}");
        }
    }

    #[test]
    fn partitioned_batches_interleave_partitions() {
        // A scan prefix must mix partitions, not drain them in order.
        let t = base(4000);
        let spec = PartitionSpec::range("x", vec![1000.0, 2000.0, 3000.0]);
        let mut rng = StdRng::seed_from_u64(13);
        let s = Sample::uniform_partitioned(&t, spec, 0.5, 50, &mut rng).unwrap();
        let prefix = s.num_batches() / 3;
        let mut hit = std::collections::HashSet::new();
        for i in 0..prefix {
            hit.insert(s.batch_partition(i).unwrap());
        }
        assert_eq!(hit.len(), 4, "prefix of {prefix} batches misses partitions");
    }

    #[test]
    fn partitioned_absorb_appends_untagged_tail_batches() {
        let mut t = base(1000);
        let spec = PartitionSpec::range("x", vec![500.0]);
        let mut rng = StdRng::seed_from_u64(17);
        let mut s = Sample::uniform_partitioned(&t, spec, 0.4, 25, &mut rng).unwrap();
        let explicit = s.num_batches();
        let drawn = s.len();
        for i in 0..800 {
            t.push_row(vec![((1000 + i) as f64).into(), 1.0.into()])
                .unwrap();
        }
        let admitted = s.absorb_appended(&t, 1000, 17, 0).unwrap();
        assert!(admitted > 0);
        assert_eq!(s.len(), drawn + admitted);
        assert_eq!(
            s.num_batches(),
            explicit + admitted.div_ceil(25),
            "tail rows must land in stride batches"
        );
        // Tail batches carry no partition tag and tile the tail rows.
        let mut covered = 0usize;
        for i in explicit..s.num_batches() {
            assert_eq!(s.batch_partition(i), None);
            covered += s.batch_range(i).len();
        }
        assert_eq!(covered, admitted);
        assert_eq!(s.batch_range(explicit).start, drawn);
        // Explicit batches are untouched by growth.
        assert!(s.batch_partition(0).is_some());
    }

    #[test]
    fn clone_shares_rows_and_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sample>();
        assert_send_sync::<crate::OnlineAggregation>();
        let t = base(100);
        let mut rng = StdRng::seed_from_u64(7);
        let s = Sample::uniform(&t, 0.5, 10, &mut rng).unwrap();
        let c = s.clone();
        // Cloning shares the gathered rows, not a deep copy.
        assert!(Arc::ptr_eq(&s.table_arc(), &c.table_arc()));
    }
}
