//! Offline uniform random samples split into batches.
//!
//! `NoLearn` "creates random samples of the original tables offline and
//! splits them into multiple batches of tuples" (paper §8.1). A [`Sample`]
//! holds the sampled rows, the sampling fraction, the base-table
//! cardinality (needed to scale `FREQ` into `COUNT`), and the batch
//! boundaries used by online aggregation.
//!
//! # One batch geometry
//!
//! Every sample has the same shape (`BatchLayout`): a list of
//! *draw-time batches* `(partition, rows)`, each holding rows of exactly
//! one partition, followed by a *stride tail* of plain `batch_size`
//! batches over every row past `covered_rows`. An unpartitioned sample is
//! the degenerate case with no draw-time batches (all stride); a
//! partitioned sample grows a stride tail when
//! [`Sample::absorb_appended`] admits ingested rows. Row ranges are
//! expressed in the sample's *materialized* row order — partitions
//! concatenated in id order, admitted rows last.
//!
//! What differs between samples is only *where the rows are*. A resident
//! sample keeps all of them in [`Sample::table`]. A demand-paged sample
//! ([`Sample::paged`], see [`crate::paged`]) keeps its draw-time rows in
//! on-disk partition segments faulted through a buffer manager, and only
//! the admitted tail in its table — so its table is also what every
//! planning step (predicate compilation, label/code resolution) runs
//! against: it carries the schema and the full dictionaries.
//!
//! The resident rows live behind an `Arc`: cloning a `Sample` (engine
//! snapshots handed to many reader threads) shares them, and an ingest
//! copies only that table on write. Scan state lives in per-query cursors
//! ([`crate::SharedScanDriver`]), never in the sample itself.

use std::ops::Range;
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use verdict_storage::predicate::ChunkMatch;
use verdict_storage::pstore::SegmentPin;
use verdict_storage::{
    distinct_group_keys, CompiledPredicate, GroupKey, GroupKeyCollector, PartitionMap,
    PartitionSpec, Predicate, Table,
};

use crate::paged::PagedRep;
use crate::{AqpError, Result};

/// A uniform row-level random sample of a base table.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The resident rows: every sampled row of a resident sample, only
    /// the rows admitted after the draw for a paged one.
    table: Arc<Table>,
    /// Sample rows that live in partition segments instead of `table`
    /// (0 for a resident sample, the layout's `covered_rows` for a paged
    /// one): the materialized row index of `table`'s first row.
    segment_rows: usize,
    base_rows: usize,
    fraction: f64,
    batch_size: usize,
    layout: Arc<BatchLayout>,
    /// Routing + summaries over the sampled rows of a resident
    /// partitioned sample (a paged sample prunes from its pager's map).
    map: Option<Arc<PartitionMap>>,
    /// Where a paged sample's draw-time rows come from.
    paged: Option<Arc<PagedRep>>,
}

/// The batch geometry of a sample (see the [module docs](self)).
///
/// Draw-time batches are *interleaved deterministically* across
/// partitions (batch `j` of a `b`-batch partition sorts at key
/// `(j + ½)/b`) so any scan prefix covers all partitions
/// near-proportionally — an online-aggregation prefix stays a roughly
/// self-weighted sample instead of reading partitions one after another.
/// Each carries its partition's id, so a scan can skip every batch of a
/// partition the predicate provably rejects without touching a chunk.
///
/// Rows admitted later sit past `covered_rows` in stride batches with no
/// partition tag; they are never pruned, which keeps pruning sound as the
/// sample grows without rewriting draw-time batches.
#[derive(Debug, Default)]
pub(crate) struct BatchLayout {
    /// Materialized row span of each partition's drawn rows (empty for a
    /// partition that drew none).
    pub(crate) spans: Vec<Range<usize>>,
    /// Draw-time batches in scan order: owning partition and row range.
    batches: Vec<(u32, Range<usize>)>,
    /// Sample rows covered by the draw-time batches.
    covered_rows: usize,
}

impl BatchLayout {
    /// Lays out a partitioned draw of `drawn[p]` rows from partition `p`:
    /// spans concatenated in partition-id order, each cut into batches of
    /// `batch_size` rows, interleaved. A pure function of its arguments,
    /// so a warm start rebuilds the identical geometry.
    fn interleaved(drawn: &[usize], batch_size: usize) -> BatchLayout {
        let mut spans = Vec::with_capacity(drawn.len());
        let mut keyed: Vec<(f64, u32, usize, Range<usize>)> = Vec::new();
        let mut covered_rows = 0usize;
        for (p, &rows) in drawn.iter().enumerate() {
            let span = covered_rows..covered_rows + rows;
            covered_rows = span.end;
            let b = rows.div_ceil(batch_size);
            for j in 0..b {
                let s = span.start + j * batch_size;
                let e = (s + batch_size).min(span.end);
                keyed.push(((j as f64 + 0.5) / b as f64, p as u32, j, s..e));
            }
            spans.push(span);
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        BatchLayout {
            spans,
            batches: keyed.into_iter().map(|k| (k.1, k.3)).collect(),
            covered_rows,
        }
    }

    /// Number of draw-time (partition-tagged) batches.
    #[cfg(test)]
    pub(crate) fn num_draw_batches(&self) -> usize {
        self.batches.len()
    }

    /// Sample rows covered by the draw-time batches; the stride tail
    /// starts here.
    #[cfg(test)]
    pub(crate) fn covered_rows(&self) -> usize {
        self.covered_rows
    }
}

/// Rows a partitioned draw takes from each partition: `fraction` of its
/// rows, rounded, with every non-empty partition guaranteed at least one.
fn partition_allocation(part_rows: &[usize], fraction: f64) -> Vec<usize> {
    part_rows
        .iter()
        .map(|&n| ((n as f64 * fraction).round() as usize).max(1).min(n))
        .collect()
}

fn check_batch_size(batch_size: usize) -> Result<()> {
    if batch_size == 0 {
        return Err(AqpError::InvalidConfig(
            "batch size must be positive".into(),
        ));
    }
    Ok(())
}

fn check_geometry(fraction: f64, batch_size: usize) -> Result<()> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(AqpError::InvalidConfig(format!(
            "sample fraction must be in (0,1], got {fraction}"
        )));
    }
    check_batch_size(batch_size)
}

impl Sample {
    /// An unpartitioned resident sample over already-gathered rows.
    fn resident(table: Table, base_rows: usize, fraction: f64, batch_size: usize) -> Sample {
        Sample {
            table: Arc::new(table),
            segment_rows: 0,
            base_rows,
            fraction,
            batch_size,
            layout: Arc::default(),
            map: None,
            paged: None,
        }
    }

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
        check_geometry(fraction, batch_size)?;
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
        Ok(Sample::resident(table, n, fraction, batch_size))
    }

    /// Draws a partitioned uniform sample: rows are routed by `spec`,
    /// each partition is sampled proportionally to its size, and the
    /// sampled rows are gathered clustered by partition so each draw-time
    /// batch belongs to exactly one partition (see `BatchLayout`).
    ///
    /// The [`PartitionMap`] a scan prunes with is built over the sampled
    /// rows themselves: the gathered table inherits the base table's
    /// dictionaries verbatim, so the summaries are sound against
    /// predicates compiled on the sample — and tighter than base-table
    /// summaries.
    pub fn uniform_partitioned<R: Rng>(
        base: &Table,
        spec: PartitionSpec,
        fraction: f64,
        batch_size: usize,
        rng: &mut R,
    ) -> Result<Sample> {
        check_geometry(fraction, batch_size)?;
        let n = base.num_rows();
        let router = PartitionMap::build(base, spec.clone()).map_err(AqpError::Storage)?;
        let routed = router.route(base, 0..n).map_err(AqpError::Storage)?;
        let mut part_rows: Vec<Vec<usize>> = vec![Vec::new(); router.num_partitions()];
        for (r, &p) in routed.iter().enumerate() {
            part_rows[p as usize].push(r);
        }
        let sizes: Vec<usize> = part_rows.iter().map(Vec::len).collect();
        let drawn = partition_allocation(&sizes, fraction);
        // Select per partition, concatenating partition-clustered.
        let mut selected: Vec<usize> = Vec::new();
        for (rows, &want) in part_rows.iter_mut().zip(&drawn) {
            if want > 0 {
                rows.shuffle(rng);
                selected.extend(&rows[..want]);
            }
        }
        let table = base.gather(&selected).map_err(AqpError::Storage)?;
        let map = PartitionMap::build(&table, spec).map_err(AqpError::Storage)?;
        Ok(Sample {
            layout: Arc::new(BatchLayout::interleaved(&drawn, batch_size)),
            map: Some(Arc::new(map)),
            ..Sample::resident(table, n, fraction, batch_size)
        })
    }

    /// Assembles a demand-paged sample: the draw-time rows stay in
    /// `rep`'s partition segments, faulted on demand, in the geometry
    /// [`Sample::uniform_partitioned`] would give the same per-partition
    /// cardinalities; `tail` holds the rows admitted since the draw
    /// (zero-row at create, the snapshot's tail on a warm open) and must
    /// carry the session's full categorical dictionaries.
    pub fn paged(
        tail: Arc<Table>,
        base_rows: usize,
        fraction: f64,
        batch_size: usize,
        rep: PagedRep,
    ) -> Result<Sample> {
        check_geometry(fraction, batch_size)?;
        let sizes: Vec<usize> = rep.original_part_rows.iter().map(|&n| n as usize).collect();
        let layout = BatchLayout::interleaved(&partition_allocation(&sizes, fraction), batch_size);
        Ok(Sample {
            table: tail,
            segment_rows: layout.covered_rows,
            base_rows,
            fraction,
            batch_size,
            layout: Arc::new(layout),
            map: None,
            paged: Some(Arc::new(rep)),
        })
    }

    /// Admits appended base-table rows into the maintained sample.
    /// `rows` is the grown base table — the ingested batch sits at
    /// `first_row_index..` — or, for a paged sample (whose base rows are
    /// not resident anywhere), just the ingested batch, whose first row
    /// has absolute index `first_row_index`.
    ///
    /// Each appended row enters the sample independently with probability
    /// equal to the sampling `fraction`, so the sample stays an honest
    /// uniform sample of the *grown* table: original rows were included
    /// with probability `≈ fraction` at draw time, and appended rows get
    /// exactly the same inclusion probability. `base_rows` grows to the
    /// whole new table size either way, keeping `FREQ → COUNT` scaling
    /// correct.
    ///
    /// The sample first adopts `rows`' categorical dictionaries and then
    /// pushes admitted rows as raw codes, so a sample code always decodes
    /// to the same label as the base-table code — even when an
    /// *unadmitted* row introduced a new label. (Pushing raw label
    /// strings instead would grow the sample's dictionary in admission
    /// order and silently diverge from the base table's.)
    ///
    /// Admission is decided by `appended_row_admitted` — a pure function
    /// of `(seed, sample_index, absolute row index, fraction)` rather than
    /// a streaming RNG, so crash-recovery replay admits *exactly* the rows
    /// the live session admitted regardless of how the batches were cut.
    ///
    /// Only the resident table is copied on write: the layout and the
    /// pager stay shared with every older clone of the sample.
    ///
    /// Returns the number of rows admitted.
    pub fn absorb_appended(
        &mut self,
        rows: &Table,
        first_row_index: u64,
        seed: u64,
        sample_index: u64,
    ) -> Result<usize> {
        let window_start = match self.paged {
            Some(_) => 0,
            None => first_row_index as usize,
        };
        let table = Arc::make_mut(&mut self.table);
        table
            .sync_dictionaries_from(rows)
            .map_err(AqpError::Storage)?;
        let mut admitted = 0usize;
        for r in window_start..rows.num_rows() {
            let index = first_row_index + (r - window_start) as u64;
            if appended_row_admitted(seed, sample_index, index, self.fraction) {
                table.push_row(rows.row(r)).map_err(AqpError::Storage)?;
                admitted += 1;
            }
        }
        self.base_rows = first_row_index as usize + rows.num_rows() - window_start;
        Ok(admitted)
    }

    /// Assembles a resident sample from rows already drawn out of a base
    /// table of `base_rows` rows at `fraction`.
    pub fn from_parts(
        table: Table,
        base_rows: usize,
        fraction: f64,
        batch_size: usize,
    ) -> Result<Sample> {
        check_batch_size(batch_size)?;
        Ok(Sample::resident(table, base_rows, fraction, batch_size))
    }

    /// Wraps an existing table as a "sample" covering the whole base table
    /// (used for exact evaluation paths and tests).
    pub fn full(base: &Table, batch_size: usize) -> Result<Sample> {
        Sample::from_parts(base.clone(), base.num_rows(), 1.0, batch_size)
    }

    /// The resident rows as a table: the whole sample, or a paged
    /// sample's admitted tail (same schema and dictionaries as its
    /// segments, so planning compiles against it either way).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The shared handle to the resident rows (cheap to clone; what
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

    /// Number of sampled rows, resident or not.
    pub fn len(&self) -> usize {
        self.segment_rows + self.table.num_rows()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of batches: the draw-time batches plus stride batches over
    /// every later row (the last may be short).
    pub fn num_batches(&self) -> usize {
        let tail_rows = self.len() - self.layout.covered_rows;
        self.layout.batches.len() + tail_rows.div_ceil(self.batch_size)
    }

    /// Row range `[start, end)` of batch `i` in the materialized row
    /// order — for a paged sample exactly the coordinates
    /// `Sample::materialize_resident` produces.
    pub fn batch_range(&self, i: usize) -> Range<usize> {
        if let Some((_, rows)) = self.layout.batches.get(i) {
            return rows.clone();
        }
        let k = i - self.layout.batches.len();
        let start = self.layout.covered_rows + k * self.batch_size;
        start..(start + self.batch_size).min(self.len())
    }

    /// The partition batch `i`'s rows belong to; `None` for a stride
    /// batch (unpartitioned samples, admitted rows), which carries no tag
    /// and is never pruned.
    pub(crate) fn batch_partition(&self, i: usize) -> Option<u32> {
        self.layout.batches.get(i).map(|(p, _)| *p)
    }

    /// Where batch `i`'s rows are — `Some(p)`: partition `p`'s segment of
    /// a paged sample, `None`: the resident table — and the batch's row
    /// range local to that table.
    pub(crate) fn locate_batch(&self, i: usize) -> (Option<u32>, Range<usize>) {
        let rows = self.batch_range(i);
        let (segment, origin) = match self.batch_partition(i) {
            Some(p) if self.paged.is_some() => (Some(p), self.layout.spans[p as usize].start),
            _ => (None, self.segment_rows),
        };
        (segment, rows.start - origin..rows.end - origin)
    }

    /// The batch geometry.
    pub(crate) fn layout(&self) -> &BatchLayout {
        &self.layout
    }

    /// Which partitions `pred` (compiled against [`Sample::table`])
    /// provably misses, from summaries alone — zero I/O. `true` = no row
    /// of that partition can match; empty when the sample has no
    /// partition summaries. The summaries are the sample's own map, or a
    /// paged sample's shared base-table map (sound for segments because a
    /// segment's rows are a subset of its partition's base rows).
    pub(crate) fn pruned_partitions(&self, pred: &CompiledPredicate<'_>) -> Vec<bool> {
        let classify = |map: &PartitionMap| {
            (0..map.num_partitions())
                .map(|p| pred.classify_partition(map.part(p)) == ChunkMatch::NoRows)
                .collect()
        };
        match (&self.paged, &self.map) {
            (Some(rep), _) => classify(&crate::read(&rep.map)),
            (None, Some(map)) => classify(map),
            (None, None) => Vec::new(),
        }
    }

    /// Whether this sample is demand-paged (draw-time rows faulted in per
    /// partition rather than resident).
    pub fn is_paged(&self) -> bool {
        self.paged.is_some()
    }

    /// The pager of a demand-paged sample, if any.
    pub fn paged_rep(&self) -> Option<&Arc<PagedRep>> {
        self.paged.as_ref()
    }

    /// Pins partition `p`'s segment of a paged sample in the buffer
    /// manager, deriving it on a miss; it stays resident (unevictable)
    /// until the guard drops.
    pub(crate) fn pin_segment(&self, p: u32) -> verdict_storage::Result<SegmentPin> {
        let rep = self
            .paged
            .as_ref()
            .expect("segments belong to paged samples");
        rep.pin_segment(p, self.layout.spans[p as usize].len())
    }

    /// Materializes a paged sample into an ordinary resident partitioned
    /// sample: every partition's segment is faulted in and concatenated
    /// in partition-id order, the admitted tail appended last — the row
    /// order [`Sample::batch_range`] already reports, so the layout is
    /// shared as is and scanning either form visits identical rows in
    /// identical batches. Returns a plain clone when already resident.
    ///
    /// This is the parity oracle: answers, error bounds, and stop points
    /// of a paged scan must be bit-identical to a scan of the
    /// materialized sample.
    #[cfg(test)]
    pub(crate) fn materialize_resident(&self) -> Result<Sample> {
        let Some(rep) = &self.paged else {
            return Ok(self.clone());
        };
        // Zero rows, full dictionaries — segment codes land verbatim.
        let mut table = self.table.gather(&[]).map_err(AqpError::Storage)?;
        for (p, span) in self.layout.spans.iter().enumerate() {
            if !span.is_empty() {
                let seg = rep.derive_segment(p as u32, span.len())?;
                table.append(&seg).map_err(AqpError::Storage)?;
            }
        }
        debug_assert_eq!(table.num_rows(), self.layout.covered_rows);
        let spec = crate::read(&rep.map).spec().clone();
        let map = PartitionMap::build(&table, spec).map_err(AqpError::Storage)?;
        table.append(&self.table).map_err(AqpError::Storage)?;
        Ok(Sample {
            table: Arc::new(table),
            segment_rows: 0,
            map: Some(Arc::new(map)),
            paged: None,
            ..self.clone()
        })
    }

    /// Enumerates the distinct group keys among the sample rows matching
    /// `predicate`, key-sorted: exactly what enumerating the materialized
    /// sample yields. A paged sample skips without I/O the segments whose
    /// partition summaries provably reject the predicate — no row of
    /// theirs can match — and, the summaries of the others bounding the
    /// keys that can appear at all, observes its resident tail first and
    /// stops pinning segments the moment the key set is complete.
    pub fn distinct_group_keys(
        &self,
        predicate: &Predicate,
        group_cols: &[String],
    ) -> Result<Vec<GroupKey>> {
        let Some(rep) = &self.paged else {
            return Ok(distinct_group_keys(&self.table, predicate, group_cols)?);
        };
        let pruned = self.pruned_partitions(&predicate.compile(&self.table)?);
        let spans = self.layout.spans.iter().enumerate();
        let live: Vec<usize> = spans
            .filter(|(p, span)| !span.is_empty() && !pruned[*p])
            .map(|(p, _)| p)
            .collect();
        let mut collector = GroupKeyCollector::new(group_cols);
        {
            let map = crate::read(&rep.map);
            collector.bound_by(predicate, &self.table, live.iter().map(|&p| map.part(p)))?;
        }
        collector.observe(&self.table, predicate)?;
        for &p in &live {
            if collector.is_complete() {
                break;
            }
            collector.observe(self.pin_segment(p as u32)?.table(), predicate)?;
        }
        Ok(collector.finish())
    }

    /// Streams the sample's rows through `f` one fragment at a time: a
    /// paged sample yields each partition's segment in partition-id
    /// order, pinning one at a time, then every sample its resident
    /// table. Fragment boundaries are an artifact of paging;
    /// concatenated, the fragments are exactly the materialized sample's
    /// rows in order.
    pub fn visit_fragments(&self, mut f: impl FnMut(&Table) -> Result<()>) -> Result<()> {
        if self.paged.is_some() {
            for (p, span) in self.layout.spans.iter().enumerate() {
                if !span.is_empty() {
                    f(self.pin_segment(p as u32)?.table())?;
                }
            }
        }
        f(&self.table)
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
pub(crate) fn appended_row_admitted(
    seed: u64,
    sample_index: u64,
    row_index: u64,
    fraction: f64,
) -> bool {
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
        let map = s.map.as_deref().expect("partitioned");
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
