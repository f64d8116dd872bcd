//! Columnar chunk format: fixed-size row batches, `u64` selection
//! bitmaps, per-chunk min/max zone maps, and bit-packed dictionary
//! codes for low-cardinality categorical columns.
//!
//! The scan pipeline processes a table as a sequence of [`CHUNK_ROWS`]-row
//! chunks. Per chunk it holds:
//!
//! - raw typed column data (`&[f64]` values, `&[u32]` dictionary codes)
//!   sliced out of the column storage — see [`Chunk`];
//! - a [`SelectionMask`]: one bit per row, built by the branch-free
//!   predicate kernels in [`crate::predicate`];
//! - a zone map entry ([`NumZone`] / [`CatZone`]) recording the min/max
//!   of every column over the chunk, letting the scan skip chunks whose
//!   value range cannot intersect the predicate;
//! - optionally a [`PackedCodes`] mirror of a low-cardinality
//!   categorical column, storing codes at 1/2/4/8 bits each so the
//!   group-key resolution loop reads 4–64× less memory and decodes a
//!   whole `u64` word per step ([`PackedCodes::map_range`]).
//!
//! # Bit-parity contract
//!
//! The chunked kernel must produce answers *bit-identical* to the
//! per-row reference path. Everything in this module is therefore
//! exact, never approximate:
//!
//! - a [`SelectionMask`] filled by `fill_mask` has exactly the same
//!   set of rows as per-row predicate evaluation;
//! - zone maps are only used to classify a chunk as "no row can match"
//!   (skip — equivalent to an all-zero mask) or "every row matches"
//!   (dense fast path — equivalent to an all-one mask); when in doubt
//!   the classifier says "some rows" and the mask kernel decides;
//! - packed codes decode to exactly the codes they were packed from.
//!
//! Floating-point accumulation order is preserved by the *driver*
//! (rows are always consumed in ascending order within a chunk
//! sequence); this module only guarantees the row *sets* are exact.

use std::ops::Range;

use crate::column::Column;

/// Number of rows per chunk. 1024 rows × 8 bytes = one 8 KiB column
/// segment — two pages, comfortably L1-resident alongside the mask.
pub const CHUNK_ROWS: usize = 1024;

/// Splits `range` into chunk-aligned segments, yielding
/// `(chunk_index, row_range)` pairs in ascending row order.
///
/// Segments at the edges may be partial (a scan batch can start or end
/// mid-chunk); interior segments span a full chunk.
pub fn chunk_segments(range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut at = range.start;
    let end = range.end;
    std::iter::from_fn(move || {
        if at >= end {
            return None;
        }
        let chunk = at / CHUNK_ROWS;
        let stop = ((chunk + 1) * CHUNK_ROWS).min(end);
        let seg = at..stop;
        at = stop;
        Some((chunk, seg))
    })
}

/// A borrowed view of one chunk of a table: raw typed column slices
/// for a fixed row range.
#[derive(Debug, Clone)]
pub struct Chunk<'t> {
    index: usize,
    rows: Range<usize>,
    columns: &'t [Column],
}

impl<'t> Chunk<'t> {
    pub(crate) fn new(index: usize, rows: Range<usize>, columns: &'t [Column]) -> Self {
        Chunk {
            index,
            rows,
            columns,
        }
    }

    /// Chunk index within the table (`row / CHUNK_ROWS`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The absolute row range this chunk covers.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of rows in the chunk (the last chunk may be short).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Raw numeric values of column `col` over this chunk, or `None`
    /// for a categorical column.
    pub fn numeric(&self, col: usize) -> Option<&'t [f64]> {
        self.columns[col]
            .numeric()
            .ok()
            .map(|d| &d[self.rows.start..self.rows.end])
    }

    /// Raw dictionary codes of column `col` over this chunk, or `None`
    /// for a numeric column.
    pub fn codes(&self, col: usize) -> Option<&'t [u32]> {
        self.columns[col]
            .categorical()
            .ok()
            .map(|d| &d[self.rows.start..self.rows.end])
    }
}

/// A per-row selection bitmap over one chunk segment, 64 rows per word.
///
/// Invariant: bits at positions `>= len` in the last word are zero, so
/// popcounts and all-ones checks are straight word operations.
#[derive(Debug, Clone, Default)]
pub struct SelectionMask {
    words: Vec<u64>,
    len: usize,
}

impl SelectionMask {
    /// An empty mask; size it with [`SelectionMask::reset_ones`].
    pub fn new() -> Self {
        SelectionMask::default()
    }

    /// Resizes to `len` bits, all set. Kernels then AND conjuncts in.
    pub fn reset_ones(&mut self, len: usize) {
        let nwords = len.div_ceil(64);
        self.words.clear();
        self.words.resize(nwords, !0u64);
        self.len = len;
        let tail = len % 64;
        if tail != 0 {
            self.words[nwords - 1] = (1u64 << tail) - 1;
        }
    }

    /// Resizes to `len` bits, all clear.
    pub fn reset_zeros(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Number of rows the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit for row `i` (relative to the segment start).
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// The raw bitmap words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of selected rows.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True when every covered row is selected.
    pub fn all_ones(&self) -> bool {
        if self.len == 0 {
            return true;
        }
        let tail = self.len % 64;
        let (last, full) = self.words.split_last().expect("len > 0 implies words");
        full.iter().all(|&w| w == !0u64)
            && *last == if tail == 0 { !0u64 } else { (1u64 << tail) - 1 }
    }

    /// True when at least one row is selected.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Calls `f` with each selected row index, ascending.
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

/// Min/max summary of a numeric column over one chunk.
///
/// NaN values are excluded from the min/max and flagged in `has_nan`;
/// an all-NaN chunk has `min = +inf, max = -inf`, which is disjoint
/// from every predicate range — sound, since NaN never matches a
/// range predicate.
#[derive(Debug, Clone, Copy)]
pub struct NumZone {
    pub min: f64,
    pub max: f64,
    pub has_nan: bool,
}

impl NumZone {
    fn of(data: &[f64]) -> Self {
        let mut z = NumZone {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            has_nan: false,
        };
        for &v in data {
            if v.is_nan() {
                z.has_nan = true;
            } else {
                z.min = z.min.min(v);
                z.max = z.max.max(v);
            }
        }
        z
    }
}

/// Min/max dictionary codes of a categorical column over one chunk.
#[derive(Debug, Clone, Copy)]
pub struct CatZone {
    pub min_code: u32,
    pub max_code: u32,
}

impl CatZone {
    fn of(codes: &[u32]) -> Self {
        let mut z = CatZone {
            min_code: u32::MAX,
            max_code: 0,
        };
        for &c in codes {
            z.min_code = z.min_code.min(c);
            z.max_code = z.max_code.max(c);
        }
        z
    }
}

/// Per-chunk zone entries for one column.
#[derive(Debug, Clone)]
pub enum ColumnZones {
    Num(Vec<NumZone>),
    Cat {
        zones: Vec<CatZone>,
        /// Bit-packed mirror of the full code vector when the column's
        /// codes fit in ≤ 8 bits; `None` for wide dictionaries.
        packed: Option<PackedCodes>,
    },
}

/// Zone maps for every column of a table, covering `rows` rows.
///
/// Built lazily on first chunked scan and *extended* incrementally
/// after ingest: min/max is associative, so covering new rows only
/// requires scanning from the start of the last previously-covered
/// chunk — never the whole column (the stale-bound hazard ISSUE 7
/// satellite 6 guards against).
#[derive(Debug, Clone)]
pub struct ZoneMaps {
    cols: Vec<ColumnZones>,
    rows: usize,
}

impl ZoneMaps {
    /// Builds zone maps over `rows` rows of `columns` from scratch.
    pub fn build(columns: &[Column], rows: usize) -> Self {
        let cols = columns
            .iter()
            .map(|col| Self::column_zones(col, 0, rows, None))
            .collect();
        ZoneMaps { cols, rows }
    }

    /// Returns zone maps covering `rows` rows, reusing every complete
    /// chunk of `self` and scanning only from the start of the last
    /// (possibly partial) previously-covered chunk.
    pub fn extended(&self, columns: &[Column], rows: usize) -> Self {
        assert!(rows >= self.rows, "tables only grow");
        if rows == self.rows {
            return self.clone();
        }
        // The last covered chunk may have been partial; recompute it
        // from full chunk data along with all new chunks.
        let keep_chunks = self.rows / CHUNK_ROWS;
        let from_row = keep_chunks * CHUNK_ROWS;
        let cols = columns
            .iter()
            .zip(&self.cols)
            .map(|(col, old)| Self::column_zones(col, from_row, rows, Some((old, keep_chunks))))
            .collect();
        ZoneMaps { cols, rows }
    }

    fn column_zones(
        col: &Column,
        from_row: usize,
        rows: usize,
        reuse: Option<(&ColumnZones, usize)>,
    ) -> ColumnZones {
        match col {
            Column::Numeric(data) => {
                let mut zones = match reuse {
                    Some((ColumnZones::Num(old), keep)) => old[..keep].to_vec(),
                    _ => Vec::new(),
                };
                for (_, seg) in chunk_segments(from_row..rows) {
                    zones.push(NumZone::of(&data[seg]));
                }
                ColumnZones::Num(zones)
            }
            Column::Categorical { codes, .. } => {
                let (mut zones, old_packed) = match reuse {
                    Some((ColumnZones::Cat { zones, packed }, keep)) => {
                        (zones[..keep].to_vec(), packed.as_ref())
                    }
                    _ => (Vec::new(), None),
                };
                for (_, seg) in chunk_segments(from_row..rows) {
                    zones.push(CatZone::of(&codes[seg.clone()]));
                }
                let packed = match (old_packed, reuse.is_some()) {
                    // Incremental: re-pack only the tail rows; drops to
                    // None if a new code outgrew the bit width.
                    (Some(p), true) => p.repacked_tail(codes, rows),
                    (None, true) => None,
                    _ => PackedCodes::pack(&codes[..rows]),
                };
                ColumnZones::Cat { zones, packed }
            }
        }
    }

    /// Rows covered by these zone maps.
    pub fn rows_covered(&self) -> usize {
        self.rows
    }

    /// Number of chunks covered.
    pub fn num_chunks(&self) -> usize {
        self.rows.div_ceil(CHUNK_ROWS)
    }

    /// Zone entries for column `col`.
    pub fn column(&self, col: usize) -> &ColumnZones {
        &self.cols[col]
    }

    /// Numeric zone of `(col, chunk)`, if the column is numeric and the
    /// chunk is covered.
    pub fn num_zone(&self, col: usize, chunk: usize) -> Option<NumZone> {
        match &self.cols[col] {
            ColumnZones::Num(z) => z.get(chunk).copied(),
            ColumnZones::Cat { .. } => None,
        }
    }

    /// Categorical zone of `(col, chunk)`, if covered.
    pub fn cat_zone(&self, col: usize, chunk: usize) -> Option<CatZone> {
        match &self.cols[col] {
            ColumnZones::Cat { zones, .. } => zones.get(chunk).copied(),
            ColumnZones::Num(_) => None,
        }
    }

    /// The bit-packed code mirror for categorical column `col`, when
    /// its dictionary is narrow enough.
    pub fn packed_codes(&self, col: usize) -> Option<&PackedCodes> {
        match &self.cols[col] {
            ColumnZones::Cat { packed, .. } => packed.as_ref(),
            ColumnZones::Num(_) => None,
        }
    }
}

/// Dictionary codes stored at 1, 2, 4, or 8 bits each.
///
/// Decodes to exactly the `u32` codes it was packed from; used as a
/// bandwidth-reducing mirror for low-cardinality group-by columns.
/// [`PackedCodes::get`] decodes one row; [`PackedCodes::map_range`]
/// decodes a row range a whole `u64` word at a time and maps it through
/// a lookup table, and is what the chunked scan's group resolution runs.
#[derive(Debug, Clone)]
pub struct PackedCodes {
    bits: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedCodes {
    const MAX_BITS: u32 = 8;

    fn width_for(max_code: u32) -> Option<u32> {
        let needed = (32 - max_code.leading_zeros()).max(1);
        let width = needed.next_power_of_two();
        (width <= Self::MAX_BITS).then_some(width)
    }

    /// Packs `codes`, or `None` when any code needs more than 8 bits
    /// (wide dictionaries aren't worth packing).
    pub fn pack(codes: &[u32]) -> Option<Self> {
        let max = codes.iter().copied().max().unwrap_or(0);
        let bits = Self::width_for(max)?;
        let per_word = (64 / bits) as usize;
        let mut p = PackedCodes {
            bits,
            len: 0,
            words: Vec::with_capacity(codes.len().div_ceil(per_word)),
        };
        p.push_all(codes);
        Some(p)
    }

    fn push_all(&mut self, codes: &[u32]) {
        let per_word = (64 / self.bits) as usize;
        for &c in codes {
            let slot = self.len % per_word;
            if slot == 0 {
                self.words.push(0);
            }
            let w = self.words.last_mut().expect("pushed above");
            *w |= u64::from(c) << (slot as u32 * self.bits);
            self.len += 1;
        }
    }

    /// Returns a copy of `self` extended with `codes[self.len..rows]`,
    /// or `None` if any new code exceeds the current bit width.
    pub fn repacked_tail(&self, codes: &[u32], rows: usize) -> Option<Self> {
        let tail = &codes[self.len..rows];
        let limit = if self.bits == 64 {
            u32::MAX
        } else {
            ((1u64 << self.bits) - 1) as u32
        };
        if tail.iter().any(|&c| c > limit) {
            return None;
        }
        let mut next = self.clone();
        next.push_all(tail);
        Some(next)
    }

    /// Bits per code (1, 2, 4, or 8).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of codes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Code at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        let per_word = (64 / self.bits) as usize;
        let w = self.words[i / per_word];
        let shift = (i % per_word) as u32 * self.bits;
        ((w >> shift) & ((1u64 << self.bits) - 1)) as u32
    }

    /// Decodes the codes at `range` and writes `lut[code]` for each into
    /// `out` (cleared first), or `missing` for a code at or past
    /// `lut.len()` — per row exactly `lut.get(self.get(i))`, falling back
    /// to `missing`. The chunked scan resolves group indices with it.
    ///
    /// Whole words decode one `u64` at a time, the width a const
    /// generic, through `lut` padded with `missing` to every code the
    /// width can hold, so no row pays a division, a bounds check or a
    /// branch; the rows before the first word boundary in `range` and
    /// after the last go through [`PackedCodes::get`].
    pub fn map_range(&self, range: Range<usize>, lut: &[u32], missing: u32, out: &mut Vec<u32>) {
        match self.bits {
            1 => self.map_words::<1>(range, lut, missing, out),
            2 => self.map_words::<2>(range, lut, missing, out),
            4 => self.map_words::<4>(range, lut, missing, out),
            _ => self.map_words::<8>(range, lut, missing, out),
        }
    }

    fn map_words<const BITS: u32>(
        &self,
        range: Range<usize>,
        lut: &[u32],
        missing: u32,
        out: &mut Vec<u32>,
    ) {
        debug_assert!(BITS == self.bits && range.end <= self.len);
        // 256 entries cover every code of the widest width; a masked
        // code indexes it without a bounds check.
        let mut padded = [missing; 1 << Self::MAX_BITS];
        let n = lut.len().min(1 << BITS);
        padded[..n].copy_from_slice(&lut[..n]);
        let code_mask = (1u64 << BITS) - 1;
        let per_word = (64 / BITS) as usize;
        let first = range.start.next_multiple_of(per_word).min(range.end);
        let last = first.max(range.end / per_word * per_word);

        out.clear();
        out.resize(range.len(), missing);
        let (head, rest) = out.split_at_mut(first - range.start);
        let (body, tail) = rest.split_at_mut(last - first);
        for (o, i) in head.iter_mut().zip(range.start..first) {
            *o = padded[self.get(i) as usize];
        }
        let words = &self.words[first / per_word..last / per_word];
        for (o, &w) in body.chunks_exact_mut(per_word).zip(words) {
            for (slot, o) in o.iter_mut().enumerate() {
                *o = padded[((w >> (slot as u32 * BITS)) & code_mask) as usize];
            }
        }
        for (o, i) in tail.iter_mut().zip(last..range.end) {
            *o = padded[self.get(i) as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_segments_split_at_boundaries() {
        let segs: Vec<_> = chunk_segments(1000..3000).collect();
        assert_eq!(
            segs,
            vec![(0, 1000..1024), (1, 1024..2048), (2, 2048..3000)]
        );
        assert_eq!(chunk_segments(0..0).count(), 0);
        let inner: Vec<_> = chunk_segments(100..200).collect();
        assert_eq!(inner, vec![(0, 100..200)]);
    }

    #[test]
    fn selection_mask_invariants() {
        let mut m = SelectionMask::new();
        m.reset_ones(70);
        assert_eq!(m.len(), 70);
        assert!(m.all_ones());
        assert_eq!(m.count_ones(), 70);
        assert!(m.any());
        // Tail bits beyond len stay zero.
        assert_eq!(m.words()[1], (1u64 << 6) - 1);

        m.words_mut()[0] &= !(1u64 << 3);
        assert!(!m.all_ones());
        assert_eq!(m.count_ones(), 69);
        assert!(!m.get(3));
        assert!(m.get(4));

        let mut seen = Vec::new();
        m.for_each_set(|i| seen.push(i));
        assert_eq!(seen.len(), 69);
        assert!(!seen.contains(&3));
        assert!(seen.windows(2).all(|w| w[0] < w[1]));

        m.reset_zeros(10);
        assert!(!m.any());
        assert!(!m.all_ones());
        assert_eq!(m.count_ones(), 0);

        m.reset_ones(64);
        assert!(m.all_ones());
        assert_eq!(m.words()[0], !0u64);
    }

    #[test]
    fn num_zone_tracks_nan() {
        let z = NumZone::of(&[3.0, f64::NAN, -1.0]);
        assert_eq!(z.min, -1.0);
        assert_eq!(z.max, 3.0);
        assert!(z.has_nan);
        let all_nan = NumZone::of(&[f64::NAN]);
        assert_eq!(all_nan.min, f64::INFINITY);
        assert_eq!(all_nan.max, f64::NEG_INFINITY);
    }

    #[test]
    fn packed_codes_roundtrip_and_extend() {
        for max in [0u32, 1, 3, 9, 200] {
            let codes: Vec<u32> = (0..2500).map(|i| (i * 7) as u32 % (max + 1)).collect();
            let p = PackedCodes::pack(&codes).expect("fits in 8 bits");
            assert!(p.bits() <= PackedCodes::MAX_BITS);
            assert_eq!(p.len(), codes.len());
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(p.get(i), c, "code {i} under max {max}");
            }
            let identity: Vec<u32> = (0..=max).collect();
            let mut out = Vec::new();
            p.map_range(100..300, &identity, u32::MAX, &mut out);
            assert_eq!(out, &codes[100..300]);
        }
        // Wide dictionaries refuse to pack.
        assert!(PackedCodes::pack(&[0, 300]).is_none());
        // Tail extension keeps codes, rejects overflow.
        let base: Vec<u32> = vec![1, 2, 3];
        let p = PackedCodes::pack(&base).unwrap();
        let grown = [1u32, 2, 3, 0, 3, 2];
        let p2 = p.repacked_tail(&grown, 6).unwrap();
        for (i, &c) in grown.iter().enumerate() {
            assert_eq!(p2.get(i), c);
        }
        assert!(p.repacked_tail(&[1, 2, 3, 99], 4).is_none());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `map_range` is per-row `get` through the LUT, with `missing`
        /// past its end: at every width, over ranges that start and end
        /// off word boundaries, with LUTs shorter and longer than the
        /// width's code space.
        #[test]
        fn map_range_is_get_through_the_lut(
            width in prop::sample::select(vec![1u32, 2, 4, 8]),
            raw in prop::collection::vec(any::<u32>(), 1..700),
            ends in (any::<usize>(), any::<usize>()),
            lut in prop::collection::vec(any::<u32>(), 259..=259),
            lut_len in any::<usize>(),
        ) {
            let max = (1u32 << width) - 1;
            let mut codes: Vec<u32> = raw.iter().map(|c| c & max).collect();
            codes[0] = max;
            let p = PackedCodes::pack(&codes).expect("at most 8 bits");
            prop_assert_eq!(p.bits(), width);
            // 0 ..= 2^width + 2 entries: short, exact and long LUTs.
            let lut = &lut[..lut_len % ((1 << width) + 3)];
            let (a, b) = (ends.0 % (codes.len() + 1), ends.1 % (codes.len() + 1));
            let range = a.min(b)..a.max(b);
            let mut out = vec![7; 3];
            p.map_range(range.clone(), lut, u32::MAX, &mut out);
            let want: Vec<u32> = range
                .map(|i| lut.get(p.get(i) as usize).copied().unwrap_or(u32::MAX))
                .collect();
            prop_assert_eq!(out, want);
        }
    }

    #[test]
    fn zone_maps_build_and_extend_match_scratch() {
        let n = 2600usize;
        let mut vals: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        vals[1500] = f64::NAN;
        let codes: Vec<u32> = (0..n).map(|i| (i % 12) as u32).collect();
        let labels: Vec<String> = (0..12).map(|i| format!("l{i}")).collect();
        let cols = vec![
            Column::Numeric(vals.clone()),
            Column::from_categorical(codes.clone(), labels),
        ];

        // Build over a prefix, then extend to the full table; must match
        // a from-scratch build exactly.
        let prefix = 1100; // mid-chunk: forces last-chunk recompute
        let zm0 = ZoneMaps::build(&cols, prefix);
        assert_eq!(zm0.rows_covered(), prefix);
        assert_eq!(zm0.num_chunks(), 2);
        let zm = zm0.extended(&cols, n);
        let fresh = ZoneMaps::build(&cols, n);
        assert_eq!(zm.rows_covered(), n);
        assert_eq!(zm.num_chunks(), fresh.num_chunks());
        for chunk in 0..zm.num_chunks() {
            let (a, b) = (
                zm.num_zone(0, chunk).unwrap(),
                fresh.num_zone(0, chunk).unwrap(),
            );
            assert_eq!(a.min.to_bits(), b.min.to_bits());
            assert_eq!(a.max.to_bits(), b.max.to_bits());
            assert_eq!(a.has_nan, b.has_nan);
            let (c, d) = (
                zm.cat_zone(1, chunk).unwrap(),
                fresh.cat_zone(1, chunk).unwrap(),
            );
            assert_eq!((c.min_code, c.max_code), (d.min_code, d.max_code));
        }
        assert!(zm.num_zone(0, 1).unwrap().has_nan);
        let p = zm.packed_codes(1).expect("12 codes fit in 4 bits");
        assert_eq!(p.bits(), 4);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(p.get(i), c);
        }
        // Numeric columns have no packed mirror or cat zones.
        assert!(zm.packed_codes(0).is_none());
        assert!(zm.cat_zone(0, 0).is_none());
        assert!(zm.num_zone(1, 0).is_none());
    }
}
