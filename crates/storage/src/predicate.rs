//! Conjunctive selection predicates.
//!
//! Verdict's supported `where` clauses (paper §2.2) are conjunctions of
//! equality/inequality comparisons over dimension attributes, including the
//! `in` operator; disjunctions and textual `LIKE` filters are unsupported.
//! [`Predicate`] mirrors exactly that class: a conjunction of numeric range
//! constraints and categorical membership constraints.
//!
//! Compiled form: [`Predicate::compile`] binds the normal form to a table's
//! raw column slices. Chunked scans then call
//! [`CompiledPredicate::fill_mask`], which evaluates each conjunct as a
//! branch-free tight loop over a chunk segment (AVX2 where the host has
//! it, with the scalar loop as fallback and oracle), ANDing 64-row words
//! into a [`SelectionMask`]; [`CompiledPredicate::classify_chunk`] consults
//! per-chunk zone maps first so chunks that cannot match are skipped
//! without touching their data. Both are *exact*: the mask selects
//! precisely the rows per-row evaluation (`CompiledPredicate::matches`,
//! the tests' oracle) would.

use std::collections::BTreeMap;

use crate::chunk::{SelectionMask, ZoneMaps};
use crate::partition::{ColumnSummary, PartitionInfo};
use crate::{Result, StorageError, Table};

/// A numeric interval constraint with per-bound inclusivity.
#[derive(Debug, Clone, PartialEq)]
pub struct NumRange {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
    /// Whether `lo` itself satisfies the constraint.
    pub lo_inclusive: bool,
    /// Whether `hi` itself satisfies the constraint.
    pub hi_inclusive: bool,
}

impl NumRange {
    /// Closed interval `[lo, hi]`.
    pub fn closed(lo: f64, hi: f64) -> Self {
        NumRange {
            lo,
            hi,
            lo_inclusive: true,
            hi_inclusive: true,
        }
    }

    /// Tests a value against the interval.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        let lo_ok = if self.lo_inclusive {
            x >= self.lo
        } else {
            x > self.lo
        };
        let hi_ok = if self.hi_inclusive {
            x <= self.hi
        } else {
            x < self.hi
        };
        lo_ok && hi_ok
    }

    /// Intersects two intervals (tightest bounds win). A NaN bound admits
    /// no value, so it always wins: the intersection stays empty, as
    /// [`NumRange::contains`] of the conjunction is.
    pub(crate) fn intersect(&self, other: &NumRange) -> NumRange {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let (lo, lo_inclusive) = match self.lo.partial_cmp(&other.lo) {
            Some(Greater) => (self.lo, self.lo_inclusive),
            Some(Less) => (other.lo, other.lo_inclusive),
            Some(Equal) => (self.lo, self.lo_inclusive && other.lo_inclusive),
            None if self.lo.is_nan() => (self.lo, self.lo_inclusive),
            None => (other.lo, other.lo_inclusive),
        };
        let (hi, hi_inclusive) = match self.hi.partial_cmp(&other.hi) {
            Some(Less) => (self.hi, self.hi_inclusive),
            Some(Greater) => (other.hi, other.hi_inclusive),
            Some(Equal) => (self.hi, self.hi_inclusive && other.hi_inclusive),
            None if self.hi.is_nan() => (self.hi, self.hi_inclusive),
            None => (other.hi, other.hi_inclusive),
        };
        NumRange {
            lo,
            hi,
            lo_inclusive,
            hi_inclusive,
        }
    }

    /// Whether no value can satisfy the interval.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && !(self.lo_inclusive && self.hi_inclusive))
    }
}

/// A conjunctive predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
    /// `lo (<|<=) column (<|<=) hi` over a numeric dimension.
    NumRange {
        /// Column name.
        col: String,
        /// Interval constraint.
        range: NumRange,
    },
    /// `column IN (codes)` over a categorical dimension (equality is a
    /// single-element set).
    CatIn {
        /// Column name.
        col: String,
        /// Allowed dictionary codes (sorted, deduplicated on construction).
        codes: Vec<u32>,
    },
}

impl Predicate {
    /// `col BETWEEN lo AND hi` (closed interval).
    pub fn between(col: &str, lo: f64, hi: f64) -> Predicate {
        Predicate::NumRange {
            col: col.to_owned(),
            range: NumRange::closed(lo, hi),
        }
    }

    /// `col > bound` (exclusive) or `col >= bound` (inclusive).
    pub fn greater_than(col: &str, bound: f64, inclusive: bool) -> Predicate {
        Predicate::NumRange {
            col: col.to_owned(),
            range: NumRange {
                lo: bound,
                hi: f64::INFINITY,
                lo_inclusive: inclusive,
                hi_inclusive: true,
            },
        }
    }

    /// `col < bound` (exclusive) or `col <= bound` (inclusive).
    pub fn less_than(col: &str, bound: f64, inclusive: bool) -> Predicate {
        Predicate::NumRange {
            col: col.to_owned(),
            range: NumRange {
                lo: f64::NEG_INFINITY,
                hi: bound,
                lo_inclusive: true,
                hi_inclusive: inclusive,
            },
        }
    }

    /// `col = code` for a categorical dimension.
    pub fn cat_eq(col: &str, code: u32) -> Predicate {
        Predicate::CatIn {
            col: col.to_owned(),
            codes: vec![code],
        }
    }

    /// `col IN (codes)` for a categorical dimension.
    pub fn cat_in(col: &str, mut codes: Vec<u32>) -> Predicate {
        codes.sort_unstable();
        codes.dedup();
        Predicate::CatIn {
            col: col.to_owned(),
            codes,
        }
    }

    /// Conjunction of `self` and `other`.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut b)) => {
                b.insert(0, p);
                Predicate::And(b)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Evaluates the predicate at one row.
    pub fn eval_row(&self, table: &Table, row: usize) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval_row(table, row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::NumRange { col, range } => {
                let x = table.column(col)?.numeric()?[row];
                range.contains(x)
            }
            Predicate::CatIn { col, codes } => {
                let c = table.column(col)?.categorical()?[row];
                codes.binary_search(&c).is_ok()
            }
        })
    }

    /// Returns the indices of matching rows.
    pub fn selected_rows(&self, table: &Table) -> Result<Vec<usize>> {
        let nf = self.normal_form()?;
        let mut out = Vec::new();
        'rows: for row in 0..table.num_rows() {
            for (col, constraint) in &nf {
                match constraint {
                    ColumnConstraint::Range(r) => {
                        let x = table.column(col)?.numeric()?[row];
                        if !r.contains(x) {
                            continue 'rows;
                        }
                    }
                    ColumnConstraint::In(codes) => {
                        let c = table.column(col)?.categorical()?[row];
                        if codes.binary_search(&c).is_err() {
                            continue 'rows;
                        }
                    }
                }
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Flattens the conjunction into one constraint per column: numeric
    /// ranges are intersected and categorical IN-sets intersected. This is
    /// the form Verdict's predicate regions (and hence kernel integration)
    /// consume.
    pub fn normal_form(&self) -> Result<BTreeMap<String, ColumnConstraint>> {
        let mut out = BTreeMap::new();
        self.fold_into(&mut out)?;
        Ok(out)
    }

    fn fold_into(&self, out: &mut BTreeMap<String, ColumnConstraint>) -> Result<()> {
        match self {
            Predicate::True => Ok(()),
            Predicate::And(ps) => {
                for p in ps {
                    p.fold_into(out)?;
                }
                Ok(())
            }
            Predicate::NumRange { col, range } => {
                match out.entry(col.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(ColumnConstraint::Range(range.clone()));
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => match e.get_mut() {
                        ColumnConstraint::Range(r) => *r = r.intersect(range),
                        ColumnConstraint::In(_) => {
                            return Err(StorageError::TypeError(format!(
                                "column {col} constrained both as numeric and categorical"
                            )))
                        }
                    },
                }
                Ok(())
            }
            Predicate::CatIn { col, codes } => {
                match out.entry(col.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(ColumnConstraint::In(codes.clone()));
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => match e.get_mut() {
                        ColumnConstraint::In(existing) => {
                            existing.retain(|c| codes.binary_search(c).is_ok());
                        }
                        ColumnConstraint::Range(_) => {
                            return Err(StorageError::TypeError(format!(
                                "column {col} constrained both as numeric and categorical"
                            )))
                        }
                    },
                }
                Ok(())
            }
        }
    }
}

/// Per-column constraint in normal form.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnConstraint {
    /// Intersected numeric interval.
    Range(NumRange),
    /// Intersected categorical code set (sorted).
    In(Vec<u32>),
}

impl Predicate {
    /// Binds the predicate's normal form to a table's column storage for
    /// vectorized batch evaluation: per-column constraints hold direct
    /// `&[f64]` / `&[u32]` slices, so selection runs column-at-a-time over
    /// a row range with no name lookups and no whole-table
    /// [`Predicate::selected_rows`] pre-pass.
    pub fn compile<'t>(&self, table: &'t Table) -> Result<CompiledPredicate<'t>> {
        let mut constraints = Vec::new();
        for (col, constraint) in self.normal_form()? {
            let col_index = table.schema().index_of(&col)?;
            match constraint {
                ColumnConstraint::Range(range) => {
                    let data = table.column_at(col_index).numeric()?;
                    constraints.push(CompiledConstraint::Range {
                        col_index,
                        data,
                        range,
                    });
                }
                ColumnConstraint::In(codes) => {
                    let data = table.column_at(col_index).categorical()?;
                    let bitset = CodeBitset::build(&codes);
                    constraints.push(CompiledConstraint::In {
                        col_index,
                        data,
                        codes,
                        bitset,
                    });
                }
            }
        }
        Ok(CompiledPredicate { constraints })
    }
}

/// A dense membership bitset over allowed dictionary codes, used by the
/// mask kernels to turn IN-set membership into one shift-and-AND per row.
/// Only built for narrow code spaces; wide IN-sets fall back to binary
/// search (identical semantics either way).
struct CodeBitset {
    words: Vec<u64>,
}

impl CodeBitset {
    /// Largest code worth a dense bitset: 4096 codes = 64 words = 512 B.
    const MAX_CODE: u32 = 4095;

    fn build(codes: &[u32]) -> Option<CodeBitset> {
        let max = codes.iter().copied().max()?;
        if max > Self::MAX_CODE {
            return None;
        }
        let mut words = vec![0u64; (max as usize >> 6) + 1];
        for &c in codes {
            words[(c >> 6) as usize] |= 1u64 << (c & 63);
        }
        Some(CodeBitset { words })
    }

    /// Membership test; codes beyond the bitset are absent by definition.
    #[inline]
    fn contains(&self, c: u32) -> u64 {
        let wi = (c >> 6) as usize;
        if wi < self.words.len() {
            self.words[wi] >> (c & 63) & 1
        } else {
            0
        }
    }
}

/// One normal-form constraint bound to its column slice.
enum CompiledConstraint<'t> {
    /// Numeric interval over a `f64` column.
    Range {
        /// Schema index of the column (for zone-map lookups).
        col_index: usize,
        /// The column data.
        data: &'t [f64],
        /// The interval.
        range: NumRange,
    },
    /// Membership over a dictionary-coded column (codes sorted).
    In {
        /// Schema index of the column (for zone-map lookups).
        col_index: usize,
        /// The column data (codes).
        data: &'t [u32],
        /// Allowed codes, sorted.
        codes: Vec<u32>,
        /// Dense membership bitset when the code space is narrow.
        bitset: Option<CodeBitset>,
    },
}

/// A predicate bound to one table for vectorized evaluation.
pub struct CompiledPredicate<'t> {
    constraints: Vec<CompiledConstraint<'t>>,
}

/// How a chunk relates to a predicate according to its zone maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkMatch {
    /// No row in the chunk can match: skip it (≡ an all-zero mask).
    NoRows,
    /// Every row in the chunk matches: dense fast path (≡ an all-one
    /// mask).
    AllRows,
    /// The zones cannot decide; run the mask kernels.
    SomeRows,
}

impl CompiledPredicate<'_> {
    /// Evaluates the predicate at one row: the per-row oracle of the mask
    /// kernels.
    #[cfg(test)]
    pub(crate) fn matches(&self, row: usize) -> bool {
        self.constraints.iter().all(|c| match c {
            CompiledConstraint::Range { data, range, .. } => range.contains(data[row]),
            CompiledConstraint::In { data, codes, .. } => match codes.as_slice() {
                [] => false,
                [only] => data[row] == *only,
                many => many.binary_search(&data[row]).is_ok(),
            },
        })
    }

    /// Fills `out` with the selection bitmap for the rows in `range`:
    /// `out` covers `range.len()` bits and bit `i` reports whether row
    /// `range.start + i` matches. Each conjunct runs as a branch-free
    /// tight loop over its contiguous column slice, building one `u64`
    /// per 64 rows and ANDing it into the mask.
    ///
    /// On an x86-64 host with AVX2 (detected at run time) a range
    /// conjunct, and a membership conjunct whose allowed codes are all
    /// below 64 (`= only` included), fill their whole 64-row words with
    /// AVX2: `_mm256_cmp_pd` under the ordered-quiet predicates, or
    /// `_mm256_srlv_epi64` of the one-word code set, then `movemask`.
    /// The ragged last word, every other conjunct, and every conjunct on
    /// other hosts run the scalar loops, which are also the oracle the
    /// AVX2 kernels are tested against bit for bit.
    pub fn fill_mask(&self, range: std::ops::Range<usize>, out: &mut SelectionMask) {
        out.reset_ones(range.len());
        let words = out.words_mut();
        for c in &self.constraints {
            match c {
                CompiledConstraint::Range { data, range: r, .. } => {
                    let seg = &data[range.clone()];
                    match (r.lo_inclusive, r.hi_inclusive) {
                        (true, true) => and_range::<true, true>(words, seg, r.lo, r.hi),
                        (true, false) => and_range::<true, false>(words, seg, r.lo, r.hi),
                        (false, true) => and_range::<false, true>(words, seg, r.lo, r.hi),
                        (false, false) => and_range::<false, false>(words, seg, r.lo, r.hi),
                    }
                }
                CompiledConstraint::In {
                    data,
                    codes,
                    bitset,
                    ..
                } => {
                    let seg = &data[range.clone()];
                    match (codes.as_slice(), bitset) {
                        ([], _) => words.fill(0),
                        (_, Some(bits)) if bits.words.len() == 1 => and_in_word(words, seg, bits),
                        ([only], _) => and_eq(words, seg, *only),
                        (_, Some(bits)) => and_in_bitset(words, seg, bits),
                        (many, None) => and_in_search(words, seg, many),
                    }
                }
            }
        }
    }

    /// Classifies chunk `chunk` against the predicate using zone maps
    /// only — no row data is touched. Conservative and sound: `NoRows`
    /// is returned only when provably no row matches, `AllRows` only
    /// when provably every row matches; anything uncertain is
    /// `SomeRows`.
    pub fn classify_chunk(&self, zones: &ZoneMaps, chunk: usize) -> ChunkMatch {
        let mut all = true;
        for c in &self.constraints {
            match c {
                CompiledConstraint::Range {
                    col_index,
                    range: r,
                    ..
                } => {
                    let Some(z) = zones.num_zone(*col_index, chunk) else {
                        return ChunkMatch::SomeRows;
                    };
                    // Disjoint: the whole zone sits below lo or above hi.
                    // An all-NaN chunk has min=+inf/max=-inf and lands
                    // here whenever the range is bounded — sound, since
                    // NaN never matches a range.
                    let below = if r.lo_inclusive {
                        z.max < r.lo
                    } else {
                        z.max <= r.lo
                    };
                    let above = if r.hi_inclusive {
                        z.min > r.hi
                    } else {
                        z.min >= r.hi
                    };
                    if below || above {
                        return ChunkMatch::NoRows;
                    }
                    // Containment: both zone endpoints inside the
                    // interval covers everything between; NaNs break it.
                    if z.has_nan || !r.contains(z.min) || !r.contains(z.max) {
                        all = false;
                    }
                }
                CompiledConstraint::In {
                    col_index, codes, ..
                } => {
                    if codes.is_empty() {
                        return ChunkMatch::NoRows;
                    }
                    let Some(z) = zones.cat_zone(*col_index, chunk) else {
                        return ChunkMatch::SomeRows;
                    };
                    // First allowed code at or above the zone minimum.
                    let lo = codes.partition_point(|&c| c < z.min_code);
                    if lo >= codes.len() || codes[lo] > z.max_code {
                        return ChunkMatch::NoRows;
                    }
                    // Full coverage: `codes` is sorted and unique, so
                    // hitting both zone endpoints exactly `span` apart
                    // means every code in [min, max] is allowed.
                    let span = (z.max_code - z.min_code) as usize;
                    let covered = codes[lo] == z.min_code
                        && lo + span < codes.len()
                        && codes[lo + span] == z.max_code;
                    if !covered {
                        all = false;
                    }
                }
            }
        }
        if all {
            ChunkMatch::AllRows
        } else {
            ChunkMatch::SomeRows
        }
    }

    /// Classifies a whole partition against the predicate using its
    /// partition-level summaries — [`classify_chunk`] lifted one level,
    /// with the same soundness contract. A `NoRows` partition can be
    /// skipped without touching any of its chunks; an `AllRows` one is
    /// provably dense. The summaries must come from a table sharing this
    /// predicate's schema and dictionary code space.
    ///
    /// [`classify_chunk`]: CompiledPredicate::classify_chunk
    pub fn classify_partition(&self, part: &PartitionInfo) -> ChunkMatch {
        if part.rows() == 0 {
            return ChunkMatch::NoRows;
        }
        let mut all = true;
        for c in &self.constraints {
            match c {
                CompiledConstraint::Range {
                    col_index,
                    range: r,
                    ..
                } => {
                    let Some(ColumnSummary::Num { min, max, has_nan }) = part.summary(*col_index)
                    else {
                        // Missing or type-mismatched summary: undecidable.
                        all = false;
                        continue;
                    };
                    // Same disjointness test as the chunk zones; an
                    // all-NaN partition (min=+inf/max=-inf) lands here
                    // for any bounded range.
                    let below = if r.lo_inclusive {
                        *max < r.lo
                    } else {
                        *max <= r.lo
                    };
                    let above = if r.hi_inclusive {
                        *min > r.hi
                    } else {
                        *min >= r.hi
                    };
                    if below || above {
                        return ChunkMatch::NoRows;
                    }
                    if *has_nan || !r.contains(*min) || !r.contains(*max) {
                        all = false;
                    }
                }
                CompiledConstraint::In {
                    col_index, codes, ..
                } => {
                    if codes.is_empty() {
                        return ChunkMatch::NoRows;
                    }
                    let Some(ColumnSummary::Cat { codes: present }) = part.summary(*col_index)
                    else {
                        all = false;
                        continue;
                    };
                    // Unlike chunk zones, the summary holds the exact
                    // code *set*, so membership is decided per code.
                    let mut any = false;
                    let mut covered = true;
                    for p in present {
                        if codes.binary_search(p).is_ok() {
                            any = true;
                        } else {
                            covered = false;
                        }
                    }
                    if !any {
                        return ChunkMatch::NoRows;
                    }
                    if !covered {
                        all = false;
                    }
                }
            }
        }
        if all {
            ChunkMatch::AllRows
        } else {
            ChunkMatch::SomeRows
        }
    }
}

/// ANDs `lo (<|<=) x (<|<=) hi` over `data` into `words`, 64 rows per
/// word: the whole words through [`avx2::and_range`] when the host has
/// AVX2, the ragged tail — and everything on other hosts — through
/// [`and_range_scalar`], whose bits the AVX2 kernel reproduces.
fn and_range<const LO_INC: bool, const HI_INC: bool>(
    words: &mut [u64],
    data: &[f64],
    lo: f64,
    hi: f64,
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        let (head, tail) = words.split_at_mut(data.len() / 64);
        let (whole, rest) = data.split_at(head.len() * 64);
        // SAFETY: the host supports AVX2, checked just above.
        unsafe { avx2::and_range::<LO_INC, HI_INC>(head, whole, lo, hi) };
        return and_range_scalar::<LO_INC, HI_INC>(tail, rest, lo, hi);
    }
    and_range_scalar::<LO_INC, HI_INC>(words, data, lo, hi);
}

/// The scalar range kernel: the fallback on hosts without AVX2, the
/// ragged-tail path, and the oracle the AVX2 kernel is tested against.
/// Comparisons become integer bit ops — no per-row branches.
fn and_range_scalar<const LO_INC: bool, const HI_INC: bool>(
    words: &mut [u64],
    data: &[f64],
    lo: f64,
    hi: f64,
) {
    for (wi, w) in words.iter_mut().enumerate() {
        let start = wi * 64;
        let end = (start + 64).min(data.len());
        let mut m = 0u64;
        for (bit, &x) in data[start..end].iter().enumerate() {
            let lo_ok = if LO_INC { x >= lo } else { x > lo };
            let hi_ok = if HI_INC { x <= hi } else { x < hi };
            m |= u64::from(lo_ok & hi_ok) << bit;
        }
        *w &= m;
    }
}

/// ANDs membership in a one-word `bits` (every allowed code below 64,
/// `= only` included) over `data` into `words`: the whole words through
/// [`avx2::and_in_word`] when the host has AVX2, the rest through the
/// scalar [`and_in_bitset`].
fn and_in_word(words: &mut [u64], data: &[u32], bits: &CodeBitset) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        let (head, tail) = words.split_at_mut(data.len() / 64);
        let (whole, rest) = data.split_at(head.len() * 64);
        // SAFETY: the host supports AVX2, checked just above.
        unsafe { avx2::and_in_word(head, whole, bits.words[0]) };
        return and_in_bitset(tail, rest, bits);
    }
    and_in_bitset(words, data, bits);
}

/// ANDs `code == only` over `data` into `words`.
fn and_eq(words: &mut [u64], data: &[u32], only: u32) {
    for (wi, w) in words.iter_mut().enumerate() {
        let start = wi * 64;
        let end = (start + 64).min(data.len());
        let mut m = 0u64;
        for (bit, &c) in data[start..end].iter().enumerate() {
            m |= u64::from(c == only) << bit;
        }
        *w &= m;
    }
}

/// ANDs dense-bitset membership over `data` into `words`.
fn and_in_bitset(words: &mut [u64], data: &[u32], bits: &CodeBitset) {
    for (wi, w) in words.iter_mut().enumerate() {
        let start = wi * 64;
        let end = (start + 64).min(data.len());
        let mut m = 0u64;
        for (bit, &c) in data[start..end].iter().enumerate() {
            m |= bits.contains(c) << bit;
        }
        *w &= m;
    }
}

/// Binary-search membership fallback for wide IN-sets.
fn and_in_search(words: &mut [u64], data: &[u32], codes: &[u32]) {
    for (wi, w) in words.iter_mut().enumerate() {
        let start = wi * 64;
        let end = (start + 64).min(data.len());
        let mut m = 0u64;
        for (bit, &c) in data[start..end].iter().enumerate() {
            m |= u64::from(codes.binary_search(&c).is_ok()) << bit;
        }
        *w &= m;
    }
}

/// The AVX2 mask kernels. Each takes whole 64-row words only (its
/// `data` is `64 × words.len()` rows; a shorter `data` leaves the
/// uncovered words untouched) and ANDs into every word exactly the bits
/// its scalar twin would.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// [`super::and_range_scalar`], four rows per compare. The
    /// ordered-quiet predicates are false on NaN, like `<`/`<=` on
    /// `f64`, and treat `-0.0` and `0.0` as equal, like them too.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_range<const LO_INC: bool, const HI_INC: bool>(
        words: &mut [u64],
        data: &[f64],
        lo: f64,
        hi: f64,
    ) {
        let (lo, hi) = (_mm256_set1_pd(lo), _mm256_set1_pd(hi));
        for (w, rows) in words.iter_mut().zip(data.chunks_exact(64)) {
            let mut m = 0u64;
            for (k, quad) in rows.chunks_exact(4).enumerate() {
                // SAFETY: `quad` holds four `f64`s and the load is
                // unaligned.
                let x = unsafe { _mm256_loadu_pd(quad.as_ptr()) };
                let lo_ok = if LO_INC {
                    _mm256_cmp_pd::<_CMP_GE_OQ>(x, lo)
                } else {
                    _mm256_cmp_pd::<_CMP_GT_OQ>(x, lo)
                };
                let hi_ok = if HI_INC {
                    _mm256_cmp_pd::<_CMP_LE_OQ>(x, hi)
                } else {
                    _mm256_cmp_pd::<_CMP_LT_OQ>(x, hi)
                };
                let hits = _mm256_movemask_pd(_mm256_and_pd(lo_ok, hi_ok)) as u64;
                m |= hits << (4 * k);
            }
            *w &= m;
        }
    }

    /// [`super::and_in_bitset`] over a one-word set, four rows per
    /// shift: row `c` keeps bit `c` of `set` shifted down to bit 0. A
    /// shift count of 64 or more yields 0, so a code past the word is
    /// absent, as past a [`super::CodeBitset`]'s end.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_in_word(words: &mut [u64], data: &[u32], set: u64) {
        let set = _mm256_set1_epi64x(set as i64);
        for (w, rows) in words.iter_mut().zip(data.chunks_exact(64)) {
            let mut m = 0u64;
            for (k, quad) in rows.chunks_exact(4).enumerate() {
                // SAFETY: `quad` holds four `u32`s (16 bytes) and the
                // load is unaligned.
                let codes = unsafe { _mm_loadu_si128(quad.as_ptr().cast()) };
                let shifted = _mm256_srlv_epi64(set, _mm256_cvtepu32_epi64(codes));
                // Bit 0 of each lane to its sign bit, which movemask reads.
                let hit = _mm256_slli_epi64::<63>(shifted);
                let hits = _mm256_movemask_pd(_mm256_castsi256_pd(hit)) as u64;
                m |= hits << (4 * k);
            }
            *w &= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, ColumnDef, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (w, r, v) in [
            (1.0, "us", 10.0),
            (2.0, "eu", 20.0),
            (3.0, "us", 30.0),
            (4.0, "jp", 40.0),
            (5.0, "eu", 50.0),
        ] {
            t.push_row(vec![w.into(), r.into(), v.into()]).unwrap();
        }
        t
    }

    #[test]
    fn true_matches_all() {
        let t = table();
        assert_eq!(Predicate::True.selected_rows(&t).unwrap().len(), 5);
    }

    #[test]
    fn range_filters_rows() {
        let t = table();
        let p = Predicate::between("week", 2.0, 4.0);
        assert_eq!(p.selected_rows(&t).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn exclusive_bounds_respected() {
        let t = table();
        let p = Predicate::greater_than("week", 2.0, false);
        assert_eq!(p.selected_rows(&t).unwrap(), vec![2, 3, 4]);
        let p = Predicate::greater_than("week", 2.0, true);
        assert_eq!(p.selected_rows(&t).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cat_in_filters_rows() {
        let t = table();
        let us = t.column("region").unwrap().code_of("us").unwrap();
        let eu = t.column("region").unwrap().code_of("eu").unwrap();
        let p = Predicate::cat_in("region", vec![us, eu]);
        assert_eq!(p.selected_rows(&t).unwrap(), vec![0, 1, 2, 4]);
    }

    #[test]
    fn conjunction_intersects() {
        let t = table();
        let us = t.column("region").unwrap().code_of("us").unwrap();
        let p = Predicate::between("week", 2.0, 5.0).and(Predicate::cat_eq("region", us));
        assert_eq!(p.selected_rows(&t).unwrap(), vec![2]);
    }

    #[test]
    fn and_with_true_simplifies() {
        let p = Predicate::True.and(Predicate::between("week", 0.0, 1.0));
        assert!(matches!(p, Predicate::NumRange { .. }));
    }

    #[test]
    fn normal_form_intersects_ranges() {
        let p =
            Predicate::greater_than("week", 2.0, true).and(Predicate::less_than("week", 4.0, true));
        let nf = p.normal_form().unwrap();
        match nf.get("week").unwrap() {
            ColumnConstraint::Range(r) => {
                assert_eq!(r.lo, 2.0);
                assert_eq!(r.hi, 4.0);
            }
            _ => panic!("expected a range"),
        }
    }

    #[test]
    fn a_nan_bound_survives_intersection_in_either_order() {
        let t = table();
        let nan = Predicate::greater_than("week", f64::NAN, true);
        let le = Predicate::less_than("week", 4.0, true);
        for p in [nan.clone().and(le.clone()), le.and(nan)] {
            let slow: Vec<usize> = (0..t.num_rows())
                .filter(|&r| p.eval_row(&t, r).unwrap())
                .collect();
            assert!(slow.is_empty());
            assert_eq!(p.selected_rows(&t).unwrap(), slow);
        }
    }

    #[test]
    fn normal_form_intersects_in_sets() {
        let p = Predicate::cat_in("region", vec![0, 1, 2])
            .and(Predicate::cat_in("region", vec![1, 2, 3]));
        let nf = p.normal_form().unwrap();
        assert_eq!(nf.get("region"), Some(&ColumnConstraint::In(vec![1, 2])));
    }

    #[test]
    fn mixed_constraint_types_error() {
        let p = Predicate::between("x", 0.0, 1.0).and(Predicate::cat_eq("x", 1));
        assert!(p.normal_form().is_err());
    }

    #[test]
    fn empty_intersection_detected() {
        let r = NumRange::closed(0.0, 1.0).intersect(&NumRange::closed(2.0, 3.0));
        assert!(r.is_empty());
        let half_open = NumRange {
            lo: 1.0,
            hi: 1.0,
            lo_inclusive: true,
            hi_inclusive: false,
        };
        assert!(half_open.is_empty());
        assert!(!NumRange::closed(1.0, 1.0).is_empty());
    }

    #[test]
    fn compiled_matches_agree_with_eval_row() {
        let t = table();
        let us = t.column("region").unwrap().code_of("us").unwrap();
        let eu = t.column("region").unwrap().code_of("eu").unwrap();
        let preds = [
            Predicate::True,
            Predicate::between("week", 2.0, 4.0),
            Predicate::cat_in("region", vec![us, eu]),
            Predicate::cat_in("region", vec![]),
            Predicate::between("week", 2.0, 5.0).and(Predicate::cat_eq("region", us)),
        ];
        for p in &preds {
            let c = p.compile(&t).unwrap();
            for row in 0..t.num_rows() {
                assert_eq!(
                    c.matches(row),
                    p.eval_row(&t, row).unwrap(),
                    "{p:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn fill_mask_agrees_with_per_row_matches() {
        let t = table();
        let us = t.column("region").unwrap().code_of("us").unwrap();
        let eu = t.column("region").unwrap().code_of("eu").unwrap();
        let preds = [
            Predicate::True,
            Predicate::between("week", 2.0, 5.0).and(Predicate::cat_eq("region", us)),
            Predicate::cat_in("region", vec![us, eu]),
            Predicate::cat_in("region", vec![]),
            Predicate::greater_than("week", 2.0, false),
        ];
        let mut mask = SelectionMask::new();
        for p in &preds {
            let c = p.compile(&t).unwrap();
            for (start, end) in [(0, 5), (1, 4), (3, 3), (4, 5)] {
                c.fill_mask(start..end, &mut mask);
                assert_eq!(mask.len(), end - start);
                for i in 0..mask.len() {
                    assert_eq!(
                        mask.get(i),
                        c.matches(start + i),
                        "{p:?} range {start}..{end} offset {i}"
                    );
                }
            }
        }
    }

    /// A bigger table exercising whole 64-row mask words, wide IN-set
    /// fallback, and NaN data.
    fn wide_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::categorical_dimension("c"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..300usize {
            let x = if i % 97 == 0 {
                f64::NAN
            } else {
                (i % 50) as f64
            };
            t.push_row(vec![x.into(), format!("k{}", i % 40).as_str().into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn fill_mask_matches_per_row_on_word_boundaries() {
        let t = wide_table();
        let p = Predicate::between("x", 5.0, 30.0)
            .and(Predicate::cat_in("c", (0..20).step_by(3).collect()));
        let c = p.compile(&t).unwrap();
        let mut mask = SelectionMask::new();
        for (start, end) in [(0, 300), (1, 129), (63, 65), (64, 128), (190, 300)] {
            c.fill_mask(start..end, &mut mask);
            for i in 0..mask.len() {
                assert_eq!(
                    mask.get(i),
                    c.matches(start + i),
                    "rows {start}..{end} @ {i}"
                );
            }
        }
    }

    #[test]
    fn code_bitset_and_search_agree() {
        let codes: Vec<u32> = vec![1, 5, 7, 130, 4000];
        let bits = CodeBitset::build(&codes).expect("narrow enough");
        for c in 0..=4100u32 {
            assert_eq!(
                bits.contains(c) == 1,
                codes.binary_search(&c).is_ok(),
                "code {c}"
            );
        }
        // Beyond the cap there is no bitset; the search path serves.
        assert!(CodeBitset::build(&[0, 5000]).is_none());
        assert!(CodeBitset::build(&[]).is_none());
    }

    #[test]
    fn classify_chunk_is_sound_and_prunes() {
        // 3000 rows ordered by x: chunk 0 holds x∈[0,1023], chunk 1
        // x∈[1024,2047], chunk 2 x∈[2048,2999].
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::categorical_dimension("c"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..3000usize {
            t.push_row(vec![
                (i as f64).into(),
                format!("k{}", i / 1500).as_str().into(),
            ])
            .unwrap();
        }
        let zones = t.zone_maps();
        let p = Predicate::between("x", 1100.0, 1200.0);
        let c = p.compile(&t).unwrap();
        assert_eq!(c.classify_chunk(&zones, 0), ChunkMatch::NoRows);
        assert_eq!(c.classify_chunk(&zones, 1), ChunkMatch::SomeRows);
        assert_eq!(c.classify_chunk(&zones, 2), ChunkMatch::NoRows);

        // A range covering a whole chunk classifies AllRows.
        let p = Predicate::between("x", 1024.0, 2047.0);
        let c = p.compile(&t).unwrap();
        assert_eq!(c.classify_chunk(&zones, 1), ChunkMatch::AllRows);
        // Exclusive upper bound at the zone max is not full coverage.
        let p = Predicate::greater_than("x", 1024.0, true)
            .and(Predicate::less_than("x", 2047.0, false));
        let c = p.compile(&t).unwrap();
        assert_eq!(c.classify_chunk(&zones, 1), ChunkMatch::SomeRows);

        // Categorical: chunk 0 is all "k0"; chunk 2 all "k1".
        let k0 = t.column("c").unwrap().code_of("k0").unwrap();
        let k1 = t.column("c").unwrap().code_of("k1").unwrap();
        let c = Predicate::cat_eq("c", k0).compile(&t).unwrap();
        assert_eq!(c.classify_chunk(&zones, 0), ChunkMatch::AllRows);
        assert_eq!(c.classify_chunk(&zones, 2), ChunkMatch::NoRows);
        let c = Predicate::cat_in("c", vec![k0, k1]).compile(&t).unwrap();
        assert_eq!(c.classify_chunk(&zones, 1), ChunkMatch::AllRows);
        let c = Predicate::cat_in("c", vec![]).compile(&t).unwrap();
        assert_eq!(c.classify_chunk(&zones, 0), ChunkMatch::NoRows);

        // Every classification agrees with brute-force row evaluation.
        use crate::chunk::{chunk_segments, CHUNK_ROWS};
        let preds = [
            Predicate::between("x", 1100.0, 1200.0),
            Predicate::between("x", 1024.0, 2047.0),
            Predicate::cat_eq("c", k0),
            Predicate::True,
        ];
        for p in &preds {
            let c = p.compile(&t).unwrap();
            for (chunk, seg) in chunk_segments(0..t.num_rows()) {
                assert_eq!(chunk, seg.start / CHUNK_ROWS);
                let matched = seg.clone().filter(|&r| c.matches(r)).count();
                match c.classify_chunk(&zones, chunk) {
                    ChunkMatch::NoRows => assert_eq!(matched, 0, "{p:?} chunk {chunk}"),
                    ChunkMatch::AllRows => assert_eq!(matched, seg.len(), "{p:?} chunk {chunk}"),
                    ChunkMatch::SomeRows => {}
                }
            }
        }
    }

    /// A kernel-parity table: `pad` filler rows, then the generated
    /// segment (`xs` and `codes` of one length), so a segment never
    /// starts on a 64-row boundary. The dictionary has 40 labels; the
    /// codes past it stay raw.
    fn kernel_table(pad: usize, xs: &[f64], codes: &[u32]) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::categorical_dimension("c"),
        ])
        .unwrap();
        let xs = std::iter::repeat_n(0.5, pad).chain(xs.iter().copied());
        let codes = std::iter::repeat_n(3, pad).chain(codes.iter().copied());
        let labels = (0..40).map(|i| format!("k{i}")).collect();
        Table::from_columns(
            schema,
            vec![
                Column::from_numeric(xs.collect()),
                Column::from_categorical(codes.collect(), labels),
            ],
        )
        .unwrap()
    }

    /// `fill_mask` over `rows` against per-row `matches`, bit for bit.
    fn check_mask(c: &CompiledPredicate, rows: std::ops::Range<usize>) -> TestCaseResult {
        let mut mask = SelectionMask::new();
        c.fill_mask(rows.clone(), &mut mask);
        prop_assert_eq!(mask.len(), rows.len());
        for (i, row) in rows.enumerate() {
            prop_assert!(mask.get(i) == c.matches(row), "row {} of the segment", i);
        }
        Ok(())
    }

    /// The value edges the comparisons must agree on: NaN, ±0.0, ±∞
    /// and the bounds themselves; otherwise `x` on a half-unit grid,
    /// so ties with the bounds are common too.
    fn edge_value(pick: u8, x: f64, lo: f64, hi: f64) -> f64 {
        match pick % 10 {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => lo,
            6 => hi,
            _ => (x * 2.0).round() / 2.0,
        }
    }

    /// A bound: `inf` (a one-sided range), ±0.0, or `x` on the grid.
    fn edge_bound(pick: u8, x: f64, inf: f64) -> f64 {
        match pick % 6 {
            0 => inf,
            1 => 0.0,
            2 => -0.0,
            _ => (x * 2.0).round() / 2.0,
        }
    }

    /// The range kernel `fill_mask` runs and the scalar loop, from the
    /// same starting words.
    fn both_range_kernels<const LO_INC: bool, const HI_INC: bool>(
        init: &[u64],
        seg: &[f64],
        lo: f64,
        hi: f64,
    ) -> (Vec<u64>, Vec<u64>) {
        let (mut fast, mut slow) = (init.to_vec(), init.to_vec());
        and_range::<LO_INC, HI_INC>(&mut fast, seg, lo, hi);
        and_range_scalar::<LO_INC, HI_INC>(&mut slow, seg, lo, hi);
        (fast, slow)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The range kernel `fill_mask` runs (AVX2 where the host has
        /// it) leaves exactly the scalar loop's bits in every word, and
        /// `fill_mask` selects exactly the rows `matches` does, under all
        /// four inclusivity combinations.
        #[test]
        fn range_kernel_matches_scalar_and_rows(
            raw in prop::collection::vec((any::<u8>(), -4.0..4.0f64), 0..=1024),
            pad in 1usize..64,
            bounds in (any::<u8>(), -4.0..4.0f64, any::<u8>(), -4.0..4.0f64),
            seed in any::<u64>(),
        ) {
            let lo = edge_bound(bounds.0, bounds.1, f64::NEG_INFINITY);
            let hi = edge_bound(bounds.2, bounds.3, f64::INFINITY);
            let xs: Vec<f64> = raw.iter().map(|&(p, x)| edge_value(p, x, lo, hi)).collect();
            let t = kernel_table(pad, &xs, &vec![3; xs.len()]);
            for skip in [0, 64 - pad] {
                let seg = &xs[skip.min(xs.len())..];
                // Words start out mixed, so the kernels must AND, not set.
                let init: Vec<u64> = (0..seg.len().div_ceil(64) as u32)
                    .map(|i| seed.rotate_left(i * 7) | !0u64 << 32)
                    .collect();
                for (fast, slow) in [
                    both_range_kernels::<true, true>(&init, seg, lo, hi),
                    both_range_kernels::<true, false>(&init, seg, lo, hi),
                    both_range_kernels::<false, true>(&init, seg, lo, hi),
                    both_range_kernels::<false, false>(&init, seg, lo, hi),
                ] {
                    prop_assert_eq!(fast, slow);
                }
            }
            let inclusivity = [(true, true), (true, false), (false, true), (false, false)];
            for (lo_inclusive, hi_inclusive) in inclusivity {
                let p = Predicate::NumRange {
                    col: "x".into(),
                    range: NumRange { lo, hi, lo_inclusive, hi_inclusive },
                };
                let c = p.compile(&t).unwrap();
                check_mask(&c, pad..pad + xs.len())?;
            }
        }

        /// The one-word membership kernel leaves exactly the bits of the
        /// scalar bitset loop (and, for one code, of the `==` loop), and
        /// `fill_mask` selects exactly the rows `matches` does — over
        /// codes `0..=70`, past the dictionary's 40 labels and across the
        /// 63/64 edge, for empty, single and multi-code sets.
        #[test]
        fn membership_kernels_match_scalar_and_rows(
            codes in prop::collection::vec(0u32..=70, 0..=1024),
            pad in 1usize..64,
            allowed in prop::collection::vec(
                prop::sample::select(vec![0u32, 1, 5, 39, 40, 62, 63, 64, 65, 70]),
                0..4,
            ),
            seed in any::<u64>(),
        ) {
            let t = kernel_table(pad, &vec![0.5; codes.len()], &codes);
            let mut allowed = allowed;
            allowed.sort_unstable();
            allowed.dedup();
            if let Some(bits) = CodeBitset::build(&allowed).filter(|b| b.words.len() == 1) {
                let init: Vec<u64> = (0..codes.len().div_ceil(64) as u32)
                    .map(|i| seed.rotate_left(i * 5) | !0u64 << 32)
                    .collect();
                let (mut fast, mut slow) = (init.clone(), init.clone());
                and_in_word(&mut fast, &codes, &bits);
                and_in_bitset(&mut slow, &codes, &bits);
                prop_assert_eq!(&fast, &slow);
                if let [only] = allowed.as_slice() {
                    let mut eq = init;
                    and_eq(&mut eq, &codes, *only);
                    prop_assert_eq!(&fast, &eq);
                }
            }
            let c = Predicate::cat_in("c", allowed.clone()).compile(&t).unwrap();
            check_mask(&c, pad..pad + codes.len())?;
            if let Some(&only) = allowed.first() {
                let c = Predicate::cat_eq("c", only)
                    .and(Predicate::between("x", 0.0, 1.0))
                    .compile(&t)
                    .unwrap();
                check_mask(&c, pad..pad + codes.len())?;
            }
        }
    }

    #[test]
    fn eval_row_matches_selected_rows() {
        let t = table();
        let p = Predicate::between("week", 2.0, 4.0);
        let selected = p.selected_rows(&t).unwrap();
        for row in 0..t.num_rows() {
            assert_eq!(
                p.eval_row(&t, row).unwrap(),
                selected.contains(&row),
                "row {row}"
            );
        }
    }
}
