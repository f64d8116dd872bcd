//! Shared-scan building blocks: group enumeration and row → group mapping.
//!
//! The shared-scan executor answers every cell of a `GROUP BY` query from
//! one pass over the sample. That pass needs two things from the storage
//! layer besides predicate evaluation ([`crate::predicate::CompiledPredicate`]):
//!
//! - [`GroupKeyCollector`] (and [`distinct_group_keys`], one fragment
//!   through it): enumerate the group keys present among the filtered
//!   rows on the scan's own chunk machinery — zone maps skip chunks no
//!   row of which can match, the mask kernels select rows in the rest,
//!   keys are read from set bits only — and, for an all-categorical key,
//!   stop as soon as metadata proves the key set complete
//!   ([`GroupKeyCollector::bound_by`]);
//! - [`GroupIndexer`]: map each row to the index of its group key in that
//!   enumeration, so a single scan can route a row's contribution to the
//!   right accumulator cell.
//!
//! Both order groups exactly like [`crate::aggregate::eval_group_by`]
//! (key-sorted under the same total order), so result rows keep their
//! historical ordering.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::aggregate::OrdValue;
use crate::chunk::{chunk_segments, SelectionMask};
use crate::partition::{ColumnSummary, PartitionInfo};
use crate::predicate::{ChunkMatch, ColumnConstraint};
use crate::{Column, GroupKey, Predicate, Result, StorageError, Table, Value};

/// Enumerates the distinct group keys of `group_cols` among the rows of
/// `table` matching `predicate`, sorted by key: `table` as the one
/// fragment of a [`GroupKeyCollector`] bounded by its own zone maps.
pub fn distinct_group_keys(
    table: &Table,
    predicate: &Predicate,
    group_cols: &[String],
) -> Result<Vec<GroupKey>> {
    let mut collector = GroupKeyCollector::new(group_cols);
    collector.bound_by(predicate, table, [])?;
    collector.observe(table, predicate)?;
    Ok(collector.finish())
}

/// Accumulates the distinct group keys of table fragments observed one
/// at a time, in any order: a resident table is one fragment, an
/// out-of-core sample one per segment faulted in under the memory budget.
///
/// The result is the key-sorted set a row-by-row enumeration of the
/// concatenated fragments would find (`-0.0` folded into `0.0`, the two
/// being equal under the group-equality predicate; NaN kept as a key),
/// whether or not [`GroupKeyCollector::bound_by`] let the pass stop early.
#[derive(Default)]
pub struct GroupKeyCollector {
    group_cols: Vec<String>,
    keys: BTreeSet<Vec<OrdValue>>,
    /// `seen_codes[code]`: the key of a single categorical group column
    /// with a narrow code is already in `keys`.
    seen_codes: Vec<bool>,
    /// [`key_bits`] patterns of every other key in `keys`, so a row whose
    /// key is known costs one probe — no key allocation, no ordered insert.
    seen: HashSet<Box<[u64]>>,
    /// How many distinct keys the metadata admits; `None` when unknown.
    bound: Option<usize>,
    #[cfg(test)]
    chunks_read: u64,
}

impl GroupKeyCollector {
    /// A collector over the named group columns.
    pub fn new(group_cols: &[String]) -> Self {
        GroupKeyCollector {
            group_cols: group_cols.to_vec(),
            ..Default::default()
        }
    }

    /// Bounds the key set from metadata alone, before anything is
    /// observed. Every row that will be observed must lie in `fragment` or
    /// in a segment of one of `parts` (rows a subset of that partition's,
    /// in `fragment`'s dictionary code space).
    ///
    /// A categorical group column can then only take codes inside the
    /// `CatZone` of a `fragment` chunk the predicate does not prune or in
    /// a partition's code set, intersected with the predicate's own `IN`
    /// set on that column; the keys are bounded by the product over the
    /// columns. The bound is a superset, never a guess: a candidate no
    /// row carries only means the pass runs to the end. A numeric group
    /// column leaves the key set unbounded.
    pub fn bound_by<'p>(
        &mut self,
        predicate: &Predicate,
        fragment: &Table,
        parts: impl IntoIterator<Item = &'p PartitionInfo>,
    ) -> Result<()> {
        let pred = predicate.compile(fragment)?;
        let zones = fragment.zone_maps();
        let live: Vec<usize> = (0..zones.num_chunks())
            .filter(|&chunk| pred.classify_chunk(&zones, chunk) != ChunkMatch::NoRows)
            .collect();
        let parts: Vec<&PartitionInfo> = parts.into_iter().collect();
        let constraints = predicate.normal_form()?;
        let mut bound = Some(1usize);
        for name in &self.group_cols {
            let col = fragment.schema().index_of(name)?;
            // Closed code intervals the column may fall in.
            let mut spans: Vec<(u32, u32)> = Vec::new();
            for &chunk in &live {
                let Some(zone) = zones.cat_zone(col, chunk) else {
                    return Ok(());
                };
                spans.push((zone.min_code, zone.max_code));
            }
            for part in &parts {
                let Some(ColumnSummary::Cat { codes }) = part.summary(col) else {
                    return Ok(());
                };
                spans.extend(codes.iter().map(|&c| (c, c)));
            }
            spans.sort_unstable();
            spans.dedup();
            let candidates = match constraints.get(name) {
                Some(ColumnConstraint::In(allowed)) => allowed
                    .iter()
                    .filter(|&&c| spans.iter().any(|&(lo, hi)| lo <= c && c <= hi))
                    .count() as u64,
                // Size of the union: `spans` is sorted by lower end, so
                // each adds what lies past everything counted so far.
                _ => {
                    let (mut count, mut end) = (0u64, 0u64);
                    for &(lo, hi) in &spans {
                        let past = u64::from(hi) + 1;
                        count += past.saturating_sub(u64::from(lo).max(end));
                        end = end.max(past);
                    }
                    count
                }
            };
            bound = usize::try_from(candidates)
                .ok()
                .and_then(|c| bound?.checked_mul(c));
        }
        self.bound = bound;
        Ok(())
    }

    /// Whether every key the declared bound admits has been recorded: no
    /// fragment or chunk still unobserved can add one.
    pub fn is_complete(&self) -> bool {
        self.bound == Some(self.keys.len())
    }

    /// Chunks whose rows were read so far: those the zone maps did not
    /// prune, up to the point the key set was complete.
    #[cfg(test)]
    fn chunks_read(&self) -> u64 {
        self.chunks_read
    }

    /// Folds in the keys of `fragment`'s rows matching `predicate`, one
    /// chunk at a time, stopping as soon as the key set is complete.
    pub fn observe(&mut self, fragment: &Table, predicate: &Predicate) -> Result<()> {
        let pred = predicate.compile(fragment)?;
        let cols: Vec<GroupCol<'_>> = self
            .group_cols
            .iter()
            .map(|c| GroupCol::bind(fragment, c))
            .collect::<Result<_>>()?;
        let zones = fragment.zone_maps();
        let mut mask = SelectionMask::new();
        let mut bits = vec![0u64; cols.len()];
        for (chunk, seg) in chunk_segments(0..fragment.num_rows()) {
            if self.is_complete() {
                break;
            }
            match pred.classify_chunk(&zones, chunk) {
                ChunkMatch::NoRows => continue,
                ChunkMatch::AllRows => mask.reset_ones(seg.len()),
                ChunkMatch::SomeRows => pred.fill_mask(seg.clone(), &mut mask),
            }
            #[cfg(test)]
            {
                self.chunks_read += 1;
            }
            mask.for_each_set(|i| self.record(&cols, seg.start + i, &mut bits));
        }
        Ok(())
    }

    /// Records the key of one matching row; `bits` is scratch.
    #[inline]
    fn record(&mut self, cols: &[GroupCol<'_>], row: usize, bits: &mut [u64]) {
        if let [GroupCol::Cat(codes)] = cols {
            let code = codes[row] as usize;
            if (code as u64) < GroupIndexer::LUT_MAX_CODE {
                if self.seen_codes.len() <= code {
                    self.seen_codes.resize(code + 1, false);
                }
                if !std::mem::replace(&mut self.seen_codes[code], true) {
                    self.keys.insert(vec![OrdValue(Value::Cat(code as u32))]);
                }
                return;
            }
        }
        for (b, col) in bits.iter_mut().zip(cols) {
            *b = key_bits(col, row);
        }
        if !self.seen.contains(&*bits) {
            self.seen.insert((&*bits).into());
            let value = |(col, &b): (&GroupCol<'_>, &u64)| match col {
                GroupCol::Num(_) => OrdValue(Value::Num(f64::from_bits(b))),
                GroupCol::Cat(_) => OrdValue(Value::Cat(b as u32)),
            };
            self.keys
                .insert(cols.iter().zip(&*bits).map(value).collect());
        }
    }

    /// The accumulated keys, sorted exactly like [`distinct_group_keys`].
    pub fn finish(self) -> Vec<GroupKey> {
        self.keys
            .into_iter()
            .map(|k| k.into_iter().map(|v| v.0).collect())
            .collect()
    }
}

/// Maps rows to group indices during a shared scan.
///
/// Built once per query from the group columns and the enumerated group
/// keys; [`GroupIndexer::group_of`] then resolves a row to the index of
/// its key in O(columns) with one hash lookup, instead of re-evaluating a
/// per-group equality predicate for every (row × group) pair.
pub struct GroupIndexer<'t> {
    cols: Vec<GroupCol<'t>>,
    /// Schema indices of the group columns, aligned with `cols` (lets the
    /// chunked scan find per-chunk artifacts like packed codes).
    col_indices: Vec<usize>,
    /// Key parts (numeric bits / categorical codes) → group index. The
    /// overwhelmingly common single-column `GROUP BY` gets a scalar-keyed
    /// map so the per-row lookup allocates nothing.
    map: KeyMap,
    /// Dense code → group-index table for a single categorical group
    /// column with a narrow dictionary: `lut[code]` is the group index or
    /// [`GroupIndexer::NO_GROUP`]. Replaces the per-row hash lookup in
    /// the chunked kernel's hottest loop.
    lut: Option<Vec<u32>>,
}

enum KeyMap {
    One(HashMap<u64, usize>),
    Many(HashMap<Box<[u64]>, usize>),
}

enum GroupCol<'t> {
    Num(&'t [f64]),
    Cat(&'t [u32]),
}

impl<'t> GroupCol<'t> {
    fn bind(table: &'t Table, name: &str) -> Result<Self> {
        Ok(match table.column(name)? {
            col @ Column::Numeric(_) => GroupCol::Num(col.numeric()?),
            col @ Column::Categorical { .. } => GroupCol::Cat(col.categorical()?),
        })
    }
}

/// Canonical bits of one row's group value: numeric values by IEEE-754
/// bits (`-0.0` folded into `0.0` so the two equal zeros land in one
/// group), categorical values by code.
#[inline]
fn key_bits(col: &GroupCol<'_>, row: usize) -> u64 {
    match col {
        GroupCol::Num(data) => (if data[row] == 0.0 { 0.0 } else { data[row] }).to_bits(),
        GroupCol::Cat(data) => u64::from(data[row]),
    }
}

/// [`key_bits`] as a routing key part: `None` for numeric NaN, since
/// under the group-equality predicate (`col BETWEEN v AND v`) a NaN never
/// equals anything, so a NaN row belongs to no group.
#[inline]
fn key_part(col: &GroupCol<'_>, row: usize) -> Option<u64> {
    match col {
        GroupCol::Num(data) if data[row].is_nan() => None,
        _ => Some(key_bits(col, row)),
    }
}

impl<'t> GroupIndexer<'t> {
    /// Binds `group_cols` of `table` and indexes `keys` (as returned by
    /// [`distinct_group_keys`]) by position. A key whose label or type
    /// does not fit the column is an error; duplicate keys keep the first
    /// position.
    pub fn new(table: &'t Table, group_cols: &[String], keys: &[GroupKey]) -> Result<Self> {
        let mut cols = Vec::with_capacity(group_cols.len());
        let mut col_indices = Vec::with_capacity(group_cols.len());
        for name in group_cols {
            col_indices.push(table.schema().index_of(name)?);
            cols.push(GroupCol::bind(table, name)?);
        }
        // `None` marks a key no row can ever match (NaN numeric value or
        // an unknown categorical label): it gets no map entry, so its
        // cells stay empty — exactly what the per-snippet equality
        // predicate produces for such keys.
        let parts_of_key = |key: &GroupKey| -> Result<Option<Vec<u64>>> {
            let mut parts = Vec::with_capacity(key.len());
            for (value, (col, name)) in key.iter().zip(cols.iter().zip(group_cols.iter())) {
                let part = match (col, value) {
                    (GroupCol::Num(_), Value::Num(v)) => {
                        if v.is_nan() {
                            return Ok(None);
                        }
                        (if *v == 0.0 { 0.0f64 } else { *v }).to_bits()
                    }
                    (GroupCol::Cat(_), Value::Cat(c)) => u64::from(*c),
                    (GroupCol::Cat(_), Value::Str(s)) => match table.column(name)?.code_of(s) {
                        Some(c) => u64::from(c),
                        None => return Ok(None),
                    },
                    _ => {
                        return Err(StorageError::TypeError(format!(
                            "group value {value} does not match column {name}"
                        )))
                    }
                };
                parts.push(part);
            }
            Ok(Some(parts))
        };
        let mut map = if group_cols.len() == 1 {
            KeyMap::One(HashMap::with_capacity(keys.len()))
        } else {
            KeyMap::Many(HashMap::with_capacity(keys.len()))
        };
        for (gi, key) in keys.iter().enumerate() {
            if key.len() != group_cols.len() {
                return Err(StorageError::SchemaMismatch(format!(
                    "group key arity {} does not match {} group columns",
                    key.len(),
                    group_cols.len()
                )));
            }
            let Some(parts) = parts_of_key(key)? else {
                continue;
            };
            match &mut map {
                KeyMap::One(m) => {
                    m.entry(parts[0]).or_insert(gi);
                }
                KeyMap::Many(m) => {
                    m.entry(parts.into()).or_insert(gi);
                }
            }
        }
        let lut = Self::build_lut(&cols, &map);
        Ok(GroupIndexer {
            cols,
            col_indices,
            map,
            lut,
        })
    }

    /// Sentinel group index in [`GroupIndexer::fill_groups`] output and
    /// the dense LUT: the row belongs to no indexed group.
    pub const NO_GROUP: u32 = u32::MAX;

    /// Largest dictionary code worth a dense LUT (256 KiB of `u32`).
    const LUT_MAX_CODE: u64 = 1 << 16;

    /// Group columns whose key parts [`GroupIndexer::group_of`] keeps on
    /// the stack.
    const INLINE_COLS: usize = 8;

    fn build_lut(cols: &[GroupCol<'_>], map: &KeyMap) -> Option<Vec<u32>> {
        let (KeyMap::One(m), [GroupCol::Cat(_)]) = (map, cols) else {
            return None;
        };
        let max = m.keys().copied().max().unwrap_or(0);
        if max >= Self::LUT_MAX_CODE || m.values().any(|&gi| gi >= Self::NO_GROUP as usize) {
            return None;
        }
        let mut lut = vec![Self::NO_GROUP; max as usize + 1];
        for (&code, &gi) in m {
            lut[code as usize] = gi as u32;
        }
        Some(lut)
    }

    /// The group index of `row`, or `None` when the row's key was not
    /// among the indexed keys (e.g. groups dropped by the `N_max` cap, or
    /// a NaN group value, which equals no key). Answers from the dense
    /// LUT when there is one; no path allocates per row.
    #[inline]
    pub fn group_of(&self, row: usize) -> Option<usize> {
        if let (Some(lut), [GroupCol::Cat(codes)]) = (self.lut.as_deref(), self.cols.as_slice()) {
            let group = *lut.get(codes[row] as usize)?;
            return (group != Self::NO_GROUP).then_some(group as usize);
        }
        match &self.map {
            KeyMap::One(m) => m.get(&key_part(&self.cols[0], row)?).copied(),
            KeyMap::Many(m) => {
                let mut inline = [0u64; Self::INLINE_COLS];
                let mut spill = Vec::new();
                let parts = inline.get_mut(..self.cols.len()).unwrap_or_else(|| {
                    spill.resize(self.cols.len(), 0);
                    &mut spill
                });
                for (part, col) in parts.iter_mut().zip(&self.cols) {
                    *part = key_part(col, row)?;
                }
                m.get(&*parts).copied()
            }
        }
    }

    /// The dense `code → group` table and the schema index of the group
    /// column, when this is a single-categorical group-by with a narrow
    /// dictionary. The chunked kernel pairs it with a table's bit-packed
    /// code mirror to resolve groups straight from raw codes.
    pub fn dense_cat_lut(&self) -> Option<(usize, &[u32])> {
        self.lut.as_deref().map(|lut| (self.col_indices[0], lut))
    }

    /// Resolves group indices for every row of `range` in one pass,
    /// writing one entry per row into `out` ([`GroupIndexer::NO_GROUP`]
    /// for unindexed keys). Semantically identical to calling
    /// [`GroupIndexer::group_of`] per row; the single-categorical fast
    /// path reads raw codes through the dense LUT.
    pub fn fill_groups(&self, range: std::ops::Range<usize>, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(range.len());
        if let (Some(lut), [GroupCol::Cat(codes)]) = (self.lut.as_deref(), self.cols.as_slice()) {
            for &c in &codes[range] {
                out.push(lut.get(c as usize).copied().unwrap_or(Self::NO_GROUP));
            }
            return;
        }
        for row in range {
            out.push(
                self.group_of(row)
                    .and_then(|g| u32::try_from(g).ok())
                    .unwrap_or(Self::NO_GROUP),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::CHUNK_ROWS;
    use crate::{eval_group_by, AggregateFn, ColumnDef, PartitionMap, PartitionSpec, Schema};
    use proptest::prelude::*;

    /// The row-wise enumeration the collector replaced, kept as the
    /// oracle: one predicate evaluation, one key allocation and one
    /// ordered insert per matching row, no chunk machinery.
    fn distinct_group_keys_rowwise(
        table: &Table,
        predicate: &Predicate,
        group_cols: &[String],
    ) -> Vec<GroupKey> {
        let pred = predicate.compile(table).unwrap();
        let cols: Vec<&Column> = group_cols
            .iter()
            .map(|c| table.column(c).unwrap())
            .collect();
        let mut keys: BTreeSet<Vec<OrdValue>> = BTreeSet::new();
        for row in (0..table.num_rows()).filter(|&row| pred.matches(row)) {
            // -0.0 folds into 0.0: equal under the group-equality
            // predicate, so two keys would claim the same rows.
            let key = cols.iter().map(|c| match c.get(row) {
                Value::Num(v) => OrdValue(Value::Num(if v == 0.0 { 0.0 } else { v })),
                other => OrdValue(other),
            });
            keys.insert(key.collect());
        }
        keys.into_iter()
            .map(|k| k.into_iter().map(|v| v.0).collect())
            .collect()
    }

    /// Key lists compared by identity (bits), so NaN keys and the sign of
    /// zero count.
    fn key_bits_of(keys: &[GroupKey]) -> Vec<Vec<(u8, u64)>> {
        let bits = |v: &Value| match v {
            Value::Num(x) => (0, x.to_bits()),
            Value::Cat(c) => (1, u64::from(*c)),
            Value::Str(_) => panic!("enumeration yields codes, not labels"),
        };
        keys.iter().map(|k| k.iter().map(bits).collect()).collect()
    }

    /// A `rows`-row table spanning several chunks: `t` clustered in row
    /// order (zone-prunable), `u` shuffled, `k` a numeric key over NaN,
    /// both zeros and a few values, `g` a categorical key whose codes
    /// mostly have no label, `h` a 3-code categorical.
    fn wide_table(rows: usize, g_codes: u32, seed: u64) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("t"),
            ColumnDef::numeric_dimension("u"),
            ColumnDef::numeric_dimension("k"),
            ColumnDef::categorical_dimension("g"),
            ColumnDef::categorical_dimension("h"),
        ])
        .unwrap();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const K: [f64; 6] = [f64::NAN, 0.0, -0.0, 1.5, -3.0, 7.0];
        let (mut t, mut u, mut k, mut g, mut h) = (vec![], vec![], vec![], vec![], vec![]);
        for i in 0..rows {
            let bits = next();
            t.push(i as f64);
            u.push((bits % 100) as f64);
            k.push(K[(bits >> 8) as usize % K.len()]);
            // `g` is clustered too: its codes drift upward with the row,
            // so chunk zones differ and a band on `t` narrows them.
            g.push(((bits >> 16) % 3 + (i * g_codes as usize / rows) as u64) as u32 % g_codes);
            h.push(((bits >> 32) % 3) as u32);
        }
        Table::from_columns(
            schema,
            vec![
                Column::from_numeric(t),
                Column::from_numeric(u),
                Column::from_numeric(k),
                Column::from_categorical(g, vec!["only".to_owned()]),
                Column::from_categorical(h, vec![]),
            ],
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The collector — one fragment or several in any order, bounded
        /// by metadata or not — enumerates exactly the oracle's keys in
        /// the oracle's order.
        #[test]
        fn collector_matches_the_rowwise_oracle(
            rows in 3 * CHUNK_ROWS..5 * CHUNK_ROWS,
            g_codes in 1u32..40,
            seed in any::<u64>(),
            filter in 0usize..5,
            lo in 0.0..1.0f64,
            width in 0.0..1.0f64,
            in_codes in prop::collection::vec(0u32..40, 0..6),
            cols in 0usize..6,
            cuts in prop::collection::vec(0.0..1.0f64, 0..3),
            reverse in any::<bool>(),
        ) {
            let table = wide_table(rows, g_codes, seed);
            let band = |col: &str, span: f64| Predicate::between(col, lo * span, (lo + width) * span);
            let pred = match filter {
                0 => Predicate::True,
                1 => band("t", rows as f64),
                2 => band("u", 100.0),
                3 => band("t", rows as f64).and(Predicate::cat_in("g", in_codes.clone())),
                // An empty selection.
                _ => Predicate::between("t", -9.0, -1.0),
            };
            let cols: Vec<String> = [
                vec!["g"], vec!["k"], vec!["h"], vec!["g", "h"], vec!["k", "g"], vec!["h", "k", "g"],
            ][cols].iter().map(|c| (*c).to_owned()).collect();
            let expect = distinct_group_keys_rowwise(&table, &pred, &cols);

            let whole = distinct_group_keys(&table, &pred, &cols).unwrap();
            prop_assert_eq!(key_bits_of(&whole), key_bits_of(&expect));

            // Fragments: row ranges cut at `cuts`, observed back to front
            // or front to back; the first is the bounding fragment, the
            // rest stand in for partition segments bounded by summaries.
            let mut edges: Vec<usize> = cuts.iter().map(|c| (c * rows as f64) as usize).collect();
            edges.extend([0, rows]);
            edges.sort_unstable();
            let mut frags: Vec<Table> = edges
                .windows(2)
                .map(|w| table.gather(&(w[0]..w[1]).collect::<Vec<_>>()).unwrap())
                .collect();
            if reverse {
                frags.reverse();
            }
            let mut plain = GroupKeyCollector::new(&cols);
            for frag in &frags {
                plain.observe(frag, &pred).unwrap();
            }
            prop_assert_eq!(key_bits_of(&plain.finish()), key_bits_of(&expect));

            let maps: Vec<PartitionMap> = frags[1..]
                .iter()
                .map(|f| PartitionMap::build(f, PartitionSpec::hash("h", 1)).unwrap())
                .collect();
            let mut bounded = GroupKeyCollector::new(&cols);
            bounded.bound_by(&pred, &frags[0], maps.iter().map(|m| m.part(0))).unwrap();
            for frag in &frags {
                bounded.observe(frag, &pred).unwrap();
            }
            prop_assert_eq!(key_bits_of(&bounded.finish()), key_bits_of(&expect));
        }
    }

    /// The early exit is sound: it fires only once every candidate the
    /// metadata admits was seen. A code inside the zone range that no
    /// matching row carries forces the full pass — same keys either way.
    #[test]
    fn early_exit_needs_every_candidate() {
        let rows = 4 * CHUNK_ROWS;
        let build = |hide_code_two: bool| {
            let schema = Schema::new(vec![
                ColumnDef::numeric_dimension("x"),
                ColumnDef::categorical_dimension("g"),
            ])
            .unwrap();
            let x: Vec<f64> = (0..rows).map(|i| (i % 10) as f64).collect();
            // Codes 0..=3 in every chunk; optionally code 2 only on rows
            // the predicate below rejects (x = 9), where it still widens
            // nothing — the zone range [0, 3] admits it regardless.
            let g: Vec<u32> = (0..rows)
                .map(|i| match (i % 4) as u32 {
                    2 if hide_code_two && i % 10 != 9 => 1,
                    c => c,
                })
                .collect();
            Table::from_columns(
                schema,
                vec![Column::from_numeric(x), Column::from_categorical(g, vec![])],
            )
            .unwrap()
        };
        let pred = Predicate::between("x", 0.0, 8.0);
        let cols = vec!["g".to_owned()];
        for (hidden, chunks_read) in [(false, 1), (true, 4)] {
            let table = build(hidden);
            let mut collector = GroupKeyCollector::new(&cols);
            collector.bound_by(&pred, &table, []).unwrap();
            collector.observe(&table, &pred).unwrap();
            assert_eq!(collector.is_complete(), !hidden);
            assert_eq!(collector.chunks_read(), chunks_read, "hidden {hidden}");
            let keys = collector.finish();
            assert_eq!(keys.len(), if hidden { 3 } else { 4 });
            assert_eq!(keys, distinct_group_keys_rowwise(&table, &pred, &cols));
        }
        // The predicate's own `IN` set narrows the candidates: with code
        // 2 excluded by the query, its absence no longer blocks the exit.
        let table = build(true);
        let narrowed = pred.clone().and(Predicate::cat_in("g", vec![0, 1, 3, 99]));
        let mut collector = GroupKeyCollector::new(&cols);
        collector.bound_by(&narrowed, &table, []).unwrap();
        collector.observe(&table, &narrowed).unwrap();
        assert!(collector.is_complete());
        assert_eq!(collector.chunks_read(), 1);
        assert_eq!(
            collector.finish(),
            distinct_group_keys_rowwise(&table, &narrowed, &cols)
        );
    }

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
            (1.0, "us", 30.0),
            (4.0, "jp", 40.0),
            (2.0, "us", 50.0),
        ] {
            t.push_row(vec![w.into(), r.into(), v.into()]).unwrap();
        }
        t
    }

    #[test]
    fn distinct_keys_match_eval_group_by_enumeration() {
        let t = table();
        for cols in [
            vec!["region".to_owned()],
            vec!["week".to_owned()],
            vec!["week".to_owned(), "region".to_owned()],
        ] {
            for pred in [Predicate::True, Predicate::between("week", 1.0, 2.0)] {
                let fast = distinct_group_keys(&t, &pred, &cols).unwrap();
                let slow: Vec<GroupKey> = eval_group_by(&t, &pred, &cols, &AggregateFn::Count)
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                assert_eq!(fast, slow, "cols {cols:?} pred {pred:?}");
            }
        }
    }

    #[test]
    fn collector_over_fragments_matches_one_pass_enumeration() {
        let t = table();
        // Split the table into two dictionary-consistent fragments, the
        // way paged segments share their session's dictionary.
        let mut frags = [
            Table::new(t.schema().clone()),
            Table::new(t.schema().clone()),
        ];
        for f in frags.iter_mut() {
            f.sync_dictionaries_from(&t).unwrap();
        }
        for r in 0..t.num_rows() {
            let f = if r < 3 { 0 } else { 1 };
            frags[f].push_row(t.row(r)).unwrap();
        }
        for cols in [
            vec!["region".to_owned()],
            vec!["week".to_owned(), "region".to_owned()],
        ] {
            for pred in [Predicate::True, Predicate::between("week", 1.0, 2.0)] {
                let mut collector = GroupKeyCollector::new(&cols);
                // Observe out of order: union is order-insensitive.
                collector.observe(&frags[1], &pred).unwrap();
                collector.observe(&frags[0], &pred).unwrap();
                let expect = distinct_group_keys(&t, &pred, &cols).unwrap();
                assert_eq!(collector.finish(), expect, "cols {cols:?} pred {pred:?}");
            }
        }
    }

    #[test]
    fn empty_selection_yields_no_keys() {
        let t = table();
        let keys = distinct_group_keys(
            &t,
            &Predicate::between("week", 50.0, 60.0),
            &["region".to_owned()],
        )
        .unwrap();
        assert!(keys.is_empty());
    }

    #[test]
    fn indexer_routes_rows_to_their_keys() {
        let t = table();
        let cols = vec!["week".to_owned(), "region".to_owned()];
        let keys = distinct_group_keys(&t, &Predicate::True, &cols).unwrap();
        let idx = GroupIndexer::new(&t, &cols, &keys).unwrap();
        for row in 0..t.num_rows() {
            let gi = idx.group_of(row).expect("every row's key was enumerated");
            let key = &keys[gi];
            assert_eq!(key[0], t.column("week").unwrap().get(row));
            assert_eq!(key[1], t.column("region").unwrap().get(row));
        }
    }

    #[test]
    fn indexer_returns_none_for_unindexed_keys() {
        let t = table();
        let cols = vec!["region".to_owned()];
        let keys = distinct_group_keys(&t, &Predicate::True, &cols).unwrap();
        // Drop the last group (as the N_max cap does).
        let capped = &keys[..keys.len() - 1];
        let idx = GroupIndexer::new(&t, &cols, capped).unwrap();
        let dropped: Vec<usize> = (0..t.num_rows())
            .filter(|&r| idx.group_of(r).is_none())
            .collect();
        assert!(!dropped.is_empty(), "capped group must be unmapped");
    }

    #[test]
    fn indexer_resolves_string_group_values() {
        let t = table();
        let cols = vec!["region".to_owned()];
        let keys: Vec<GroupKey> = vec![vec![Value::Str("eu".into())]];
        let idx = GroupIndexer::new(&t, &cols, &keys).unwrap();
        assert_eq!(idx.group_of(1), Some(0));
        assert_eq!(idx.group_of(0), None);
        // Unknown labels match nothing rather than erroring.
        let idx = GroupIndexer::new(&t, &cols, &[vec![Value::Str("mars".into())]]).unwrap();
        assert_eq!(idx.group_of(0), None);
    }

    #[test]
    fn signed_zero_folds_into_one_group_and_nan_matches_nothing() {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("k"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (k, v) in [(0.0, 1.0), (-0.0, 2.0), (f64::NAN, 3.0), (1.0, 4.0)] {
            t.push_row(vec![k.into(), v.into()]).unwrap();
        }
        let cols = vec!["k".to_owned()];
        let keys = distinct_group_keys(&t, &Predicate::True, &cols).unwrap();
        // -0.0 canonicalized into 0.0: groups are {0.0, 1.0, NaN}, not four.
        assert_eq!(keys.len(), 3, "{keys:?}");
        let idx = GroupIndexer::new(&t, &cols, &keys).unwrap();
        // Both zero rows land in the single zero group.
        assert_eq!(idx.group_of(0), idx.group_of(1));
        assert!(idx.group_of(0).is_some());
        // The NaN row belongs to no group (equality never holds), and the
        // enumerated NaN key matches no row — its cells stay empty, like
        // the per-snippet `BETWEEN NaN AND NaN` predicate.
        assert_eq!(idx.group_of(2), None);
        let nan_gi = keys
            .iter()
            .position(|k| matches!(k[0], Value::Num(v) if v.is_nan()))
            .expect("NaN key enumerated");
        assert!(
            (0..t.num_rows()).all(|r| idx.group_of(r) != Some(nan_gi)),
            "no row may route to the NaN group"
        );
    }

    #[test]
    fn fill_groups_agrees_with_group_of() {
        let t = table();
        for cols in [
            vec!["region".to_owned()],                    // dense LUT path
            vec!["week".to_owned()],                      // numeric: no LUT
            vec!["week".to_owned(), "region".to_owned()], // multi-column
        ] {
            let keys = distinct_group_keys(&t, &Predicate::True, &cols).unwrap();
            // Drop the last key so NO_GROUP shows up too.
            let capped = &keys[..keys.len() - 1];
            for keyset in [&keys[..], capped] {
                let idx = GroupIndexer::new(&t, &cols, keyset).unwrap();
                let mut out = Vec::new();
                for range in [0..t.num_rows(), 2..4, 3..3] {
                    idx.fill_groups(range.clone(), &mut out);
                    assert_eq!(out.len(), range.len());
                    for (i, row) in range.enumerate() {
                        let expect = idx
                            .group_of(row)
                            .map_or(GroupIndexer::NO_GROUP, |g| g as u32);
                        assert_eq!(out[i], expect, "cols {cols:?} row {row}");
                    }
                }
                if cols.len() == 1 && cols[0] == "region" {
                    let (ci, lut) = idx.dense_cat_lut().expect("single-cat LUT");
                    assert_eq!(ci, t.schema().index_of("region").unwrap());
                    assert!(!lut.is_empty());
                } else {
                    assert!(idx.dense_cat_lut().is_none());
                }
            }
        }
    }

    #[test]
    fn indexer_rejects_type_mismatch_and_arity() {
        let t = table();
        let cols = vec!["week".to_owned()];
        assert!(GroupIndexer::new(&t, &cols, &[vec![Value::Cat(1)]]).is_err());
        assert!(GroupIndexer::new(&t, &cols, &[vec![Value::Num(1.0), Value::Num(2.0)]]).is_err());
    }
}
