//! Horizontal table partitions with partition-level zone summaries.
//!
//! A [`PartitionSpec`] assigns every row to one partition by the value of
//! a chosen column — contiguous value ranges over a numeric dimension
//! ([`PartitionScheme::Range`]) or a deterministic hash over either
//! column type ([`PartitionScheme::Hash`]). A [`PartitionMap`] routes
//! rows and maintains, per partition, a row count and one
//! [`ColumnSummary`] per schema column: min/max (+ NaN flag) for numeric
//! columns and the sorted set of observed dictionary codes for
//! categorical ones.
//!
//! The summaries are the chunk-level zone-map contract lifted one level:
//! [`crate::CompiledPredicate::classify_partition`] mirrors
//! [`crate::CompiledPredicate::classify_chunk`] against a partition's
//! summaries, so a scan can skip a provably-disjoint partition without
//! touching any of its chunks (and classify a provably-covered one as
//! dense). Classification is conservative and sound: `NoRows`/`AllRows`
//! only when the summaries prove it.
//!
//! Routing is a pure function of the cell value — independent of row
//! order, table identity, and batching — so the same spec routes base
//! rows, sampled rows, and ingested rows consistently.
//! [`PartitionMap::extend`] absorbs appended rows by widening only the
//! summaries of partitions that actually received rows; everything else
//! is untouched.

use std::ops::Range;

use crate::{ColumnType, Result, StorageError, Table};

/// How rows map to partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionScheme {
    /// Range partitioning over a numeric column: sorted cut points split
    /// the number line into `bounds.len() + 1` partitions; partition `i`
    /// holds `bounds[i-1] <= v < bounds[i]` (NaNs route to the last
    /// partition).
    Range {
        /// Ascending, finite, deduplicated cut points.
        bounds: Vec<f64>,
    },
    /// Hash partitioning over a numeric or categorical column.
    Hash {
        /// Number of partitions (≥ 1).
        partitions: usize,
    },
}

/// A partitioning rule: the column to partition by and the scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    column: String,
    scheme: PartitionScheme,
}

impl PartitionSpec {
    /// Range partitioning of `column` at the given cut points (sorted and
    /// deduplicated here; validity is checked when a map is built).
    pub fn range(column: &str, mut bounds: Vec<f64>) -> Self {
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        PartitionSpec {
            column: column.to_owned(),
            scheme: PartitionScheme::Range { bounds },
        }
    }

    /// Hash partitioning of `column` into `partitions` buckets.
    pub fn hash(column: &str, partitions: usize) -> Self {
        PartitionSpec {
            column: column.to_owned(),
            scheme: PartitionScheme::Hash { partitions },
        }
    }

    /// The partitioning column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The partitioning scheme.
    pub fn scheme(&self) -> &PartitionScheme {
        &self.scheme
    }

    /// Number of partitions the scheme defines.
    pub fn num_partitions(&self) -> usize {
        match &self.scheme {
            PartitionScheme::Range { bounds } => bounds.len() + 1,
            PartitionScheme::Hash { partitions } => *partitions,
        }
    }
}

/// Partition-level zone summary of one column — the chunk zone-map
/// contract ([`crate::NumZone`] / [`crate::CatZone`]) lifted to a whole
/// partition, with an explicit code *set* instead of a code range.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSummary {
    /// Numeric column: observed bounds. An empty partition holds
    /// `min = +inf, max = -inf` (the min/max identity).
    Num {
        /// Smallest non-NaN value routed here.
        min: f64,
        /// Largest non-NaN value routed here.
        max: f64,
        /// Whether any NaN was routed here.
        has_nan: bool,
    },
    /// Categorical column: every dictionary code observed, sorted.
    Cat {
        /// Sorted, deduplicated codes.
        codes: Vec<u32>,
    },
}

impl ColumnSummary {
    fn new(ty: ColumnType) -> Self {
        match ty {
            ColumnType::Numeric => ColumnSummary::Num {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                has_nan: false,
            },
            ColumnType::Categorical => ColumnSummary::Cat { codes: Vec::new() },
        }
    }

    fn observe_num(&mut self, x: f64) {
        let ColumnSummary::Num { min, max, has_nan } = self else {
            unreachable!("numeric observation on a categorical summary");
        };
        if x.is_nan() {
            *has_nan = true;
        } else {
            *min = min.min(x);
            *max = max.max(x);
        }
    }

    fn observe_cat(&mut self, code: u32) {
        let ColumnSummary::Cat { codes } = self else {
            unreachable!("categorical observation on a numeric summary");
        };
        if let Err(at) = codes.binary_search(&code) {
            codes.insert(at, code);
        }
    }
}

/// One partition: its row count and per-column summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionInfo {
    rows: u64,
    summaries: Vec<ColumnSummary>,
}

impl PartitionInfo {
    /// Rows routed to this partition so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Summary of schema column `col`, if the column exists.
    pub fn summary(&self, col: usize) -> Option<&ColumnSummary> {
        self.summaries.get(col)
    }

    /// All per-column summaries, in schema order (for persistence).
    pub fn summaries(&self) -> &[ColumnSummary] {
        &self.summaries
    }

    /// Reassembles a partition from persisted state.
    pub fn from_parts(rows: u64, summaries: Vec<ColumnSummary>) -> PartitionInfo {
        PartitionInfo { rows, summaries }
    }
}

/// The routing and summary state of one partitioned table.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMap {
    spec: PartitionSpec,
    /// Schema index of the partitioning column.
    col_index: usize,
    /// Whether the partitioning column is categorical.
    cat_column: bool,
    /// Rows of the backing table already routed.
    rows_covered: usize,
    parts: Vec<PartitionInfo>,
}

impl PartitionMap {
    /// Builds a map over every current row of `table`.
    pub fn build(table: &Table, spec: PartitionSpec) -> Result<PartitionMap> {
        let col_index = table.schema().index_of(spec.column())?;
        let ty = table.schema().columns()[col_index].ty;
        match &spec.scheme {
            PartitionScheme::Range { bounds } => {
                if ty != ColumnType::Numeric {
                    return Err(StorageError::TypeError(format!(
                        "range partitioning requires a numeric column, {} is categorical",
                        spec.column()
                    )));
                }
                if bounds.iter().any(|b| !b.is_finite()) {
                    return Err(StorageError::TypeError(
                        "range partition bounds must be finite".into(),
                    ));
                }
            }
            PartitionScheme::Hash { partitions } => {
                if *partitions == 0 {
                    return Err(StorageError::TypeError(
                        "hash partitioning needs at least one partition".into(),
                    ));
                }
            }
        }
        let parts = (0..spec.num_partitions())
            .map(|_| PartitionInfo {
                rows: 0,
                summaries: table
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| ColumnSummary::new(c.ty))
                    .collect(),
            })
            .collect();
        let mut map = PartitionMap {
            spec,
            col_index,
            cat_column: ty == ColumnType::Categorical,
            rows_covered: 0,
            parts,
        };
        map.extend(table)?;
        Ok(map)
    }

    /// Routes the rows of `table` in `range` without changing the map.
    /// Pure in the cell values: any table with a compatible schema (the
    /// base, a gathered sample, an ingest batch) routes identically.
    pub fn route(&self, table: &Table, range: Range<usize>) -> Result<Vec<u32>> {
        let mut out = Vec::with_capacity(range.len());
        if self.cat_column {
            let codes = table.column_at(self.col_index).categorical()?;
            for &c in &codes[range] {
                out.push(self.route_cat(c));
            }
        } else {
            let data = table.column_at(self.col_index).numeric()?;
            for &x in &data[range] {
                out.push(self.route_num(x));
            }
        }
        Ok(out)
    }

    /// Absorbs rows appended to `table` since the last build/extend:
    /// routes them, bumps the receiving partitions' row counts, and
    /// widens *only those* partitions' summaries. Returns the sorted ids
    /// of the partitions that received rows.
    pub fn extend(&mut self, table: &Table) -> Result<Vec<u32>> {
        let from = self.rows_covered;
        let to = table.num_rows();
        if to < from {
            return Err(StorageError::SchemaMismatch(format!(
                "partition map covers {from} rows but the table has {to}"
            )));
        }
        let routed = self.route(table, from..to)?;
        let schema_cols = table.schema().len();
        let mut touched: Vec<u32> = Vec::new();
        for (offset, &p) in routed.iter().enumerate() {
            let row = from + offset;
            let part = &mut self.parts[p as usize];
            part.rows += 1;
            for col in 0..schema_cols {
                match table.column_at(col) {
                    crate::Column::Numeric(_) => {
                        let x = table.column_at(col).numeric()?[row];
                        part.summaries[col].observe_num(x);
                    }
                    crate::Column::Categorical { .. } => {
                        let c = table.column_at(col).categorical()?[row];
                        part.summaries[col].observe_cat(c);
                    }
                }
            }
            if let Err(at) = touched.binary_search(&p) {
                touched.insert(at, p);
            }
        }
        self.rows_covered = to;
        Ok(touched)
    }

    /// Absorbs a standalone ingest batch: routes every row of `batch` (a
    /// table holding *only* the appended rows, dictionary-consistent with
    /// the partitioned relation), bumps the receiving partitions' row
    /// counts, and widens their summaries. The out-of-core ingest path
    /// uses this — the full base table is not resident, so
    /// [`PartitionMap::extend`] has nothing to diff against. Returns the
    /// sorted ids of the partitions that received rows.
    pub fn extend_batch(&mut self, batch: &Table) -> Result<Vec<u32>> {
        let n = batch.num_rows();
        let routed = self.route(batch, 0..n)?;
        let schema_cols = batch.schema().len();
        let mut touched: Vec<u32> = Vec::new();
        for (row, &p) in routed.iter().enumerate() {
            let part = &mut self.parts[p as usize];
            part.rows += 1;
            for col in 0..schema_cols {
                match batch.column_at(col) {
                    crate::Column::Numeric(_) => {
                        let x = batch.column_at(col).numeric()?[row];
                        part.summaries[col].observe_num(x);
                    }
                    crate::Column::Categorical { .. } => {
                        let c = batch.column_at(col).categorical()?[row];
                        part.summaries[col].observe_cat(c);
                    }
                }
            }
            if let Err(at) = touched.binary_search(&p) {
                touched.insert(at, p);
            }
        }
        self.rows_covered += n;
        Ok(touched)
    }

    /// The partition a numeric value routes to.
    fn route_num(&self, x: f64) -> u32 {
        match &self.spec.scheme {
            PartitionScheme::Range { bounds } => {
                if x.is_nan() {
                    bounds.len() as u32
                } else {
                    bounds.partition_point(|&b| b <= x) as u32
                }
            }
            PartitionScheme::Hash { partitions } => {
                // Canonicalize so -0.0 == 0.0 and every NaN routes alike.
                let bits = if x.is_nan() {
                    f64::NAN.to_bits()
                } else if x == 0.0 {
                    0u64
                } else {
                    x.to_bits()
                };
                hash_bucket(bits, *partitions)
            }
        }
    }

    /// The partition a categorical code routes to.
    fn route_cat(&self, code: u32) -> u32 {
        match &self.spec.scheme {
            // `build` rejects range-on-categorical.
            PartitionScheme::Range { .. } => unreachable!("range partitioning is numeric-only"),
            PartitionScheme::Hash { partitions } => hash_bucket(code as u64, *partitions),
        }
    }

    /// The spec the map was built from.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Rows routed so far.
    pub fn rows_covered(&self) -> usize {
        self.rows_covered
    }

    /// One partition's state.
    pub fn part(&self, p: usize) -> &PartitionInfo {
        &self.parts[p]
    }

    /// All partitions in id order.
    pub fn parts(&self) -> &[PartitionInfo] {
        &self.parts
    }

    /// Reassembles a map from persisted state: `spec` + per-partition
    /// counts and summaries, validated against `schema` (the routing
    /// column must exist and match the scheme's type requirements, and
    /// every partition must carry one type-correct summary per column).
    pub fn from_parts(
        schema: &crate::Schema,
        spec: PartitionSpec,
        rows_covered: usize,
        parts: Vec<PartitionInfo>,
    ) -> Result<PartitionMap> {
        let col_index = schema.index_of(spec.column())?;
        let ty = schema.columns()[col_index].ty;
        if matches!(spec.scheme(), PartitionScheme::Range { .. }) && ty != ColumnType::Numeric {
            return Err(StorageError::TypeError(format!(
                "range partitioning requires a numeric column, {} is categorical",
                spec.column()
            )));
        }
        if parts.len() != spec.num_partitions() {
            return Err(StorageError::SchemaMismatch(format!(
                "partition map holds {} partitions but the spec defines {}",
                parts.len(),
                spec.num_partitions()
            )));
        }
        for (p, part) in parts.iter().enumerate() {
            if part.summaries.len() != schema.len() {
                return Err(StorageError::SchemaMismatch(format!(
                    "partition {p} carries {} column summaries for a {}-column schema",
                    part.summaries.len(),
                    schema.len()
                )));
            }
            for (def, summary) in schema.columns().iter().zip(&part.summaries) {
                let ok = matches!(
                    (def.ty, summary),
                    (ColumnType::Numeric, ColumnSummary::Num { .. })
                        | (ColumnType::Categorical, ColumnSummary::Cat { .. })
                );
                if !ok {
                    return Err(StorageError::TypeError(format!(
                        "partition {p} summary type mismatch on column {}",
                        def.name
                    )));
                }
            }
        }
        Ok(PartitionMap {
            spec,
            col_index,
            cat_column: ty == ColumnType::Categorical,
            rows_covered,
            parts,
        })
    }
}

/// FNV-1a over the value's canonical 8 bytes, reduced to a bucket.
/// Deterministic across runs and platforms — partition assignment is
/// part of reproducible state.
fn hash_bucket(word: u64, buckets: usize) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % buckets as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChunkMatch, ColumnDef, Predicate, Schema, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::categorical_dimension("g"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            let g = ["a", "b", "c"][i % 3];
            t.push_row(vec![(i as f64).into(), g.into(), ((i % 7) as f64).into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn range_routing_respects_bounds() {
        let t = table(100);
        let spec = PartitionSpec::range("x", vec![25.0, 50.0, 75.0]);
        assert_eq!(spec.num_partitions(), 4);
        let m = PartitionMap::build(&t, spec).unwrap();
        let routed = m.route(&t, 0..100).unwrap();
        assert_eq!(routed[0], 0);
        assert_eq!(routed[24], 0);
        assert_eq!(routed[25], 1, "cut point belongs to the upper partition");
        assert_eq!(routed[74], 2);
        assert_eq!(routed[75], 3);
        assert_eq!(m.part(0).rows(), 25);
        assert_eq!(m.part(3).rows(), 25);
        let total: u64 = m.parts().iter().map(PartitionInfo::rows).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn summaries_track_all_columns() {
        let t = table(100);
        let m = PartitionMap::build(&t, PartitionSpec::range("x", vec![50.0])).unwrap();
        match m.part(0).summary(0).unwrap() {
            ColumnSummary::Num { min, max, has_nan } => {
                assert_eq!((*min, *max), (0.0, 49.0));
                assert!(!has_nan);
            }
            _ => panic!("x is numeric"),
        }
        match m.part(1).summary(0).unwrap() {
            ColumnSummary::Num { min, max, .. } => assert_eq!((*min, *max), (50.0, 99.0)),
            _ => panic!("x is numeric"),
        }
        match m.part(0).summary(1).unwrap() {
            ColumnSummary::Cat { codes } => assert_eq!(codes.len(), 3, "all three labels seen"),
            _ => panic!("g is categorical"),
        }
    }

    #[test]
    fn hash_routing_is_deterministic_and_total() {
        let t = table(200);
        let m = PartitionMap::build(&t, PartitionSpec::hash("g", 3)).unwrap();
        let a = m.route(&t, 0..200).unwrap();
        let b = m.route(&t, 0..200).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&p| p < 3));
        // Same label always routes to the same partition.
        let codes = t.column("g").unwrap().categorical().unwrap();
        for (i, &c) in codes.iter().enumerate() {
            for (j, &d) in codes.iter().enumerate() {
                if c == d {
                    assert_eq!(a[i], a[j]);
                }
            }
        }
        let total: u64 = m.parts().iter().map(PartitionInfo::rows).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn classify_partition_mirrors_chunk_semantics() {
        let t = table(300);
        let m = PartitionMap::build(&t, PartitionSpec::range("x", vec![100.0, 200.0])).unwrap();
        // Disjoint range: partitions 1 and 2 cannot match.
        let p = Predicate::between("x", 10.0, 20.0).compile(&t).unwrap();
        assert_eq!(p.classify_partition(m.part(0)), ChunkMatch::SomeRows);
        assert_eq!(p.classify_partition(m.part(1)), ChunkMatch::NoRows);
        assert_eq!(p.classify_partition(m.part(2)), ChunkMatch::NoRows);
        // Covering range: partition 0 is provably dense.
        let p = Predicate::between("x", -5.0, 99.5).compile(&t).unwrap();
        assert_eq!(p.classify_partition(m.part(0)), ChunkMatch::AllRows);
        assert_eq!(p.classify_partition(m.part(1)), ChunkMatch::NoRows);
        // Categorical membership: every partition holds all three labels.
        let a = t.column("g").unwrap().code_of("a").unwrap();
        let p = Predicate::cat_eq("g", a).compile(&t).unwrap();
        assert_eq!(p.classify_partition(m.part(0)), ChunkMatch::SomeRows);
        // Empty IN-set matches nothing.
        let p = Predicate::cat_in("g", vec![]).compile(&t).unwrap();
        assert_eq!(p.classify_partition(m.part(0)), ChunkMatch::NoRows);
        // A set covering every present code is provably dense.
        let all: Vec<u32> = (0..3).collect();
        let p = Predicate::cat_in("g", all).compile(&t).unwrap();
        assert_eq!(p.classify_partition(m.part(1)), ChunkMatch::AllRows);
    }

    #[test]
    fn classify_is_sound_against_brute_force() {
        let t = table(500);
        for spec in [
            PartitionSpec::range("x", vec![100.0, 250.0, 400.0]),
            PartitionSpec::hash("g", 4),
            PartitionSpec::hash("x", 5),
        ] {
            let m = PartitionMap::build(&t, spec).unwrap();
            let routed = m.route(&t, 0..500).unwrap();
            let a = t.column("g").unwrap().code_of("a").unwrap();
            let preds = [
                Predicate::True,
                Predicate::between("x", 120.0, 180.0),
                Predicate::cat_eq("g", a),
                Predicate::between("x", -10.0, 600.0),
            ];
            for pred in &preds {
                let c = pred.compile(&t).unwrap();
                for p in 0..m.num_partitions() {
                    let rows: Vec<usize> = (0..500).filter(|&r| routed[r] == p as u32).collect();
                    let matched = rows.iter().filter(|&&r| c.matches(r)).count();
                    match c.classify_partition(m.part(p)) {
                        ChunkMatch::NoRows => assert_eq!(matched, 0, "{pred:?} part {p}"),
                        ChunkMatch::AllRows => {
                            assert_eq!(matched, rows.len(), "{pred:?} part {p}")
                        }
                        ChunkMatch::SomeRows => {}
                    }
                }
            }
        }
    }

    #[test]
    fn empty_partition_classifies_no_rows() {
        let t = table(50);
        // All x < 1000: the upper partition is empty.
        let m = PartitionMap::build(&t, PartitionSpec::range("x", vec![1000.0])).unwrap();
        assert_eq!(m.part(1).rows(), 0);
        let p = Predicate::True.compile(&t).unwrap();
        assert_eq!(p.classify_partition(m.part(1)), ChunkMatch::NoRows);
    }

    #[test]
    fn extend_touches_only_receiving_partitions() {
        let mut t = table(90);
        let mut m = PartitionMap::build(&t, PartitionSpec::range("x", vec![30.0, 60.0])).unwrap();
        let before_p0 = m.part(0).clone();
        let before_p2 = m.part(2).clone();
        // Append rows landing only in the middle partition.
        let batch: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![(35.0 + i as f64 * 0.1).into(), "z".into(), 1.0.into()])
            .collect();
        t.push_rows(&batch).unwrap();
        let touched = m.extend(&t).unwrap();
        assert_eq!(touched, vec![1]);
        assert_eq!(m.part(0), &before_p0, "untouched partition must not move");
        assert_eq!(m.part(2), &before_p2, "untouched partition must not move");
        assert_eq!(m.part(1).rows(), 30 + 10);
        // The new label widened only partition 1's code set.
        let z = t.column("g").unwrap().code_of("z").unwrap();
        match m.part(1).summary(1).unwrap() {
            ColumnSummary::Cat { codes } => assert!(codes.contains(&z)),
            _ => panic!("g is categorical"),
        }
        assert_eq!(m.rows_covered(), 100);
    }

    /// Regression: one ingest batch straddling several partitions must
    /// split cleanly — each receiving partition widens, each bystander
    /// stays bit-identical.
    #[test]
    fn cross_partition_batch_split() {
        let mut t = table(90);
        let mut m = PartitionMap::build(&t, PartitionSpec::range("x", vec![30.0, 60.0])).unwrap();
        let before_p1 = m.part(1).clone();
        let batch: Vec<Vec<Value>> = vec![
            vec![(-5.0).into(), "a".into(), 1.0.into()], // partition 0
            vec![500.0.into(), "b".into(), 2.0.into()],  // partition 2
            vec![(-6.0).into(), "c".into(), 3.0.into()], // partition 0
        ];
        t.push_rows(&batch).unwrap();
        let touched = m.extend(&t).unwrap();
        assert_eq!(touched, vec![0, 2]);
        assert_eq!(m.part(1), &before_p1);
        match m.part(0).summary(0).unwrap() {
            ColumnSummary::Num { min, .. } => assert_eq!(*min, -6.0),
            _ => panic!("x is numeric"),
        }
        match m.part(2).summary(0).unwrap() {
            ColumnSummary::Num { max, .. } => assert_eq!(*max, 500.0),
            _ => panic!("x is numeric"),
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let t = table(10);
        assert!(PartitionMap::build(&t, PartitionSpec::range("g", vec![1.0])).is_err());
        assert!(PartitionMap::build(&t, PartitionSpec::hash("x", 0)).is_err());
        assert!(PartitionMap::build(&t, PartitionSpec::hash("nope", 2)).is_err());
        assert!(PartitionMap::build(&t, PartitionSpec::range("x", vec![f64::NAN])).is_err());
    }

    #[test]
    fn nan_routes_to_last_range_partition() {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        t.push_row(vec![1.0.into(), 1.0.into()]).unwrap();
        t.push_row(vec![f64::NAN.into(), 2.0.into()]).unwrap();
        let m = PartitionMap::build(&t, PartitionSpec::range("x", vec![10.0])).unwrap();
        let routed = m.route(&t, 0..2).unwrap();
        assert_eq!(routed, vec![0, 1]);
        match m.part(1).summary(0).unwrap() {
            ColumnSummary::Num { has_nan, .. } => assert!(has_nan),
            _ => panic!("x is numeric"),
        }
        // A NaN-holding partition is never provably dense for a range.
        let p = Predicate::between("x", f64::NEG_INFINITY, f64::INFINITY)
            .compile(&t)
            .unwrap();
        assert_ne!(p.classify_partition(m.part(1)), ChunkMatch::AllRows);
    }
}
