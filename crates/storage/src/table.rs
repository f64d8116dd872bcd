//! Row-appendable columnar tables.

use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::chunk::ZoneMaps;
use crate::{Column, ColumnType, Result, Schema, StorageError, Value};

/// An in-memory columnar table.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    /// One lazily filled slot per column: `(min, max)` of a numeric
    /// column, `None` for a categorical or empty one. Ranges are `O(rows)`
    /// to recompute and predicate-range defaulting asks for them
    /// repeatedly, so they are cached; a mutation replaces every slot
    /// with an empty one (see [`Table::invalidate_stats`]).
    stats: Vec<OnceLock<Option<(f64, f64)>>>,
    /// Per-chunk zone maps, built lazily on first chunked scan. Unlike
    /// `stats`, appends do *not* clear this cache: zone maps extend
    /// incrementally (min/max is associative), so [`Table::zone_maps`]
    /// scans only the tail rows appended since the last access.
    ///
    /// An `RwLock` rather than a `Mutex`: once the cache covers every
    /// row (the steady state between ingests), concurrent scan workers
    /// clone the `Arc` under a shared read lock instead of serializing
    /// on one mutex at every batch.
    zones: RwLock<Option<Arc<ZoneMaps>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            rows: self.rows,
            stats: self.stats.clone(),
            zones: RwLock::new(
                self.zones
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns: Vec<Column> = schema
            .columns()
            .iter()
            .map(|c| match c.ty {
                ColumnType::Numeric => Column::new_numeric(),
                ColumnType::Categorical => Column::new_categorical(),
            })
            .collect();
        let stats = fresh_stats(columns.len());
        Table {
            schema,
            columns,
            rows: 0,
            stats,
            zones: RwLock::new(None),
        }
    }

    /// Assembles a table directly from columns (bulk load / persistence).
    ///
    /// The columns must be given in schema order, match each declared
    /// column type, and all have the same length.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        if columns.len() != schema.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "{} columns given, schema has {}",
                columns.len(),
                schema.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (col, def) in columns.iter().zip(schema.columns()) {
            let type_ok = matches!(
                (col, def.ty),
                (Column::Numeric(_), ColumnType::Numeric)
                    | (Column::Categorical { .. }, ColumnType::Categorical)
            );
            if !type_ok {
                return Err(StorageError::TypeError(format!(
                    "column {} does not match its declared type",
                    def.name
                )));
            }
            if col.len() != rows {
                return Err(StorageError::SchemaMismatch(format!(
                    "ragged columns: {} has {} rows, expected {rows}",
                    def.name,
                    col.len()
                )));
            }
        }
        let stats = fresh_stats(columns.len());
        Ok(Table {
            schema,
            columns,
            rows,
            stats,
            zones: RwLock::new(None),
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends one row given in schema order.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        // Validate all values first so a failed push cannot leave ragged
        // columns behind.
        for (v, def) in row.iter().zip(self.schema.columns()) {
            let ok = matches!(
                (v, def.ty),
                (Value::Num(_), ColumnType::Numeric)
                    | (Value::Cat(_), ColumnType::Categorical)
                    | (Value::Str(_), ColumnType::Categorical)
            );
            if !ok {
                return Err(StorageError::TypeError(format!(
                    "value {v} does not fit column {}",
                    def.name
                )));
            }
        }
        for (v, col) in row.into_iter().zip(self.columns.iter_mut()) {
            col.push(v)?;
        }
        self.rows += 1;
        self.invalidate_stats();
        Ok(())
    }

    /// Appends a batch of rows atomically: every row is validated against
    /// the schema *before* any value is stored, so a bad row in the middle
    /// of a batch can never leave a partial append behind. This is the
    /// ingest path's entry point into the storage layer.
    pub fn push_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != self.schema.len() {
                return Err(StorageError::SchemaMismatch(format!(
                    "batch row {i} has {} values, schema has {} columns",
                    row.len(),
                    self.schema.len()
                )));
            }
            for (v, def) in row.iter().zip(self.schema.columns()) {
                let ok = matches!(
                    (v, def.ty),
                    (Value::Num(_), ColumnType::Numeric)
                        | (Value::Cat(_), ColumnType::Categorical)
                        | (Value::Str(_), ColumnType::Categorical)
                );
                if !ok {
                    return Err(StorageError::TypeError(format!(
                        "batch row {i}: value {v} does not fit column {}",
                        def.name
                    )));
                }
            }
        }
        for row in rows {
            for (v, col) in row.iter().zip(self.columns.iter_mut()) {
                col.push(v.clone())?;
            }
            self.rows += 1;
        }
        self.invalidate_stats();
        Ok(())
    }

    /// Drops every cached per-column statistic; the next
    /// [`Table::column_bounds`] call
    /// recomputes from the (now larger) data.
    fn invalidate_stats(&mut self) {
        self.stats = fresh_stats(self.columns.len());
    }

    /// Column accessor by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let i = self.schema.index_of(name)?;
        Ok(&self.columns[i])
    }

    /// Column accessor by index.
    pub fn column_at(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// Reads one full row (mostly for tests and debugging).
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Reads one row, decoding categorical codes back to their string
    /// labels when a label exists. Joins use this so output tables rebuild
    /// consistent dictionaries.
    pub fn row_decoded(&self, row: usize) -> Vec<Value> {
        self.columns
            .iter()
            .map(|c| match c.get(row) {
                Value::Cat(code) => match c.label_of(code) {
                    Some(label) => Value::Str(label.to_owned()),
                    None => Value::Cat(code),
                },
                v => v,
            })
            .collect()
    }

    /// Materializes a new table containing only `rows` (in the given order).
    pub fn gather(&self, rows: &[usize]) -> Result<Table> {
        let mut out = Table::new(self.schema.clone());
        for (dst, src) in out.columns.iter_mut().zip(self.columns.iter()) {
            dst.gather_from(src, rows)?;
        }
        out.rows = rows.len();
        Ok(out)
    }

    /// Appends all rows of `other` (schemas must be identical).
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(StorageError::SchemaMismatch(
                "append requires identical schemas".into(),
            ));
        }
        let rows: Vec<usize> = (0..other.rows).collect();
        for (dst, src) in self.columns.iter_mut().zip(other.columns.iter()) {
            dst.gather_from(src, &rows)?;
        }
        self.rows += other.rows;
        self.invalidate_stats();
        Ok(())
    }

    /// Observed min/max of a numeric column, used to default unconstrained
    /// predicate ranges to `(min(Ak), max(Ak))` per the paper §4.1.
    /// Cached; appends invalidate the cache.
    pub fn column_bounds(&self, name: &str) -> Result<(f64, f64)> {
        let i = self.schema.index_of(name)?;
        self.stats[i]
            .get_or_init(|| self.columns[i].numeric_range())
            .ok_or_else(|| StorageError::TypeError(format!("column {name} has no numeric range")))
    }

    /// Adopts `other`'s categorical dictionaries column by column (see
    /// `Column::sync_dictionary_from`); schemas must be identical.
    pub fn sync_dictionaries_from(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(StorageError::SchemaMismatch(
                "dictionary sync requires identical schemas".into(),
            ));
        }
        for (dst, src) in self.columns.iter_mut().zip(other.columns.iter()) {
            dst.sync_dictionary_from(src)?;
        }
        self.invalidate_stats();
        Ok(())
    }

    /// A typed view of chunk `index` ([`crate::chunk::CHUNK_ROWS`] rows,
    /// the last chunk possibly short).
    pub fn chunk(&self, index: usize) -> crate::chunk::Chunk<'_> {
        let start = index * crate::chunk::CHUNK_ROWS;
        let end = (start + crate::chunk::CHUNK_ROWS).min(self.rows);
        crate::chunk::Chunk::new(index, start..end, &self.columns)
    }

    /// Iterates every chunk of the table in order.
    pub fn chunks(&self) -> impl Iterator<Item = crate::chunk::Chunk<'_>> {
        (0..self.rows.div_ceil(crate::chunk::CHUNK_ROWS)).map(|i| self.chunk(i))
    }

    /// Per-chunk zone maps covering every current row.
    ///
    /// Built on first use; subsequent calls after an append extend the
    /// cached maps by scanning only the rows past the last fully-covered
    /// chunk — whole-column bound recomputation never happens on the
    /// ingest path, and stale bounds can never be served (coverage is
    /// checked against `num_rows` on every access).
    ///
    /// A panic while the cache is locked cannot leave it torn: each update
    /// is one assignment of a whole map, so the slot holds the old map or
    /// the new one, and coverage is re-checked here on every access. The
    /// locks therefore absorb poison instead of failing every later scan.
    pub fn zone_maps(&self) -> Arc<ZoneMaps> {
        // Fast path: a warm, fully-covering cache is served under the
        // shared read lock — parallel workers never contend.
        {
            let slot = self.zones.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(zm) = slot.as_ref() {
                if zm.rows_covered() == self.rows {
                    return Arc::clone(zm);
                }
            }
        }
        let mut slot = self.zones.write().unwrap_or_else(PoisonError::into_inner);
        match slot.as_ref() {
            // Another writer may have filled the cache between our read
            // and write acquisitions.
            Some(zm) if zm.rows_covered() == self.rows => Arc::clone(zm),
            Some(zm) => {
                let next = Arc::new(zm.extended(&self.columns, self.rows));
                *slot = Some(Arc::clone(&next));
                next
            }
            None => {
                let fresh = Arc::new(ZoneMaps::build(&self.columns, self.rows));
                *slot = Some(Arc::clone(&fresh));
                fresh
            }
        }
    }

    /// Approximate heap footprint of the row data in bytes (column
    /// payloads plus dictionary labels) — the unit the out-of-core
    /// partition cache budgets in. Schema and cached statistics are not
    /// counted; they are negligible next to the columns.
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.columns.iter().map(Column::heap_bytes).sum()
    }
}

/// A fresh (empty) stats slot per column.
fn fresh_stats(n: usize) -> Vec<OnceLock<Option<(f64, f64)>>> {
    (0..n).map(|_| OnceLock::new()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnDef;

    fn sales_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("revenue"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        t.push_row(vec![1.0.into(), "us".into(), 100.0.into()])
            .unwrap();
        t.push_row(vec![2.0.into(), "eu".into(), 150.0.into()])
            .unwrap();
        t.push_row(vec![3.0.into(), "us".into(), 120.0.into()])
            .unwrap();
        t
    }

    #[test]
    fn push_and_read_rows() {
        let t = sales_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(
            t.row(1),
            vec![Value::Num(2.0), Value::Cat(1), Value::Num(150.0)]
        );
    }

    #[test]
    fn rejects_wrong_arity() {
        let mut t = sales_table();
        assert!(t.push_row(vec![1.0.into()]).is_err());
        // A failed push must not corrupt row count.
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn rejects_type_mismatch_atomically() {
        let mut t = sales_table();
        let r = t.push_row(vec![1.0.into(), "us".into(), Value::Cat(1)]);
        assert!(r.is_err());
        assert_eq!(t.num_rows(), 3);
        // Columns stay rectangular.
        assert_eq!(t.column("week").unwrap().len(), 3);
        assert_eq!(t.column("revenue").unwrap().len(), 3);
    }

    #[test]
    fn gather_preserves_order() {
        let t = sales_table();
        let g = t.gather(&[2, 0]).unwrap();
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.row(0)[0], Value::Num(3.0));
        assert_eq!(g.row(1)[0], Value::Num(1.0));
    }

    #[test]
    fn append_concatenates() {
        let mut a = sales_table();
        let b = sales_table();
        a.append(&b).unwrap();
        assert_eq!(a.num_rows(), 6);
    }

    #[test]
    fn column_bounds_reports_min_max() {
        let t = sales_table();
        assert_eq!(t.column_bounds("week").unwrap(), (1.0, 3.0));
        assert!(t.column_bounds("region").is_err());
    }

    #[test]
    fn push_rows_appends_batch() {
        let mut t = sales_table();
        t.push_rows(&[
            vec![4.0.into(), "jp".into(), 90.0.into()],
            vec![5.0.into(), "us".into(), 95.0.into()],
        ])
        .unwrap();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.row(4)[0], Value::Num(5.0));
    }

    #[test]
    fn push_rows_is_atomic() {
        let mut t = sales_table();
        // Second row is malformed: nothing from the batch may land.
        let err = t.push_rows(&[
            vec![4.0.into(), "jp".into(), 90.0.into()],
            vec![5.0.into(), 1.0.into(), 95.0.into()],
        ]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column("week").unwrap().len(), 3);
    }

    #[test]
    fn cached_stats_invalidate_on_append() {
        let mut t = sales_table();
        assert_eq!(t.column_bounds("week").unwrap(), (1.0, 3.0));
        t.push_rows(&[vec![9.0.into(), "jp".into(), 1.0.into()]])
            .unwrap();
        assert_eq!(t.column_bounds("week").unwrap(), (1.0, 9.0));
        // Single-row pushes invalidate too.
        t.push_row(vec![0.5.into(), "us".into(), 1.0.into()])
            .unwrap();
        assert_eq!(t.column_bounds("week").unwrap(), (0.5, 9.0));
    }

    /// Regression: the cached zone maps must never serve stale bounds
    /// after an ingest. Rows appended into the partially-filled last
    /// chunk (and beyond it) carry values outside the old bounds; a
    /// predicate selecting only those values must still classify the
    /// extended chunks as matchable — a stale cache would prune them and
    /// silently drop the appended rows from every scan.
    #[test]
    fn zone_maps_extend_after_ingest_instead_of_pruning_stale_bounds() {
        use crate::chunk::CHUNK_ROWS;
        use crate::{ChunkMatch, Predicate};
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        // 1.5 chunks of x ∈ [0, 10): the last chunk is half full.
        let initial = CHUNK_ROWS + CHUNK_ROWS / 2;
        for i in 0..initial {
            t.push_row(vec![((i % 10) as f64).into(), 1.0.into()])
                .unwrap();
        }
        let old = t.zone_maps();
        assert_eq!(old.rows_covered(), initial);
        // Straddling append: fills the rest of chunk 1 and spills into
        // chunk 2, all with x = 100 — far outside the cached bounds.
        let batch: Vec<Vec<Value>> = (0..CHUNK_ROWS)
            .map(|_| vec![100.0.into(), 2.0.into()])
            .collect();
        t.push_rows(&batch).unwrap();
        let fresh = t.zone_maps();
        assert_eq!(fresh.rows_covered(), t.num_rows());
        assert_eq!(fresh.num_chunks(), 3);
        // Chunk 0 predates the append: its bounds are untouched.
        assert_eq!(fresh.num_zone(0, 0).unwrap().max, 9.0);
        // Chunks 1 and 2 absorbed the new rows: a predicate matching
        // only appended values must not be pruned there.
        let pred = Predicate::between("x", 50.0, 150.0).compile(&t).unwrap();
        assert_eq!(pred.classify_chunk(&fresh, 0), ChunkMatch::NoRows);
        for c in 1..3 {
            assert_ne!(
                pred.classify_chunk(&fresh, c),
                ChunkMatch::NoRows,
                "stale bounds pruned extended chunk {c}"
            );
        }
    }

    /// A thread that panics while holding the zone cache's write lock
    /// poisons it; the next scan still gets covering zone maps (and a
    /// clone still copies the slot) instead of panicking in turn.
    #[test]
    fn a_panic_under_the_zone_cache_lock_does_not_fail_the_next_scan() {
        use crate::{ChunkMatch, Predicate};
        let mut t = sales_table();
        let warm = t.zone_maps();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = t.zones.write().unwrap();
            panic!("scan worker died holding the zone cache");
        }));
        assert!(crashed.is_err());
        assert!(t.zones.is_poisoned());
        // The slot still holds the whole old map: served as is.
        assert!(Arc::ptr_eq(&t.zone_maps(), &warm));
        // An append makes it stale; the poisoned slot is extended.
        t.push_row(vec![40.0.into(), "jp".into(), 1.0.into()])
            .unwrap();
        let zm = t.zone_maps();
        assert_eq!(zm.rows_covered(), 4);
        let pred = Predicate::between("week", 30.0, 50.0).compile(&t).unwrap();
        assert_ne!(pred.classify_chunk(&zm, 0), ChunkMatch::NoRows);
        assert_eq!(t.clone().zone_maps().rows_covered(), 4);
    }
}
