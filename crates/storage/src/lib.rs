//! In-memory columnar storage engine.
//!
//! This crate is the "data warehouse" substrate of the reproduction: the
//! paper runs Verdict on Spark SQL over HDFS; we run it over an in-process
//! columnar store. Tables are dictionary-encoded for categorical columns and
//! plain `f64` vectors for numeric columns. The crate provides:
//!
//! - [`schema`]: column definitions with the paper's dimension/measure split
//!   (§3.1: dimension attributes appear in predicates, measure attributes in
//!   aggregates);
//! - [`table`]: row-appendable columnar tables;
//! - [`expr`]: scalar expressions so aggregates can target *derived*
//!   attributes (§2.2, e.g. `revenue * discount`);
//! - [`predicate`]: conjunctive selection predicates (ranges over numeric
//!   dimensions, IN-sets over categorical ones) matching Verdict's supported
//!   `where` clauses, compilable to column-bound form whose `fill_mask`
//!   kernels evaluate each conjunct as a branch-free loop over a chunk
//!   into a `u64` selection bitmap;
//! - [`chunk`]: the columnar chunk format — 1024-row batches, selection
//!   bitmaps, per-chunk min/max zone maps (scan skipping now; the
//!   groundwork for partition pruning later), and bit-packed dictionary
//!   codes for low-cardinality categorical columns;
//! - [`partition`]: horizontal range/hash partitions with partition-level
//!   min/max + code-set summaries, so whole partitions can be skipped or
//!   classified dense before any chunk is touched;
//! - [`scan`]: shared-scan building blocks — group-key enumeration on
//!   the chunk kernels (ending early once metadata proves the key set
//!   complete) and row → group-index mapping, with a dense
//!   code → group lookup table for single-column categorical group-bys;
//! - [`aggregate`]: exact AVG/SUM/COUNT/FREQ evaluation (ground truth for
//!   experiments).

pub mod aggregate;
pub mod chunk;
pub mod column;
pub mod expr;
pub mod partition;
pub mod predicate;
pub mod pstore;
pub mod scan;
pub mod schema;
pub mod table;
pub mod value;

pub use aggregate::{eval_group_by, AggregateFn, GroupKey};
pub use chunk::{
    chunk_segments, CatZone, NumZone, PackedCodes, SelectionMask, ZoneMaps, CHUNK_ROWS,
};
pub use column::Column;
pub use expr::Expr;
pub use partition::{ColumnSummary, PartitionInfo, PartitionMap, PartitionScheme, PartitionSpec};
pub use predicate::{ChunkMatch, CompiledPredicate, Predicate};
pub use pstore::{CacheCounters, PartitionStore, SegmentKey, SegmentPin};
pub use scan::{distinct_group_keys, GroupIndexer, GroupKeyCollector};
pub use schema::{AttributeRole, ColumnDef, ColumnType, Schema};
pub use table::{row_ids, Table};
pub use value::Value;

/// Errors raised by the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// Referenced a column that does not exist.
    UnknownColumn(String),
    /// A row or operation did not match the table schema.
    SchemaMismatch(String),
    /// An expression was applied to an incompatible column type.
    TypeError(String),
    /// An out-of-core segment could not be faulted in (I/O or decode
    /// failure surfaced by the paging loader).
    Io(String),
    /// A table holds more rows than `u32` row ids address.
    TooManyRows(usize),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            StorageError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StorageError::TypeError(m) => write!(f, "type error: {m}"),
            StorageError::Io(m) => write!(f, "io error: {m}"),
            StorageError::TooManyRows(n) => write!(
                f,
                "{n} rows: row ids are u32, so a table holds at most {} rows",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
