//! Durable, versioned synopsis store — the database's long-term memory.
//!
//! The paper's promise is a database that *becomes smarter every time*;
//! this crate makes that intelligence survive restarts. It persists the
//! three things a [`verdict_core::Verdict`] engine learns — the query
//! synopsis, the fitted kernel hyperparameters, and the conditioning state
//! (the packed Cholesky factor of `Σₙ`, and `α`) — with the classic WAL +
//! snapshot architecture:
//!
//! - **Append-only snippet log** ([`log::SnippetLog`], `wal.vlog`): every
//!   observed snippet is appended as a length-prefixed, CRC-32-checksummed
//!   record carrying a monotone sequence number. Appends are incremental
//!   (`O(record)`, not `O(state)`), driven by the engine's
//!   [`verdict_core::SnippetObserver`] hook.
//! - **Compacted snapshots** ([`snapshot`], `snapshot-<gen>.vsnap`):
//!   periodically, the full session state — session parameters,
//!   synopses, trained models, and a binding to the base rows — is
//!   written to a fresh generation file (temp + fsync + atomic rename,
//!   [`snapshot::write_atomic`]) and the log is truncated. Snapshots
//!   record the last folded sequence number, so a crash between "write
//!   snapshot" and "truncate log" never double applies records.
//! - **Crash-safe recovery** ([`store::SynopsisStore::open`]): the newest
//!   snapshot generation that validates is loaded (corrupt generations
//!   fall back to older ones), the log's torn tail — short writes, bad
//!   checksums, garbage lengths — is truncated away, and surviving
//!   records with `seq > snapshot.last_seq` are replayed into the
//!   synopsis.
//!
//! A resident table and an out-of-core ("paged") one go through the same
//! [`SynopsisStore::create`], [`SynopsisStore::open`] and
//! [`SynopsisStore::snapshot`]; they differ only in where the base rows
//! live ([`BaseRows`], [`SnapshotBase`]).
//!
//! ## Catalog layout (version 3)
//!
//! A multi-table `Database` persists under one root directory: a
//! [`catalog`] manifest (`CATALOG`: magic `"VDBLCATL"`, version 3,
//! CRC-checked ordered table names) plus one complete per-table store in
//! `tables/<name>/`. Every per-table store is an ordinary v2 directory,
//! so the WAL/snapshot/recovery machinery below applies per table
//! unchanged, and a v2 single-table directory (no manifest) still opens.
//!
//! ## Per-table store format (version 2)
//!
//! All integers little-endian; all floats raw IEEE-754 bits (bit-exact
//! round trips). Payload encodings come from [`verdict_core::persist`].
//! Version 2 replaced v1's write-once `table.vtab` with **table
//! generations** and added **ingest records** to the WAL, so the store
//! can persist an evolving relation.
//!
//! ```text
//! table-<gen>.vtab (immutable once written; a checkpoint that folds
//!                   ingest records writes the next generation):
//!   magic    8B  "VDBLTABL"
//!   version  u32 = 1
//!   body_len u64
//!   body_crc u32   CRC-32 (ISO-HDLC) of body
//!   body         Table (schema + columns)
//!
//! snapshot-<gen>.vsnap:
//!   magic     8B  "VDBLSNAP"
//!   version   u32 = 4   (2 and 3 still open; their models are refit)
//!   last_seq  u64   highest log sequence folded into this snapshot
//!   table_gen u64   table generation the state was learned against
//!   body_len  u64
//!   body_crc  u32   CRC-32 (ISO-HDLC) of body
//!   body          SessionMeta ++ table_fp u64 ++ data_epoch u64
//!                 ++ PagedState (only when SessionMeta.paged; v3+)
//!                 ++ EngineState
//!
//! wal.vlog:
//!   magic    8B  "VDBLWLOG"
//!   version  u32 = 2
//!   reserved u32 = 0
//!   records:
//!     len u32 | crc u32 | payload   (crc over payload)
//!     payload = tag u8 = 1 | seq u64 | AggKey | Region | Observation
//!             | tag u8 = 2 | seq u64 | rows | adjustments
//!       rows        = count u64, then per row: count u64, then per value
//!                     tag u8 (0 = Num f64, 1 = Cat u32, 2 = Str)
//!       adjustments = count u64, then per entry: AggKey ++
//!                     AppendAdjustment (µ f64, η f64, |r| u64, |r_a| u64)
//!
//! LOCK: advisory single-writer lock (flock'd while a session is live;
//!       released automatically by the OS on process death)
//! ```
//!
//! ## Out-of-core partitions (paged stores, snapshot v3 onward)
//!
//! A session built with `partition_by` + `persist_to` goes **paged**: the
//! base table's rows never live in `table-<gen>.vtab` generations at all.
//! Instead each partition's rows sit in an append-only column file,
//! `part-<id>.vcol` (see [`partfile`] for the exact frame layout), and
//! the snapshot body carries a [`PagedState`] — the partition map with
//! per-partition summaries, the frozen create-time cardinalities the
//! sample segments draw over, the zero-row *resolution* table holding
//! the schema and full categorical dictionaries, and each sample's
//! resident ingest tail. Queries fault partition segments in on demand
//! under a byte budget; partitions whose summaries exclude the predicate
//! are pruned without opening their files at all.
//!
//! Ingest stays WAL-first: the row batch lands in `wal.vlog` (tag 2, as
//! in v2), then write-extends **only** the `part-<id>.vcol` files that
//! actually received rows, stamping each appended record with the
//! batch's WAL sequence. Recovery after a crash heals torn part-file
//! tails by frame CRC (exactly like the WAL's own tail), verifies each
//! file's record-0 CRC against the manifest fingerprint, and re-appends
//! any WAL ingest batch whose sequence is missing from a partition's
//! file — record-level idempotence, so a batch that "won the crash" in
//! some partitions and lost it in others converges without double
//! appends. Answers after recovery are bit-identical to a session that
//! never crashed.
//!
//! Snapshots carry only the session metadata and learned state; the
//! (potentially large) base table lives in immutable generation files
//! bound to each snapshot by generation number and FNV-1a fingerprint. A
//! checkpoint rewrites the table **only** when ingest records landed
//! since the previous generation, so compaction cost on a non-evolving
//! table still scales with the synopsis rather than the data. An ingest
//! record carries the appended rows *and* the synopsis adjustments the
//! live engine applied, so recovery replays exactly what the live
//! session did — a torn ingest frame recovers to the last complete
//! batch, with table, sample, and synopses mutually consistent. A log or
//! snapshot whose header carries an unknown version or foreign magic is
//! refused, never truncated.

pub mod catalog;
pub mod crc;
pub mod log;
pub mod partfile;
pub mod snapshot;
pub mod store;
pub mod tablecodec;

pub use catalog::{read_catalog, write_catalog, CatalogManifest};
pub use partfile::{read_part_rows, PagedState, PartScan};
pub use snapshot::{SessionMeta, Snapshot};
pub use store::{
    BaseRows, PagedRecovered, Recovered, RecoveryReport, SharedStore, SnapshotBase,
    SnapshotReceipt, StorePolicy, StoreStats, SynopsisStore,
};

/// Errors raised by the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A frame or payload failed structural validation.
    Corrupt(String),
    /// Payload decoding failure (from `verdict_core::persist`).
    Persist(verdict_core::PersistError),
    /// The store exists but belongs to a different schema/session shape.
    Mismatch(String),
    /// No usable snapshot was found where one was required.
    NotFound(String),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<verdict_core::PersistError> for StoreError {
    fn from(e: verdict_core::PersistError) -> Self {
        StoreError::Persist(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            StoreError::Persist(e) => write!(f, "store payload: {e}"),
            StoreError::Mismatch(m) => write!(f, "store mismatch: {m}"),
            StoreError::NotFound(m) => write!(f, "store not found: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
