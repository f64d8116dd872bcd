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
//! - **Append-only row files** ([`partfile`], `part-<id>.vcol`): the
//!   base rows, written once at create and then only appended to — each
//!   ingest adds one CRC-framed record stamped with its WAL sequence.
//!   An ingest costs the rows it adds, and a snapshot never rewrites
//!   them.
//! - **Crash-safe recovery** ([`store::SynopsisStore::open`]): the newest
//!   snapshot generation that validates is loaded (corrupt generations
//!   fall back to older ones), the log's and the row files' torn tails —
//!   short writes, bad checksums, garbage lengths — are truncated away,
//!   and surviving records with `seq > snapshot.last_seq` are replayed.
//!
//! A resident table and an out-of-core ("paged") one go through the same
//! [`SynopsisStore::create`], [`SynopsisStore::open`] and
//! [`SynopsisStore::snapshot`], and keep their rows in the same row
//! format: a resident table in one file, `part-000000.vcol`, read whole
//! at open; a paged table in one file per partition, faulted in on
//! demand. What open hands back is the one difference ([`BaseRows`]).
//!
//! ## Catalog layout (version 3)
//!
//! A multi-table `Database` persists under one root directory: a
//! [`catalog`] manifest (`CATALOG`: magic `"VDBLCATL"`, version 3,
//! CRC-checked ordered table names) plus one complete per-table store in
//! `tables/<name>/`. Every per-table store is an ordinary store
//! directory, so the WAL/snapshot/recovery machinery below applies per
//! table unchanged, and a single-table directory (no manifest) still
//! opens.
//!
//! ## Per-table store format
//!
//! All integers little-endian; all floats raw IEEE-754 bits (bit-exact
//! round trips). Payload encodings come from [`verdict_core::persist`].
//!
//! ```text
//! part-<id>.vcol (one per partition; a resident table has only id 0):
//!   magic     8B  "VDBLPCOL"
//!   version   u32 = 1
//!   partition u32
//!   records:  len u32 | crc u32 | payload   (crc over payload)
//!     payload = seq u64 | rows u32 | columns (column-major: numeric
//!               f64 bits, categorical u32 codes into the snapshot's
//!               resolution table); record 0 holds the create-time rows
//!               (seq 0), each later record one ingest batch's share
//!
//! snapshot-<gen>.vsnap:
//!   magic     8B  "VDBLSNAP"
//!   version   u32 = 4   (the only version read)
//!   last_seq  u64   highest log sequence folded into this snapshot
//!   table_gen u64 = 0   reserved
//!   body_len  u64
//!   body_crc  u32   CRC-32 (ISO-HDLC) of body
//!   body          SessionMeta ++ table_fp u64 ++ data_epoch u64
//!                 ++ resolution Table (zero rows: schema + dictionaries)
//!                 ++ PagedState (only when SessionMeta.paged)
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
//! `table_fp` is the FNV-1a of every part file's id and create-time
//! record CRC: it binds a snapshot to the base rows it was learned from.
//! A store without `part-000000.vcol` — one whose rows sat in the
//! retired table generations — is refused at open.
//!
//! ## Ingest and recovery
//!
//! Ingest is WAL-first: the row batch and the synopsis adjustments the
//! live engine applied land in `wal.vlog` (tag 2), then the batch
//! write-extends **only** the part files that received rows, each
//! appended record stamped with the batch's WAL sequence. A checkpoint
//! writes the snapshot file alone — the rows are durable already — so
//! its cost scales with the synopsis, not the data.
//!
//! Recovery heals torn part-file tails by frame CRC (exactly like the
//! WAL's own tail), cuts any record stamped past the newest sequence the
//! log and snapshot hold (its WAL record did not survive), verifies the
//! create-time records against the snapshot's `table_fp`, and replays
//! each surviving ingest record: it re-appends the batch to any part
//! file whose records lack its sequence — record-level idempotence, so a
//! batch that "won the crash" in some files and lost it in others
//! converges without double appends — and stages and commits the same
//! Lemma-3 rewrite the live engine did. A torn ingest frame recovers to
//! the last complete batch, with rows, sample and synopses mutually
//! consistent, and answers bit-identical to a session that never
//! crashed.
//!
//! An out-of-core table (`partition_by` + `persist_to`) keeps only its
//! resolution table and each sample's ingest tail resident. The snapshot
//! body's [`PagedState`] carries the partition map with per-partition
//! summaries, the frozen create-time cardinalities the sample segments
//! draw over, and the tails. Queries fault partition segments in on
//! demand under a byte budget; partitions whose summaries exclude the
//! predicate are pruned without opening their files at all.
//!
//! A log or snapshot whose header carries an unknown version or foreign
//! magic is refused, never truncated.

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
    BaseRows, PagedRecovered, Recovered, RecoveryReport, SharedStore, SnapshotReceipt, StorePolicy,
    StoreStats, SynopsisStore,
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
