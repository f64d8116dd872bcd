//! The append-only write-ahead log (`wal.vlog`).
//!
//! Records are framed `len u32 | crc u32 | payload` after a fixed file
//! header. The log is the incremental half of durability: every snippet
//! the engine observes — and, since format v2, every ingested row batch
//! with its synopsis adjustments — lands here immediately, and a snapshot
//! later folds the accumulated records away.
//!
//! Recovery tolerates *any* torn tail: a partial header, a partial frame,
//! a length pointing past EOF, or a checksum mismatch all terminate the
//! scan at the last valid record, and the file is truncated back to that
//! prefix so subsequent appends extend a clean log. A torn ingest frame
//! therefore recovers to the *last complete batch*: the record carries
//! the rows and the adjustments together, so a batch is either wholly
//! replayed or wholly absent.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use verdict_core::append::AppendAdjustment;
use verdict_core::persist::{Decoder, Encoder, Persist};
use verdict_core::snippet::{AggKey, Observation};
use verdict_core::Region;
use verdict_storage::Value;

use crate::crc::crc32;
use crate::{Result, StoreError};

/// File magic for the write-ahead log.
pub const LOG_MAGIC: [u8; 8] = *b"VDBLWLOG";
/// Current log format version (v2 added ingest records; v1 logs are
/// refused, never truncated).
pub const LOG_VERSION: u32 = 2;
/// Header: magic + version + reserved word.
pub const LOG_HEADER_LEN: u64 = 16;
/// Upper bound on a single record payload; lengths above this are treated
/// as corruption rather than attempted allocations. Oversized ingest
/// batches are refused at append time — split them.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// Record type tag for snippet appends.
const TAG_SNIPPET: u8 = 1;
/// Record type tag for ingested row batches.
const TAG_INGEST: u8 = 2;

/// A snippet observation with its sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct SnippetRecord {
    /// Monotone sequence number assigned at append time.
    pub seq: u64,
    /// Aggregate the snippet belongs to.
    pub key: AggKey,
    /// The snippet's predicate region.
    pub region: Region,
    /// The raw answer/error pair.
    pub observation: Observation,
}

/// One ingested row batch: the rows that were appended to the base table
/// plus the Lemma-3 adjustments the live session applied to each affected
/// synopsis. Logging the *computed* adjustments (rather than re-deriving
/// them at replay) makes recovery bit-identical by construction — replay
/// applies exactly what the live engine applied.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRecord {
    /// Monotone sequence number assigned at append time.
    pub seq: u64,
    /// The appended rows, in schema order, exactly as pushed.
    pub rows: Vec<Vec<Value>>,
    /// Per-aggregate synopsis adjustments, in the (sorted) order the live
    /// engine applied them.
    pub adjustments: Vec<(AggKey, AppendAdjustment)>,
}

/// One recovered log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A snippet observation (Algorithm 2 line 6).
    Snippet(SnippetRecord),
    /// An ingested row batch with its synopsis adjustments (Appendix D).
    Ingest(IngestRecord),
}

impl LogRecord {
    /// The record's monotone sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            LogRecord::Snippet(r) => r.seq,
            LogRecord::Ingest(r) => r.seq,
        }
    }

    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            LogRecord::Snippet(r) => {
                enc.put_u8(TAG_SNIPPET);
                enc.put_u64(r.seq);
                r.key.encode(&mut enc);
                r.region.encode(&mut enc);
                r.observation.encode(&mut enc);
            }
            LogRecord::Ingest(r) => {
                enc.put_u8(TAG_INGEST);
                enc.put_u64(r.seq);
                r.rows.encode(&mut enc);
                enc.put_len(r.adjustments.len());
                for (key, adj) in &r.adjustments {
                    key.encode(&mut enc);
                    adj.encode(&mut enc);
                }
            }
        }
        enc.into_bytes()
    }

    fn decode_payload(payload: &[u8]) -> Result<LogRecord> {
        let mut dec = Decoder::new(payload);
        let tag = dec.take_u8()?;
        let record = match tag {
            TAG_SNIPPET => {
                let seq = dec.take_u64()?;
                let key = AggKey::decode(&mut dec)?;
                let region = Region::decode(&mut dec)?;
                let observation = Observation::decode(&mut dec)?;
                LogRecord::Snippet(SnippetRecord {
                    seq,
                    key,
                    region,
                    observation,
                })
            }
            TAG_INGEST => {
                let seq = dec.take_u64()?;
                let rows = Vec::<Vec<Value>>::decode(&mut dec)?;
                let n_adj = dec.take_len()?;
                let mut adjustments = Vec::with_capacity(n_adj.min(1 << 10));
                for _ in 0..n_adj {
                    let key = AggKey::decode(&mut dec)?;
                    let adj = AppendAdjustment::decode(&mut dec)?;
                    adjustments.push((key, adj));
                }
                LogRecord::Ingest(IngestRecord {
                    seq,
                    rows,
                    adjustments,
                })
            }
            t => return Err(StoreError::Corrupt(format!("unknown record tag {t}"))),
        };
        if !dec.is_exhausted() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes in record",
                dec.remaining()
            )));
        }
        Ok(record)
    }
}

/// Outcome of validating the log's fixed file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderStatus {
    /// Magic and version both valid.
    Ok,
    /// Fewer bytes than a header — a torn create; no record can exist,
    /// so rewriting the file loses nothing.
    TooShort,
    /// The magic bytes are not a snippet log's — a foreign file that
    /// must not be overwritten.
    WrongMagic,
    /// Valid magic, but a version this build does not understand —
    /// likely written by a newer build; must not be truncated.
    WrongVersion(u32),
}

/// What a log scan found.
#[derive(Debug)]
pub struct LogScan {
    /// Header validation outcome.
    pub header: HeaderStatus,
    /// Every valid record, in file order.
    pub records: Vec<LogRecord>,
    /// Offset of the first invalid byte (= valid prefix length).
    pub valid_len: u64,
    /// Bytes discarded past the valid prefix (0 for a clean log).
    pub torn_bytes: u64,
}

/// Handle to an open, writable snippet log.
#[derive(Debug)]
pub struct SnippetLog {
    path: PathBuf,
    file: File,
    /// Bytes currently in the file (header included).
    len: u64,
    /// Records appended since open or last truncation.
    appended_since_reset: u64,
    /// Set when a failed append could not be rolled back: the file cursor
    /// may sit past torn bytes, so further appends would land after
    /// garbage and be silently dropped at recovery. All writes refuse
    /// until the log is reopened.
    poisoned: bool,
}

impl SnippetLog {
    /// Creates a fresh log (truncating any existing file) with a header.
    pub fn create(path: impl Into<PathBuf>) -> Result<SnippetLog> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&LOG_MAGIC)?;
        file.write_all(&LOG_VERSION.to_le_bytes())?;
        file.write_all(&0u32.to_le_bytes())?;
        file.flush()?;
        Ok(SnippetLog {
            path,
            file,
            len: LOG_HEADER_LEN,
            appended_since_reset: 0,
            poisoned: false,
        })
    }

    /// Opens an existing log, scanning and truncating any torn tail. A
    /// missing file is created fresh.
    pub fn open(path: impl Into<PathBuf>) -> Result<(SnippetLog, LogScan)> {
        let path = path.into();
        if !path.exists() {
            let log = SnippetLog::create(path)?;
            return Ok((
                log,
                LogScan {
                    header: HeaderStatus::Ok,
                    records: Vec::new(),
                    valid_len: LOG_HEADER_LEN,
                    torn_bytes: 0,
                },
            ));
        }
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let scan = scan_log_bytes(&bytes);
        match scan.header {
            HeaderStatus::Ok => {}
            HeaderStatus::TooShort => {
                // A torn create: a header-less file cannot hold records,
                // so rewriting it loses nothing.
                let log = SnippetLog::create(path)?;
                return Ok((log, scan));
            }
            HeaderStatus::WrongMagic => {
                // Foreign data must never be truncated away silently.
                return Err(StoreError::Corrupt(format!(
                    "{} is not a snippet log (bad magic)",
                    path.display()
                )));
            }
            HeaderStatus::WrongVersion(v) => {
                // Likely a newer build's log: truncating it would destroy
                // records this build merely cannot read.
                return Err(StoreError::Corrupt(format!(
                    "{} has log version {v}; this build supports {LOG_VERSION}",
                    path.display()
                )));
            }
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        if scan.valid_len < bytes.len() as u64 {
            file.set_len(scan.valid_len)?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        Ok((
            SnippetLog {
                path,
                file,
                len: scan.valid_len,
                appended_since_reset: 0,
                poisoned: false,
            },
            scan,
        ))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently in the log (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Records appended since open or the last [`SnippetLog::reset`].
    pub fn appended_since_reset(&self) -> u64 {
        self.appended_since_reset
    }

    /// Appends one record and flushes it to the OS, returning the number
    /// of bytes the record occupied on disk (frame header included) —
    /// the store's WAL byte accounting is derived from this value.
    ///
    /// A failed append rolls the file back to its last known-good length,
    /// so a partially written frame can never sit under records appended
    /// later (which recovery would then silently drop as a torn tail). If
    /// the rollback itself fails, the log is poisoned and refuses all
    /// further writes.
    pub fn append(&mut self, record: &LogRecord) -> Result<u64> {
        if self.poisoned {
            return Err(StoreError::Corrupt(format!(
                "{} is poisoned by an earlier failed append; reopen the store",
                self.path.display()
            )));
        }
        let payload = record.encode_payload();
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            // Scanners treat over-length frames as corruption, so writing
            // one would make the record (and everything after it)
            // unrecoverable. Refuse instead; the caller splits the batch.
            return Err(StoreError::Mismatch(format!(
                "record of {} bytes exceeds the {MAX_RECORD_LEN}-byte frame \
                 limit; split the ingest batch",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if let Err(e) = self.file.write_all(&frame).and_then(|()| self.file.flush()) {
            let rolled_back = self
                .file
                .set_len(self.len)
                .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
            if rolled_back.is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.len += frame.len() as u64;
        self.appended_since_reset += 1;
        Ok(frame.len() as u64)
    }

    /// Durably syncs all appended records to disk (fsync).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Truncates the log back to an empty header — called after a
    /// snapshot has folded every record away.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(LOG_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(LOG_HEADER_LEN))?;
        self.file.sync_all()?;
        self.len = LOG_HEADER_LEN;
        self.appended_since_reset = 0;
        Ok(())
    }
}

/// Scans raw log bytes, returning every valid record and the length of
/// the valid prefix. Never panics on arbitrary input.
pub fn scan_log_bytes(bytes: &[u8]) -> LogScan {
    let total = bytes.len() as u64;
    // Header checks yield zero records; HeaderStatus tells the caller
    // whether rewriting the file is safe (torn create) or destructive
    // (foreign file, newer version).
    let header = if bytes.len() < LOG_HEADER_LEN as usize {
        HeaderStatus::TooShort
    } else if bytes[..8] != LOG_MAGIC {
        HeaderStatus::WrongMagic
    } else {
        match u32::from_le_bytes(bytes[8..12].try_into().unwrap()) {
            LOG_VERSION => HeaderStatus::Ok,
            v => HeaderStatus::WrongVersion(v),
        }
    };
    if header != HeaderStatus::Ok {
        return LogScan {
            header,
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: total,
        };
    }
    let mut records = Vec::new();
    let mut pos = LOG_HEADER_LEN as usize;
    // Stops at the first short frame header (torn tail).
    while let Some(frame_head) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(frame_head[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(frame_head[4..8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break; // garbage length
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            break; // payload runs past EOF
        };
        if crc32(payload) != crc {
            break; // bit rot or torn payload
        }
        let Ok(record) = LogRecord::decode_payload(payload) else {
            break; // structurally invalid payload
        };
        records.push(record);
        pos += 8 + len as usize;
    }
    LogScan {
        header: HeaderStatus::Ok,
        records,
        valid_len: pos as u64,
        torn_bytes: total - pos as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_core::region::{DimensionSpec, SchemaInfo};
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap()
    }

    fn record(seq: u64, lo: f64) -> LogRecord {
        LogRecord::Snippet(SnippetRecord {
            seq,
            key: AggKey::avg("v"),
            region: Region::from_predicate(&schema(), &Predicate::between("t", lo, lo + 5.0))
                .unwrap(),
            observation: Observation::new(lo * 2.0, 0.25),
        })
    }

    fn ingest_record(seq: u64, rows: usize) -> LogRecord {
        LogRecord::Ingest(IngestRecord {
            seq,
            rows: (0..rows)
                .map(|i| vec![Value::Num(i as f64), Value::Str(format!("label-{}", i % 3))])
                .collect(),
            adjustments: vec![
                (
                    AggKey::avg("v"),
                    AppendAdjustment {
                        mu_shift: 0.5,
                        eta: 0.25,
                        old_rows: 100,
                        appended_rows: rows,
                    },
                ),
                (AggKey::Freq, AppendAdjustment::freq_worst_case(100, rows)),
            ],
        })
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verdict-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_rescan() {
        let dir = tempdir("append");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        for i in 0..10 {
            log.append(&record(i, i as f64)).unwrap();
        }
        drop(log);
        let (log, scan) = SnippetLog::open(&path).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records[7], record(7, 7.0));
        assert_eq!(log.len_bytes(), scan.valid_len);
    }

    #[test]
    fn ingest_records_roundtrip_interleaved() {
        let dir = tempdir("ingest");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        let written = vec![
            record(1, 0.0),
            ingest_record(2, 4),
            record(3, 5.0),
            ingest_record(4, 0), // empty batch is legal and round-trips
            record(5, 10.0),
        ];
        for r in &written {
            log.append(r).unwrap();
        }
        drop(log);
        let (_, scan) = SnippetLog::open(&path).unwrap();
        assert_eq!(scan.records, written);
        assert_eq!(scan.torn_bytes, 0);
        match &scan.records[1] {
            LogRecord::Ingest(r) => {
                assert_eq!(r.rows.len(), 4);
                assert_eq!(r.rows[1][1], Value::Str("label-1".into()));
                assert_eq!(r.adjustments.len(), 2);
                assert_eq!(r.adjustments[0].1.mu_shift, 0.5);
            }
            other => panic!("expected ingest record, got {other:?}"),
        }
    }

    #[test]
    fn oversized_record_refused_not_written() {
        let dir = tempdir("oversize");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        // ~17 bytes per numeric cell: 2^21 single-cell rows overflow the
        // 16 MiB frame limit.
        let rows: Vec<Vec<Value>> = (0..(1 << 21)).map(|i| vec![Value::Num(i as f64)]).collect();
        let big = LogRecord::Ingest(IngestRecord {
            seq: 1,
            rows,
            adjustments: Vec::new(),
        });
        assert!(matches!(log.append(&big), Err(StoreError::Mismatch(_))));
        // The log is untouched and still usable.
        log.append(&record(1, 1.0)).unwrap();
        drop(log);
        let (_, scan) = SnippetLog::open(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn torn_tail_truncated_at_every_offset() {
        let dir = tempdir("torn");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        for i in 0..5 {
            log.append(&record(i, i as f64)).unwrap();
        }
        drop(log);
        let full = std::fs::read(&path).unwrap();
        for cut in (LOG_HEADER_LEN as usize..full.len()).step_by(7) {
            let scan = scan_log_bytes(&full[..cut]);
            // Valid prefix parses; no panic; record count is the number of
            // whole frames before the cut.
            assert!(scan.valid_len <= cut as u64);
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.seq(), i as u64);
            }
        }
    }

    #[test]
    fn corrupt_byte_stops_scan_at_record_boundary() {
        let dir = tempdir("flip");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        for i in 0..5 {
            log.append(&record(i, i as f64)).unwrap();
        }
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the third record's payload.
        let scan = scan_log_bytes(&bytes);
        assert_eq!(scan.records.len(), 5);
        let third_start = {
            // Walk two frames.
            let mut pos = LOG_HEADER_LEN as usize;
            for _ in 0..2 {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 8 + len;
            }
            pos
        };
        bytes[third_start + 12] ^= 0xFF;
        let scan = scan_log_bytes(&bytes);
        assert_eq!(scan.records.len(), 2, "scan stops before corrupt record");
        assert_eq!(scan.valid_len, third_start as u64);
    }

    #[test]
    fn reopen_after_torn_write_appends_cleanly() {
        let dir = tempdir("reopen");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        for i in 0..4 {
            log.append(&record(i, i as f64)).unwrap();
        }
        drop(log);
        // Simulate a torn write: chop 3 bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut log, scan) = SnippetLog::open(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.torn_bytes > 0);
        log.append(&record(3, 3.0)).unwrap();
        drop(log);
        let (_, scan) = SnippetLog::open(&path).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn reset_empties_log() {
        let dir = tempdir("reset");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        for i in 0..3 {
            log.append(&record(i, 0.0)).unwrap();
        }
        assert_eq!(log.appended_since_reset(), 3);
        log.reset().unwrap();
        assert_eq!(log.appended_since_reset(), 0);
        log.append(&record(3, 1.0)).unwrap();
        drop(log);
        let (_, scan) = SnippetLog::open(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq(), 3);
    }

    #[test]
    fn foreign_file_treated_as_fully_torn() {
        let scan = scan_log_bytes(b"not a log at all");
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.header, HeaderStatus::WrongMagic);
    }

    #[test]
    fn foreign_file_refused_not_truncated() {
        let dir = tempdir("foreign");
        let path = dir.join("wal.vlog");
        std::fs::write(&path, b"user data that merely shares the log's file name").unwrap();
        assert!(SnippetLog::open(&path).is_err());
        // The file must be untouched.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..9], b"user data");
    }

    #[test]
    fn newer_log_version_refused_not_truncated() {
        let dir = tempdir("version");
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        for i in 0..3 {
            log.append(&record(i, i as f64)).unwrap();
        }
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let before = bytes.len();
        bytes[8..12].copy_from_slice(&(LOG_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(SnippetLog::open(&path).is_err(), "newer version refused");
        // No byte of the newer build's records was destroyed.
        assert_eq!(std::fs::read(&path).unwrap().len(), before);
    }

    #[test]
    fn header_only_torn_create_rewritten() {
        let dir = tempdir("torncreate");
        let path = dir.join("wal.vlog");
        std::fs::write(&path, &LOG_MAGIC[..5]).unwrap();
        let (mut log, scan) = SnippetLog::open(&path).unwrap();
        assert_eq!(scan.header, HeaderStatus::TooShort);
        log.append(&record(0, 1.0)).unwrap();
        drop(log);
        let (_, rescan) = SnippetLog::open(&path).unwrap();
        assert_eq!(rescan.records.len(), 1);
    }
}
