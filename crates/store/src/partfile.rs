//! Partition column files (`part-<id>.vcol`): where every store keeps
//! its base rows.
//!
//! An out-of-core ("paged") store keeps the base table's rows in one
//! append-only column file per partition. A scan then faults in only the
//! partitions it needs, and ingest write-extends only the files of the
//! partitions that actually received rows. A resident store is the
//! one-partition case: `part-000000.vcol` holds every row, and the store
//! reads it whole at open. Either way an ingest costs the rows it adds.
//!
//! ```text
//! part-<id>.vcol:
//!   magic     8B  "VDBLPCOL"
//!   version   u32 = 1
//!   partition u32   the partition id the file serves
//!   records (append-only):
//!     len u32 | crc u32 | payload          (crc over payload)
//!     payload = seq u64 | rows u32 | columns
//!       seq     0 for the create-time record, else the WAL sequence of
//!               the ingest batch that appended these rows — replay after
//!               a crash re-appends a batch only to partitions whose file
//!               does not already hold its seq (record-level idempotence)
//!       columns in schema order, column-major: numeric = rows × f64
//!               bits, categorical = rows × u32 dictionary codes (labels
//!               live in the snapshot's resolution table, never here)
//! ```
//!
//! Torn tails — a crash mid-append — are detected by the frame CRC and
//! truncated away at open, exactly like the WAL; everything before the
//! tear is intact because records are strictly appended. So are whole
//! records past the newest sequence the WAL or snapshot vouches for: a
//! batch whose WAL record did not survive never lands. Create-time
//! rows are always record 0, so the first `original_rows[p]` decoded
//! rows are the draw domain of partition `p`'s sample segment no matter
//! how many ingest records follow.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use verdict_core::persist::{Decoder, Encoder, PersistResult};
use verdict_storage::{
    Column, ColumnSummary, ColumnType, PartitionInfo, PartitionMap, PartitionScheme, PartitionSpec,
    Schema, Table,
};

use crate::crc::crc32;
use crate::snapshot::write_atomic;
use crate::tablecodec::{decode_table, encode_table};
use crate::{Result, StoreError};

/// File magic for partition column files.
pub const PART_MAGIC: [u8; 8] = *b"VDBLPCOL";
/// Current partition-file format version.
pub const PART_VERSION: u32 = 1;
/// Header length: magic + version + partition id.
const PART_HEADER_LEN: u64 = 16;

/// Path of partition `p`'s column file inside `dir`.
pub fn part_path(dir: &Path, p: u32) -> PathBuf {
    dir.join(format!("part-{p:06}.vcol"))
}

/// Parses a partition id out of a part file name.
pub fn parse_part_number(name: &str) -> Option<u32> {
    name.strip_prefix("part-")?
        .strip_suffix(".vcol")?
        .parse()
        .ok()
}

/// Whether `name` is a partition column file.
pub fn is_part_file(name: &str) -> bool {
    parse_part_number(name).is_some()
}

/// Encodes one record's payload: `seq`, then rows `range` of `fragment`
/// column-major (numeric f64 bits, categorical u32 codes — labels stay
/// in the resolution table).
fn encode_record_payload(seq: u64, fragment: &Table, range: Range<usize>) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(seq);
    enc.put_u32(range.len() as u32);
    for (i, def) in fragment.schema().columns().iter().enumerate() {
        let col = fragment.column_at(i);
        match def.ty {
            ColumnType::Numeric => {
                let data = col.numeric().expect("schema says numeric");
                for &x in &data[range.clone()] {
                    enc.put_f64(x);
                }
            }
            ColumnType::Categorical => {
                let codes = col.categorical().expect("schema says categorical");
                for &c in &codes[range.clone()] {
                    enc.put_u32(c);
                }
            }
        }
    }
    enc.into_bytes()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(8 + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Creates partition `p`'s column file holding `fragment` as its
/// create-time record (seq 0), atomically ([`write_atomic`]): the file
/// header and the record's frame head, then the payload as encoded.
/// Returns the record's CRC, the file's contribution to the store's part
/// fingerprint.
pub fn write_part_file(dir: &Path, p: u32, fragment: &Table) -> Result<u32> {
    let payload = encode_record_payload(0, fragment, 0..fragment.num_rows());
    let rec_crc = crc32(&payload);
    let mut header = Vec::with_capacity(PART_HEADER_LEN as usize + 8);
    header.extend_from_slice(&PART_MAGIC);
    header.extend_from_slice(&PART_VERSION.to_le_bytes());
    header.extend_from_slice(&p.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    header.extend_from_slice(&rec_crc.to_le_bytes());
    write_atomic(&part_path(dir, p), &header, &payload)?;
    Ok(rec_crc)
}

/// Appends rows `range` of `fragment` to partition `p`'s file as one
/// record tagged with the ingest batch's WAL `seq`, fsyncing the file.
/// The WAL record is written first, so a crash here recovers by replay:
/// the record either survives whole (its seq is then skipped) or is a
/// torn tail truncated at open and re-appended.
pub fn append_part_record(
    dir: &Path,
    p: u32,
    seq: u64,
    fragment: &Table,
    range: Range<usize>,
) -> Result<()> {
    let payload = encode_record_payload(seq, fragment, range);
    let mut f = OpenOptions::new().append(true).open(part_path(dir, p))?;
    f.write_all(&frame(&payload))?;
    f.sync_all()?;
    Ok(())
}

/// What a validating walk of one partition file found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartScan {
    /// The partition id the header declares.
    pub partition: u32,
    /// Total rows across valid records.
    pub rows: u64,
    /// Sequence numbers of the valid records, in file order (first is
    /// always 0, the create-time record).
    pub seqs: Vec<u64>,
    /// CRC of the create-time record (fingerprint contribution).
    pub record0_crc: u32,
    /// File length covered by the header + valid records.
    pub valid_len: u64,
    /// Trailing bytes after the last valid record: a torn or corrupt
    /// frame, or whole records past the walk's `max_seq`.
    pub torn_bytes: u64,
}

/// A walk over the record frames of one partition file, reading one frame
/// at a time into one reused payload buffer.
struct Frames {
    file: File,
    /// File length when opened.
    len: u64,
    /// Bytes of the header and of every valid frame walked so far.
    valid: u64,
    payload: Vec<u8>,
}

impl Frames {
    /// Opens partition `p`'s file and validates its header.
    fn open(dir: &Path, p: u32) -> Result<Frames> {
        let mut file = File::open(part_path(dir, p))?;
        let len = file.metadata()?.len();
        if len < PART_HEADER_LEN {
            return Err(StoreError::Corrupt(format!(
                "partition file {p} shorter than its header"
            )));
        }
        let mut header = [0u8; PART_HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if header[..8] != PART_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "bad magic in partition file {p}"
            )));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != PART_VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported partition-file version {version}"
            )));
        }
        let partition = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if partition != p {
            return Err(StoreError::Corrupt(format!(
                "partition file {p} declares partition {partition}"
            )));
        }
        Ok(Frames {
            file,
            len,
            valid: PART_HEADER_LEN,
            payload: Vec::new(),
        })
    }

    /// The next record's payload (at least `seq | rows`, CRC checked), or
    /// `None` at the end of the file or at a short or corrupt frame — a
    /// torn tail, after which the walk must stop.
    fn next(&mut self) -> Result<Option<&[u8]>> {
        if self.valid + 8 > self.len {
            return Ok(None);
        }
        let mut frame = [0u8; 8];
        self.file.read_exact(&mut frame)?;
        let len = u64::from(u32::from_le_bytes(frame[..4].try_into().unwrap()));
        let crc = u32::from_le_bytes(frame[4..].try_into().unwrap());
        if self.valid + 8 + len > self.len {
            return Ok(None); // short write: torn tail
        }
        self.payload.resize(len as usize, 0);
        self.file.read_exact(&mut self.payload)?;
        if crc32(&self.payload) != crc || self.payload.len() < 12 {
            return Ok(None); // corrupt frame: treat as torn
        }
        self.valid += 8 + len;
        Ok(Some(&self.payload))
    }
}

/// Walks partition `p`'s file one frame at a time, validating the header
/// and every frame. Stops at the first short/corrupt frame (a torn
/// append) or the first record stamped past `max_seq`, and reports what
/// follows as `torn_bytes` — everything before it is intact. Given
/// `rows`, decodes every record it keeps into them, so a reader of the
/// whole file needs no second pass.
pub(crate) fn scan_part_file(
    dir: &Path,
    p: u32,
    max_seq: u64,
    mut rows: Option<&mut PartRows>,
) -> Result<PartScan> {
    let mut frames = Frames::open(dir, p)?;
    if let Some(rows) = rows.as_deref_mut() {
        rows.reserve(frames.len - frames.valid, usize::MAX);
    }
    let mut total = 0u64;
    let mut seqs = Vec::new();
    let mut record0_crc = None;
    let mut valid_len = frames.valid;
    while let Some(payload) = frames.next()? {
        let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let n = u32::from_le_bytes(payload[8..12].try_into().unwrap());
        if seq > max_seq {
            break;
        }
        if record0_crc.is_none() {
            if seq != 0 {
                return Err(StoreError::Corrupt(format!(
                    "partition file {p} first record has seq {seq}, expected the \
                     create-time record"
                )));
            }
            record0_crc = Some(crc32(payload));
        }
        if let Some(rows) = rows.as_deref_mut() {
            rows.decode(p, payload)?;
        }
        total += u64::from(n);
        seqs.push(seq);
        valid_len = frames.valid;
    }
    let Some(record0_crc) = record0_crc else {
        return Err(StoreError::Corrupt(format!(
            "partition file {p} holds no valid create-time record"
        )));
    };
    Ok(PartScan {
        partition: p,
        rows: total,
        seqs,
        record0_crc,
        valid_len,
        torn_bytes: frames.len - valid_len,
    })
}

/// Scans partition `p`'s file and truncates away any torn tail and any
/// record stamped past `max_seq` — the newest sequence the store's WAL
/// and snapshot hold, so such a record belongs to a batch whose WAL
/// record did not survive. Subsequent appends extend from the last whole
/// record. Given `rows`, the same walk decodes every record it keeps into
/// them: a resident store reads its one part file once at open.
pub(crate) fn open_part_file(
    dir: &Path,
    p: u32,
    max_seq: u64,
    rows: Option<&mut PartRows>,
) -> Result<PartScan> {
    let scan = scan_part_file(dir, p, max_seq, rows)?;
    if scan.torn_bytes > 0 {
        let f = OpenOptions::new().write(true).open(part_path(dir, p))?;
        f.set_len(scan.valid_len)?;
        f.sync_all()?;
    }
    Ok(scan)
}

/// Reads partition `p`'s rows — create-time record first, then ingest
/// records in append order — into a table shaped like `proto` (schema
/// and categorical dictionaries come from `proto`; the file holds only
/// codes). Frames are read one at a time and reading stops once
/// `min_rows` rows are decoded, so a segment fault over the create-time
/// prefix neither reads nor buffers the ingest tail however long it
/// grows. Each column is allocated once, for at most `min_rows` rows and
/// at most the rows the file's bytes can hold. Invalid trailing frames are
/// treated as end-of-file (the open-time truncation already removed torn
/// tails; a live reader stays tolerant).
pub fn read_part_rows(dir: &Path, p: u32, proto: &Table, min_rows: usize) -> Result<Table> {
    let mut frames = Frames::open(dir, p)?;
    let mut rows = PartRows::new(proto.schema());
    rows.reserve(frames.len - frames.valid, min_rows);
    while rows.rows < min_rows {
        let Some(payload) = frames.next()? else { break };
        rows.decode(p, payload)?;
    }
    rows.into_table(proto)
}

/// A partition's rows decoded column-major — numeric columns as `f64`s,
/// categorical ones as codes — until [`PartRows::into_table`] attaches
/// the dictionaries.
#[derive(Debug)]
pub(crate) struct PartRows {
    schema: Schema,
    columns: Vec<ColumnBuf>,
    rows: usize,
}

/// One decoded column.
#[derive(Debug)]
enum ColumnBuf {
    Num(Vec<f64>),
    Cat(Vec<u32>),
}

impl ColumnBuf {
    /// Bytes one row of the column takes in a record.
    fn width(&self) -> usize {
        match self {
            ColumnBuf::Num(_) => 8,
            ColumnBuf::Cat(_) => 4,
        }
    }
}

impl PartRows {
    /// Empty buffers for `schema`'s columns.
    pub(crate) fn new(schema: &Schema) -> PartRows {
        let columns = schema
            .columns()
            .iter()
            .map(|def| match def.ty {
                ColumnType::Numeric => ColumnBuf::Num(Vec::new()),
                ColumnType::Categorical => ColumnBuf::Cat(Vec::new()),
            })
            .collect();
        PartRows {
            schema: schema.clone(),
            columns,
            rows: 0,
        }
    }

    /// Reserves room in every column for the rows `bytes` of records can
    /// hold, at most `cap`, so each column is allocated once.
    fn reserve(&mut self, bytes: u64, cap: usize) {
        let row_bytes: usize = self.columns.iter().map(ColumnBuf::width).sum();
        let rows = usize::try_from(bytes / row_bytes.max(1) as u64).map_or(cap, |n| n.min(cap));
        for column in &mut self.columns {
            match column {
                ColumnBuf::Num(data) => data.reserve(rows),
                ColumnBuf::Cat(codes) => codes.reserve(rows),
            }
        }
    }

    /// Decodes one record's payload a column at a time: its byte length
    /// (rows × 8 for a numeric column, rows × 4 for a categorical one) is
    /// checked against what the record body still holds, once, and then
    /// the column is converted in bulk from little-endian words. A record
    /// whose row count overstates its body is [`StoreError::Corrupt`].
    fn decode(&mut self, p: u32, payload: &[u8]) -> Result<()> {
        let n = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
        let mut body = &payload[12..];
        for (def, column) in self.schema.columns().iter().zip(&mut self.columns) {
            let len = n
                .checked_mul(column.width())
                .filter(|&len| len <= body.len())
                .ok_or_else(|| {
                    StoreError::Corrupt(format!(
                        "partition file {p} record body: {n} rows of column {} need \
                         more than the {} bytes left",
                        def.name,
                        body.len()
                    ))
                })?;
            let (bytes, rest) = body.split_at(len);
            body = rest;
            match column {
                ColumnBuf::Num(data) => data.extend(
                    bytes
                        .chunks_exact(8)
                        .map(|w| f64::from_le_bytes(w.try_into().unwrap())),
                ),
                ColumnBuf::Cat(codes) => codes.extend(
                    bytes
                        .chunks_exact(4)
                        .map(|w| u32::from_le_bytes(w.try_into().unwrap())),
                ),
            }
        }
        self.rows += n;
        Ok(())
    }

    /// Appends every row of `batch`, a table of the same schema whose
    /// codes refer to the dictionaries [`PartRows::into_table`] will get.
    pub(crate) fn append(&mut self, batch: &Table) {
        for (i, column) in self.columns.iter_mut().enumerate() {
            let col = batch.column_at(i);
            match column {
                ColumnBuf::Num(data) => data.extend_from_slice(col.numeric().expect("same schema")),
                ColumnBuf::Cat(codes) => {
                    codes.extend_from_slice(col.categorical().expect("same schema"))
                }
            }
        }
        self.rows += batch.num_rows();
    }

    /// The rows as a table whose categorical columns share `proto`'s
    /// labels (refcount bumps, no string copies). A code past `proto`'s
    /// dictionary stays a raw code, as [`Column`] allows.
    pub(crate) fn into_table(self, proto: &Table) -> Result<Table> {
        let columns = self
            .columns
            .into_iter()
            .enumerate()
            .map(|(i, column)| match column {
                ColumnBuf::Num(data) => Column::from_numeric(data),
                ColumnBuf::Cat(codes) => {
                    let labels = proto.column_at(i).labels().unwrap_or_default();
                    Column::from_shared_labels(codes, labels.to_vec())
                }
            })
            .collect();
        Table::from_columns(self.schema, columns)
            .map_err(|e| StoreError::Corrupt(format!("partition file rows: {e}")))
    }
}

/// The store's part fingerprint: FNV-1a over every partition's id and
/// create-time record CRC, in partition order. Binds a snapshot to the
/// create-time data; ingest appends do not perturb it (they are covered
/// by WAL sequencing instead).
pub fn part_fingerprint(record0_crcs: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (p, &crc) in record0_crcs.iter().enumerate() {
        for byte in (p as u32)
            .to_le_bytes()
            .into_iter()
            .chain(crc.to_le_bytes())
        {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Paged-state codec: the snapshot body section only a paged store
// carries.
// ---------------------------------------------------------------------

/// Encodes a [`PartitionSpec`].
pub fn encode_partition_spec(spec: &PartitionSpec, enc: &mut Encoder) {
    enc.put_str(spec.column());
    match spec.scheme() {
        PartitionScheme::Range { bounds } => {
            enc.put_u8(0);
            enc.put_len(bounds.len());
            for &b in bounds {
                enc.put_f64(b);
            }
        }
        PartitionScheme::Hash { partitions } => {
            enc.put_u8(1);
            enc.put_len(*partitions);
        }
    }
}

/// Decodes a [`PartitionSpec`].
pub fn decode_partition_spec(dec: &mut Decoder<'_>) -> PersistResult<PartitionSpec> {
    let column = dec.take_str()?;
    match dec.take_u8()? {
        0 => {
            let n = dec.take_len()?;
            let mut bounds = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                bounds.push(dec.take_f64()?);
            }
            Ok(PartitionSpec::range(&column, bounds))
        }
        1 => Ok(PartitionSpec::hash(&column, dec.take_len()?)),
        t => Err(verdict_core::persist::PersistError::Corrupt(format!(
            "PartitionScheme tag {t}"
        ))),
    }
}

fn encode_summary(summary: &ColumnSummary, enc: &mut Encoder) {
    match summary {
        ColumnSummary::Num { min, max, has_nan } => {
            enc.put_u8(0);
            enc.put_f64(*min);
            enc.put_f64(*max);
            enc.put_bool(*has_nan);
        }
        ColumnSummary::Cat { codes } => {
            enc.put_u8(1);
            enc.put_len(codes.len());
            for &c in codes {
                enc.put_u32(c);
            }
        }
    }
}

fn decode_summary(dec: &mut Decoder<'_>) -> PersistResult<ColumnSummary> {
    match dec.take_u8()? {
        0 => Ok(ColumnSummary::Num {
            min: dec.take_f64()?,
            max: dec.take_f64()?,
            has_nan: dec.take_bool()?,
        }),
        1 => {
            let n = dec.take_len()?;
            let mut codes = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                codes.push(dec.take_u32()?);
            }
            Ok(ColumnSummary::Cat { codes })
        }
        t => Err(verdict_core::persist::PersistError::Corrupt(format!(
            "ColumnSummary tag {t}"
        ))),
    }
}

/// Encodes a [`PartitionMap`] (spec, rows covered, per-partition counts
/// and summaries).
pub fn encode_partition_map(map: &PartitionMap, enc: &mut Encoder) {
    encode_partition_spec(map.spec(), enc);
    enc.put_u64(map.rows_covered() as u64);
    enc.put_len(map.num_partitions());
    for part in map.parts() {
        enc.put_u64(part.rows());
        enc.put_len(part.summaries().len());
        for s in part.summaries() {
            encode_summary(s, enc);
        }
    }
}

/// Decodes a [`PartitionMap`], validating it against `schema`.
pub fn decode_partition_map(schema: &Schema, dec: &mut Decoder<'_>) -> Result<PartitionMap> {
    let spec = decode_partition_spec(dec)?;
    let rows_covered = dec.take_u64()? as usize;
    let n = dec.take_len()?;
    let mut parts = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let rows = dec.take_u64()?;
        let s = dec.take_len()?;
        let mut summaries = Vec::with_capacity(s.min(1 << 10));
        for _ in 0..s {
            summaries.push(decode_summary(dec)?);
        }
        parts.push(PartitionInfo::from_parts(rows, summaries));
    }
    PartitionMap::from_parts(schema, spec, rows_covered, parts)
        .map_err(|e| StoreError::Corrupt(format!("partition map: {e}")))
}

/// What a paged snapshot persists beyond the resolution table every
/// snapshot carries: the routing map (summaries included, extended
/// through every folded ingest), the frozen create-time per-partition
/// cardinalities the sample draws are defined over, the base-table row
/// count at snapshot time, and each sample's resident ingest tail.
#[derive(Debug, Clone)]
pub struct PagedState {
    /// Routing + per-partition summaries of the whole base table.
    pub map: PartitionMap,
    /// Create-time rows per partition (frozen at create; the sample
    /// draw domain).
    pub original_part_rows: Vec<u64>,
    /// Base-table rows folded into this snapshot (create + ingests).
    pub total_rows: u64,
    /// Per-sample resident ingest tails, in sample order. Shared with
    /// the live samples (`Sample::table_arc`), so a checkpoint encodes
    /// them without copying them first.
    pub tails: Vec<Arc<Table>>,
}

/// Encodes a [`PagedState`].
pub fn encode_paged_state(state: &PagedState, enc: &mut Encoder) {
    enc.put_u64(state.total_rows);
    enc.put_len(state.original_part_rows.len());
    for &n in &state.original_part_rows {
        enc.put_u64(n);
    }
    encode_partition_map(&state.map, enc);
    enc.put_len(state.tails.len());
    for tail in &state.tails {
        encode_table(tail, enc);
    }
}

/// Decodes a [`PagedState`] over `schema`, the resolution table's.
pub fn decode_paged_state(schema: &Schema, dec: &mut Decoder<'_>) -> Result<PagedState> {
    let total_rows = dec.take_u64()?;
    let n = dec.take_len()?;
    let mut original_part_rows = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        original_part_rows.push(dec.take_u64()?);
    }
    let map = decode_partition_map(schema, dec)?;
    if map.num_partitions() != original_part_rows.len() {
        return Err(StoreError::Corrupt(format!(
            "paged state covers {} partitions but lists {} create-time counts",
            map.num_partitions(),
            original_part_rows.len()
        )));
    }
    let t = dec.take_len()?;
    let mut tails = Vec::with_capacity(t.min(1 << 10));
    for _ in 0..t {
        let tail = decode_table(dec)?;
        if tail.schema() != schema {
            return Err(StoreError::Corrupt(
                "paged tail schema differs from the resolution schema".into(),
            ));
        }
        tails.push(Arc::new(tail));
    }
    Ok(PagedState {
        map,
        original_part_rows,
        total_rows,
        tails,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_storage::{ColumnDef, Value};

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verdict-part-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn table(n: usize, offset: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::categorical_dimension("g"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            let g = ["a", "b", "c"][(offset + i) % 3];
            t.push_row(vec![
                Value::Num((offset + i) as f64),
                Value::Str(g.to_owned()),
                Value::Num(((offset + i) % 7) as f64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn create_append_scan_read_roundtrip() {
        let dir = tempdir("roundtrip");
        let base = table(40, 0);
        write_part_file(&dir, 3, &base).unwrap();
        let extra = table(10, 40);
        append_part_record(&dir, 3, 7, &extra, 0..10).unwrap();
        let scan = scan_part_file(&dir, 3, u64::MAX, None).unwrap();
        assert_eq!(scan.partition, 3);
        assert_eq!(scan.rows, 50);
        assert_eq!(scan.seqs, vec![0, 7]);
        assert_eq!(scan.torn_bytes, 0);
        let back = read_part_rows(&dir, 3, &base, usize::MAX).unwrap();
        assert_eq!(back.num_rows(), 50);
        assert_eq!(
            back.column("x").unwrap().numeric().unwrap()[..40],
            base.column("x").unwrap().numeric().unwrap()[..]
        );
        assert_eq!(back.column("x").unwrap().numeric().unwrap()[40], 40.0);
        // Early stop: the create-time prefix alone.
        let prefix = read_part_rows(&dir, 3, &base, 40).unwrap();
        assert_eq!(prefix.num_rows(), 40);
    }

    #[test]
    fn torn_tail_is_truncated_and_reappendable() {
        let dir = tempdir("torn");
        let base = table(20, 0);
        write_part_file(&dir, 0, &base).unwrap();
        let whole = std::fs::read(part_path(&dir, 0)).unwrap();
        append_part_record(&dir, 0, 5, &table(8, 20), 0..8).unwrap();
        let full = std::fs::read(part_path(&dir, 0)).unwrap();
        // Tear the appended record at every prefix length: recovery must
        // always fall back to the create-time record alone.
        for cut in whole.len() + 1..full.len() {
            std::fs::write(part_path(&dir, 0), &full[..cut]).unwrap();
            let scan = open_part_file(&dir, 0, u64::MAX, None).unwrap();
            assert_eq!(scan.seqs, vec![0], "cut {cut}");
            assert_eq!(scan.rows, 20, "cut {cut}");
            assert_eq!(scan.torn_bytes, (cut - whole.len()) as u64, "cut {cut}");
            // The truncation leaves a file appends can extend again.
            append_part_record(&dir, 0, 5, &table(8, 20), 0..8).unwrap();
            let healed = scan_part_file(&dir, 0, u64::MAX, None).unwrap();
            assert_eq!(healed.seqs, vec![0, 5], "cut {cut}");
            assert_eq!(healed.rows, 28, "cut {cut}");
            std::fs::write(part_path(&dir, 0), &full).unwrap();
        }
    }

    #[test]
    fn corrupt_record_detected_as_tear() {
        let dir = tempdir("corrupt");
        write_part_file(&dir, 1, &table(10, 0)).unwrap();
        append_part_record(&dir, 1, 2, &table(5, 10), 0..5).unwrap();
        let mut bytes = std::fs::read(part_path(&dir, 1)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(part_path(&dir, 1), &bytes).unwrap();
        let scan = open_part_file(&dir, 1, u64::MAX, None).unwrap();
        assert_eq!(scan.seqs, vec![0]);
        assert!(scan.torn_bytes > 0);
    }

    /// Records stamped past the newest sequence the WAL vouches for are
    /// cut at open like a torn tail; the records before them stay.
    #[test]
    fn records_past_max_seq_are_truncated() {
        let dir = tempdir("orphans");
        write_part_file(&dir, 0, &table(10, 0)).unwrap();
        append_part_record(&dir, 0, 3, &table(4, 10), 0..4).unwrap();
        let kept = std::fs::metadata(part_path(&dir, 0)).unwrap().len();
        append_part_record(&dir, 0, 8, &table(2, 14), 0..2).unwrap();
        append_part_record(&dir, 0, 9, &table(3, 16), 0..3).unwrap();
        let scan = open_part_file(&dir, 0, 7, None).unwrap();
        assert_eq!(scan.seqs, vec![0, 3]);
        assert_eq!(scan.rows, 14);
        assert_eq!(scan.valid_len, kept);
        assert_eq!(std::fs::metadata(part_path(&dir, 0)).unwrap().len(), kept);
        assert_eq!(
            scan_part_file(&dir, 0, u64::MAX, None).unwrap().torn_bytes,
            0
        );
    }

    /// A record whose CRC holds but whose row count overstates its body —
    /// at every overstatement up to the full `u32` range, so the column
    /// length check cannot overflow — is `Corrupt`, never a panic or a
    /// short table.
    #[test]
    fn record_overstating_its_rows_is_corrupt() {
        let dir = tempdir("overstated");
        let base = table(10, 0);
        let honest = encode_record_payload(0, &base, 0..10);
        for claimed in [11u32, 12, 20, 1 << 20, u32::MAX] {
            let mut payload = honest.clone();
            payload[8..12].copy_from_slice(&claimed.to_le_bytes());
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&PART_MAGIC);
            bytes.extend_from_slice(&PART_VERSION.to_le_bytes());
            bytes.extend_from_slice(&4u32.to_le_bytes());
            bytes.extend_from_slice(&frame(&payload));
            std::fs::write(part_path(&dir, 4), &bytes).unwrap();
            match read_part_rows(&dir, 4, &base, usize::MAX) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains("record body"), "{msg}"),
                other => panic!("{claimed} rows claimed: {other:?}"),
            }
        }
        write_part_file(&dir, 4, &base).unwrap();
        assert_eq!(
            read_part_rows(&dir, 4, &base, usize::MAX)
                .unwrap()
                .num_rows(),
            10
        );
    }

    /// A code the resolution dictionary has no label for is a raw code, as
    /// a [`Column`] holds it: it reads back as itself, unlabeled.
    #[test]
    fn codes_past_the_dictionary_read_back_raw() {
        let dir = tempdir("raw-codes");
        let base = table(10, 0);
        write_part_file(&dir, 0, &base).unwrap();
        let no_labels = Table::new(base.schema().clone());
        let back = read_part_rows(&dir, 0, &no_labels, usize::MAX).unwrap();
        let g = back.column("g").unwrap();
        assert_eq!(
            g.categorical().unwrap(),
            base.column("g").unwrap().categorical().unwrap()
        );
        assert!(g.labels().unwrap().is_empty());
        assert_eq!(g.get(2), Value::Cat(2));
    }

    /// Opening with row buffers decodes, in the one healing walk, exactly
    /// the rows a later read of the healed file yields.
    #[test]
    fn open_decodes_the_rows_it_keeps() {
        let dir = tempdir("open-rows");
        let base = table(12, 0);
        write_part_file(&dir, 0, &base).unwrap();
        append_part_record(&dir, 0, 4, &table(5, 12), 0..5).unwrap();
        append_part_record(&dir, 0, 9, &table(3, 17), 0..3).unwrap();
        let mut bytes = std::fs::read(part_path(&dir, 0)).unwrap();
        bytes.extend_from_slice(&[7, 0, 0]); // a torn frame head
        std::fs::write(part_path(&dir, 0), &bytes).unwrap();
        let mut rows = PartRows::new(base.schema());
        let scan = open_part_file(&dir, 0, 8, Some(&mut rows)).unwrap();
        assert_eq!(scan.seqs, vec![0, 4]);
        let decoded = rows.into_table(&base).unwrap();
        let reread = read_part_rows(&dir, 0, &base, usize::MAX).unwrap();
        assert_eq!(decoded.num_rows(), 17);
        for name in ["x", "v"] {
            assert_eq!(
                decoded.column(name).unwrap().numeric().unwrap(),
                reread.column(name).unwrap().numeric().unwrap()
            );
        }
        assert_eq!(
            decoded.column("g").unwrap().categorical().unwrap(),
            reread.column("g").unwrap().categorical().unwrap()
        );
    }

    /// The bulk decode yields exactly the values and codes encoded, NaN
    /// payloads and signed zeros included, and shares the prototype's
    /// labels instead of copying them.
    #[test]
    fn bulk_decode_is_bit_exact_and_shares_labels() {
        let dir = tempdir("bulk");
        let mut base = table(37, 0);
        let odd = [f64::from_bits(0x7FF8_0000_DEAD_BEEF), -0.0, f64::INFINITY];
        for x in odd {
            base.push_row(vec![Value::Num(x), Value::Str("b".into()), Value::Num(-x)])
                .unwrap();
        }
        write_part_file(&dir, 0, &base).unwrap();
        append_part_record(&dir, 0, 9, &table(5, 100), 0..5).unwrap();
        let back = read_part_rows(&dir, 0, &base, usize::MAX).unwrap();
        assert_eq!(back.num_rows(), 45);
        for name in ["x", "v"] {
            let got = back.column(name).unwrap().numeric().unwrap();
            let want = base.column(name).unwrap().numeric().unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got[..40]), bits(want));
        }
        let g = back.column("g").unwrap();
        assert_eq!(
            &g.categorical().unwrap()[..40],
            base.column("g").unwrap().categorical().unwrap()
        );
        let (labels, proto) = (
            g.labels().unwrap(),
            base.column("g").unwrap().labels().unwrap(),
        );
        assert!(labels.iter().zip(proto).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn bad_header_refused() {
        let dir = tempdir("header");
        write_part_file(&dir, 2, &table(4, 0)).unwrap();
        let mut bytes = std::fs::read(part_path(&dir, 2)).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(part_path(&dir, 2), &bytes).unwrap();
        assert!(matches!(
            scan_part_file(&dir, 2, u64::MAX, None),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn paged_state_roundtrip() {
        let t = table(60, 0);
        let spec = PartitionSpec::range("x", vec![20.0, 40.0]);
        let map = PartitionMap::build(&t, spec).unwrap();
        let resolution = t.gather(&[]).unwrap();
        let state = PagedState {
            original_part_rows: vec![20, 20, 20],
            total_rows: 60,
            tails: vec![Arc::new(resolution.clone()), Arc::new(resolution)],
            map,
        };
        let mut enc = Encoder::new();
        encode_paged_state(&state, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = decode_paged_state(t.schema(), &mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(back.map, state.map);
        assert_eq!(back.original_part_rows, state.original_part_rows);
        assert_eq!(back.total_rows, state.total_rows);
        assert_eq!(back.tails.len(), 2);
        assert_eq!(
            back.tails[0].column("g").unwrap().labels().unwrap(),
            state.tails[0].column("g").unwrap().labels().unwrap()
        );
    }

    #[test]
    fn part_fingerprint_tracks_create_records() {
        let dir = tempdir("fp");
        let c0 = write_part_file(&dir, 0, &table(10, 0)).unwrap();
        let c1 = write_part_file(&dir, 1, &table(10, 10)).unwrap();
        let fp = part_fingerprint(&[c0, c1]);
        // Ingest appends leave the fingerprint unchanged.
        append_part_record(&dir, 0, 3, &table(2, 20), 0..2).unwrap();
        let s0 = scan_part_file(&dir, 0, u64::MAX, None).unwrap();
        let s1 = scan_part_file(&dir, 1, u64::MAX, None).unwrap();
        assert_eq!(part_fingerprint(&[s0.record0_crc, s1.record0_crc]), fp);
        assert_ne!(part_fingerprint(&[c1, c0]), fp);
    }
}
