//! Compacted snapshots (`snapshot-<gen>.vsnap`).
//!
//! A snapshot is the non-incremental half of durability: session
//! parameters, the resolution table the part files' codes refer to, and
//! the engine's learned state including trained models, in one
//! checksummed, atomically replaced file. The base rows themselves live
//! in `part-<id>.vcol` files ([`crate::partfile`]). Snapshots are written
//! to a temporary file, fsynced, and renamed into place, so a crash
//! mid-write can never damage an existing generation.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use verdict_core::persist::{Decoder, Encoder, Persist};
use verdict_core::{EngineState, VerdictConfig};
use verdict_storage::{PartitionSpec, Table};

use crate::crc::crc32;
use crate::partfile::{decode_paged_state, encode_paged_state, PagedState};
use crate::tablecodec::{decode_table, encode_resolution};
use crate::{Result, StoreError};

/// File magic for snapshots.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"VDBLSNAP";
/// Snapshot format version, the only one this build reads. Version 4
/// stores each model's packed Cholesky factor, `n(n+1)/2` values; the
/// header's `table_gen` word is reserved and always 0.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Session construction parameters persisted alongside the learned state,
/// so [`crate::SynopsisStore::open`] can rebuild an identical session —
/// same sample draw, same batch geometry, same engine configuration —
/// without the caller re-supplying anything.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Offline sampling fraction.
    pub sample_fraction: f64,
    /// Batch size in sample rows.
    pub batch_size: u64,
    /// RNG seed the offline samples were drawn with.
    pub seed: u64,
    /// Number of independent offline samples.
    pub num_samples: u64,
    /// Row count of the *original* base table, before any ingested batch.
    /// Warm starts re-draw the original offline sample from this prefix of
    /// the (grown) table, then re-admit the appended tail — reproducing
    /// the live session's maintained sample bit for bit.
    pub original_rows: u64,
    /// How the base table is partitioned, when `partition_by` was
    /// configured; persisted so a warm start rebuilds an identical
    /// [`verdict_storage::PartitionMap`] without the caller re-supplying
    /// the spec.
    pub partition_spec: Option<PartitionSpec>,
    /// Whether the store is paged (out-of-core): the base table is split
    /// over one column file per partition, served demand-paged, and the
    /// snapshot carries a [`PagedState`] section. A resident store keeps
    /// every row in partition file 0 and reads it whole at open.
    pub paged: bool,
    /// Engine configuration.
    pub config: VerdictConfig,
}

impl Persist for SessionMeta {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.sample_fraction);
        enc.put_u64(self.batch_size);
        enc.put_u64(self.seed);
        enc.put_u64(self.num_samples);
        enc.put_u64(self.original_rows);
        match &self.partition_spec {
            None => enc.put_u8(0),
            Some(spec) => {
                enc.put_u8(1);
                crate::partfile::encode_partition_spec(spec, enc);
            }
        }
        enc.put_bool(self.paged);
        self.config.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> verdict_core::persist::PersistResult<SessionMeta> {
        Ok(SessionMeta {
            sample_fraction: dec.take_f64()?,
            batch_size: dec.take_u64()?,
            seed: dec.take_u64()?,
            num_samples: dec.take_u64()?,
            original_rows: dec.take_u64()?,
            partition_spec: match dec.take_u8()? {
                0 => None,
                1 => Some(crate::partfile::decode_partition_spec(dec)?),
                t => {
                    return Err(verdict_core::persist::PersistError::Corrupt(format!(
                        "partition-spec presence tag {t}"
                    )))
                }
            },
            paged: dec.take_bool()?,
            config: VerdictConfig::decode(dec)?,
        })
    }
}

/// A fully decoded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// Highest log sequence number folded into this snapshot.
    pub last_seq: u64,
    /// Session construction parameters.
    pub meta: SessionMeta,
    /// Fingerprint of the part files' create-time records; binds the
    /// snapshot to the base rows it was learned from.
    pub table_fp: u64,
    /// Ingested batches folded into this snapshot (the engine's data
    /// epoch at checkpoint time).
    pub data_epoch: u64,
    /// The engine's learned state.
    pub state: EngineState,
    /// Zero-row table holding the schema and the full categorical
    /// dictionaries the part files' codes refer to.
    pub resolution: Table,
    /// Out-of-core state (partition map, sample tails); present exactly
    /// when `meta.paged`.
    pub paged: Option<PagedState>,
}

fn encode_snapshot_body(
    meta: &SessionMeta,
    table_fp: u64,
    data_epoch: u64,
    state_bytes: &[u8],
    rows: &Table,
    paged: Option<&PagedState>,
) -> Vec<u8> {
    debug_assert_eq!(
        meta.paged,
        paged.is_some(),
        "meta.paged must announce the paged-state section"
    );
    let mut enc = Encoder::new();
    meta.encode(&mut enc);
    enc.put_u64(table_fp);
    enc.put_u64(data_epoch);
    // The base-row sections precede the engine state: they are
    // self-delimiting, but the engine state is appended as raw
    // pre-encoded bytes, so it must come last.
    encode_resolution(rows, &mut enc);
    if let Some(state) = paged {
        encode_paged_state(state, &mut enc);
    }
    enc.put_bytes(state_bytes);
    enc.into_bytes()
}

impl Snapshot {
    fn decode_body(last_seq: u64, body: &[u8]) -> Result<Snapshot> {
        let mut dec = Decoder::new(body);
        let meta = SessionMeta::decode(&mut dec)?;
        let table_fp = dec.take_u64()?;
        let data_epoch = dec.take_u64()?;
        let resolution = decode_table(&mut dec)?;
        if resolution.num_rows() != 0 {
            return Err(StoreError::Corrupt(format!(
                "resolution table holds {} rows, expected none",
                resolution.num_rows()
            )));
        }
        let paged = meta
            .paged
            .then(|| decode_paged_state(resolution.schema(), &mut dec))
            .transpose()?;
        let state = EngineState::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes in snapshot body",
                dec.remaining()
            )));
        }
        Ok(Snapshot {
            last_seq,
            meta,
            table_fp,
            data_epoch,
            state,
            resolution,
            paged,
        })
    }
}

/// Fsyncs a directory so a preceding `rename` inside it is durable (on
/// POSIX, rename durability requires syncing the parent directory, not
/// just the file). Best-effort on platforms where directories cannot be
/// opened for sync.
pub fn sync_dir(dir: &Path) -> Result<()> {
    // Windows cannot fsync directories; treat that as best-effort.
    let _ = File::open(dir)?.sync_all();
    Ok(())
}

/// Replaces the file at `path` with `header` followed by `body`
/// atomically: a temp file beside it (`<name>.tmp`), fsync, rename into
/// place, then an fsync of the directory. A crash leaves the old file or
/// the new one, never a torn mix, and once this returns the rename
/// survives a crash too. The two slices are written in order, so a
/// caller never concatenates its header and a large body into a second
/// buffer. Every whole-file write of the store goes through here.
pub fn write_atomic(path: &Path, header: &[u8], body: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(header)?;
        f.write_all(body)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or_else(|| Path::new(".")))
}

/// Path of generation `gen` inside `dir`.
pub fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snapshot-{gen:010}.vsnap"))
}

/// Parses a generation number out of a snapshot file name.
pub fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".vsnap")?
        .parse()
        .ok()
}

/// Writes a snapshot as generation `gen` in `dir`, atomically
/// ([`write_atomic`]). `state_bytes` is a pre-encoded [`EngineState`]
/// (see `Verdict::state_bytes`), so large states are neither cloned nor
/// re-encoded on the way in. Of `rows` only the schema and the
/// categorical dictionaries are written, as the zero-row resolution
/// table: a resident store passes its whole table, a paged one its
/// resolution table.
#[allow(clippy::too_many_arguments)]
pub fn write_snapshot(
    dir: &Path,
    gen: u64,
    last_seq: u64,
    meta: &SessionMeta,
    table_fp: u64,
    data_epoch: u64,
    state_bytes: &[u8],
    rows: &Table,
    paged: Option<&PagedState>,
) -> Result<PathBuf> {
    let body = encode_snapshot_body(meta, table_fp, data_epoch, state_bytes, rows, paged);
    let mut header = Vec::with_capacity(40);
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header.extend_from_slice(&last_seq.to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes()); // reserved `table_gen`
    header.extend_from_slice(&(body.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(&body).to_le_bytes());

    let path = snapshot_path(dir, gen);
    // The directory fsync matters here: without it, a crash can roll back
    // the rename while the log truncation that follows it survives —
    // losing folded records.
    write_atomic(&path, &header, &body)?;
    Ok(path)
}

/// Reads and validates one snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 40 {
        return Err(StoreError::Corrupt("snapshot shorter than header".into()));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let last_seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let body_len = u64::from_le_bytes(bytes[28..36].try_into().unwrap());
    let body_crc = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
    let body = bytes
        .get(40..40 + body_len as usize)
        .ok_or_else(|| StoreError::Corrupt("snapshot body truncated".into()))?;
    if bytes.len() as u64 != 40 + body_len {
        return Err(StoreError::Corrupt("snapshot trailing bytes".into()));
    }
    if crc32(body) != body_crc {
        return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
    }
    Snapshot::decode_body(last_seq, body)
}

/// All snapshot generations present in `dir`, ascending.
pub fn list_generations(dir: &Path) -> Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_generation) {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_core::region::{DimensionSpec, SchemaInfo};
    use verdict_core::{Verdict, VerdictConfig};
    use verdict_storage::{ColumnDef, Schema, Value};

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verdict-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("t"),
            ColumnDef::categorical_dimension("g"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for i in 0..50 {
            table
                .push_row(vec![
                    Value::Num(i as f64),
                    Value::Str(["a", "b", "c"][i % 3].into()),
                    Value::Num(i as f64 * 3.0),
                ])
                .unwrap();
        }
        table
    }

    fn sample_snapshot() -> Snapshot {
        let info = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 49.0)]).unwrap();
        let engine = Verdict::new(info, VerdictConfig::default());
        Snapshot {
            last_seq: 17,
            meta: SessionMeta {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 9,
                num_samples: 1,
                original_rows: 50,
                partition_spec: None,
                paged: false,
                config: VerdictConfig::default(),
            },
            table_fp: 0xDEAD_BEEF_F00D_CAFE,
            data_epoch: 2,
            state: engine.export_state(),
            resolution: sample_table().gather(&[]).unwrap(),
            paged: None,
        }
    }

    fn write(dir: &Path, gen: u64, snap: &Snapshot, rows: &Table) -> PathBuf {
        write_snapshot(
            dir,
            gen,
            snap.last_seq,
            &snap.meta,
            snap.table_fp,
            snap.data_epoch,
            &snap.state.to_bytes(),
            rows,
            None,
        )
        .unwrap()
    }

    /// A snapshot carries the dictionaries of the rows it is given, never
    /// the rows: the whole table and its zero-row resolution table write
    /// the same bytes.
    #[test]
    fn write_read_roundtrip() {
        let dir = tempdir("roundtrip");
        let snap = sample_snapshot();
        let path = write(&dir, 3, &snap, &sample_table());
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.last_seq, 17);
        assert_eq!(back.data_epoch, 2);
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.table_fp, snap.table_fp);
        assert_eq!(back.state.to_bytes(), snap.state.to_bytes());
        assert_eq!(back.resolution.num_rows(), 0);
        assert_eq!(back.resolution.schema(), snap.resolution.schema());
        assert_eq!(
            back.resolution.column("g").unwrap().labels().unwrap(),
            snap.resolution.column("g").unwrap().labels().unwrap()
        );
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[20..28], [0; 8], "the table_gen word is reserved");
        let again = write(&dir, 4, &snap, &snap.resolution);
        assert_eq!(std::fs::read(again).unwrap(), bytes);
    }

    #[test]
    fn corrupt_snapshot_detected() {
        let dir = tempdir("corrupt");
        let snap = sample_snapshot();
        let path = write(&dir, 1, &snap, &snap.resolution);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_snapshot(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn truncated_snapshot_detected() {
        let dir = tempdir("trunc");
        let snap = sample_snapshot();
        let path = write(&dir, 1, &snap, &snap.resolution);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 8, 31, 39, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(read_snapshot(&path).is_err(), "cut {cut}");
        }
    }

    /// Version 4 is the only version read: the same file under any other
    /// version word is refused as corrupt.
    #[test]
    fn other_snapshot_versions_are_refused() {
        let dir = tempdir("versions");
        let snap = sample_snapshot();
        let path = write(&dir, 1, &snap, &snap.resolution);
        let mut bytes = std::fs::read(&path).unwrap();
        for version in [1u32, 2, 3, 5] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(read_snapshot(&path), Err(StoreError::Corrupt(msg)) if msg.contains("version")),
                "version {version}"
            );
        }
    }

    #[test]
    fn generation_listing_and_parsing() {
        let dir = tempdir("gens");
        let snap = sample_snapshot();
        for gen in [2, 0, 7] {
            write(&dir, gen, &snap, &snap.resolution);
        }
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![0, 2, 7]);
        assert_eq!(parse_generation("snapshot-0000000042.vsnap"), Some(42));
        assert_eq!(parse_generation("snapshot-x.vsnap"), None);
        assert_eq!(parse_generation("wal.vlog"), None);
    }
}
