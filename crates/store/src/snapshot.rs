//! Compacted snapshots (`snapshot-<gen>.vsnap`).
//!
//! A snapshot is the non-incremental half of durability: the complete
//! session — base table, session parameters, and the engine's learned
//! state including trained models — in one checksummed, atomically
//! replaced file. Snapshots are written to a temporary file, fsynced, and
//! renamed into place, so a crash mid-write can never damage an existing
//! generation.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use verdict_core::persist::{Decoder, Encoder, Persist};
use verdict_core::{EngineState, VerdictConfig};
use verdict_storage::{PartitionSpec, Table};

use crate::crc::crc32;
use crate::partfile::{decode_paged_state, encode_paged_state, PagedState};
use crate::tablecodec::{decode_table, encode_table};
use crate::{Result, StoreError};

/// File magic for snapshots.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"VDBLSNAP";
/// Current snapshot format version (v2 added the table generation to the
/// header and the data epoch + original row count to the body, replacing
/// v1's write-once table assumption; v3 added the partition spec + paged
/// flag to the session metadata and an optional paged-state section —
/// partition map, resolution dictionaries, and per-sample ingest tails —
/// carried in place of a base-table generation reference; v4 stores each
/// model's packed Cholesky factor, `n(n+1)/2` values, where `Σₙ⁻¹`'s `n²`
/// were). Version-2 files are still read: they simply decode with no
/// partition spec and `paged = false`. Version-2 and -3 models are fitted
/// again as they are read (see `EngineState::decode_layout`).
pub const SNAPSHOT_VERSION: u32 = 4;

/// Whether this build reads snapshots of format `version`.
fn supported(version: u32) -> bool {
    (2..=SNAPSHOT_VERSION).contains(&version)
}

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
    /// Whether the store is paged (out-of-core): the base table lives in
    /// per-partition column files and the snapshot carries a
    /// [`PagedState`] section instead of referencing a table generation.
    pub paged: bool,
    /// Engine configuration.
    pub config: VerdictConfig,
}

impl SessionMeta {
    /// Decodes the version-2 body layout, which predates partitioned and
    /// paged stores.
    fn decode_v2(dec: &mut Decoder<'_>) -> verdict_core::persist::PersistResult<SessionMeta> {
        Ok(SessionMeta {
            sample_fraction: dec.take_f64()?,
            batch_size: dec.take_u64()?,
            seed: dec.take_u64()?,
            num_samples: dec.take_u64()?,
            original_rows: dec.take_u64()?,
            partition_spec: None,
            paged: false,
            config: VerdictConfig::decode(dec)?,
        })
    }
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
    /// Generation of the table file this snapshot was written against.
    pub table_gen: u64,
    /// Session construction parameters.
    pub meta: SessionMeta,
    /// Fingerprint of the referenced table generation; binds the snapshot
    /// to the base table (plus folded ingests) it was learned from.
    pub table_fp: u64,
    /// Ingested batches folded into this snapshot (the engine's data
    /// epoch at checkpoint time).
    pub data_epoch: u64,
    /// The engine's learned state.
    pub state: EngineState,
    /// Out-of-core state (partition map, resolution dictionaries, sample
    /// tails); present exactly when `meta.paged`.
    pub paged: Option<PagedState>,
}

fn encode_snapshot_body(
    meta: &SessionMeta,
    table_fp: u64,
    data_epoch: u64,
    state_bytes: &[u8],
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
    if let Some(state) = paged {
        // The paged section precedes the engine state: both are
        // self-delimiting, but the engine state is appended as raw
        // pre-encoded bytes, so it must come last.
        encode_paged_state(state, &mut enc);
    }
    enc.put_bytes(state_bytes);
    enc.into_bytes()
}

impl Snapshot {
    fn decode_body(version: u32, last_seq: u64, table_gen: u64, body: &[u8]) -> Result<Snapshot> {
        let mut dec = Decoder::new(body);
        let meta = if version == 2 {
            SessionMeta::decode_v2(&mut dec)?
        } else {
            SessionMeta::decode(&mut dec)?
        };
        let table_fp = dec.take_u64()?;
        let data_epoch = dec.take_u64()?;
        let paged = if meta.paged {
            Some(decode_paged_state(&mut dec)?)
        } else {
            None
        };
        let refit_jitter = (version < 4).then_some(meta.config.jitter);
        let state = EngineState::decode_layout(&mut dec, refit_jitter)?;
        if !dec.is_exhausted() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes in snapshot body",
                dec.remaining()
            )));
        }
        Ok(Snapshot {
            last_seq,
            table_gen,
            meta,
            table_fp,
            data_epoch,
            state,
            paged,
        })
    }
}

/// File magic for base-table generation files.
pub const TABLE_MAGIC: [u8; 8] = *b"VDBLTABL";
/// Current table-file format version.
pub const TABLE_VERSION: u32 = 1;
/// The v1 write-once table file name; recognized only so `create` refuses
/// to clobber a legacy store's data.
pub const LEGACY_TABLE_FILE: &str = "table.vtab";

/// Path of table generation `gen` inside `dir`.
pub fn table_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("table-{gen:010}.vtab"))
}

/// Parses a generation number out of a table file name.
pub fn parse_table_generation(name: &str) -> Option<u64> {
    name.strip_prefix("table-")?
        .strip_suffix(".vtab")?
        .parse()
        .ok()
}

/// Whether `name` is any store table file (a generation or the legacy
/// write-once name).
pub fn is_table_file(name: &str) -> bool {
    name == LEGACY_TABLE_FILE || parse_table_generation(name).is_some()
}

/// All table generations present in `dir`, ascending.
pub fn list_table_generations(dir: &Path) -> Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(gen) = entry.file_name().to_str().and_then(parse_table_generation) {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Fsyncs a directory so a preceding `rename` inside it is durable (on
/// POSIX, rename durability requires syncing the parent directory, not
/// just the file). Best-effort on platforms where directories cannot be
/// opened for sync.
pub fn sync_dir(dir: &Path) -> Result<()> {
    match File::open(dir) {
        Ok(d) => {
            // Windows cannot fsync directories; treat that as best-effort.
            let _ = d.sync_all();
            Ok(())
        }
        Err(e) => Err(StoreError::Io(e)),
    }
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

/// Writes one table generation (atomically, [`write_atomic`]). A
/// generation is immutable once written: ingests accumulate in the WAL,
/// and the next checkpoint folds them into a *new* generation —
/// checkpoints without intervening ingests keep referencing the old
/// generation, so compaction cost still scales with the synopsis, not the
/// data, on a non-evolving table.
pub fn write_table_file(dir: &Path, gen: u64, table: &Table) -> Result<u64> {
    let mut enc = Encoder::new();
    encode_table(table, &mut enc);
    let body = enc.into_bytes();
    let fp = verdict_core::persist::fingerprint_bytes(&body);
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(&TABLE_MAGIC);
    header.extend_from_slice(&TABLE_VERSION.to_le_bytes());
    header.extend_from_slice(&(body.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(&body).to_le_bytes());
    write_atomic(&table_path(dir, gen), &header, &body)?;
    Ok(fp)
}

/// Reads and validates one table generation, returning the table and its
/// fingerprint.
pub fn read_table_file(dir: &Path, gen: u64) -> Result<(Table, u64)> {
    let path = table_path(dir, gen);
    let mut bytes = Vec::new();
    File::open(&path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 24 {
        return Err(StoreError::Corrupt("table file shorter than header".into()));
    }
    if bytes[..8] != TABLE_MAGIC {
        return Err(StoreError::Corrupt("bad table-file magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != TABLE_VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported table-file version {version}"
        )));
    }
    let body_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let body_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let body = bytes
        .get(24..24 + body_len as usize)
        .ok_or_else(|| StoreError::Corrupt("table file truncated".into()))?;
    if bytes.len() as u64 != 24 + body_len {
        return Err(StoreError::Corrupt("table file trailing bytes".into()));
    }
    if crc32(body) != body_crc {
        return Err(StoreError::Corrupt("table file checksum mismatch".into()));
    }
    let mut dec = Decoder::new(body);
    let table = decode_table(&mut dec)?;
    if !dec.is_exhausted() {
        return Err(StoreError::Corrupt("table file trailing body bytes".into()));
    }
    Ok((table, verdict_core::persist::fingerprint_bytes(body)))
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
/// re-encoded on the way in. `table_gen` names the
/// table generation the state was learned against; it sits in the header
/// so pruning can pair snapshots with their tables without decoding
/// bodies.
#[allow(clippy::too_many_arguments)]
pub fn write_snapshot(
    dir: &Path,
    gen: u64,
    last_seq: u64,
    table_gen: u64,
    meta: &SessionMeta,
    table_fp: u64,
    data_epoch: u64,
    state_bytes: &[u8],
    paged: Option<&PagedState>,
) -> Result<PathBuf> {
    let body = encode_snapshot_body(meta, table_fp, data_epoch, state_bytes, paged);
    let mut header = Vec::with_capacity(40);
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header.extend_from_slice(&last_seq.to_le_bytes());
    header.extend_from_slice(&table_gen.to_le_bytes());
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
    if !supported(version) {
        return Err(StoreError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let last_seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let table_gen = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
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
    Snapshot::decode_body(version, last_seq, table_gen, body)
}

/// Reads only the table generation out of a snapshot's header (cheap peek
/// used when pruning table generations; the body is not validated).
pub fn snapshot_table_gen(path: &Path) -> Result<u64> {
    let mut header = [0u8; 40];
    let mut f = File::open(path)?;
    f.read_exact(&mut header)
        .map_err(|_| StoreError::Corrupt("snapshot shorter than header".into()))?;
    if header[..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if !supported(version) {
        return Err(StoreError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    Ok(u64::from_le_bytes(header[20..28].try_into().unwrap()))
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
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for i in 0..50 {
            table
                .push_row(vec![Value::Num(i as f64), Value::Num(i as f64 * 3.0)])
                .unwrap();
        }
        table
    }

    fn sample_snapshot() -> Snapshot {
        let info = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 49.0)]).unwrap();
        let engine = Verdict::new(info, VerdictConfig::default());
        Snapshot {
            last_seq: 17,
            table_gen: 3,
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
            paged: None,
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tempdir("roundtrip");
        let snap = sample_snapshot();
        write_snapshot(
            &dir,
            3,
            snap.last_seq,
            snap.table_gen,
            &snap.meta,
            snap.table_fp,
            snap.data_epoch,
            &snap.state.to_bytes(),
            None,
        )
        .unwrap();
        let back = read_snapshot(&snapshot_path(&dir, 3)).unwrap();
        assert_eq!(back.last_seq, 17);
        assert_eq!(back.table_gen, 3);
        assert_eq!(back.data_epoch, 2);
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.table_fp, snap.table_fp);
        assert_eq!(back.state.to_bytes(), snap.state.to_bytes());
        assert_eq!(snapshot_table_gen(&snapshot_path(&dir, 3)).unwrap(), 3);
    }

    #[test]
    fn table_file_roundtrip_and_validation() {
        let dir = tempdir("tablefile");
        let table = sample_table();
        let fp = write_table_file(&dir, 0, &table).unwrap();
        let (back, fp2) = read_table_file(&dir, 0).unwrap();
        assert_eq!(fp, fp2);
        assert_eq!(back.num_rows(), 50);
        assert_eq!(
            back.column("v").unwrap().numeric().unwrap(),
            table.column("v").unwrap().numeric().unwrap()
        );
        // Corruption is detected.
        let path = table_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_table_file(&dir, 0),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_snapshot_detected() {
        let dir = tempdir("corrupt");
        let snap = sample_snapshot();
        let path = write_snapshot(
            &dir,
            1,
            snap.last_seq,
            snap.table_gen,
            &snap.meta,
            snap.table_fp,
            snap.data_epoch,
            &snap.state.to_bytes(),
            None,
        )
        .unwrap();
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
        let path = write_snapshot(
            &dir,
            1,
            snap.last_seq,
            snap.table_gen,
            &snap.meta,
            snap.table_fp,
            snap.data_epoch,
            &snap.state.to_bytes(),
            None,
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 8, 31, 39, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(read_snapshot(&path).is_err(), "cut {cut}");
        }
    }

    /// A trained state in the version-3 layout, whose models held `Σₙ⁻¹`
    /// (here zeros: it is skipped, not read), under a v3 header: it reads
    /// back as the live engine's state, each model fitted again to the
    /// live one's bits.
    #[test]
    fn version_3_snapshots_refit_their_models() {
        use verdict_core::{AggKey, Observation, Region, Snippet};
        let info = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 49.0)]).unwrap();
        let mut engine = Verdict::new(info.clone(), VerdictConfig::default());
        for i in 0..24 {
            let lo = i as f64 * 1.5;
            let region = Region::from_predicate(
                &info,
                &verdict_storage::Predicate::between("t", lo, lo + 8.0),
            )
            .unwrap();
            let answer = 10.0 + (lo / 6.0).sin();
            engine.observe(
                &Snippet::new(AggKey::avg("v"), region),
                Observation::new(answer, 0.3),
            );
        }
        engine.train().unwrap();
        let state = engine.export_state();
        assert_eq!(state.models.len(), 1);

        let mut enc = Encoder::new();
        state.schema.encode(&mut enc);
        enc.put_len(state.synopses.len());
        for (key, synopsis) in &state.synopses {
            key.encode(&mut enc);
            synopsis.encode(&mut enc);
        }
        enc.put_len(state.models.len());
        for (key, model) in &state.models {
            key.encode(&mut enc);
            model.mode().encode(&mut enc);
            model.params().encode(&mut enc);
            model.prior().encode(&mut enc);
            enc.put_len(model.n());
            model.regions().iter().for_each(|r| r.encode(&mut enc));
            enc.put_len(model.n());
            model.observations().iter().for_each(|o| o.encode(&mut enc));
            enc.put_len(model.n());
            enc.put_len(model.n());
            (0..model.n() * model.n()).for_each(|_| enc.put_f64(0.0));
            enc.put_len(model.n());
            model.alpha().iter().for_each(|&a| enc.put_f64(a));
        }
        state.stats.encode(&mut enc);

        let dir = tempdir("v3");
        let snap = sample_snapshot();
        let path = write_snapshot(
            &dir,
            1,
            snap.last_seq,
            snap.table_gen,
            &snap.meta,
            snap.table_fp,
            snap.data_epoch,
            &enc.into_bytes(),
            None,
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert!(back.state.to_bytes() == engine.state_bytes());
        // The same bytes under the current header are not a v4 body.
        bytes[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).is_err());
    }

    #[test]
    fn generation_listing_and_parsing() {
        let dir = tempdir("gens");
        let snap = sample_snapshot();
        for gen in [2, 0, 7] {
            write_snapshot(
                &dir,
                gen,
                snap.last_seq,
                snap.table_gen,
                &snap.meta,
                snap.table_fp,
                snap.data_epoch,
                &snap.state.to_bytes(),
                None,
            )
            .unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        assert_eq!(list_generations(&dir).unwrap(), vec![0, 2, 7]);
        assert_eq!(parse_generation("snapshot-0000000042.vsnap"), Some(42));
        assert_eq!(parse_generation("snapshot-x.vsnap"), None);
        assert_eq!(parse_generation("wal.vlog"), None);
        assert_eq!(parse_table_generation("table-0000000005.vtab"), Some(5));
        assert_eq!(parse_table_generation("table.vtab"), None);
        assert!(is_table_file("table.vtab"));
        assert!(is_table_file("table-0000000001.vtab"));
        assert!(!is_table_file("snapshot-0000000001.vsnap"));
    }
}
