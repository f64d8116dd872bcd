//! The [`SynopsisStore`]: log, snapshots and part files under one
//! directory, with crash-safe recovery and a compaction policy.
//!
//! Resident and paged (out-of-core) tables share every durable step:
//! [`SynopsisStore::create`], the WAL-first appends,
//! [`SynopsisStore::snapshot`] and [`SynopsisStore::open`]'s one replay
//! loop. Both keep their base rows in `part-<id>.vcol` files — a resident
//! table in one, `part-000000.vcol`, a paged table in one per partition —
//! and every snapshot carries the resolution table their codes refer to.
//! They differ only in what open hands back ([`BaseRows`]): a resident
//! table's part file read whole, or a paged table's [`PagedState`].

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use verdict_core::append::AppendAdjustment;
use verdict_core::persist::{fingerprint, Persist};
use verdict_core::snippet::{AggKey, Observation, Snippet};
use verdict_core::{EngineState, IngestBounds, Region, SnippetObserver, Verdict};
use verdict_storage::{PartitionMap, PartitionSpec, Table, Value};

use crate::log::{IngestRecord, LogRecord, SnippetLog, SnippetRecord};
use crate::partfile::{
    append_part_record, is_part_file, open_part_file, part_fingerprint, part_path, write_part_file,
    PagedState, PartRows,
};
use crate::snapshot::{
    list_generations, read_snapshot, snapshot_path, write_snapshot, SessionMeta, Snapshot,
};
use crate::{Result, StoreError};

/// When and how the store compacts the log into a fresh snapshot.
#[derive(Debug, Clone)]
pub struct StorePolicy {
    /// Compact once this many records accumulate in the log.
    pub compact_after_records: u64,
    /// Compact once the log grows past this many bytes.
    pub compact_after_bytes: u64,
    /// Snapshot generations retained after compaction (≥ 1); older ones
    /// are deleted.
    pub keep_generations: usize,
    /// Fsync the log after every append (durability over throughput).
    pub sync_appends: bool,
}

impl Default for StorePolicy {
    fn default() -> Self {
        StorePolicy {
            compact_after_records: 1024,
            compact_after_bytes: 1 << 20,
            keep_generations: 2,
            sync_appends: false,
        }
    }
}

/// Cumulative I/O accounting for one store, kept since open/create. This
/// is the single source of truth for WAL and checkpoint instrumentation:
/// the serving layer polls it (and diffs it around operations) rather
/// than running its own clocks next to the store's writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended to the WAL (snippets + ingest batches).
    pub wal_appends: u64,
    /// Bytes those appends occupied on disk (frame headers included).
    pub wal_bytes: u64,
    /// Snapshot generations written (explicit checkpoints and policy
    /// compactions alike).
    pub snapshots: u64,
    /// Bytes written by those snapshot files (base rows are appended to
    /// their part files at ingest, never rewritten by a snapshot).
    pub snapshot_bytes: u64,
    /// Total wall-clock nanoseconds spent writing snapshots.
    pub snapshot_ns: u64,
}

/// What one [`SynopsisStore::snapshot`] call wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReceipt {
    /// The new snapshot generation.
    pub generation: u64,
    /// Bytes written: the snapshot file alone, whatever was ingested
    /// since the last one.
    pub bytes_written: u64,
    /// Wall-clock time the snapshot took.
    pub elapsed: std::time::Duration,
}

/// What [`SynopsisStore::open`] recovered.
#[derive(Debug)]
pub struct Recovered {
    /// Session construction parameters from the snapshot.
    pub meta: SessionMeta,
    /// The base rows, held once: a resident table, or a paged store's
    /// out-of-core state (`meta.paged` says which).
    pub base: BaseRows,
    /// Learned state: snapshot state with surviving log records replayed.
    pub state: EngineState,
    /// Data epoch after replay (snapshot's folded ingests + replayed
    /// ingest records).
    pub data_epoch: u64,
    /// Forensics of the recovery.
    pub report: RecoveryReport,
}

/// What an opened store hands back of its base rows — the one point at
/// which a resident and a paged store differ.
#[derive(Debug)]
pub enum BaseRows {
    /// A resident table: partition file 0 read whole, every surviving
    /// ingest record's rows included.
    Table(Table),
    /// The rows stay in their partition files; this is what the session
    /// rebuilds its demand-paged samples from.
    Paged(PagedRecovered),
}

/// What [`SynopsisStore::open`] recovered of a paged (out-of-core)
/// store's base rows.
#[derive(Debug)]
pub struct PagedRecovered {
    /// The loaded snapshot's paged state. Its partition map is extended
    /// through every replayed batch; `total_rows` and the sample `tails`
    /// stay as the snapshot folded them, so the replayed batches follow
    /// them.
    pub state: PagedState,
    /// The zero-row resolution table, its dictionaries extended through
    /// every replayed batch.
    pub resolution: Table,
    /// Ingest batches replayed from the WAL (newest snapshot onward), in
    /// sequence order, coded against `resolution`'s dictionaries. The
    /// session re-admits these into each sample's tail exactly as the
    /// live session did.
    pub replayed_batches: Vec<Table>,
    /// Bytes truncated from partition files at open: torn tails and
    /// records stamped past the newest WAL or snapshot sequence.
    pub part_torn_bytes: u64,
}

/// Details of one recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the snapshot that was loaded.
    pub snapshot_gen: u64,
    /// Sequence number the snapshot had folded up to.
    pub snapshot_last_seq: u64,
    /// Log records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Of those, ingest records (each one whole row batch).
    pub ingests_replayed: u64,
    /// Base-table rows re-appended by replayed ingest records.
    pub rows_appended: u64,
    /// Log records skipped because the snapshot already contained them.
    pub records_already_folded: u64,
    /// Torn/corrupt log bytes truncated away.
    pub torn_bytes: u64,
    /// Newer snapshot generations that failed validation and were skipped.
    pub skipped_generations: Vec<u64>,
}

/// A durable synopsis store rooted at one directory.
#[derive(Debug)]
pub struct SynopsisStore {
    dir: PathBuf,
    policy: StorePolicy,
    log: SnippetLog,
    next_seq: u64,
    current_gen: u64,
    /// Ingested batches this store has logged or folded.
    data_epoch: u64,
    schema_fp: u64,
    /// The part fingerprint (FNV over every partition file's create-time
    /// record CRC).
    table_fp: u64,
    /// Whether this store is paged (out-of-core): its base rows span one
    /// part file per partition and its snapshots carry a [`PagedState`]
    /// section.
    paged: bool,
    stats: StoreStats,
    sticky_error: Option<StoreError>,
    /// Advisory single-writer lock on `LOCK`, held for the store's
    /// lifetime. The OS releases it when the process dies, so a crashed
    /// writer never wedges the store.
    _lock: std::fs::File,
}

impl SynopsisStore {
    /// Whether `dir` already contains a store (any snapshot generation).
    pub fn exists(dir: &Path) -> bool {
        dir.is_dir()
            && list_generations(dir)
                .map(|g| !g.is_empty())
                .unwrap_or(false)
    }

    /// Takes the store's exclusive writer lock. Two live sessions
    /// appending to one log would overwrite each other's records (each
    /// file handle tracks its own offset), so a second writer is refused
    /// up front.
    fn acquire_lock(dir: &Path) -> Result<std::fs::File> {
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(dir.join("LOCK"))?;
        match lock.try_lock() {
            Ok(()) => Ok(lock),
            Err(std::fs::TryLockError::WouldBlock) => Err(StoreError::Mismatch(format!(
                "the store in {} is locked by another live session",
                dir.display()
            ))),
            Err(std::fs::TryLockError::Error(e)) => Err(StoreError::Io(e)),
        }
    }

    /// Creates a fresh store in `dir` (created if missing) and writes the
    /// initial snapshot. Fails if a store already exists there — reopen
    /// with [`SynopsisStore::open`] instead.
    ///
    /// `meta.paged` decides how the base rows split. A resident table
    /// becomes the create-time record of `part-000000.vcol`. A paged
    /// table is split by `meta.partition_spec` into one `part-<id>.vcol`
    /// column file per partition, and the initial snapshot carries the
    /// paged state — partition map and one empty ingest tail per sample.
    /// That state is returned exactly when the store is paged: the
    /// session scaffolds its partition map, loader, and sample tails from
    /// it. Either way the snapshot carries `table`'s dictionaries as the
    /// resolution table, and later ingests append to the part files.
    pub fn create(
        dir: impl Into<PathBuf>,
        policy: StorePolicy,
        meta: SessionMeta,
        table: &Table,
        state: &EngineState,
    ) -> Result<(SynopsisStore, Option<PagedState>)> {
        let dir = dir.into();
        // The spec is persisted for the paged store's partition files; a
        // resident store has none to rebuild.
        let spec = match (&meta.partition_spec, meta.paged) {
            (None, false) => None,
            (Some(spec), true) => Some(spec.clone()),
            _ => {
                return Err(StoreError::Mismatch(
                    "a paged store needs a partition spec in its session metadata, \
                     and only a paged store carries one"
                        .into(),
                ))
            }
        };
        let lock = SynopsisStore::prepare_create(&dir)?;
        let (record0_crcs, paged) = match spec {
            Some(spec) => {
                let (crcs, paged) = write_part_files(&dir, spec, table, meta.num_samples)?;
                (crcs, Some(paged))
            }
            None => (vec![write_part_file(&dir, 0, table)?], None),
        };
        let table_fp = part_fingerprint(&record0_crcs);
        write_snapshot(
            &dir,
            0,
            0,
            &meta,
            table_fp,
            0,
            &state.to_bytes(),
            table,
            paged.as_ref(),
        )?;
        let log = SnippetLog::create(dir.join("wal.vlog"))?;
        let store = SynopsisStore {
            dir,
            policy,
            log,
            next_seq: 1,
            current_gen: 0,
            data_epoch: 0,
            schema_fp: fingerprint(&state.schema),
            table_fp,
            paged: meta.paged,
            stats: StoreStats::default(),
            sticky_error: None,
            _lock: lock,
        };
        Ok((store, paged))
    }

    /// Pre-flight for `create`: refuses an existing or half-dismantled
    /// store, then takes the writer lock.
    fn prepare_create(dir: &Path) -> Result<std::fs::File> {
        std::fs::create_dir_all(dir)?;
        if SynopsisStore::exists(dir) {
            return Err(StoreError::Mismatch(format!(
                "a synopsis store already exists in {}; open it instead",
                dir.display()
            )));
        }
        // Even without snapshots, leftover store files mean this is the
        // remains of an earlier store (e.g. snapshots deleted by hand);
        // creating here would truncate a log that may hold live records.
        let leftover = std::fs::read_dir(dir)?
            .flatten()
            .filter_map(|entry| entry.file_name().into_string().ok())
            .find(|name| name == "wal.vlog" || is_part_file(name));
        if let Some(leftover) = leftover {
            return Err(StoreError::Mismatch(format!(
                "{} contains a leftover {leftover} but no snapshot; refusing to \
                 overwrite it — move the file away or choose a fresh directory",
                dir.display()
            )));
        }
        SynopsisStore::acquire_lock(dir)
    }

    /// Opens an existing store: loads the newest valid snapshot (falling
    /// back across corrupt generations), truncates the log's torn tail,
    /// heals the part files and checks them against the snapshot, and
    /// replays surviving records into the returned state.
    ///
    /// Each replayed ingest record is rebuilt as a batch coded against
    /// the resolution dictionaries, routed (through the partition map of
    /// a paged store, to partition 0 of a resident one) and re-appended
    /// **idempotently** to the part files: a partition whose file already
    /// holds the record's sequence is skipped, so replay never duplicates
    /// rows. A resident table's rows are decoded by the same walk that
    /// heals its part file, and the batches replay appends follow them,
    /// so the file is read once.
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: StorePolicy,
    ) -> Result<(SynopsisStore, Recovered)> {
        let dir = dir.into();
        // Lock FIRST: selecting a snapshot while another writer is live
        // could recover stale state (the writer may compact, prune the
        // generation we just read, and truncate the log under us).
        let lock = SynopsisStore::acquire_lock(&dir)?;
        let mut gens = list_generations(&dir)?;
        if gens.is_empty() {
            return Err(StoreError::NotFound(format!(
                "no snapshot in {}",
                dir.display()
            )));
        }
        // Every store keeps its rows in part files, partition 0 included.
        // A store without one predates that layout (its rows sat in table
        // generations) or lost its rows: refused, never decoded.
        if !part_path(&dir, 0).exists() {
            return Err(StoreError::Mismatch(format!(
                "{} holds snapshots but no part-000000.vcol: a store in the retired \
                 table-generation layout, or one that lost its rows",
                dir.display()
            )));
        }
        gens.reverse();
        let mut skipped = Vec::new();
        let mut loaded = None;
        for &gen in &gens {
            match read_snapshot(&snapshot_path(&dir, gen)) {
                Ok(snapshot) => {
                    loaded = Some((gen, snapshot));
                    break;
                }
                Err(_) => skipped.push(gen),
            }
        }
        let Some((gen, snapshot)) = loaded else {
            return Err(StoreError::Corrupt(format!(
                "all {} snapshot generations in {} are corrupt",
                gens.len(),
                dir.display()
            )));
        };
        let Snapshot {
            last_seq,
            meta,
            table_fp: snap_fp,
            mut data_epoch,
            state,
            mut resolution,
            mut paged,
        } = snapshot;

        // The log before the part files: its newest record bounds which
        // part-file records are real. One stamped past it belongs to a
        // batch whose WAL record did not survive, and is cut like a torn
        // tail.
        let (log, scan) = SnippetLog::open(dir.join("wal.vlog"))?;
        let max_seq = scan
            .records
            .iter()
            .map(LogRecord::seq)
            .fold(last_seq, u64::max);
        let parts = paged.as_ref().map_or(1, |state| state.map.num_partitions());
        let mut record0_crcs = Vec::with_capacity(parts);
        let mut part_seqs: Vec<HashSet<u64>> = Vec::with_capacity(parts);
        let mut part_torn_bytes = 0u64;
        // A resident table's rows: part 0 decoded as it heals.
        let mut rows = PartRows::new(resolution.schema());
        for p in 0..parts as u32 {
            let part = open_part_file(&dir, p, max_seq, paged.is_none().then_some(&mut rows))?;
            record0_crcs.push(part.record0_crc);
            part_torn_bytes += part.torn_bytes;
            part_seqs.push(part.seqs.into_iter().collect());
        }
        let table_fp = part_fingerprint(&record0_crcs);
        if snap_fp != table_fp {
            return Err(StoreError::Mismatch(format!(
                "snapshot generation {gen} was written against different base rows \
                 (fingerprint {snap_fp:#x}, {table_fp:#x} on disk)"
            )));
        }

        // Replay records the snapshot has not folded yet — through a real
        // engine, so replay runs the *same* code the live session ran:
        // `observe` for snippet records (same dedupe/LRU semantics, same
        // counter), `stage_ingest_filtered` + `commit_ingest` for each
        // logged ingest (same Lemma-3 rewrite, same model refit). That is
        // what makes a crashed session reopen to bit-identical state.
        let mut engine = Verdict::new(state.schema.clone(), meta.config.clone());
        engine
            .restore_state(state)
            .map_err(|e| StoreError::Corrupt(format!("snapshot state rejected: {e}")))?;
        let mut report = RecoveryReport {
            snapshot_gen: gen,
            snapshot_last_seq: last_seq,
            records_replayed: 0,
            ingests_replayed: 0,
            rows_appended: 0,
            records_already_folded: 0,
            torn_bytes: scan.torn_bytes,
            skipped_generations: skipped,
        };
        let mut replayed_batches = Vec::new();
        for record in &scan.records {
            if record.seq() <= last_seq {
                report.records_already_folded += 1;
                continue;
            }
            match record {
                LogRecord::Snippet(r) => {
                    engine.observe(
                        &Snippet::new(r.key.clone(), r.region.clone()),
                        r.observation,
                    );
                }
                LogRecord::Ingest(r) => {
                    let held = part_seqs[0].contains(&r.seq);
                    let map = paged.as_mut().map(|state| &mut state.map);
                    let (batch, bounds) =
                        replay_ingest(&dir, r, &mut resolution, map, &mut part_seqs)?;
                    let staged = engine
                        .stage_ingest_filtered(&r.adjustments, bounds.as_ref())
                        .map_err(|e| {
                            StoreError::Corrupt(format!("ingest record seq {} refit: {e}", r.seq))
                        })?;
                    engine.commit_ingest(staged);
                    if paged.is_some() {
                        replayed_batches.push(batch);
                    } else if !held {
                        // Replay just appended the batch to part 0.
                        rows.append(&batch);
                    }
                    report.ingests_replayed += 1;
                    report.rows_appended += r.rows.len() as u64;
                    data_epoch += 1;
                }
            }
            report.records_replayed += 1;
        }
        let state = engine.export_state();
        let base = match paged {
            None => BaseRows::Table(rows.into_table(&resolution)?),
            Some(state) => BaseRows::Paged(PagedRecovered {
                state,
                resolution,
                replayed_batches,
                part_torn_bytes,
            }),
        };

        let store = SynopsisStore {
            dir,
            policy,
            log,
            next_seq: max_seq + 1,
            current_gen: gen,
            data_epoch,
            schema_fp: fingerprint(&state.schema),
            table_fp,
            paged: meta.paged,
            stats: StoreStats::default(),
            sticky_error: None,
            _lock: lock,
        };
        let recovered = Recovered {
            meta,
            base,
            state,
            data_epoch,
            report,
        };
        Ok((store, recovered))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The compaction policy.
    pub fn policy(&self) -> &StorePolicy {
        &self.policy
    }

    /// Replaces the compaction/durability policy (e.g. to apply a
    /// builder override after [`SynopsisStore::open`]).
    pub fn set_policy(&mut self, policy: StorePolicy) {
        self.policy = policy;
    }

    /// The store's data epoch: ingested batches logged or folded so far.
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch
    }

    /// Cumulative I/O accounting since this store was opened or created.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Appends one snippet observation to the log, returning its sequence
    /// number.
    pub fn append_snippet(
        &mut self,
        key: &AggKey,
        region: &Region,
        observation: Observation,
    ) -> Result<u64> {
        let seq = self.next_seq;
        let record = LogRecord::Snippet(SnippetRecord {
            seq,
            key: key.clone(),
            region: region.clone(),
            observation,
        });
        let bytes = self.log.append(&record)?;
        if self.policy.sync_appends {
            self.log.sync()?;
        }
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += bytes;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Appends one ingested row batch — the rows plus the synopsis
    /// adjustments the live engine is about to apply — to the log,
    /// returning its sequence number. The caller logs *before* mutating
    /// in-memory state, so a refused append (e.g. an oversized batch)
    /// leaves memory and disk consistent.
    pub fn append_ingest(
        &mut self,
        rows: &[Vec<Value>],
        adjustments: &[(AggKey, AppendAdjustment)],
    ) -> Result<u64> {
        let seq = self.next_seq;
        let record = LogRecord::Ingest(IngestRecord {
            seq,
            rows: rows.to_vec(),
            adjustments: adjustments.to_vec(),
        });
        let bytes = self.log.append(&record)?;
        if self.policy.sync_appends {
            self.log.sync()?;
        }
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += bytes;
        self.next_seq += 1;
        self.data_epoch += 1;
        Ok(seq)
    }

    /// Whether this store is paged (out-of-core).
    pub fn is_paged(&self) -> bool {
        self.paged
    }

    /// Write-extends the part files an ingest batch touched. Call
    /// **after** [`SynopsisStore::append_ingest`] for the same batch:
    /// the WAL record (sequence `seq`) is the durability anchor, and the
    /// per-partition records written here are tagged with it so crash
    /// replay re-appends the batch only to partitions whose file missed
    /// it. `routed` assigns each row of `batch` to its partition (all 0
    /// for a resident table; see
    /// [`verdict_storage::PartitionMap::extend_batch`] for a paged one).
    /// Only partitions that received rows have their file opened or
    /// written.
    pub fn append_parts(&mut self, seq: u64, batch: &Table, routed: &[u32]) -> Result<()> {
        if routed.len() != batch.num_rows() {
            return Err(StoreError::Mismatch(format!(
                "routing covers {} rows but the batch holds {}",
                routed.len(),
                batch.num_rows()
            )));
        }
        append_routed(&self.dir, seq, batch, routed, |_| false)
    }

    /// Whether the compaction policy asks for a snapshot now.
    pub fn needs_compaction(&self) -> bool {
        self.log.appended_since_reset() >= self.policy.compact_after_records
            || self.log.len_bytes() >= self.policy.compact_after_bytes
    }

    /// Writes a new snapshot generation folding everything appended so
    /// far, truncates the log, and prunes old generations per policy.
    /// Returns a receipt with the generation, bytes written, and elapsed
    /// wall-clock — the instrumentation source for checkpoint reporting.
    ///
    /// `state_bytes` is a pre-encoded [`EngineState`] (see
    /// `Verdict::state_bytes`) whose schema fingerprints to `schema_fp`,
    /// so a checkpoint neither clones nor re-encodes the learned state.
    /// Of `rows` only the schema and dictionaries are written, as the
    /// resolution table: a resident store passes its table, a paged one
    /// its zero-row resolution table and its `paged` state. The base rows
    /// are already durable in their part files (every
    /// [`SynopsisStore::append_parts`] fsyncs), so a checkpoint writes the
    /// snapshot file alone and its cost scales with the synopsis, not the
    /// data.
    pub fn snapshot(
        &mut self,
        meta: SessionMeta,
        schema_fp: u64,
        state_bytes: &[u8],
        rows: &Table,
        paged: Option<&PagedState>,
    ) -> Result<SnapshotReceipt> {
        if paged.is_some() != self.paged || meta.paged != self.paged {
            return Err(StoreError::Mismatch(format!(
                "snapshot paged state and meta.paged must match the store (paged: {})",
                self.paged
            )));
        }
        if schema_fp != self.schema_fp {
            return Err(StoreError::Mismatch(
                "snapshot state schema differs from the store's schema".into(),
            ));
        }
        let started = std::time::Instant::now();
        let gen = self.current_gen + 1;
        let snap_path = write_snapshot(
            &self.dir,
            gen,
            self.next_seq - 1,
            &meta,
            self.table_fp,
            self.data_epoch,
            state_bytes,
            rows,
            paged,
        )?;
        let bytes_written = file_len(&snap_path);
        self.current_gen = gen;
        // The snapshot now covers every logged record; a crash past this
        // point replays nothing (seq <= last_seq), so truncating the log
        // is safe whether or not it completes.
        self.log.reset()?;
        self.prune_generations()?;
        let elapsed = started.elapsed();
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes += bytes_written;
        self.stats.snapshot_ns += elapsed.as_nanos().min(u64::MAX as u128) as u64;
        Ok(SnapshotReceipt {
            generation: gen,
            bytes_written,
            elapsed,
        })
    }

    fn prune_generations(&self) -> Result<()> {
        let gens = list_generations(&self.dir)?;
        let keep = self.policy.keep_generations.max(1);
        if gens.len() > keep {
            for &gen in &gens[..gens.len() - keep] {
                // Best-effort: a surviving stale generation is harmless.
                let _ = std::fs::remove_file(snapshot_path(&self.dir, gen));
            }
        }
        Ok(())
    }

    /// Durably syncs the log (fsync).
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Takes the first error a background append hit, if any. The
    /// [`SnippetObserver`] interface cannot surface errors at the call
    /// site, so failures park here for the session's next checkpoint.
    pub fn take_error(&mut self) -> Option<StoreError> {
        self.sticky_error.take()
    }

    /// Parks an error for later surfacing (first error wins). Used by the
    /// observer hook and by callers that must not fail the operation in
    /// flight (e.g. compaction piggybacked on a query).
    pub fn park_error(&mut self, e: StoreError) {
        self.sticky_error.get_or_insert(e);
    }
}

/// Replays one ingest record onto the part files. The batch is rebuilt
/// against the `resolution` dictionaries (string re-insertion is
/// deterministic, so codes come out identical to the live session's) and
/// the dictionaries adopt it. It is routed through a paged store's `map`
/// — to partition 0 of a resident store — and re-appended
/// **idempotently**: a partition whose file already holds the record's
/// sequence — the append won the crash — is skipped, so replay never
/// duplicates rows no matter where the crash landed. Returns the batch
/// and, for a paged store, the widening bounds of the map as it was
/// before the batch landed, as the live ingest had them (a resident
/// persisted table is never partitioned, so its live ingests widened
/// every snippet).
fn replay_ingest(
    dir: &Path,
    r: &IngestRecord,
    resolution: &mut Table,
    map: Option<&mut PartitionMap>,
    part_seqs: &mut [HashSet<u64>],
) -> Result<(Table, Option<IngestBounds>)> {
    let corrupt = |what: &str, e: &dyn std::fmt::Display| {
        StoreError::Corrupt(format!("ingest record seq {} {what}: {e}", r.seq))
    };
    let mut batch = resolution.clone();
    batch
        .push_rows(&r.rows)
        .map_err(|e| corrupt("replay", &e))?;
    resolution
        .sync_dictionaries_from(&batch)
        .map_err(|e| corrupt("dictionary sync", &e))?;
    let (routed, bounds) = match map {
        None => (vec![0; batch.num_rows()], None),
        Some(map) => {
            let routed = map
                .route(&batch, 0..batch.num_rows())
                .map_err(|e| corrupt("routing", &e))?;
            let bounds = IngestBounds::touched(map, &batch).map_err(|e| corrupt("bounds", &e))?;
            map.extend_batch(&batch)
                .map_err(|e| corrupt("summaries", &e))?;
            (routed, Some(bounds))
        }
    };
    append_routed(dir, r.seq, &batch, &routed, |p| {
        !part_seqs[p as usize].insert(r.seq)
    })?;
    Ok((batch, bounds))
}

/// Splits `table` by `spec` into one column file per partition (every
/// partition gets one, empty or not). Returns each file's create-time
/// record CRC and the initial paged state: the map, the create-time rows
/// per partition, and one empty ingest tail per sample.
fn write_part_files(
    dir: &Path,
    spec: PartitionSpec,
    table: &Table,
    num_samples: u64,
) -> Result<(Vec<u32>, PagedState)> {
    let mismatch =
        |what: &str, e: &dyn std::fmt::Display| StoreError::Mismatch(format!("{what}: {e}"));
    let map = PartitionMap::build(table, spec)
        .map_err(|e| mismatch("partitioning the base table", &e))?;
    let routed = map
        .route(table, 0..table.num_rows())
        .map_err(|e| mismatch("routing the base table", &e))?;
    let mut by_part = rows_by_partition(&routed);
    by_part.resize(map.num_partitions(), Vec::new());
    let mut record0_crcs = Vec::with_capacity(by_part.len());
    for (p, rows) in by_part.iter().enumerate() {
        let fragment = table
            .gather(rows)
            .map_err(|e| mismatch(&format!("slicing partition {p}"), &e))?;
        record0_crcs.push(write_part_file(dir, p as u32, &fragment)?);
    }
    // Every sample starts from the same empty tail; the first admission
    // copies it on write.
    let empty_tail = Arc::new(
        table
            .gather(&[])
            .map_err(|e| mismatch("building the empty tail", &e))?,
    );
    let state = PagedState {
        map,
        original_part_rows: by_part.iter().map(|rows| rows.len() as u64).collect(),
        tails: (0..num_samples).map(|_| Arc::clone(&empty_tail)).collect(),
        total_rows: table.num_rows() as u64,
    };
    Ok((record0_crcs, state))
}

/// The rows of a batch grouped by the partition `routed` assigns each
/// to, indexed by partition id (ascending; a partition past the last
/// routed one has no entry).
fn rows_by_partition(routed: &[u32]) -> Vec<Vec<usize>> {
    let mut by_part: Vec<Vec<usize>> = Vec::new();
    for (row, &p) in routed.iter().enumerate() {
        if by_part.len() <= p as usize {
            by_part.resize(p as usize + 1, Vec::new());
        }
        by_part[p as usize].push(row);
    }
    by_part
}

/// Appends each partition's share of `batch` to that partition's file as
/// one record tagged `seq`, in ascending partition order, skipping
/// partitions that received no rows and those `skip` names.
fn append_routed(
    dir: &Path,
    seq: u64,
    batch: &Table,
    routed: &[u32],
    mut skip: impl FnMut(u32) -> bool,
) -> Result<()> {
    for (p, rows) in rows_by_partition(routed).iter().enumerate() {
        let p = p as u32;
        if rows.is_empty() || skip(p) {
            continue;
        }
        let fragment = batch
            .gather(rows)
            .map_err(|e| StoreError::Mismatch(format!("slicing partition {p}: {e}")))?;
        append_part_record(dir, p, seq, &fragment, 0..rows.len())?;
    }
    Ok(())
}

/// Size of a file just written by the store; 0 only if it vanished from
/// under us (byte accounting degrades, correctness does not).
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Clonable, thread-safe handle to a [`SynopsisStore`], used to share the
/// store between a session (checkpoints) and the engine's append hook.
#[derive(Debug, Clone)]
pub struct SharedStore {
    inner: Arc<Mutex<SynopsisStore>>,
}

impl SharedStore {
    /// Wraps a store.
    pub fn new(store: SynopsisStore) -> SharedStore {
        SharedStore {
            inner: Arc::new(Mutex::new(store)),
        }
    }

    /// Locks the store (poisoning is absorbed: the store's own state is
    /// always consistent at rest).
    pub fn lock(&self) -> MutexGuard<'_, SynopsisStore> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// An engine hook that appends every observed snippet to this store's
    /// log.
    pub fn observer(&self) -> Box<dyn SnippetObserver + Send> {
        Box::new(LogObserver {
            store: self.clone(),
        })
    }
}

struct LogObserver {
    store: SharedStore,
}

impl SnippetObserver for LogObserver {
    fn on_snippet_appended(&mut self, key: &AggKey, region: &Region, obs: Observation) {
        let mut store = self.store.lock();
        if let Err(e) = store.append_snippet(key, region, obs) {
            store.park_error(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_core::region::{DimensionSpec, SchemaInfo};
    use verdict_core::{Persist, Snippet, Verdict, VerdictConfig};
    use verdict_storage::{ColumnDef, Predicate, Schema, Value};

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verdict-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schema_info() -> SchemaInfo {
        SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap()
    }

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("t"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..20 {
            t.push_row(vec![Value::Num(i as f64), Value::Num(1.0)])
                .unwrap();
        }
        t
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            sample_fraction: 0.1,
            batch_size: 100,
            seed: 1,
            num_samples: 1,
            original_rows: 20,
            partition_spec: None,
            paged: false,
            config: VerdictConfig::default(),
        }
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::from_predicate(&schema_info(), &Predicate::between("t", lo, hi)).unwrap()
    }

    fn fresh_store(name: &str) -> (PathBuf, SynopsisStore) {
        let dir = tempdir(name);
        let engine = Verdict::new(schema_info(), VerdictConfig::default());
        let (store, paged) = SynopsisStore::create(
            &dir,
            StorePolicy::default(),
            meta(),
            &small_table(),
            &engine.export_state(),
        )
        .unwrap();
        assert!(paged.is_none(), "a resident store has no paged state");
        (dir, store)
    }

    /// Checkpoints a resident store with `engine`'s state over
    /// `small_table()`, as the session would.
    fn checkpoint(store: &mut SynopsisStore, engine: &Verdict) -> Result<SnapshotReceipt> {
        let state = engine.export_state();
        store.snapshot(
            meta(),
            fingerprint(&state.schema),
            &state.to_bytes(),
            &small_table(),
            None,
        )
    }

    #[test]
    fn create_then_open_replays_log() {
        let (dir, mut store) = fresh_store("replay");
        for i in 0..6 {
            store
                .append_snippet(
                    &AggKey::avg("v"),
                    &region(i as f64 * 10.0, i as f64 * 10.0 + 10.0),
                    Observation::new(i as f64, 0.3),
                )
                .unwrap();
        }
        drop(store);
        let (store, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        assert_eq!(recovered.report.records_replayed, 6);
        assert_eq!(recovered.report.torn_bytes, 0);
        assert_eq!(recovered.state.stats.observed, 6);
        let (_, synopsis) = &recovered.state.synopses[0];
        assert_eq!(synopsis.len(), 6);
        assert_eq!(store.next_seq(), 7);
    }

    #[test]
    fn create_twice_refused() {
        let (dir, store) = fresh_store("twice");
        drop(store);
        let engine = Verdict::new(schema_info(), VerdictConfig::default());
        let err = SynopsisStore::create(
            &dir,
            StorePolicy::default(),
            meta(),
            &small_table(),
            &engine.export_state(),
        );
        assert!(matches!(err, Err(StoreError::Mismatch(_))));
    }

    #[test]
    fn snapshot_folds_log_and_prunes() {
        let (dir, mut store) = fresh_store("fold");
        let mut engine = Verdict::new(schema_info(), VerdictConfig::default());
        for i in 0..5 {
            let r = region(i as f64 * 10.0, i as f64 * 10.0 + 8.0);
            let obs = Observation::new(10.0 + i as f64, 0.2);
            engine.observe(&Snippet::new(AggKey::avg("v"), r.clone()), obs);
            store.append_snippet(&AggKey::avg("v"), &r, obs).unwrap();
        }
        let receipt = checkpoint(&mut store, &engine).unwrap();
        assert_eq!(receipt.generation, 1);
        assert!(receipt.bytes_written > 0);
        let stats = store.stats();
        assert_eq!(stats.wal_appends, 5);
        assert!(stats.wal_bytes > 0);
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.snapshot_bytes, receipt.bytes_written);
        // Two more appends after the snapshot.
        for i in 5..7 {
            let r = region(i as f64 * 10.0, i as f64 * 10.0 + 8.0);
            let obs = Observation::new(10.0 + i as f64, 0.2);
            engine.observe(&Snippet::new(AggKey::avg("v"), r.clone()), obs);
            store.append_snippet(&AggKey::avg("v"), &r, obs).unwrap();
        }
        drop(store);
        let (_, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        assert_eq!(recovered.report.snapshot_gen, 1);
        assert_eq!(recovered.report.snapshot_last_seq, 5);
        assert_eq!(recovered.report.records_replayed, 2);
        let (_, synopsis) = &recovered.state.synopses[0];
        assert_eq!(synopsis.len(), 7);
        // Recovered state matches the live engine bit-for-bit.
        assert_eq!(recovered.state.to_bytes(), engine.export_state().to_bytes());
    }

    #[test]
    fn stale_log_records_not_double_applied() {
        // Crash between snapshot write and log reset: simulate by writing
        // a snapshot that already folds the log, then re-appending the log
        // bytes from before the reset.
        let (dir, mut store) = fresh_store("double");
        let mut engine = Verdict::new(schema_info(), VerdictConfig::default());
        let r = region(0.0, 10.0);
        let obs = Observation::new(5.0, 0.2);
        engine.observe(&Snippet::new(AggKey::avg("v"), r.clone()), obs);
        store.append_snippet(&AggKey::avg("v"), &r, obs).unwrap();
        let log_before = std::fs::read(dir.join("wal.vlog")).unwrap();
        checkpoint(&mut store, &engine).unwrap();
        drop(store);
        // Put the pre-snapshot log back: its single record has seq 1,
        // which the snapshot's last_seq already covers.
        std::fs::write(dir.join("wal.vlog"), &log_before).unwrap();
        let (_, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        assert_eq!(recovered.report.records_already_folded, 1);
        assert_eq!(recovered.report.records_replayed, 0);
        assert_eq!(recovered.state.stats.observed, 1);
    }

    #[test]
    fn corrupt_newest_generation_falls_back() {
        let (dir, mut store) = fresh_store("fallback");
        let engine = Verdict::new(schema_info(), VerdictConfig::default());
        checkpoint(&mut store, &engine).unwrap();
        drop(store);
        // Corrupt generation 1; generation 0 must still load.
        let path = snapshot_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        assert_eq!(recovered.report.snapshot_gen, 0);
        assert_eq!(recovered.report.skipped_generations, vec![1]);
    }

    #[test]
    fn compaction_trigger_by_records() {
        let dir = tempdir("trigger");
        let engine = Verdict::new(schema_info(), VerdictConfig::default());
        let policy = StorePolicy {
            compact_after_records: 3,
            ..Default::default()
        };
        let (mut store, _) =
            SynopsisStore::create(&dir, policy, meta(), &small_table(), &engine.export_state())
                .unwrap();
        assert!(!store.needs_compaction());
        for i in 0..3 {
            store
                .append_snippet(
                    &AggKey::Freq,
                    &region(0.0, i as f64),
                    Observation::new(0.1, 0.01),
                )
                .unwrap();
        }
        assert!(store.needs_compaction());
        checkpoint(&mut store, &engine).unwrap();
        assert!(!store.needs_compaction());
    }

    #[test]
    fn observer_appends_through_engine() {
        let (dir, store) = fresh_store("observer");
        let shared = SharedStore::new(store);
        let mut engine = Verdict::new(schema_info(), VerdictConfig::default());
        engine.set_observer(shared.observer());
        for i in 0..4 {
            engine.observe(
                &Snippet::new(AggKey::avg("v"), region(i as f64, i as f64 + 1.0)),
                Observation::new(i as f64, 0.5),
            );
        }
        assert_eq!(shared.lock().next_seq(), 5);
        drop(engine);
        drop(shared);
        let (_, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        assert_eq!(recovered.report.records_replayed, 4);
    }

    #[test]
    fn schema_mismatch_on_snapshot_refused() {
        let (_dir, mut store) = fresh_store("mismatch");
        let other = SchemaInfo::new(vec![DimensionSpec::numeric("x", 0.0, 1.0)]).unwrap();
        let engine = Verdict::new(other, VerdictConfig::default());
        let err = checkpoint(&mut store, &engine);
        assert!(matches!(err, Err(StoreError::Mismatch(_))));
    }

    #[test]
    fn create_refuses_leftover_wal_without_snapshots() {
        // A dir whose snapshots were deleted but whose log survives must
        // not be silently re-initialized (the log may hold live records).
        let (dir, mut store) = fresh_store("leftover");
        store
            .append_snippet(
                &AggKey::Freq,
                &region(0.0, 1.0),
                Observation::new(0.1, 0.01),
            )
            .unwrap();
        drop(store);
        for gen in list_generations(&dir).unwrap() {
            std::fs::remove_file(snapshot_path(&dir, gen)).unwrap();
        }
        let engine = Verdict::new(schema_info(), VerdictConfig::default());
        let err = SynopsisStore::create(
            &dir,
            StorePolicy::default(),
            meta(),
            &small_table(),
            &engine.export_state(),
        );
        assert!(matches!(err, Err(StoreError::Mismatch(_))), "{err:?}");
        // The log was not touched.
        let (_, scan) = SnippetLog::open(dir.join("wal.vlog")).unwrap();
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn second_live_writer_refused() {
        let (dir, store) = fresh_store("lock");
        // A concurrent open while the first store is alive must fail:
        // two writers would overwrite each other's log records.
        let err = SynopsisStore::open(&dir, StorePolicy::default());
        assert!(matches!(err, Err(StoreError::Mismatch(_))), "{err:?}");
        drop(store);
        // After the first writer is gone, the store opens normally.
        assert!(SynopsisStore::open(&dir, StorePolicy::default()).is_ok());
    }

    #[test]
    fn open_missing_dir_errors() {
        let dir = tempdir("missing");
        assert!(matches!(
            SynopsisStore::open(&dir, StorePolicy::default()),
            Err(StoreError::Io(_) | StoreError::NotFound(_))
        ));
    }

    /// A store without `part-000000.vcol` — the layout that kept rows in
    /// table generations — is refused with a typed error.
    #[test]
    fn store_without_a_part_file_is_refused() {
        let (dir, store) = fresh_store("no-part");
        drop(store);
        std::fs::remove_file(crate::partfile::part_path(&dir, 0)).unwrap();
        assert!(matches!(
            SynopsisStore::open(&dir, StorePolicy::default()),
            Err(StoreError::Mismatch(msg)) if msg.contains("part-000000.vcol")
        ));
    }

    // ----------------------------------------------------------------
    // Paged (out-of-core) stores.
    // ----------------------------------------------------------------

    use verdict_storage::PartitionSpec;

    fn paged_meta() -> SessionMeta {
        SessionMeta {
            partition_spec: Some(PartitionSpec::range("t", vec![7.0, 14.0])),
            paged: true,
            ..meta()
        }
    }

    fn fresh_paged_store(name: &str) -> (PathBuf, SynopsisStore, PagedState) {
        let dir = tempdir(name);
        let engine = Verdict::new(schema_info(), VerdictConfig::default());
        let (store, paged) = SynopsisStore::create(
            &dir,
            StorePolicy::default(),
            paged_meta(),
            &small_table(),
            &engine.export_state(),
        )
        .unwrap();
        (
            dir,
            store,
            paged.expect("a paged store returns its paged state"),
        )
    }

    fn resolution() -> Table {
        small_table().gather(&[]).unwrap()
    }

    fn ingest_rows(lo: usize, n: usize) -> Vec<Vec<Value>> {
        (lo..lo + n)
            .map(|i| vec![Value::Num((i % 20) as f64), Value::Num(2.0)])
            .collect()
    }

    #[test]
    fn paged_create_writes_part_files_not_table_generations() {
        let (dir, store, paged) = fresh_paged_store("paged-create");
        assert!(store.is_paged());
        assert_eq!(paged.map.num_partitions(), 3);
        assert_eq!(paged.original_part_rows, vec![7, 7, 6]);
        assert_eq!(paged.total_rows, 20);
        assert_eq!(paged.tails.len(), 1);
        assert!(!std::fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with("table")));
        for p in 0..3 {
            assert!(crate::partfile::part_path(&dir, p).exists(), "part {p}");
        }
        // Rows round-trip partition by partition.
        let back = crate::partfile::read_part_rows(&dir, 0, &resolution(), usize::MAX).unwrap();
        assert_eq!(back.num_rows(), 7);
        assert!(back
            .column("t")
            .unwrap()
            .numeric()
            .unwrap()
            .iter()
            .all(|&t| t < 7.0));
    }

    #[test]
    fn paged_open_recovers_and_replays_ingests() {
        let (dir, mut store, paged) = fresh_paged_store("paged-open");
        // One snippet + two ingest batches, WAL first then part files —
        // exactly the live session's ordering.
        store
            .append_snippet(
                &AggKey::avg("v"),
                &region(0.0, 10.0),
                Observation::new(5.0, 0.2),
            )
            .unwrap();
        let mut map = paged.map.clone();
        for lo in [0usize, 8] {
            let rows = ingest_rows(lo, 8);
            let seq = store.append_ingest(&rows, &[]).unwrap();
            let mut batch = resolution();
            batch.push_rows(&rows).unwrap();
            let routed = map.route(&batch, 0..batch.num_rows()).unwrap();
            map.extend_batch(&batch).unwrap();
            store.append_parts(seq, &batch, &routed).unwrap();
        }
        drop(store);

        let (store, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        assert!(store.is_paged());
        let BaseRows::Paged(rec) = recovered.base else {
            panic!("paged recovery state");
        };
        assert_eq!(recovered.report.ingests_replayed, 2);
        assert_eq!(recovered.report.rows_appended, 16);
        assert_eq!(rec.replayed_batches.len(), 2);
        assert_eq!(rec.state.total_rows, 20);
        assert_eq!(rec.state.original_part_rows, vec![7, 7, 6]);
        // The map was extended through replay to cover the ingested rows.
        assert_eq!(rec.state.map.rows_covered(), 36);
        // Replay did NOT duplicate the already-durable part appends: each
        // file holds the create record plus at most one record per seq.
        let mut rows_on_disk = 0;
        for p in 0..3u32 {
            let scan = crate::partfile::scan_part_file(&dir, p, u64::MAX, None).unwrap();
            let mut seqs = scan.seqs.clone();
            seqs.dedup();
            assert_eq!(seqs, scan.seqs, "partition {p} holds duplicate seqs");
            rows_on_disk += scan.rows;
        }
        assert_eq!(rows_on_disk, 20 + 16);
        assert_eq!(rec.resolution.num_rows(), 0, "resolution table is empty");
    }

    #[test]
    fn paged_crash_between_wal_and_part_appends_heals() {
        // Simulate the worst crash: the WAL record landed but only SOME
        // partition files got their append (and the last one is torn).
        let (dir, mut store, paged) = fresh_paged_store("paged-crash");
        let rows = ingest_rows(0, 12);
        let seq = store.append_ingest(&rows, &[]).unwrap();
        let mut batch = resolution();
        batch.push_rows(&rows).unwrap();
        let mut map = paged.map.clone();
        let routed = map.route(&batch, 0..batch.num_rows()).unwrap();
        map.extend_batch(&batch).unwrap();
        // Append to partition 0 only; partitions 1 and 2 never see the
        // batch. Then tear partition 0's record mid-frame.
        let p0_rows: Vec<usize> = routed
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == 0)
            .map(|(i, _)| i)
            .collect();
        let fragment = batch.gather(&p0_rows).unwrap();
        let before = std::fs::metadata(crate::partfile::part_path(&dir, 0))
            .unwrap()
            .len();
        crate::partfile::append_part_record(&dir, 0, seq, &fragment, 0..p0_rows.len()).unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(crate::partfile::part_path(&dir, 0))
            .unwrap();
        f.set_len(before + 5).unwrap(); // torn mid-header
        drop(f);
        drop(store);

        let (_, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        let BaseRows::Paged(rec) = recovered.base else {
            panic!("paged recovery state");
        };
        assert!(rec.part_torn_bytes > 0);
        assert_eq!(recovered.report.ingests_replayed, 1);
        // After recovery every partition holds the batch exactly once.
        let mut rows_on_disk = 0;
        for p in 0..3u32 {
            let scan = crate::partfile::scan_part_file(&dir, p, u64::MAX, None).unwrap();
            assert_eq!(scan.torn_bytes, 0, "partition {p} still torn");
            rows_on_disk += scan.rows;
        }
        assert_eq!(rows_on_disk, 20 + 12);
        assert_eq!(rec.state.map.rows_covered(), 32);
    }

    #[test]
    fn paged_snapshot_folds_log_and_reopens_identically() {
        let (dir, mut store, paged) = fresh_paged_store("paged-snap");
        let mut engine = Verdict::new(schema_info(), VerdictConfig::default());
        engine.restore_state(engine.export_state()).unwrap();
        let rows = ingest_rows(0, 10);
        let seq = store.append_ingest(&rows, &[]).unwrap();
        let mut batch = resolution();
        batch.push_rows(&rows).unwrap();
        let mut map = paged.map.clone();
        let routed = map.route(&batch, 0..batch.num_rows()).unwrap();
        map.extend_batch(&batch).unwrap();
        store.append_parts(seq, &batch, &routed).unwrap();
        // Checkpoint with the extended paged state, as the session would.
        let folded = PagedState {
            map: map.clone(),
            original_part_rows: paged.original_part_rows.clone(),
            total_rows: 30,
            tails: paged.tails.clone(),
        };
        let state = engine.export_state();
        let receipt = store
            .snapshot(
                paged_meta(),
                fingerprint(&state.schema),
                &state.to_bytes(),
                &resolution(),
                Some(&folded),
            )
            .unwrap();
        assert_eq!(receipt.generation, 1);
        // A snapshot without the paged state is refused.
        assert!(matches!(
            store.snapshot(
                paged_meta(),
                fingerprint(&state.schema),
                &state.to_bytes(),
                &small_table(),
                None,
            ),
            Err(StoreError::Mismatch(_))
        ));
        drop(store);

        let (store, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        assert_eq!(recovered.report.snapshot_gen, 1);
        assert_eq!(recovered.report.records_replayed, 0, "log was folded");
        let BaseRows::Paged(rec) = recovered.base else {
            panic!("paged recovery state");
        };
        assert_eq!(rec.state.total_rows, 30);
        assert_eq!(rec.state.map.rows_covered(), 30);
        assert!(rec.replayed_batches.is_empty());
        assert_eq!(store.data_epoch(), 1);
    }

    #[test]
    fn create_paged_requires_spec_and_flag() {
        let dir = tempdir("paged-guards");
        let engine = Verdict::new(schema_info(), VerdictConfig::default());
        let no_spec = SessionMeta {
            paged: true,
            ..meta()
        };
        assert!(matches!(
            SynopsisStore::create(
                &dir,
                StorePolicy::default(),
                no_spec,
                &small_table(),
                &engine.export_state(),
            ),
            Err(StoreError::Mismatch(_))
        ));
        let no_flag = SessionMeta {
            paged: false,
            ..paged_meta()
        };
        assert!(matches!(
            SynopsisStore::create(
                &dir,
                StorePolicy::default(),
                no_flag,
                &small_table(),
                &engine.export_state(),
            ),
            Err(StoreError::Mismatch(_))
        ));
    }
}
