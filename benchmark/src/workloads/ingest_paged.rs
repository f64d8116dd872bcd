//! `ingest_paged`: reads and writes side by side on the out-of-core
//! store. 16 range partitions on `event_week`, a 25 % sample served
//! through a partition cache a quarter the size of the sample's columns,
//! persisted to a fresh directory. One harness thread runs rounds of
//! 8 `Verdict` queries (7 one-week bands, each inside one partition, so
//! 15 of 16 partitions are pruned; 1 full-range `GROUP BY site` that
//! faults every partition and floods the cache), then one
//! 1,024-row `ingest` into the newest weeks; every 8th round ends with a
//! `checkpoint`. Each query, ingest and checkpoint is one operation. The
//! median query is a narrow band, p95 a full-range one.
//!
//! The synopsis is capped at 64 snippets and filled to that cap during
//! set-up, so the window runs in a steady state: every ingest refits a
//! model over all retained snippets of each touched aggregate, and at the
//! default cap of 2000 an ingest's cost climbs round after round (71 ms →
//! 700 ms over the first 20 rounds) to a training run per batch.
//!
//! Flush policy: the default `StorePolicy` (`sync_appends: false`, so
//! WAL appends are not fsynced one by one); part-file extensions and
//! snapshots fsync as the store's code does them. Reads are likely served
//! from the operating system's page cache: latencies are the sandbox's,
//! not a device's.
//!
//! `qps` divides answered queries by the whole window, ingests and
//! checkpoints included, so slower writes lower it.
//!
//! Fails an operation: an error or refusal, a tuple count other than the
//! maintained sample's row count, an improved error above the raw error.
//! After the window the database is dropped and reopened at the same
//! budget: the partition files must hold the initial rows plus every
//! acknowledged ingested row, and a fixed probe query must answer
//! bit-for-bit as it did before the restart.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use verdict::{Database, Mode, QueryOptions, StopPolicy};
use verdict_core::AggKey;
use verdict_storage::Table;

use super::{check_full_scan, query_op};
use crate::fixtures::{self, Answer, Obs, PagedSpec, TABLE};
use crate::gen::{self, Filter, Sampler, Statement};
use crate::harness::{Budget, Layers, Plan, Workload};
use crate::trace::Recorder;
use crate::{layers, probes, stats};

const PARTITIONS: usize = 16;
const SAMPLE_FRACTION: f64 = 0.25;
const BATCH_SIZE: usize = 1024;
const NARROW_PER_ROUND: usize = 7;
const GROUPED_PER_ROUND: usize = 1;
const SYNOPSIS_CAPACITY: usize = 64;

pub struct IngestPaged;

struct Sizes {
    rows: usize,
    ingest_rows: usize,
    checkpoint_every: u64,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            rows: 20_000,
            ingest_rows: 128,
            checkpoint_every: 2,
        }
    } else {
        Sizes {
            rows: 250_000,
            ingest_rows: 1024,
            checkpoint_every: 8,
        }
    }
}

pub struct Fixture {
    /// `None` once `finish` has dropped the database for the restart.
    db: Option<Database>,
    table: Arc<Table>,
    spec: PagedSpec,
    sizes: Sizes,
    sample_rows: u64,
    sampler: Sampler,
    opts: QueryOptions,
    rounds: u64,
    acked_rows: u64,
    ingest_ms: Vec<f64>,
    refit_share: Vec<f64>,
    wal_bytes: u64,
    checkpoint_bytes: u64,
    checkpoint_ms: Vec<f64>,
    part_bytes_before: u64,
    ran: Vec<Statement>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Release the store's lock before removing its directory.
        self.db = None;
        let _ = std::fs::remove_dir_all(&self.spec.dir);
    }
}

/// The whole week range, including the weeks ingest appends to.
fn full_range(grouped: bool) -> Statement {
    Statement {
        filter: Filter {
            week: Some((gen::WEEK_LO, gen::WEEK_HI)),
            band: None,
            channels: Vec::new(),
        },
        grouped,
    }
}

/// A one-week band inside one uniformly drawn partition, clear of its
/// edges: exactly one partition survives pruning, so a narrow query costs
/// either one cache hit or one fault, never two.
fn narrow(sampler: &mut Sampler) -> Statement {
    let width = (gen::WEEK_HI - gen::WEEK_LO) / PARTITIONS as f64;
    let lo = gen::WEEK_LO + width * sampler.below(PARTITIONS) as f64;
    sampler.band_within(lo + 0.25, lo + width - 0.25, 1.0, 1.0)
}

fn store_dir(plan: &Plan, slot: usize) -> PathBuf {
    plan.scratch.join(format!(
        "ingest_paged-{}-{}-{slot}",
        std::process::id(),
        plan.seed
    ))
}

impl Workload for IngestPaged {
    const NAME: &'static str = "ingest_paged";
    const SETUP_REPEATS: usize = 3;
    const SMOKE_PASSES: u64 = 4;
    type Fixture = Fixture;

    fn setup(plan: &Plan, obs: Option<&Obs>, slot: usize) -> Fixture {
        let sizes = sizes(plan.smoke);
        let sample_bytes = (sizes.rows as f64 * SAMPLE_FRACTION) as u64 * gen::ROW_BYTES;
        let spec = PagedSpec {
            dir: store_dir(plan, slot),
            partitions: PARTITIONS,
            sample_fraction: SAMPLE_FRACTION,
            batch_size: BATCH_SIZE,
            memory_budget: sample_bytes / 4,
            synopsis_capacity: SYNOPSIS_CAPACITY,
        };
        let _ = std::fs::remove_dir_all(&spec.dir);
        std::fs::create_dir_all(&plan.scratch).expect("scratch directory");
        let db = fixtures::paged_db(
            gen::events_table(plan.seed, sizes.rows),
            &spec,
            plan.seed,
            obs,
        );
        let opts = fixtures::query_options(Mode::Verdict, StopPolicy::ScanAll);
        let table = db.table(TABLE).expect("table resolves");
        // Warm-up, and the one number the harness cannot derive itself:
        // how many rows the per-partition draw put in the sample.
        let first = db
            .query(&full_range(true).sql(TABLE), &opts)
            .expect("warm-up query");
        let sample_rows = fixtures::answer_of(first, &table)
            .expect("warm-up query is supported")
            .tuples_scanned;
        let key = AggKey::avg("value").qualify(TABLE);
        let mut fill = Sampler::new(plan.seed, 1);
        while db.synopsis_len(&key).expect("table resolves") < SYNOPSIS_CAPACITY {
            db.query(&narrow(&mut fill).sql(TABLE), &opts)
                .expect("fill query");
        }
        Fixture {
            part_bytes_before: fixtures::part_file_bytes(&spec.dir),
            db: Some(db),
            table,
            spec,
            sizes,
            sample_rows,
            sampler: Sampler::new(plan.seed, 0),
            opts,
            rounds: 0,
            acked_rows: 0,
            ingest_ms: Vec::new(),
            refit_share: Vec::new(),
            wal_bytes: 0,
            checkpoint_bytes: 0,
            checkpoint_ms: Vec::new(),
            ran: Vec::new(),
        }
    }

    fn window(fx: &mut Fixture, plan: &Plan, budget: Budget, rec: &mut Recorder) {
        let db = fx.db.clone().expect("database is open during the window");
        let mut gate = budget.gate();
        while gate.pass() {
            for i in 0..NARROW_PER_ROUND + GROUPED_PER_ROUND {
                rec.begin_op();
                rec.span("op", |rec| {
                    let st = if i < NARROW_PER_ROUND {
                        narrow(&mut fx.sampler)
                    } else {
                        full_range(true)
                    };
                    if let Some((answer, ms)) = query_op(rec, &db, &fx.table, &st, &fx.opts) {
                        check_full_scan(rec, &answer, fx.sample_rows, &st);
                        rec.latencies_ms.push(ms);
                    }
                    fx.ran.push(st);
                });
            }

            rec.begin_op();
            rec.span("op", |rec| {
                let rows = gen::ingest_batch(plan.seed, fx.rounds, fx.sizes.ingest_rows);
                let t0 = Instant::now();
                match rec.span("verdict.ingest", |_| db.ingest(TABLE, &rows)) {
                    Ok(report) => {
                        fx.ingest_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        fx.acked_rows += report.appended_rows as u64;
                        fx.sample_rows += report.admitted_rows[0] as u64;
                        fx.wal_bytes += report.wal_bytes;
                        fx.refit_share.push(
                            report.refit_elapsed.as_secs_f64()
                                / report.elapsed.as_secs_f64().max(1e-12),
                        );
                        if report.appended_rows != rows.len() {
                            rec.fail(|| {
                                format!(
                                    "ingest acknowledged {} of {} rows",
                                    report.appended_rows,
                                    rows.len()
                                )
                            });
                        }
                    }
                    Err(e) => rec.fail(|| format!("ingest: {e}")),
                }
            });
            fx.rounds += 1;

            if fx.rounds.is_multiple_of(fx.sizes.checkpoint_every) {
                rec.begin_op();
                rec.span("op", |rec| {
                    match rec.span("verdict.checkpoint", |_| db.checkpoint()) {
                        Ok(report) => {
                            fx.checkpoint_bytes += report.bytes_written;
                            fx.checkpoint_ms.push(report.elapsed.as_secs_f64() * 1e3);
                        }
                        Err(e) => rec.fail(|| format!("checkpoint: {e}")),
                    }
                });
            }
        }
    }

    fn finish(
        mut fx: Fixture,
        plan: &Plan,
        rec: &mut Recorder,
        obs: Option<&Obs>,
        out: &mut Layers,
    ) {
        let db = fx.db.take().expect("database is open until finish");
        let ingested_bytes = fx.acked_rows * gen::ROW_BYTES;
        let part_growth = fixtures::part_file_bytes(&fx.spec.dir) - fx.part_bytes_before;
        out.insert("workload.ingest_p50_ms", stats::median(&fx.ingest_ms));
        out.insert(
            "workload.ingest_rows_per_s",
            fx.acked_rows as f64 / (fx.ingest_ms.iter().sum::<f64>() / 1e3).max(1e-12),
        );
        if ingested_bytes > 0 {
            out.insert(
                "workload.disk_bytes_per_user_byte",
                (fx.wal_bytes + part_growth + fx.checkpoint_bytes) as f64 / ingested_bytes as f64,
            );
        }
        out.insert("verdict.ingest.refit_share", stats::median(&fx.refit_share));
        out.insert("store.snapshot.ms", stats::median(&fx.checkpoint_ms));
        out.insert(
            "store.snapshot.bytes",
            fx.checkpoint_bytes as f64 / fx.checkpoint_ms.len().max(1) as f64,
        );
        if let Some(obs) = obs {
            layers::engine(obs, &db, out);
            // The paged database keeps no base table in memory; the
            // probes regenerate the initial rows from the seed.
            let base = gen::events_table(plan.seed, fx.sizes.rows);
            probes::sql(&base, &fx.ran, out);
            probes::scan_kernels(plan, &fx.ran, out);
            probes::core(&db, &fx.ran, 0.0, out);
            probes::ingest(&db, plan, &base, fx.sizes.ingest_rows, out);
            probes::store(plan, out);
        }

        // Restart: the probe is `NoLearn`, so asking it changes nothing.
        let probe = full_range(true).sql(TABLE);
        let probe_opts = fixtures::query_options(Mode::NoLearn, StopPolicy::ScanAll);
        let answer = |db: &Database| -> Option<Answer> {
            let table = db.table(TABLE).ok()?;
            fixtures::answer_of(db.query(&probe, &probe_opts).ok()?, &table)
        };
        let before = answer(&db);
        drop(db);
        let t0 = Instant::now();
        let reopened = fixtures::reopen_paged(&fx.spec);
        out.insert("store.reopen_ms", t0.elapsed().as_secs_f64() * 1e3);
        let on_disk = fixtures::paged_base_rows(&fx.spec.dir, PARTITIONS, &reopened);
        let expected = fx.sizes.rows as u64 + fx.acked_rows;
        rec.check(on_disk == expected, || {
            format!("after restart the partition files hold {on_disk} rows, expected {expected}")
        });
        let after = answer(&reopened);
        let identical = |a: &Answer, b: &Answer| {
            a.tuples_scanned == b.tuples_scanned
                && a.cells.len() == b.cells.len()
                && a.cells.iter().zip(&b.cells).all(|(x, y)| {
                    x.site == y.site
                        && x.answer.to_bits() == y.answer.to_bits()
                        && x.error.to_bits() == y.error.to_bits()
                })
        };
        rec.check(
            matches!((&before, &after), (Some(a), Some(b)) if identical(a, b)),
            || format!("probe answer changed across the restart: {before:?} vs {after:?}"),
        );
        drop(reopened);
    }
}
