//! Every constructor of the system under test, in one file: databases
//! (resident and out-of-core), the server, clients, query options, and
//! the adapter from the program's result types to the harness's own
//! [`Cell`]. A change to the public API is a change to this file only.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use verdict::{
    Database, Mode, OpenOptions, QueryOptions, QueryOutcome, QueryResult, SessionBuilder,
    StopPolicy, TableOptions,
};
use verdict_client::Client;
use verdict_core::VerdictConfig;
use verdict_obs::{MetricsHub, MetricsSnapshot};
use verdict_server::wire::{WireOptions, WireOutcome};
use verdict_server::{serve, ServerConfig, ServerHandle};
use verdict_storage::{PartitionSpec, Table, Value};

use crate::gen;

/// The one catalog table every workload queries.
pub const TABLE: &str = "events";
/// Traces the program's own query log keeps on a traced run.
const QUERY_LOG_CAPACITY: usize = 4096;

/// The program's observability switched on for a traced run: its metrics
/// hub and bounded query log, attached through the builders.
#[derive(Debug)]
pub struct Obs {
    pub hub: Arc<MetricsHub>,
    /// The hub's series as they stood when the traced window opened, so
    /// per-layer numbers are deltas over the window, set-up excluded.
    pub window_start: Option<MetricsSnapshot>,
}

impl Obs {
    pub fn new() -> Obs {
        Obs {
            hub: Arc::new(MetricsHub::new()),
            window_start: None,
        }
    }
}

/// An in-memory, single-table database over `table`. `parallelism` pins
/// the worker threads of one query's scan (`None`: the default, all
/// cores), `synopsis_capacity` the snippets retained per aggregate
/// (`None`: the default `C_g`).
pub fn resident_db(
    table: Table,
    sample_fraction: f64,
    batch_size: usize,
    parallelism: Option<usize>,
    synopsis_capacity: Option<usize>,
    seed: u64,
    obs: Option<&Obs>,
) -> Database {
    let mut builder = Database::builder().register_table_with(
        TABLE,
        table,
        TableOptions {
            sample_fraction,
            batch_size,
            seed,
            config: verdict_config(synopsis_capacity),
            ..Default::default()
        },
    );
    if let Some(obs) = obs {
        builder = builder
            .metrics(Arc::clone(&obs.hub))
            .query_log(QUERY_LOG_CAPACITY);
    }
    if let Some(threads) = parallelism {
        builder = builder.parallelism(threads);
    }
    builder.build().expect("resident database builds")
}

/// The default engine configuration, at `synopsis_capacity` if given.
fn verdict_config(synopsis_capacity: Option<usize>) -> VerdictConfig {
    let default = VerdictConfig::default();
    VerdictConfig {
        synopsis_capacity: synopsis_capacity.unwrap_or(default.synopsis_capacity),
        ..default
    }
}

/// How the out-of-core database is laid out.
#[derive(Debug, Clone)]
pub struct PagedSpec {
    pub dir: PathBuf,
    pub partitions: usize,
    pub sample_fraction: f64,
    pub batch_size: usize,
    /// Partition-cache byte budget.
    pub memory_budget: u64,
    /// Snippets the synopsis retains per aggregate (`C_g`).
    pub synopsis_capacity: usize,
}

/// A persistent, range-partitioned, demand-paged database over `table`
/// in a fresh `spec.dir`. Built through `SessionBuilder` and promoted:
/// today that is the only public way to create the partitioned store.
/// The store policy is the default one (`sync_appends: false`).
pub fn paged_db(table: Table, spec: &PagedSpec, seed: u64, obs: Option<&Obs>) -> Database {
    let span = gen::WEEK_HI - gen::WEEK_LO;
    let cuts = (1..spec.partitions)
        .map(|p| gen::WEEK_LO + span * p as f64 / spec.partitions as f64)
        .collect();
    let mut builder = SessionBuilder::new(table)
        .sample_fraction(spec.sample_fraction)
        .batch_size(spec.batch_size)
        .seed(seed)
        .partition_by(PartitionSpec::range("event_week", cuts))
        .persist_to(&spec.dir)
        .memory_budget(spec.memory_budget)
        .verdict_config(verdict_config(Some(spec.synopsis_capacity)));
    if let Some(obs) = obs {
        builder = builder
            .metrics(Arc::clone(&obs.hub))
            .query_log(QUERY_LOG_CAPACITY);
    }
    builder
        .build()
        .expect("paged session builds")
        .into_database(TABLE)
        .expect("table name is valid")
}

/// Warm-starts the database [`paged_db`] left in `spec.dir`, at the same
/// cache budget. (A promoted session's store has the single-table layout,
/// which reopens with a lenient `FROM`, so `FROM events` still resolves.)
pub fn reopen_paged(spec: &PagedSpec) -> Database {
    Database::open_with(
        &spec.dir,
        OpenOptions::new().with_memory_budget(spec.memory_budget),
    )
    .expect("paged store reopens")
}

/// Base rows the partition files under `dir` hold, read back from disk.
pub fn paged_base_rows(dir: &Path, partitions: usize, db: &Database) -> u64 {
    let proto = db
        .table(&db.table_names()[0])
        .expect("reopened table resolves");
    (0..partitions as u32)
        .map(|p| {
            verdict_store::read_part_rows(dir, p, &proto, usize::MAX)
                .expect("partition file reads")
                .num_rows() as u64
        })
        .sum()
}

/// Total size of the partition files under `dir`.
pub fn part_file_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store dir lists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".vcol"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Serves `db` on an ephemeral loopback port with `workers` workers and
/// otherwise default configuration.
pub fn start_server(db: Database, workers: usize) -> ServerHandle {
    serve(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..Default::default()
        },
    )
    .expect("server binds a loopback port")
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("client connects over loopback")
}

pub fn query_options(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

pub fn wire_options(mode: Mode, policy: StopPolicy) -> WireOptions {
    WireOptions { mode, policy }
}

/// One answered cell, as the harness checks and audits it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// `site` index of the cell's group (`None` for ungrouped statements).
    pub site: Option<usize>,
    pub answer: f64,
    pub error: f64,
    pub raw_answer: f64,
    pub raw_error: f64,
}

/// An answered query, normalised across the in-process and wire paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub cells: Vec<Cell>,
    pub tuples_scanned: u64,
}

fn site_of(group: Option<&[Value]>, table: &Table) -> Option<usize> {
    match group?.first()? {
        Value::Cat(code) => table
            .column("site")
            .ok()?
            .label_of(*code)
            .and_then(site_index),
        Value::Str(label) => site_index(label),
        Value::Num(_) => None,
    }
}

fn site_index(label: &str) -> Option<usize> {
    label.strip_prefix("site")?.parse().ok()
}

/// Normalises an in-process outcome; `None` if the statement was refused
/// as unsupported. `table` resolves group codes to labels.
pub fn answer_of(outcome: QueryOutcome, table: &Table) -> Option<Answer> {
    let QueryOutcome::Answered(QueryResult {
        rows,
        tuples_scanned,
        ..
    }) = outcome
    else {
        return None;
    };
    let cells = rows
        .iter()
        .flat_map(|row| {
            let site = site_of(row.group.as_deref(), table);
            row.values.iter().map(move |c| Cell {
                site,
                answer: c.improved.answer,
                error: c.improved.error,
                raw_answer: c.raw_answer,
                raw_error: c.raw_error,
            })
        })
        .collect();
    Some(Answer {
        cells,
        tuples_scanned: tuples_scanned as u64,
    })
}

/// Normalises a decoded wire outcome; `None` if unsupported.
pub fn answer_of_wire(outcome: &WireOutcome, table: &Table) -> Option<Answer> {
    let WireOutcome::Answered(result) = outcome else {
        return None;
    };
    let cells = result
        .rows
        .iter()
        .flat_map(|row| {
            let site = site_of(row.group.as_deref(), table);
            row.values.iter().map(move |c| Cell {
                site,
                answer: c.answer,
                error: c.error,
                raw_answer: c.raw_answer,
                raw_error: c.raw_error,
            })
        })
        .collect();
    Some(Answer {
        cells,
        tuples_scanned: result.tuples_scanned,
    })
}
