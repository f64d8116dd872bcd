//! Read-path scaling: queries per second vs. reader thread count.
//!
//! The engine's claim is that the read path shares no mutable
//! state — every thread answers from the same pinned
//! [`EngineSnapshot`](verdict::core::EngineSnapshot) with its own scan
//! cursor, so throughput should scale near-linearly with threads until
//! the machine runs out of cores. This bench pins one trained snapshot
//! and drives an identical mixed workload through 1/2/4/8 threads,
//! printing aggregate QPS and the speedup over the single-thread run.
//!
//! Read the speedup against the host's core count: with N cores the
//! expected plateau is ~N× (on a single-core container every thread count
//! collapses to ~1×, which is the scheduler's doing, not a lock's — there
//! is no shared mutable state to contend on, which is exactly what the
//! per-thread numbers demonstrate on real hardware).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use verdict::{Database, Mode, QueryOptions, StopPolicy, TableOptions};
use verdict_storage::{ColumnDef, Schema, Table};

const ROWS: usize = 40_000;
/// Queries per timed batch, split evenly across the thread count.
const QUERIES_PER_BATCH: usize = 64;

fn base_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::categorical_dimension("region"),
        ColumnDef::measure("rev"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 11u64;
    for i in 0..ROWS {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let week = 1.0 + (i % 100) as f64;
        let region = ["us", "eu", "jp", "au"][i % 4];
        let rev = 100.0 + 20.0 * (week / 15.0).sin() + 5.0 * (u - 0.5);
        t.push_row(vec![week.into(), region.into(), rev.into()])
            .unwrap();
    }
    t
}

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

/// A trained single-table database: the snapshot the readers pin carries
/// models, so the workload exercises scan + inference, not scan alone.
fn trained_session() -> Database {
    let s = Database::builder()
        .register_table_with(
            "t",
            base_table(),
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 13,
                ..TableOptions::default()
            },
        )
        .build()
        .unwrap();
    for lo in (0..95).step_by(5) {
        s.query(
            &format!(
                "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
                lo + 5
            ),
            &opts(Mode::Verdict, StopPolicy::ScanAll),
        )
        .unwrap();
    }
    s.train("t").unwrap();
    s
}

/// The fixed read workload: index-picked so every thread mix is identical
/// regardless of the thread count.
fn query(i: usize) -> (String, StopPolicy) {
    let lo = (i * 7) % 60;
    let sql = match i % 3 {
        0 => format!(
            "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
            lo + 20
        ),
        1 => format!("SELECT SUM(rev), COUNT(*) FROM t WHERE week <= {}", lo + 30),
        _ => format!(
            "SELECT region, AVG(rev) FROM t WHERE week BETWEEN {lo} AND {} GROUP BY region",
            lo + 25
        ),
    };
    let policy = if i.is_multiple_of(2) {
        StopPolicy::TupleBudget(1_500)
    } else {
        StopPolicy::RelativeErrorBound {
            target: 0.02,
            delta: 0.95,
        }
    };
    (sql, policy)
}

/// Runs one batch of `QUERIES_PER_BATCH` queries split across `threads`
/// threads against the pinned snapshot; returns elapsed seconds.
fn run_batch(session: &Database, threads: usize) -> f64 {
    let snapshot = session.snapshot("t").unwrap();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let session = &session;
            let snapshot = &snapshot;
            scope.spawn(move || {
                let mut i = t;
                while i < QUERIES_PER_BATCH {
                    let (sql, policy) = query(i);
                    let opts = QueryOptions::new()
                        .with_mode(Mode::Verdict)
                        .with_policy(policy)
                        .pinned(snapshot.clone());
                    session.query(&sql, &opts).unwrap().unwrap_answered();
                    i += threads;
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn bench_concurrent_qps(c: &mut Criterion) {
    let session = trained_session();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Accounting pass, printed once per thread count: aggregate QPS over
    // one warm batch and the speedup relative to a single thread.
    let single = run_batch(&session, 1);
    for threads in [1usize, 2, 4, 8] {
        let secs = run_batch(&session, threads);
        eprintln!(
            "concurrent_qps threads={threads}: {:.0} qps | speedup {:.2}x vs 1 thread \
             (host has {cores} core(s); epoch {})",
            QUERIES_PER_BATCH as f64 / secs,
            single / secs,
            session.epoch("t").unwrap(),
        );
    }

    let mut group = c.benchmark_group("concurrent_qps");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("fixed_snapshot", threads),
            &threads,
            |b, &threads| b.iter(|| run_batch(&session, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_concurrent_qps);
criterion_main!(benches);
