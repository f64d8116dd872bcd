//! The serving-path win: ad-hoc `Database::query()` vs a kept
//! `Prepared::bind().run()` latency at 1 and 8 threads.
//!
//! There is one statement path: `query()` is `prepare()`, `bind(&[])`
//! and `run()` in one call. What a kept [`Prepared`] handle saves per
//! execution is therefore exactly the front half — lex, parse, catalog
//! resolution, check, template compile — not a different code path: both
//! sides bind literals into the same compiled plan template and run the
//! same scan. This bench drives the identical range-query workload both
//! ways and prints per-query latency plus the speedup of keeping the
//! handle; a sanity pass first asserts the two answer **bit-identically**.
//!
//! The workload runs `Mode::NoLearn` with a serving-shaped stop policy
//! (a small tuple budget, as a trained deployment stops after few
//! batches) so both paths do identical scan/inference work and the
//! measured difference is exactly the SQL layer. On a single-core
//! container the 8-thread row measures contention, not parallelism; read
//! it against the host core count.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use verdict::workload::multi::{orders_table, TwoTableSpec};
use verdict::{Database, Prepared, QueryOptions, StopPolicy};

/// Queries per timed batch, split evenly across the thread count.
const QUERIES_PER_BATCH: usize = 256;

fn database() -> Database {
    let spec = TwoTableSpec {
        orders_rows: 40_000,
        events_rows: 0,
        seed: 7,
    };
    let db = Database::builder()
        .register_table("orders", orders_table(&spec))
        .build()
        .unwrap();
    let opts = QueryOptions::new();
    for lo in (0..95).step_by(5) {
        db.query(
            &format!(
                "SELECT AVG(amount) FROM orders WHERE day BETWEEN {lo} AND {}",
                lo + 5
            ),
            &opts,
        )
        .unwrap();
    }
    db.train("orders").unwrap();
    db
}

/// The bound pair for workload index `i` (same ranges for both paths).
fn params(i: usize) -> (f64, f64) {
    let lo = ((i * 13) % 80) as f64;
    (lo, lo + 15.0)
}

fn ad_hoc_sql(i: usize) -> String {
    let (lo, hi) = params(i);
    format!("SELECT AVG(amount) FROM orders WHERE day BETWEEN {lo} AND {hi}")
}

/// One batch through the ad-hoc path; returns elapsed seconds.
fn run_ad_hoc(db: &Database, threads: usize, opts: &QueryOptions) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut i = t;
                while i < QUERIES_PER_BATCH {
                    db.query(&ad_hoc_sql(i), opts).unwrap().unwrap_answered();
                    i += threads;
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// One batch through the prepared path; returns elapsed seconds.
fn run_prepared(stmt: &Prepared, threads: usize, opts: &QueryOptions) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut i = t;
                while i < QUERIES_PER_BATCH {
                    let (lo, hi) = params(i);
                    stmt.bind(&[lo.into(), hi.into()])
                        .unwrap()
                        .run(opts)
                        .unwrap()
                        .unwrap_answered();
                    i += threads;
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// The acceptance check baked into the bench: prepare-once/run-many must
/// answer bit-identically to ad-hoc query() while skipping parse/plan.
fn sanity_check(db: &Database, stmt: &Prepared, opts: &QueryOptions) {
    for i in 0..16 {
        let (lo, hi) = params(i);
        let a = db.query(&ad_hoc_sql(i), opts).unwrap().unwrap_answered();
        let p = stmt
            .bind(&[lo.into(), hi.into()])
            .unwrap()
            .run(opts)
            .unwrap()
            .unwrap_answered();
        let (ca, cp) = (&a.rows[0].values[0], &p.rows[0].values[0]);
        assert_eq!(
            ca.improved.answer.to_bits(),
            cp.improved.answer.to_bits(),
            "prepared answer diverged from ad-hoc at i={i}"
        );
        assert_eq!(ca.improved.error.to_bits(), cp.improved.error.to_bits());
        assert_eq!(ca.raw_answer.to_bits(), cp.raw_answer.to_bits());
        assert_eq!(a.tuples_scanned, p.tuples_scanned);
    }
}

fn bench_prepare(c: &mut Criterion) {
    let db = database();
    let stmt = db
        .prepare("SELECT AVG(amount) FROM orders WHERE day BETWEEN ? AND ?")
        .unwrap();
    let opts = QueryOptions::no_learn().with_policy(StopPolicy::TupleBudget(500));
    sanity_check(&db, &stmt, &opts);
    // The acceptance property holds for full scans too.
    sanity_check(&db, &stmt, &QueryOptions::no_learn());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [1usize, 8] {
        let ad_hoc = run_ad_hoc(&db, threads, &opts);
        let prepared = run_prepared(&stmt, threads, &opts);
        eprintln!(
            "prepare threads={threads}: ad-hoc {:.1}µs/q | prepared {:.1}µs/q | \
             serving-path speedup {:.2}x (host has {cores} core(s))",
            ad_hoc * 1e6 / QUERIES_PER_BATCH as f64,
            prepared * 1e6 / QUERIES_PER_BATCH as f64,
            ad_hoc / prepared,
        );
    }

    let mut group = c.benchmark_group("prepare");
    for threads in [1usize, 8] {
        group.bench_with_input(BenchmarkId::new("ad_hoc", threads), &threads, |b, &t| {
            b.iter(|| run_ad_hoc(&db, t, &opts))
        });
        group.bench_with_input(BenchmarkId::new("prepared", threads), &threads, |b, &t| {
            b.iter(|| run_prepared(&stmt, t, &opts))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prepare);
criterion_main!(benches);
