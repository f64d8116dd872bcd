//! Ingest-path throughput: rows/sec into the evolving table, and the
//! per-batch synopsis-adjustment cost (Lemma 3 rewrite + model refit)
//! that a warmed engine pays on top of raw row movement.
//!
//! Two regimes:
//! - `cold`: no synopsis → ingest is pure data movement (table append +
//!   per-sample admission);
//! - `warmed`: a trained engine with populated synopses → every batch
//!   additionally estimates the shift, widens every affected synopsis,
//!   and refits the models.
//!
//! The printed per-iteration time divided by the batch size is the
//! rows/sec figure; the `warmed − cold` gap at equal batch size is the
//! per-batch adjustment cost.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use verdict::{Database, Mode, QueryOptions, StopPolicy, TableOptions};
use verdict_storage::Value;
use verdict_workload::DriftingMeanStream;

const BASE_ROWS: usize = 40_000;

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn stream() -> (DriftingMeanStream, StdRng) {
    let mut rng = StdRng::seed_from_u64(11);
    let stream = DriftingMeanStream::new(1, 0.05, 0.05, 1.5, &mut rng);
    (stream, rng)
}

fn batch(rows: usize) -> Vec<Vec<Value>> {
    let (mut s, mut rng) = stream();
    s.batch_rows = rows;
    s.next_batch(&mut rng)
}

/// A cold session: base table sampled, nothing learned.
fn cold_session() -> Database {
    let (s, mut rng) = stream();
    let table = s.base_table(BASE_ROWS, &mut rng);
    Database::builder()
        .register_table_with(
            "t",
            table,
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 11,
                ..TableOptions::default()
            },
        )
        .build()
        .unwrap()
}

/// A warmed session: overlapping range queries populate the AVG and FREQ
/// synopses, then training fits the models every ingest must refit.
fn warmed_session() -> Database {
    let session = cold_session();
    for lo in 0..9 {
        session
            .query(
                &format!(
                    "SELECT AVG(m), COUNT(*) FROM t WHERE d0 BETWEEN {lo} AND {}",
                    lo + 1
                ),
                &opts(Mode::Verdict, StopPolicy::ScanAll),
            )
            .unwrap();
    }
    session.train("t").unwrap();
    session
}

fn bench_ingest_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(10);
    for rows in [100usize, 1_000, 10_000] {
        let batch = batch(rows);
        group.bench_with_input(BenchmarkId::new("cold_rows", rows), &rows, |b, _| {
            b.iter_batched(
                cold_session,
                |session| {
                    let report = session.ingest("t", &batch).unwrap();
                    assert_eq!(report.appended_rows, rows);
                    report.admitted_rows[0]
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_adjustment_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest_adjustment");
    group.sample_size(10);
    for rows in [100usize, 1_000] {
        let batch = batch(rows);
        group.bench_with_input(BenchmarkId::new("warmed_rows", rows), &rows, |b, _| {
            b.iter_batched(
                warmed_session,
                |session| {
                    let report = session.ingest("t", &batch).unwrap();
                    // A warmed engine must have adjusted both synopses
                    // (AVG(m) and FREQ), or the bench is not measuring
                    // the adjustment path at all.
                    assert_eq!(report.adjusted_keys, 2);
                    assert!(report.adjusted_snippets > 0);
                    report.adjusted_snippets
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest_rows, bench_adjustment_cost);
criterion_main!(benches);
