//! End-to-end query latency through the full pipeline (parse → check →
//! decompose → online aggregation → inference), NoLearn vs Verdict — the
//! microbenchmark companion to Figure 4.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::{Database, Mode, QueryOptions, StopPolicy, TableOptions};
use verdict_workload::synthetic::{generate_table, SyntheticSpec};

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn session() -> Database {
    let mut rng = StdRng::seed_from_u64(9);
    let spec = SyntheticSpec {
        rows: 50_000,
        ..Default::default()
    };
    let table = generate_table(&spec, &mut rng);
    let s = Database::builder()
        .register_table_with(
            "t",
            table,
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 9,
                ..TableOptions::default()
            },
        )
        .build()
        .unwrap();
    for i in 0..10 {
        let lo = i as f64;
        s.query(
            &format!(
                "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
                lo + 1.0
            ),
            &opts(Mode::Verdict, StopPolicy::ScanAll),
        )
        .unwrap();
    }
    s.train("t").unwrap();
    s
}

fn bench_end_to_end(c: &mut Criterion) {
    let s = session();
    let sql = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 2.5 AND 4.5";
    let mut group = c.benchmark_group("end_to_end_query");
    group.sample_size(20);
    group.bench_function("nolearn_scan_all", |b| {
        b.iter(|| {
            s.query(sql, &opts(Mode::NoLearn, StopPolicy::ScanAll))
                .unwrap()
        })
    });
    group.bench_function("verdict_scan_all", |b| {
        b.iter(|| {
            s.query(sql, &opts(Mode::Verdict, StopPolicy::ScanAll))
                .unwrap()
        })
    });
    let target = StopPolicy::RelativeErrorBound {
        target: 0.01,
        delta: 0.95,
    };
    group.bench_function("nolearn_to_1pct_bound", |b| {
        b.iter(|| s.query(sql, &opts(Mode::NoLearn, target)).unwrap())
    });
    group.bench_function("verdict_to_1pct_bound", |b| {
        b.iter(|| s.query(sql, &opts(Mode::Verdict, target)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
