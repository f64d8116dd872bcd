//! Durable-store throughput: log appends, snapshot writes, and
//! crash recovery (open + torn-tail scan + replay).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use verdict_core::persist::{fingerprint, Persist};
use verdict_core::region::{DimensionSpec, SchemaInfo};
use verdict_core::snippet::{AggKey, Observation};
use verdict_core::{Region, Snippet, Verdict, VerdictConfig};
use verdict_storage::Predicate;
use verdict_store::{BaseRows, SessionMeta, StorePolicy, SynopsisStore};
use verdict_workload::synthetic::{generate_table, SyntheticSpec};

fn schema() -> SchemaInfo {
    SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, 100.0)]).unwrap()
}

fn region(i: usize) -> Region {
    let lo = (i % 90) as f64;
    Region::from_predicate(&schema(), &Predicate::between("t", lo, lo + 10.0)).unwrap()
}

fn meta() -> SessionMeta {
    SessionMeta {
        sample_fraction: 0.1,
        batch_size: 500,
        seed: 7,
        num_samples: 1,
        original_rows: 5_000,
        config: VerdictConfig::default(),
        partition_spec: None,
        paged: false,
    }
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Policy that never auto-compacts (we measure raw costs).
fn manual_policy() -> StorePolicy {
    StorePolicy {
        compact_after_records: u64::MAX,
        compact_after_bytes: u64::MAX,
        ..Default::default()
    }
}

/// A store directory with `n` logged records past the initial snapshot.
fn store_with_records(tag: &str, n: usize, trained: bool) -> std::path::PathBuf {
    let dir = tempdir(tag);
    let mut rng = StdRng::seed_from_u64(7);
    let table = generate_table(
        &SyntheticSpec {
            rows: 5_000,
            ..Default::default()
        },
        &mut rng,
    );
    let mut engine = Verdict::new(
        SchemaInfo::from_table(&table).unwrap(),
        VerdictConfig::default(),
    );
    if trained {
        for i in 0..60 {
            engine.observe(
                &Snippet::new(
                    AggKey::avg("m"),
                    Region::from_predicate(
                        engine.schema(),
                        &Predicate::between("d0", (i % 10) as f64, (i % 10) as f64 + 1.0),
                    )
                    .unwrap(),
                ),
                Observation::new(i as f64 * 0.1, 0.2),
            );
        }
        engine.train().unwrap();
    }
    let (mut store, _) = SynopsisStore::create(
        &dir,
        manual_policy(),
        meta(),
        &table,
        &engine.export_state(),
    )
    .unwrap();
    for i in 0..n {
        store
            .append_snippet(
                &AggKey::avg("m"),
                &region(i),
                Observation::new(i as f64 * 0.01, 0.3),
            )
            .unwrap();
    }
    dir
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_append");
    group.sample_size(30);
    let dir = store_with_records("append", 0, false);
    let (mut store, _) = SynopsisStore::open(&dir, manual_policy()).unwrap();
    let mut i = 0usize;
    group.bench_function("log_append_one_snippet", |b| {
        b.iter(|| {
            i += 1;
            store
                .append_snippet(&AggKey::avg("m"), &region(i), Observation::new(0.5, 0.1))
                .unwrap()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_snapshot");
    group.sample_size(20);
    let dir = store_with_records("snapshot", 0, true);
    let (mut store, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
    let state = recovered.state;
    let m = recovered.meta;
    let BaseRows::Table(table) = recovered.base else {
        panic!("a resident store recovers its table");
    };
    group.bench_function("write_snapshot_trained_5k_rows", |b| {
        b.iter(|| {
            let schema_fp = fingerprint(&state.schema);
            store
                .snapshot(m.clone(), schema_fp, &state.to_bytes(), &table, None)
                .unwrap()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_recovery");
    group.sample_size(20);
    for n in [64usize, 512, 2048] {
        let dir = store_with_records(&format!("recover-{n}"), n, true);
        group.bench_with_input(BenchmarkId::new("open_and_replay", n), &n, |b, _| {
            b.iter(|| {
                let (_store, recovered) = SynopsisStore::open(&dir, manual_policy()).unwrap();
                recovered.report.records_replayed
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Torn-tail recovery: setup re-tears the log every iteration.
    let dir = store_with_records("recover-torn", 512, true);
    let wal = dir.join("wal.vlog");
    let full = std::fs::read(&wal).unwrap();
    group.bench_function("open_with_torn_tail_512", |b| {
        b.iter_batched(
            || std::fs::write(&wal, &full[..full.len() - 7]).unwrap(),
            |()| {
                let (_store, recovered) = SynopsisStore::open(&dir, manual_policy()).unwrap();
                recovered.report.torn_bytes
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_append, bench_snapshot, bench_recovery);
criterion_main!(benches);
