//! Shared-scan scaling: scan work and wall-clock vs. number of groups.
//!
//! The per-snippet executor answers a `GROUP BY` query with `G` groups and
//! `A` aggregates by scanning the sample once per primitive per cell —
//! `O(G × A)` passes. The shared-scan executor answers every cell from one
//! pass, so its scan work is flat in `G`. This bench pits
//! `VerdictSession::execute` (shared) against
//! `VerdictSession::execute_legacy` (reference) on the same query at
//! G ∈ {1, 4, 16, 64}, and prints the tuples-scanned accounting once per
//! G so the ~G×A → 1 reduction is visible alongside the wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use verdict::aqp::AqpEngine;
use verdict::{Mode, SessionBuilder, StopPolicy, VerdictSession};
use verdict_storage::{ColumnDef, Schema, Table};

const ROWS: usize = 20_000;

fn session_with_groups(g: usize) -> VerdictSession {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("x"),
        ColumnDef::categorical_dimension("grp"),
        ColumnDef::measure("v"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 7u64;
    for i in 0..ROWS {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let label = format!("g{}", i % g);
        t.push_row(vec![
            ((i % 100) as f64).into(),
            label.as_str().into(),
            (10.0 + 5.0 * u).into(),
        ])
        .unwrap();
    }
    SessionBuilder::new(t)
        .sample_fraction(0.2)
        .batch_size(500)
        .seed(3)
        .build()
        .unwrap()
}

fn bench_groupby_scaling(c: &mut Criterion) {
    let sql = "SELECT grp, AVG(v), SUM(v) FROM t GROUP BY grp";
    let mut group = c.benchmark_group("groupby_scaling");
    for g in [1usize, 4, 16, 64] {
        let mut s = session_with_groups(g);
        // Accounting, printed once: the shared path's tuples_scanned is
        // the one real pass; the legacy path's real work is the sum of
        // per-cell scans (each cell re-reads the sample).
        let shared = s
            .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
        let legacy = s
            .execute_legacy(sql, Mode::NoLearn, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
        let legacy_visits: usize = legacy
            .rows
            .iter()
            .flat_map(|r| r.values.iter())
            .map(|cell| cell.tuples_scanned)
            .sum();
        eprintln!(
            "groupby_scaling G={g}: sample={} tuples | shared scan={} | \
             legacy per-cell scans total={} ({}x)",
            s.snapshot().engines()[0].sample().len(),
            shared.tuples_scanned,
            legacy_visits,
            legacy_visits / shared.tuples_scanned.max(1),
        );
        group.bench_with_input(BenchmarkId::new("shared", g), &g, |b, _| {
            b.iter(|| s.execute(sql, Mode::NoLearn, StopPolicy::ScanAll).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("legacy", g), &g, |b, _| {
            b.iter(|| {
                s.execute_legacy(sql, Mode::NoLearn, StopPolicy::ScanAll)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_groupby_scaling);
criterion_main!(benches);
