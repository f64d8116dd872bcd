//! Shared-scan scaling: scan work and wall-clock vs. number of groups.
//!
//! Answering a `GROUP BY` query with `G` groups and `A` aggregates one
//! snippet at a time costs `O(G × A)` passes over the sample. The
//! shared-scan executor answers every cell from one pass, so its scan work
//! is flat in `G`. This bench runs `VerdictSession::execute` on the same
//! query at G ∈ {1, 4, 16, 64}, asserts that `tuples_scanned` is exactly
//! one sample's worth at every G, and times the query so the wall-clock
//! can be read against that flat scan work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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
        // Scan work is flat in G: every cell is answered from the one
        // pass, so a full scan reads the sample exactly once.
        let shared = s
            .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
            .unwrap()
            .unwrap_answered();
        assert_eq!(shared.rows.len(), g);
        assert_eq!(
            shared.tuples_scanned,
            s.snapshot().samples()[0].len(),
            "G={g}: one shared scan reads the sample once"
        );
        group.bench_with_input(BenchmarkId::new("shared", g), &g, |b, _| {
            b.iter(|| s.execute(sql, Mode::NoLearn, StopPolicy::ScanAll).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_groupby_scaling);
criterion_main!(benches);
