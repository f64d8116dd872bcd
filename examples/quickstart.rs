//! Quickstart: ask the same kind of question twice — the second time is
//! both faster and tighter.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::workload::synthetic::{generate_table, SyntheticSpec};
use verdict::{Database, Mode, QueryOptions, StopPolicy, TableOptions};

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A table with one numeric dimension `d0` in [0, 10] and a measure
    //    `m` that varies smoothly with `d0` (like sales over time).
    let mut rng = StdRng::seed_from_u64(42);
    let spec = SyntheticSpec {
        rows: 200_000,
        smoothness: 1.5,
        ..Default::default()
    };
    let table = generate_table(&spec, &mut rng);

    // 2. A one-table database: 10% uniform sample, online aggregation
    //    underneath.
    let db = Database::builder()
        .register_table_with(
            "t",
            table,
            TableOptions {
                sample_fraction: 0.10,
                batch_size: 500,
                seed: 42,
                ..TableOptions::default()
            },
        )
        .build()?;

    // 3. Warm up the synopsis with a few range queries, then train.
    println!("— warm-up: 10 range queries —");
    for i in 0..10 {
        let lo = i as f64;
        let sql = format!(
            "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
            lo + 1.0
        );
        db.query(&sql, &opts(Mode::Verdict, StopPolicy::ScanAll))?;
    }
    db.train("t")?;

    // 4. A new query over a range that overlaps what we have seen.
    let sql = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 2.5 AND 4.5";
    let policy = StopPolicy::ScanAll;

    let baseline = db
        .query(sql, &opts(Mode::NoLearn, policy))?
        .unwrap_answered();
    let improved = db
        .query(sql, &opts(Mode::Verdict, policy))?
        .unwrap_answered();

    let b = &baseline.rows[0].values[0];
    let v = &improved.rows[0].values[0];
    println!("query: {sql}");
    println!(
        "  NoLearn : answer {:>8.4}  ± {:.4} (95% bound {:.4})",
        b.raw_answer,
        b.raw_error,
        b.improved.bound(0.95)
    );
    println!(
        "  Verdict : answer {:>8.4}  ± {:.4} (95% bound {:.4}, model used: {})",
        v.improved.answer,
        v.improved.error,
        v.improved.bound(0.95),
        v.improved.used_model
    );
    assert!(v.improved.error <= b.raw_error, "Theorem 1");
    println!(
        "\nerror reduced by {:.1}% — never worse, by Theorem 1.",
        (1.0 - v.improved.error / b.raw_error) * 100.0
    );

    // 5. Speed: stop both engines at the same 1% error target.
    let target = StopPolicy::RelativeErrorBound {
        target: 0.01,
        delta: 0.95,
    };
    let nl = db
        .query(sql, &opts(Mode::NoLearn, target))?
        .unwrap_answered();
    let vd = db
        .query(sql, &opts(Mode::Verdict, target))?
        .unwrap_answered();
    println!(
        "to reach a 1% error bound: NoLearn scanned {} tuples, Verdict scanned {} \
         — {:.1}x fewer",
        nl.tuples_scanned,
        vd.tuples_scanned,
        nl.tuples_scanned as f64 / vd.tuples_scanned.max(1) as f64
    );
    Ok(())
}
