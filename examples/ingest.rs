//! Live data ingestion: the evolving-table lifecycle (Appendix D).
//!
//! 1. Learn on the original table and train — queries get tight,
//!    model-improved error bounds.
//! 2. `ingest` a drifted batch: the table grows, every maintained sample
//!    admits the new rows, and Lemma 3 widens every stored snippet —
//!    the *same* query now reports a larger (honest) error bound.
//! 3. Re-observe and retrain on the evolved table: bounds tighten again.
//!
//! Run with: `cargo run --release --example ingest`

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::workload::DriftingMeanStream;
use verdict::{Database, Mode, QueryOptions, QueryOutcome, StopPolicy, TableOptions};

const SQL: &str = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 2 AND 5";

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn bound(db: &Database, sql: &str) -> Result<(f64, f64, bool), verdict::Error> {
    let r = match db.query(sql, &opts(Mode::Verdict, StopPolicy::ScanAll))? {
        QueryOutcome::Answered(r) => r,
        QueryOutcome::Unsupported(r) => panic!("unsupported: {r:?}"),
    };
    let cell = &r.rows[0].values[0];
    Ok((
        cell.improved.answer,
        cell.improved.error,
        cell.improved.used_model,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut stream = DriftingMeanStream::new(8_000, 0.6, 0.05, 1.5, &mut rng);
    let table = stream.base_table(60_000, &mut rng);

    let db = Database::builder()
        .register_table_with(
            "t",
            table,
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 42,
                ..TableOptions::default()
            },
        )
        .build()?;

    // Phase 1: learn the original distribution.
    for lo in 0..9 {
        db.query(
            &format!("SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}", lo + 1),
            &opts(Mode::Verdict, StopPolicy::ScanAll),
        )?;
    }
    db.train("t")?;
    let (a0, e0, m0) = bound(&db, SQL)?;
    println!("trained on the original table:");
    println!("  {SQL}");
    println!("  answer {a0:.4} ± {e0:.4} (model used: {m0})\n");

    // Phase 2: the data evolves — ingest a drifted batch.
    let batch = stream.next_batch(&mut rng);
    let report = db.ingest("t", &batch)?;
    println!(
        "ingested {} rows (mean drifted by {:.2}): {} synopses / {} snippets widened, \
         {} of {} sample(s) rows admitted, data epoch {}",
        report.appended_rows,
        stream.drift_per_batch,
        report.adjusted_keys,
        report.adjusted_snippets,
        report.admitted_rows[0],
        report.admitted_rows.len(),
        report.data_epoch,
    );
    let (a1, e1, m1) = bound(&db, SQL)?;
    println!("  stale query: answer {a1:.4} ± {e1:.4} (model used: {m1})");
    println!(
        "  Lemma 3 at work: the bound widened {:.4} → {:.4} (old answers are \
         trusted less, never silently wrong)\n",
        e0, e1
    );
    assert!(
        e1 >= e0,
        "ingest must never tighten a stale bound ({e1} < {e0})"
    );

    // Phase 3: re-learn on the evolved table and retrain.
    for lo in 0..9 {
        db.query(
            &format!("SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}", lo + 1),
            &opts(Mode::Verdict, StopPolicy::ScanAll),
        )?;
    }
    db.train("t")?;
    let (a2, e2, m2) = bound(&db, SQL)?;
    println!("re-observed + retrained on the evolved table:");
    println!("  fresh query: answer {a2:.4} ± {e2:.4} (model used: {m2})");
    println!("  bound re-tightened {e1:.4} → {e2:.4}");
    assert!(e2 <= e1, "retraining must re-tighten ({e2} > {e1})");
    Ok(())
}
