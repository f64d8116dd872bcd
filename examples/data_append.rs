//! Learning across data appends (paper Appendix D).
//!
//! Old query answers stay useful after new tuples arrive — Verdict just
//! trusts them less. This example ingests drifting data and checks the
//! adjusted answer against the ground truth of the grown table: Lemma 3
//! widens every stored snippet, so the improved answer's 95% bound still
//! covers the post-append truth.
//!
//! Run with: `cargo run --release --example data_append`

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::storage::{AggregateFn, Expr, Predicate, Value};
use verdict::workload::synthetic::{generate_table, SyntheticSpec};
use verdict::{Database, QueryOptions, TableOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let spec = SyntheticSpec {
        rows: 60_000,
        smoothness: 1.5,
        noise: 0.05,
        ..Default::default()
    };
    let table = generate_table(&spec, &mut rng);
    let options = TableOptions {
        sample_fraction: 0.1,
        seed: 99,
        ..TableOptions::default()
    };
    let db = Database::builder()
        .register_table_with("t", table.clone(), options)
        .build()?;

    // Train on the original data.
    let opts = QueryOptions::new();
    for i in 0..10 {
        let lo = i as f64;
        let sql = format!(
            "SELECT AVG(m) FROM t WHERE d0 BETWEEN {lo} AND {}",
            lo + 1.0
        );
        db.query(&sql, &opts)?;
    }
    db.train("t")?;

    // Append 20% new tuples whose measure drifted by +0.8.
    let appended_rows = 12_000usize;
    let m = table.schema().index_of("m")?;
    let batch: Vec<Vec<Value>> = (0..appended_rows)
        .map(|i| {
            let mut row = table.row_decoded(i);
            if let Value::Num(v) = row[m] {
                row[m] = Value::Num(v + 0.8);
            }
            row
        })
        .collect();
    let report = db.ingest("t", &batch)?;
    println!(
        "append: {} new rows ({:.0}% of the grown table); Lemma 3 widened {} snippets \
         of {} synopses by Σ(|µ|+η) = {:.3}",
        report.appended_rows,
        100.0 * appended_rows as f64 / (table.num_rows() + appended_rows) as f64,
        report.adjusted_snippets,
        report.adjusted_keys,
        report.widening_magnitude
    );

    // Query again: the improved answer reflects the drift and the error
    // bound inflates to stay correct.
    let sql = "SELECT AVG(m) FROM t WHERE d0 BETWEEN 2 AND 4";
    let r = db.query(sql, &opts)?.unwrap_answered();
    let cell = &r.rows[0].values[0];
    let avg = AggregateFn::Avg(Expr::col("m"));
    let band = Predicate::between("d0", 2.0, 4.0);
    let exact_old = avg.eval_exact(&table, &band)?;
    let grown = db.table("t")?;
    let exact_new = avg.eval_exact(&grown, &band)?;
    println!("query: {sql}");
    println!("  exact before append : {exact_old:.4}");
    println!("  exact after append  : {exact_new:.4}");
    println!(
        "  Verdict answer      : {:.4} ± {:.4} (model used: {})",
        cell.improved.answer, cell.improved.error, cell.improved.used_model
    );
    let covered = (cell.improved.answer - exact_new).abs() <= cell.improved.bound(0.95);
    println!("  within 95% bound of the post-append truth: {covered}");
    assert!(
        covered,
        "the widened bound must cover the post-append truth"
    );
    Ok(())
}
