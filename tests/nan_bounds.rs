//! A NaN range bound selects no row, so it is no region the model can
//! answer: on a trained table a NaN bound — bound through a prepared
//! statement, or a NaN numeric `GROUP BY` key — passes the raw answer
//! through, bit for bit the `NoLearn` answer, as an inverted range does.

use verdict::storage::Value;
use verdict::{Database, QueryOptions, QueryResult, TableOptions};
use verdict_storage::{ColumnDef, Schema, Table};

/// `week` 1..=100, `tier` 0..=3 with every 13th row NaN, `rev` smooth in
/// `week`.
fn table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::numeric_dimension("tier"),
        ColumnDef::measure("rev"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 7u64;
    for i in 0..20_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let week = 1.0 + (i % 100) as f64;
        let tier = if i % 13 == 0 {
            f64::NAN
        } else {
            (i % 4) as f64
        };
        let rev = 100.0 + 20.0 * (week / 15.0).sin() + tier.max(0.0) + 5.0 * (u - 0.5);
        t.push_row(vec![week.into(), tier.into(), rev.into()])
            .unwrap();
    }
    t
}

fn trained() -> Database {
    let db = Database::builder()
        .register_table_with(
            "t",
            table(),
            TableOptions {
                sample_fraction: 0.2,
                batch_size: 250,
                seed: 3,
                ..Default::default()
            },
        )
        .build()
        .unwrap();
    let opts = QueryOptions::new();
    for lo in (0..90).step_by(5) {
        let hi = lo + 10;
        db.query(
            &format!("SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {hi}"),
            &opts,
        )
        .unwrap();
        db.query(
            &format!("SELECT tier, AVG(rev) FROM t WHERE week BETWEEN {lo} AND {hi} GROUP BY tier"),
            &opts,
        )
        .unwrap();
    }
    db.train("t").unwrap();
    db
}

fn run(db: &Database, sql: &str, params: &[Value], opts: &QueryOptions) -> QueryResult {
    db.prepare(sql)
        .unwrap()
        .bind(params)
        .unwrap()
        .run(opts)
        .unwrap()
        .unwrap_answered()
}

/// The bits of every cell of `sql` under `Verdict` and under `NoLearn`:
/// `(group, [(used_model, improved answer, improved error) per
/// aggregate])` per row.
type Cells = Vec<(Option<Vec<Value>>, Vec<(bool, u64, u64)>)>;

fn cells(r: &QueryResult) -> Cells {
    r.rows
        .iter()
        .map(|row| {
            let values = row.values.iter().map(|c| {
                let i = c.improved;
                (i.used_model, i.answer.to_bits(), i.error.to_bits())
            });
            (row.group.clone(), values.collect())
        })
        .collect()
}

fn both(db: &Database, sql: &str, params: &[Value]) -> (Cells, Cells) {
    let learned = run(db, sql, params, &QueryOptions::new());
    let raw = run(db, sql, params, &QueryOptions::no_learn());
    (cells(&learned), cells(&raw))
}

#[test]
fn nan_range_bounds_pass_the_raw_answer_through() {
    let db = trained();
    let between = "SELECT AVG(rev) FROM t WHERE week BETWEEN ? AND ?";
    // The model is trained and answers a finite range.
    let (learned, _) = both(&db, between, &[25.0.into(), 45.0.into()]);
    assert!(learned[0].1[0].0, "a finite range uses the model");
    // Infinite bounds clamp to the domain: still a region.
    let (learned, _) = both(&db, between, &[f64::NEG_INFINITY.into(), 3.0.into()]);
    assert!(learned[0].1[0].0, "an infinite bound uses the model");

    let nan = f64::NAN;
    for (sql, lo, hi) in [
        (between, nan, 3.0),
        (between, 3.0, nan),
        (between, nan, nan),
        // The NaN bound arrives second in the conjunction.
        (
            "SELECT AVG(rev) FROM t WHERE week <= ? AND week >= ?",
            3.0,
            nan,
        ),
    ] {
        let (learned, raw) = both(&db, sql, &[lo.into(), hi.into()]);
        assert!(
            !learned[0].1[0].0,
            "{sql} [{lo}, {hi}] must not use the model"
        );
        assert_eq!(learned, raw, "{sql} [{lo}, {hi}]");
    }
}

#[test]
fn a_nan_group_key_passes_the_raw_answer_through() {
    let db = trained();
    let (learned, raw) = both(
        &db,
        "SELECT tier, AVG(rev) FROM t WHERE week BETWEEN ? AND ? GROUP BY tier",
        &[20.0.into(), 70.0.into()],
    );
    let is_nan =
        |g: &Option<Vec<Value>>| matches!(g.as_deref(), Some([Value::Num(v)]) if v.is_nan());
    let (nan_learned, nan_raw) = (
        learned
            .iter()
            .find(|(g, _)| is_nan(g))
            .expect("a NaN group"),
        raw.iter().find(|(g, _)| is_nan(g)).expect("a NaN group"),
    );
    assert!(!nan_learned.1[0].0, "the NaN group must not use the model");
    assert_eq!(nan_learned.1, nan_raw.1);
    assert!(
        learned.iter().any(|(g, v)| !is_nan(g) && v[0].0),
        "finite groups use the model"
    );
}
