//! Property-based tests for the AQP engine's estimators: full-sample scans
//! agree with exact aggregation, errors shrink monotonically with data,
//! and the Horvitz–Thompson estimators are unbiased across seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict_aqp::{BatchEstimator, Sample};
use verdict_storage::{AggregateFn, ColumnDef, Expr, Predicate, Schema, Table};

fn table_from(rows: &[(f64, f64)]) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("x"),
        ColumnDef::measure("v"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for &(x, v) in rows {
        t.push_row(vec![x.into(), v.into()]).unwrap();
    }
    t
}

/// The `(answer, error)` pair of one snippet after each batch of `sample`.
fn refine(sample: &Sample, agg: &AggregateFn, predicate: &Predicate) -> Vec<(f64, f64)> {
    let mut estimator =
        BatchEstimator::new(sample.table(), sample.base_rows(), agg, predicate).unwrap();
    (0..sample.num_batches())
        .map(|b| {
            estimator.consume(sample.batch_range(b));
            estimator.current()
        })
        .collect()
}

fn rows_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0..100.0f64, -50.0..50.0f64), 1..150)
}

proptest! {
    /// Scanning a "sample" that covers the full table reproduces the exact
    /// aggregate for AVG/SUM/COUNT/FREQ.
    #[test]
    fn full_scan_is_exact(rows in rows_strategy(), lo in 0.0..100.0f64, w in 0.0..60.0f64) {
        let t = table_from(&rows);
        let p = Predicate::between("x", lo, lo + w);
        let sample = Sample::full(&t, 16).unwrap();
        for agg in [
            AggregateFn::Avg(Expr::col("v")),
            AggregateFn::Sum(Expr::col("v")),
            AggregateFn::Count,
            AggregateFn::Freq,
        ] {
            let exact = agg.eval_exact(&t, &p).unwrap();
            let (answer, _) = *refine(&sample, &agg, &p).last().unwrap();
            prop_assert!(
                (answer - exact).abs() < 1e-6 * (1.0 + exact.abs()),
                "{}: raw {answer} vs exact {exact}",
                agg.label(),
            );
        }
    }

    /// Error estimates never increase as more batches are consumed
    /// (COUNT/SUM/FREQ use the full-scan accumulator; AVG after the first
    /// match).
    #[test]
    fn errors_shrink_with_batches(rows in prop::collection::vec((0.0..100.0f64, -50.0..50.0f64), 50..150)) {
        let t = table_from(&rows);
        let sample = Sample::full(&t, 10).unwrap();
        let mut prev = f64::INFINITY;
        let mut increases = 0;
        for (_, error) in refine(&sample, &AggregateFn::Sum(Expr::col("v")), &Predicate::True) {
            if error.is_finite() && prev.is_finite() && error > prev * 1.5 {
                increases += 1;
            }
            if error.is_finite() {
                prev = error;
            }
        }
        // CLT errors can wobble when a batch adds variance, but must not
        // repeatedly blow up.
        prop_assert!(increases <= 2, "error increased sharply {increases} times");
    }

    /// The COUNT estimator is unbiased: averaged over many sample draws,
    /// the estimate approaches the true count.
    #[test]
    fn count_estimator_unbiased(seed in 0u64..50) {
        let rows: Vec<(f64, f64)> = (0..400).map(|i| ((i % 100) as f64, 1.0)).collect();
        let t = table_from(&rows);
        let p = Predicate::between("x", 0.0, 49.0);
        let exact = AggregateFn::Count.eval_exact(&t, &p).unwrap();
        let mut acc = 0.0;
        let draws = 30;
        for d in 0..draws {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + d);
            let sample = Sample::uniform(&t, 0.25, 20, &mut rng).unwrap();
            acc += refine(&sample, &AggregateFn::Count, &p).last().unwrap().0;
        }
        let mean = acc / draws as f64;
        prop_assert!(
            (mean - exact).abs() < 0.12 * exact,
            "mean estimate {mean} vs exact {exact}"
        );
    }
}
