//! Property-based tests for the storage engine.

use proptest::prelude::*;
use verdict_storage::{
    eval_group_by, AggregateFn, ColumnDef, Expr, Predicate, Schema, Table, Value,
};

/// Builds a table from generated (week, group, value) rows.
fn table_from(rows: &[(f64, u8, f64)]) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::categorical_dimension("grp"),
        ColumnDef::measure("v"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for &(w, g, v) in rows {
        t.push_row(vec![w.into(), (g as u32 % 5).into(), v.into()])
            .unwrap();
    }
    t
}

fn rows_strategy() -> impl Strategy<Value = Vec<(f64, u8, f64)>> {
    prop::collection::vec((0.0..100.0f64, any::<u8>(), -100.0..100.0f64), 0..120)
}

proptest! {
    /// The normal-form fast path of `selected_rows` must agree with
    /// row-by-row `eval_row`.
    #[test]
    fn normal_form_matches_row_eval(
        rows in rows_strategy(),
        lo in 0.0..100.0f64,
        w in 0.0..50.0f64,
        codes in prop::collection::vec(0u32..5, 0..4),
    ) {
        let t = table_from(&rows);
        let p = Predicate::between("week", lo, lo + w)
            .and(Predicate::cat_in("grp", codes));
        let fast = p.selected_rows(&t).unwrap();
        let slow: Vec<usize> = (0..t.num_rows())
            .filter(|&r| p.eval_row(&t, r).unwrap())
            .collect();
        prop_assert_eq!(fast, slow);
    }

    /// SUM = AVG × COUNT exactly on exact evaluation (§2.3 identity).
    #[test]
    fn sum_equals_avg_times_count(rows in rows_strategy(), lo in 0.0..100.0f64, w in 0.0..80.0f64) {
        let t = table_from(&rows);
        let p = Predicate::between("week", lo, lo + w);
        let sum = AggregateFn::Sum(Expr::col("v")).eval_exact(&t, &p).unwrap();
        let avg = AggregateFn::Avg(Expr::col("v")).eval_exact(&t, &p).unwrap();
        let count = AggregateFn::Count.eval_exact(&t, &p).unwrap();
        prop_assert!((sum - avg * count).abs() < 1e-6 * (1.0 + sum.abs()));
    }

    /// FREQ × cardinality = COUNT.
    #[test]
    fn freq_scales_to_count(rows in rows_strategy(), lo in 0.0..100.0f64, w in 0.0..80.0f64) {
        let t = table_from(&rows);
        if t.num_rows() == 0 {
            return Ok(());
        }
        let p = Predicate::between("week", lo, lo + w);
        let freq = AggregateFn::Freq.eval_exact(&t, &p).unwrap();
        let count = AggregateFn::Count.eval_exact(&t, &p).unwrap();
        prop_assert!((freq * t.num_rows() as f64 - count).abs() < 1e-9);
    }

    /// Group-by totals partition the filtered rows: per-group COUNTs sum
    /// to the ungrouped COUNT.
    #[test]
    fn group_by_partitions(rows in rows_strategy(), lo in 0.0..100.0f64, w in 0.0..80.0f64) {
        let t = table_from(&rows);
        let p = Predicate::between("week", lo, lo + w);
        let grouped = eval_group_by(&t, &p, &["grp".to_owned()], &AggregateFn::Count).unwrap();
        let total: f64 = grouped.iter().map(|(_, c)| c).sum();
        let count = AggregateFn::Count.eval_exact(&t, &p).unwrap();
        prop_assert_eq!(total, count);
        // Group keys are unique.
        let mut keys: Vec<&Vec<Value>> = grouped.iter().map(|(k, _)| k).collect();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before);
    }

    /// `gather` preserves row content and order.
    #[test]
    fn gather_preserves_rows(rows in rows_strategy(), idx in prop::collection::vec(0usize..120, 0..40)) {
        let t = table_from(&rows);
        if t.num_rows() == 0 {
            return Ok(());
        }
        let picks: Vec<usize> = idx.into_iter().map(|i| i % t.num_rows()).collect();
        let ids: Vec<u32> = picks.iter().map(|&r| r as u32).collect();
        let g = t.gather(&ids).unwrap();
        prop_assert_eq!(g.num_rows(), picks.len());
        for (out_row, &src_row) in picks.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), t.row(src_row));
        }
    }

    /// `append` concatenates: aggregates over the result equal the sum of
    /// the parts.
    #[test]
    fn append_is_concatenation(a in rows_strategy(), b in rows_strategy()) {
        let mut ta = table_from(&a);
        let tb = table_from(&b);
        let sum_a = AggregateFn::Sum(Expr::col("v")).eval_exact(&ta, &Predicate::True).unwrap();
        let sum_b = AggregateFn::Sum(Expr::col("v")).eval_exact(&tb, &Predicate::True).unwrap();
        ta.append(&tb).unwrap();
        let total = AggregateFn::Sum(Expr::col("v")).eval_exact(&ta, &Predicate::True).unwrap();
        prop_assert!((total - sum_a - sum_b).abs() < 1e-6 * (1.0 + total.abs()));
        prop_assert_eq!(ta.num_rows(), a.len() + b.len());
    }

    /// Compiled expressions agree with interpreted evaluation everywhere.
    #[test]
    fn compiled_expr_matches_interpreter(rows in rows_strategy(), k in -10.0..10.0f64) {
        let t = table_from(&rows);
        let e = Expr::Mul(
            Box::new(Expr::Add(Box::new(Expr::col("v")), Box::new(Expr::Const(k)))),
            Box::new(Expr::col("week")),
        );
        let c = e.compile(&t).unwrap();
        for r in 0..t.num_rows() {
            prop_assert_eq!(c.eval(r), e.eval_row(&t, r).unwrap());
        }
    }
}
