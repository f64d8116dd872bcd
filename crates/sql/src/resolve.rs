//! Binds checked AST fragments against a concrete table: scalar
//! expressions become storage [`Expr`]s, `FROM` names resolve against a
//! catalog, and group-by values become equality predicates.
//!
//! `WHERE` trees are resolved in one place, the plan template of
//! [`crate::prepared`], whose [`to_predicate`] is re-exported here.

use verdict_storage::{ColumnType, Expr, Predicate, Table, Value};

use crate::ast::ScalarExpr;
pub use crate::prepared::to_predicate;
use crate::{Result, SqlError};

/// Converts a scalar expression into a storage expression.
///
/// Qualified columns (`t.col`) resolve by their unqualified name — queries
/// run against denormalized tables where names are already unique.
pub(crate) fn to_expr(e: &ScalarExpr) -> Result<Expr> {
    Ok(match e {
        ScalarExpr::Column { name, .. } => Expr::col(name),
        ScalarExpr::Number(n) => Expr::Const(*n),
        ScalarExpr::Binary { op, lhs, rhs } => {
            let l = Box::new(to_expr(lhs)?);
            let r = Box::new(to_expr(rhs)?);
            match op {
                crate::ast::ArithOp::Add => Expr::Add(l, r),
                crate::ast::ArithOp::Sub => Expr::Sub(l, r),
                crate::ast::ArithOp::Mul => Expr::Mul(l, r),
                crate::ast::ArithOp::Div => Expr::Div(l, r),
            }
        }
        ScalarExpr::Neg(inner) => Expr::Neg(Box::new(to_expr(inner)?)),
        ScalarExpr::Placeholder(_) => {
            return Err(SqlError::Resolve(
                "placeholders cannot appear inside an aggregate or grouping \
                 expression; only predicate literals are bindable"
                    .into(),
            ))
        }
        other => {
            return Err(SqlError::Resolve(format!(
                "expression {} cannot be evaluated per-row",
                other.display()
            )))
        }
    })
}

/// Resolves a query's `FROM` name against a catalog of registered table
/// names (case-insensitive, like every other identifier in this SQL
/// dialect). Returns the index into `tables`.
///
/// `default` is the compatibility escape hatch for a reopened flat
/// single-table store, whose one table answers any `FROM` name: when
/// set, an unknown name resolves to that index instead of
/// erroring. Catalog-built databases pass `None`, so a typo in `FROM`
/// surfaces as [`SqlError::UnknownTable`] listing the registered names.
pub fn resolve_from(name: &str, tables: &[String], default: Option<usize>) -> Result<usize> {
    tables
        .iter()
        .position(|t| t.eq_ignore_ascii_case(name))
        .or(default)
        .ok_or_else(|| SqlError::UnknownTable {
            name: name.to_owned(),
            known: tables.to_vec(),
        })
}

/// Builds the equality predicate for one group-by value (decomposition
/// step, Figure 3: "each groupby column value is added as an equality
/// predicate").
pub(crate) fn group_equality(table: &Table, col: &str, value: &Value) -> Result<Predicate> {
    let col_ty = table.schema().column(col)?.ty;
    match (col_ty, value) {
        (ColumnType::Numeric, Value::Num(v)) => Ok(Predicate::between(col, *v, *v)),
        (ColumnType::Categorical, Value::Cat(c)) => Ok(Predicate::cat_eq(col, *c)),
        (ColumnType::Categorical, Value::Str(s)) => {
            let code = table
                .column(col)?
                .code_of(s)
                .ok_or_else(|| SqlError::Resolve(format!("unknown label {s} in {col}")))?;
            Ok(Predicate::cat_eq(col, code))
        }
        _ => Err(SqlError::Resolve(format!(
            "group value {value} does not match column {col}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use verdict_storage::{ColumnDef, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (w, r, v) in [(1.0, "us", 10.0), (2.0, "eu", 20.0), (3.0, "jp", 30.0)] {
            t.push_row(vec![w.into(), r.into(), v.into()]).unwrap();
        }
        t
    }

    fn where_of(sql: &str) -> crate::ast::WherePred {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    #[test]
    fn numeric_range_resolution() {
        let t = table();
        let p = to_predicate(&where_of("SELECT AVG(rev) FROM t WHERE week > 1"), &t).unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![1, 2]);
        let p = to_predicate(
            &where_of("SELECT AVG(rev) FROM t WHERE week BETWEEN 1 AND 2"),
            &t,
        )
        .unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![0, 1]);
    }

    #[test]
    fn flipped_comparison() {
        let t = table();
        let p = to_predicate(&where_of("SELECT AVG(rev) FROM t WHERE 2 >= week"), &t).unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![0, 1]);
    }

    #[test]
    fn categorical_equality_and_in() {
        let t = table();
        let p = to_predicate(&where_of("SELECT AVG(rev) FROM t WHERE region = 'eu'"), &t).unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![1]);
        let p = to_predicate(
            &where_of("SELECT AVG(rev) FROM t WHERE region IN ('us', 'jp')"),
            &t,
        )
        .unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![0, 2]);
    }

    #[test]
    fn unknown_label_matches_nothing() {
        let t = table();
        let p = to_predicate(
            &where_of("SELECT AVG(rev) FROM t WHERE region = 'mars'"),
            &t,
        )
        .unwrap();
        assert!(p.selected_rows(&t).unwrap().is_empty());
    }

    #[test]
    fn categorical_not_equal_complements() {
        let t = table();
        let p = to_predicate(&where_of("SELECT AVG(rev) FROM t WHERE region <> 'us'"), &t).unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![1, 2]);
    }

    #[test]
    fn numeric_not_equal_rejected() {
        let t = table();
        assert!(to_predicate(&where_of("SELECT AVG(rev) FROM t WHERE week <> 1"), &t).is_err());
    }

    #[test]
    fn conjunction_resolution() {
        let t = table();
        let p = to_predicate(
            &where_of("SELECT AVG(rev) FROM t WHERE week >= 2 AND region = 'jp'"),
            &t,
        )
        .unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![2]);
    }

    #[test]
    fn expr_resolution() {
        let q = parse_query("SELECT SUM(rev * (1 - 0.5)) FROM t").unwrap();
        let (_, arg) = q.aggregates()[0];
        let e = to_expr(arg).unwrap();
        let t = table();
        assert_eq!(e.eval_row(&t, 0).unwrap(), 5.0);
    }

    #[test]
    fn placeholders_refused_ad_hoc() {
        let t = table();
        for sql in [
            "SELECT AVG(rev) FROM t WHERE week BETWEEN ? AND ?",
            "SELECT AVG(rev) FROM t WHERE week > ?",
            "SELECT AVG(rev) FROM t WHERE region = ?",
            "SELECT AVG(rev) FROM t WHERE region IN (?, 'us')",
        ] {
            let expected = sql.matches('?').count();
            assert_eq!(
                to_predicate(&where_of(sql), &t).unwrap_err(),
                SqlError::PlaceholderCount { expected, got: 0 },
                "{sql}"
            );
        }
    }

    #[test]
    fn from_resolution_against_catalog() {
        let tables = vec!["orders".to_owned(), "events".to_owned()];
        assert_eq!(resolve_from("orders", &tables, None).unwrap(), 0);
        assert_eq!(resolve_from("EVENTS", &tables, None).unwrap(), 1);
        assert_eq!(resolve_from("nope", &tables, Some(0)).unwrap(), 0);
        match resolve_from("nope", &tables, None).unwrap_err() {
            SqlError::UnknownTable { name, known } => {
                assert_eq!(name, "nope");
                assert_eq!(known, tables);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_equality_predicates() {
        let t = table();
        let eu = t.column("region").unwrap().code_of("eu").unwrap();
        let p = group_equality(&t, "region", &Value::Cat(eu)).unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![1]);
        let p = group_equality(&t, "week", &Value::Num(3.0)).unwrap();
        assert_eq!(p.selected_rows(&t).unwrap(), vec![2]);
    }
}
