//! Exact aggregate evaluation over tables.
//!
//! Verdict internally computes everything from two primitives (paper §2.3):
//! `AVG(Ak)` and `FREQ(*)` (the fraction of tuples satisfying the
//! predicate). The user-facing aggregates are recovered as
//!
//! ```text
//! AVG(Ak)   = AVG(Ak)
//! COUNT(*)  = round(FREQ(*) × table cardinality)
//! SUM(Ak)   = AVG(Ak) × COUNT(*)
//! ```
//!
//! This module evaluates these exactly — the ground truth used by the
//! experiment harness when reporting *actual* (not estimated) errors.

use std::collections::BTreeMap;

use crate::{Expr, Predicate, Result, Table, Value};

/// A user-facing aggregate function over an optional derived attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateFn {
    /// `AVG(expr)`.
    Avg(Expr),
    /// `SUM(expr)`.
    Sum(Expr),
    /// `COUNT(*)`.
    Count,
    /// `FREQ(*)`: fraction of rows satisfying the predicate (internal
    /// primitive; exposed for tests and the inference engine).
    Freq,
}

impl AggregateFn {
    /// Short display name, e.g. `AVG(rev)`.
    pub fn label(&self) -> String {
        match self {
            AggregateFn::Avg(e) => format!("AVG({e})"),
            AggregateFn::Sum(e) => format!("SUM({e})"),
            AggregateFn::Count => "COUNT(*)".to_owned(),
            AggregateFn::Freq => "FREQ(*)".to_owned(),
        }
    }

    /// Evaluates the aggregate exactly over the rows of `table` selected by
    /// `predicate`.
    ///
    /// `AVG` over zero rows returns `0.0` (matching the AQP engine's
    /// convention of reporting a zero estimate with maximal uncertainty).
    pub fn eval_exact(&self, table: &Table, predicate: &Predicate) -> Result<f64> {
        let rows = predicate.selected_rows(table)?;
        self.eval_on_rows(table, &rows)
    }

    /// Evaluates the aggregate over an explicit row set of `table`.
    pub(crate) fn eval_on_rows(&self, table: &Table, rows: &[usize]) -> Result<f64> {
        match self {
            AggregateFn::Avg(expr) => {
                if rows.is_empty() {
                    return Ok(0.0);
                }
                let c = expr.compile(table)?;
                let sum: f64 = rows.iter().map(|&r| c.eval(r)).sum();
                Ok(sum / rows.len() as f64)
            }
            AggregateFn::Sum(expr) => {
                let c = expr.compile(table)?;
                Ok(rows.iter().map(|&r| c.eval(r)).sum())
            }
            AggregateFn::Count => Ok(rows.len() as f64),
            AggregateFn::Freq => {
                if table.num_rows() == 0 {
                    return Ok(0.0);
                }
                Ok(rows.len() as f64 / table.num_rows() as f64)
            }
        }
    }
}

/// A group-by key: the categorical codes / numeric values of the grouping
/// columns for one output row.
pub type GroupKey = Vec<Value>;

/// Exact `GROUP BY` evaluation: returns `(group key, aggregate value)` pairs
/// sorted by key (numeric values are compared by total order; groups are
/// formed by exact equality).
pub fn eval_group_by(
    table: &Table,
    predicate: &Predicate,
    group_cols: &[String],
    agg: &AggregateFn,
) -> Result<Vec<(GroupKey, f64)>> {
    let rows = predicate.selected_rows(table)?;
    let mut groups: BTreeMap<Vec<OrdValue>, Vec<usize>> = BTreeMap::new();
    for &row in &rows {
        let mut key = Vec::with_capacity(group_cols.len());
        for col in group_cols {
            key.push(OrdValue(table.column(col)?.get(row)));
        }
        groups.entry(key).or_default().push(row);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, rows) in groups {
        let v = agg.eval_on_rows(table, &rows)?;
        out.push((key.into_iter().map(|k| k.0).collect(), v));
    }
    Ok(out)
}

/// Total-order wrapper so `Value` can key a `BTreeMap` (shared with the
/// scan module so group enumeration orders keys identically everywhere).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OrdValue(pub(crate) Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (&self.0, &other.0) {
            (Value::Num(a), Value::Num(b)) => a.total_cmp(b),
            (Value::Cat(a), Value::Cat(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Num(_), _) => Ordering::Less,
            (_, Value::Num(_)) => Ordering::Greater,
            (Value::Cat(_), Value::Str(_)) => Ordering::Less,
            (Value::Str(_), Value::Cat(_)) => Ordering::Greater,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("week"),
            ColumnDef::categorical_dimension("region"),
            ColumnDef::measure("rev"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (w, r, v) in [
            (1.0, "us", 10.0),
            (2.0, "eu", 20.0),
            (3.0, "us", 30.0),
            (4.0, "jp", 40.0),
        ] {
            t.push_row(vec![w.into(), r.into(), v.into()]).unwrap();
        }
        t
    }

    #[test]
    fn avg_over_predicate() {
        let t = table();
        let p = Predicate::between("week", 1.0, 3.0);
        let v = AggregateFn::Avg(Expr::col("rev"))
            .eval_exact(&t, &p)
            .unwrap();
        assert_eq!(v, 20.0);
    }

    #[test]
    fn sum_count_freq_relationship() {
        let t = table();
        let p = Predicate::between("week", 2.0, 4.0);
        let sum = AggregateFn::Sum(Expr::col("rev"))
            .eval_exact(&t, &p)
            .unwrap();
        let avg = AggregateFn::Avg(Expr::col("rev"))
            .eval_exact(&t, &p)
            .unwrap();
        let count = AggregateFn::Count.eval_exact(&t, &p).unwrap();
        let freq = AggregateFn::Freq.eval_exact(&t, &p).unwrap();
        assert_eq!(sum, 90.0);
        assert_eq!(count, 3.0);
        assert!((avg * count - sum).abs() < 1e-12);
        assert!((freq - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_selection_conventions() {
        let t = table();
        let p = Predicate::between("week", 100.0, 200.0);
        assert_eq!(
            AggregateFn::Avg(Expr::col("rev"))
                .eval_exact(&t, &p)
                .unwrap(),
            0.0
        );
        assert_eq!(
            AggregateFn::Sum(Expr::col("rev"))
                .eval_exact(&t, &p)
                .unwrap(),
            0.0
        );
        assert_eq!(AggregateFn::Count.eval_exact(&t, &p).unwrap(), 0.0);
        assert_eq!(AggregateFn::Freq.eval_exact(&t, &p).unwrap(), 0.0);
    }

    #[test]
    fn group_by_region() {
        let t = table();
        let groups = eval_group_by(
            &t,
            &Predicate::True,
            &["region".to_owned()],
            &AggregateFn::Sum(Expr::col("rev")),
        )
        .unwrap();
        // Codes: us=0, eu=1, jp=2; sorted by code.
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], (vec![Value::Cat(0)], 40.0));
        assert_eq!(groups[1], (vec![Value::Cat(1)], 20.0));
        assert_eq!(groups[2], (vec![Value::Cat(2)], 40.0));
    }

    #[test]
    fn group_by_with_predicate() {
        let t = table();
        let groups = eval_group_by(
            &t,
            &Predicate::between("week", 1.0, 2.0),
            &["region".to_owned()],
            &AggregateFn::Count,
        )
        .unwrap();
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn derived_attribute_aggregate() {
        let t = table();
        let doubled = Expr::Mul(Box::new(Expr::col("rev")), Box::new(Expr::Const(2.0)));
        let v = AggregateFn::Sum(doubled)
            .eval_exact(&t, &Predicate::True)
            .unwrap();
        assert_eq!(v, 200.0);
    }

    #[test]
    fn labels_format() {
        assert_eq!(AggregateFn::Count.label(), "COUNT(*)");
        assert_eq!(AggregateFn::Avg(Expr::col("x")).label(), "AVG(x)");
    }
}
