//! Query → snippet decomposition (paper §2.3, Figure 3), in the form the
//! shared scan executes.
//!
//! A query with multiple aggregates and/or a `GROUP BY` becomes one snippet
//! per (aggregate function × group value): the group value is appended to
//! the `WHERE` clause as an equality predicate and the group columns are
//! dropped. Verdict only generates snippets for the first `N_max` groups of
//! the answer set to bound its overhead.
//!
//! A [`ScanPlan`] is that decomposition for one query: the snippet of
//! cell `(g, a)` is `(aggregates[a].agg, group_predicates[g])`, in
//! group-major, aggregate-minor order. Beside
//! the per-group predicates (what regions and synopsis records are keyed
//! by) the plan holds the base predicate, the group keys, and a
//! *deduplicated* list of primitive streams — `SUM(e)` and `COUNT(*)` share
//! one `FREQ(*)` stream, `SUM(e)` and `AVG(e)` share one `AVG(e)` stream —
//! so the executor answers every cell from a single sample pass.
//!
//! Plans are assembled by [`crate::PreparedQuery`]; [`plan_scan`] is the
//! zero-parameter convenience: prepare, bind nothing.

use verdict_storage::{AggregateFn, GroupKey, Predicate, Table};

use crate::ast::{Query, ScalarExpr, SelectItem};
use crate::prepared::prepare_query;
use crate::resolve::to_expr;
use crate::{Result, SqlError};

/// The grouping column names of a checked query (must be plain columns).
pub(crate) fn group_columns(query: &Query) -> Result<Vec<String>> {
    query
        .group_by
        .iter()
        .map(|g| match g {
            ScalarExpr::Column { name, .. } => Ok(name.clone()),
            other => Err(SqlError::Resolve(format!(
                "group-by expression {} is not a column",
                other.display()
            ))),
        })
        .collect()
}

/// The `(select-list index, aggregate)` pairs of a checked query.
fn select_aggregates(query: &Query) -> Result<Vec<(usize, AggregateFn)>> {
    let aggs: Vec<(usize, AggregateFn)> = query
        .select
        .iter()
        .enumerate()
        .filter_map(|(i, item)| match item {
            SelectItem::Aggregate { func, arg } => Some(build_aggregate(func, arg).map(|a| (i, a))),
            SelectItem::Column(_) => None,
        })
        .collect::<Result<_>>()?;
    if aggs.is_empty() {
        return Err(SqlError::Resolve("query has no aggregates".into()));
    }
    Ok(aggs)
}

/// How one user-facing aggregate is recovered from primitive streams
/// (§2.3: `AVG → avg`, `COUNT → N·freq`, `SUM → avg × N·freq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    /// `AVG(e)`: the avg stream directly.
    Avg,
    /// `COUNT(*)`: the freq stream scaled by the base cardinality.
    Count,
    /// `SUM(e)`: avg stream × scaled freq stream.
    Sum,
    /// Raw `FREQ(*)` exposed directly (internal/tests).
    Freq,
}

/// One user-facing aggregate of a [`ScanPlan`], wired to the primitive
/// stream(s) it reads.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// Index of the aggregate in the original select list.
    pub agg_index: usize,
    /// The user-facing aggregate.
    pub agg: AggregateFn,
    /// How primitive streams combine into the user-facing answer.
    pub combiner: Combiner,
    /// Index into [`ScanPlan::primitives`] of the `AVG` stream (if read).
    pub avg_prim: Option<usize>,
    /// Index into [`ScanPlan::primitives`] of the `FREQ` stream (if read).
    pub freq_prim: Option<usize>,
}

/// A decomposed query: everything one sample pass needs to answer all
/// `groups × aggregates` cells, and the snippet each cell learns as.
#[derive(Debug, Clone)]
pub struct ScanPlan {
    /// The query predicate without group equalities (what the scan
    /// evaluates per row).
    pub base_predicate: Predicate,
    /// Group-by columns (empty for ungrouped queries).
    pub group_cols: Vec<String>,
    /// The groups answered, in result-row order (`[None]` for ungrouped
    /// queries), capped at `N_max`.
    pub groups: Vec<Option<GroupKey>>,
    /// Full per-group predicate (base ∧ group equalities) — the snippet
    /// predicate used for model regions and synopsis recording; the scan
    /// itself never evaluates these.
    pub group_predicates: Vec<Predicate>,
    /// Deduplicated primitive streams (`AVG(e)` / `FREQ(*)`): at most one
    /// `FREQ` stream per query and one `AVG` stream per distinct measure
    /// expression, shared by every aggregate and every group.
    pub primitives: Vec<AggregateFn>,
    /// The user-facing aggregates, in select-list order.
    pub aggregates: Vec<AggregateSpec>,
    /// Whether the `N_max` cap dropped groups.
    pub truncated: bool,
    /// How many groups the `N_max` cap dropped (0 when not truncated) —
    /// exported by the observability layer so capped answers are visible.
    pub groups_dropped: usize,
}

impl ScanPlan {
    /// Total result cells (`groups × aggregates`).
    pub fn num_cells(&self) -> usize {
        self.groups.len() * self.aggregates.len()
    }
}

/// Plans one shared scan for a checked query without placeholders.
/// `group_keys` lists the group values present in the (approximate) answer
/// set — `&[]` for ungrouped queries. Cells beyond the first `N_max` groups
/// are dropped (those rows keep their raw answers, Algorithm 2 lines 8–9).
pub fn plan_scan(
    query: &Query,
    table: &Table,
    group_keys: &[GroupKey],
    nmax: usize,
) -> Result<ScanPlan> {
    prepare_query(query, table)?.plan(table, &[], group_keys, nmax)
}

/// The literal-independent half of planning: maps the select list onto
/// deduplicated primitive streams, once per prepared statement.
pub(crate) fn plan_aggregates(query: &Query) -> Result<(Vec<AggregateFn>, Vec<AggregateSpec>)> {
    let aggs = select_aggregates(query)?;

    // Deduplicate primitive streams across the select list.
    fn avg_index_of(primitives: &mut Vec<AggregateFn>, e: &verdict_storage::Expr) -> usize {
        let key = AggregateFn::Avg(e.clone());
        match primitives.iter().position(|p| *p == key) {
            Some(i) => i,
            None => {
                primitives.push(key);
                primitives.len() - 1
            }
        }
    }
    fn freq_index_of(primitives: &mut Vec<AggregateFn>, freq: &mut Option<usize>) -> usize {
        *freq.get_or_insert_with(|| {
            primitives.push(AggregateFn::Freq);
            primitives.len() - 1
        })
    }
    let mut primitives: Vec<AggregateFn> = Vec::new();
    let mut freq_index: Option<usize> = None;
    let aggregates: Vec<AggregateSpec> = aggs
        .iter()
        .map(|(agg_index, agg)| {
            let (combiner, avg_prim, freq_prim) = match agg {
                AggregateFn::Avg(e) => {
                    (Combiner::Avg, Some(avg_index_of(&mut primitives, e)), None)
                }
                AggregateFn::Count => (
                    Combiner::Count,
                    None,
                    Some(freq_index_of(&mut primitives, &mut freq_index)),
                ),
                AggregateFn::Sum(e) => {
                    let a = avg_index_of(&mut primitives, e);
                    let f = freq_index_of(&mut primitives, &mut freq_index);
                    (Combiner::Sum, Some(a), Some(f))
                }
                AggregateFn::Freq => (
                    Combiner::Freq,
                    None,
                    Some(freq_index_of(&mut primitives, &mut freq_index)),
                ),
            };
            AggregateSpec {
                agg_index: *agg_index,
                agg: agg.clone(),
                combiner,
                avg_prim,
                freq_prim,
            }
        })
        .collect();
    Ok((primitives, aggregates))
}

fn build_aggregate(func: &crate::ast::AggFunc, arg: &ScalarExpr) -> Result<AggregateFn> {
    use crate::ast::AggFunc;
    Ok(match func {
        AggFunc::Avg => AggregateFn::Avg(to_expr(arg)?),
        AggFunc::Sum => AggregateFn::Sum(to_expr(arg)?),
        AggFunc::Count => AggregateFn::Count,
        AggFunc::Min | AggFunc::Max => {
            return Err(SqlError::Resolve(
                "MIN/MAX should have been rejected by the checker".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use verdict_storage::{ColumnDef, Schema, Value};

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
    fn figure3_decomposition_shape() {
        // Figure 3: 1 query with AVG + SUM grouped by a column with 2
        // values → 4 snippets (cells), each group with the group equality
        // added.
        let t = table();
        let q =
            parse_query("SELECT region, AVG(rev), SUM(rev) FROM t WHERE week > 0 GROUP BY region")
                .unwrap();
        let us = Value::Cat(t.column("region").unwrap().code_of("us").unwrap());
        let eu = Value::Cat(t.column("region").unwrap().code_of("eu").unwrap());
        let plan = plan_scan(&q, &t, &[vec![us], vec![eu]], 1000).unwrap();
        assert_eq!(plan.num_cells(), 4);
        assert!(!plan.truncated);
        // The first group's snippets select only `us` rows.
        let rows = plan.group_predicates[0].selected_rows(&t).unwrap();
        assert_eq!(rows, vec![0, 2]);
        // Aggregates alternate within a group, in select-list order.
        assert!(matches!(plan.aggregates[0].agg, AggregateFn::Avg(_)));
        assert!(matches!(plan.aggregates[1].agg, AggregateFn::Sum(_)));
    }

    #[test]
    fn ungrouped_query_one_snippet_per_aggregate() {
        let t = table();
        let q = parse_query("SELECT COUNT(*), AVG(rev) FROM t WHERE week <= 2").unwrap();
        let plan = plan_scan(&q, &t, &[], 1000).unwrap();
        assert_eq!(plan.num_cells(), 2);
        assert_eq!(plan.groups, vec![None]);
    }

    #[test]
    fn nmax_caps_groups() {
        let t = table();
        let q = parse_query("SELECT week, COUNT(*) FROM t GROUP BY week").unwrap();
        let keys: Vec<GroupKey> = (1..=4).map(|w| vec![Value::Num(w as f64)]).collect();
        let plan = plan_scan(&q, &t, &keys, 2).unwrap();
        assert_eq!(plan.num_cells(), 2);
        assert_eq!(
            plan.groups,
            vec![Some(keys[0].clone()), Some(keys[1].clone())]
        );
        assert!(plan.truncated);
        assert_eq!(plan.groups_dropped, 2);
    }

    #[test]
    fn group_key_arity_checked() {
        let t = table();
        let q = parse_query("SELECT week, COUNT(*) FROM t GROUP BY week").unwrap();
        let bad_key: Vec<GroupKey> = vec![vec![Value::Num(1.0), Value::Num(2.0)]];
        assert!(plan_scan(&q, &t, &bad_key, 10).is_err());
    }

    #[test]
    fn numeric_group_by_becomes_point_predicate() {
        let t = table();
        let q = parse_query("SELECT week, SUM(rev) FROM t GROUP BY week").unwrap();
        let plan = plan_scan(&q, &t, &[vec![Value::Num(3.0)]], 10).unwrap();
        let rows = plan.group_predicates[0].selected_rows(&t).unwrap();
        assert_eq!(rows, vec![2]);
    }

    /// Were the checker ever bypassed, a non-column `GROUP BY` expression
    /// must fail typed — not be dropped, grouping by fewer columns.
    #[test]
    fn non_column_group_by_is_error() {
        let q = parse_query("SELECT SUM(rev) FROM t GROUP BY region, week + 1").unwrap();
        let err = plan_scan(&q, &table(), &[], 10).unwrap_err();
        assert!(matches!(&err, SqlError::Resolve(m) if m.contains("not a column")));
    }

    #[test]
    fn no_aggregates_is_error() {
        let t = table();
        let q = parse_query("SELECT week FROM t").unwrap();
        assert!(plan_scan(&q, &t, &[], 10).is_err());
    }

    #[test]
    fn plan_dedups_primitive_streams() {
        // AVG(rev), SUM(rev), COUNT(*) need only two streams: AVG(rev)
        // (shared by AVG and SUM) and FREQ (shared by SUM and COUNT).
        let t = table();
        let q = parse_query(
            "SELECT region, AVG(rev), SUM(rev), COUNT(*) FROM t WHERE week > 0 GROUP BY region",
        )
        .unwrap();
        let us = Value::Cat(t.column("region").unwrap().code_of("us").unwrap());
        let plan = plan_scan(&q, &t, &[vec![us]], 1000).unwrap();
        assert_eq!(plan.primitives.len(), 2);
        assert!(matches!(plan.primitives[0], AggregateFn::Avg(_)));
        assert!(matches!(plan.primitives[1], AggregateFn::Freq));
        assert_eq!(plan.aggregates.len(), 3);
        let [avg, sum, count] = &plan.aggregates[..] else {
            panic!("three aggregates");
        };
        assert_eq!(
            (avg.combiner, avg.avg_prim, avg.freq_prim),
            (Combiner::Avg, Some(0), None)
        );
        assert_eq!(
            (sum.combiner, sum.avg_prim, sum.freq_prim),
            (Combiner::Sum, Some(0), Some(1))
        );
        assert_eq!(
            (count.combiner, count.avg_prim, count.freq_prim),
            (Combiner::Count, None, Some(1))
        );
        assert_eq!(plan.num_cells(), 3);
    }

    #[test]
    fn plan_distinct_measures_get_distinct_streams() {
        let t = table();
        let q = parse_query("SELECT SUM(rev), SUM(rev * 2) FROM t").unwrap();
        let plan = plan_scan(&q, &t, &[], 10).unwrap();
        // Two distinct AVG streams plus one shared FREQ stream.
        assert_eq!(plan.primitives.len(), 3);
        assert_eq!(plan.aggregates[0].freq_prim, plan.aggregates[1].freq_prim);
        assert_ne!(plan.aggregates[0].avg_prim, plan.aggregates[1].avg_prim);
    }

    #[test]
    fn ungrouped_plan_has_one_implicit_group() {
        let t = table();
        let q = parse_query("SELECT COUNT(*), AVG(rev) FROM t WHERE week <= 2").unwrap();
        let plan = plan_scan(&q, &t, &[], 1000).unwrap();
        assert_eq!(plan.groups, vec![None]);
        assert_eq!(plan.group_predicates, vec![plan.base_predicate.clone()]);
        assert!(plan.group_cols.is_empty());
    }
}
