//! Supported-query type checker (paper §2.2).
//!
//! "Each query, upon its arrival, is inspected by Verdict's query type
//! checker to determine whether it is supported, and if not, Verdict
//! bypasses the Inference module." The checker enforces the paper's rules:
//!
//! 1. at least one `SUM`/`COUNT`/`AVG` aggregate in the select list
//!    (`MIN`/`MAX` are not supported, §2.5);
//! 2. flat queries only — no derived tables or sub-queries;
//! 3. joins must be foreign-key joins against declared dimension tables;
//! 4. selections are conjunctions of equality/inequality comparisons and
//!    `IN`; disjunctions, `NOT`, and textual filters (`LIKE`) are
//!    unsupported;
//! 5. grouping and `HAVING` are fine (group values become equality
//!    predicates during decomposition).

use crate::ast::{Query, ScalarExpr, WherePred};

/// Why a query cannot be improved by Verdict. The variants mirror the
/// paper's stated exclusions; the generality experiment (Table 3) counts
/// them per workload. Non-exhaustive: the supported-query frontier moves
/// as the engine grows, so downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UnsupportedReason {
    /// No aggregate function in the select list.
    NoAggregate,
    /// `MIN`/`MAX` (extreme-value statistics are not sample-friendly).
    MinMaxAggregate,
    /// The statement contains a sub-query / derived table.
    Subquery,
    /// Disjunction (`OR`) in the predicate.
    Disjunction,
    /// Negation (`NOT`) in the predicate.
    Negation,
    /// Textual filter (`LIKE`).
    TextualFilter,
    /// A join that is not a declared fact→dimension foreign-key join.
    NonForeignKeyJoin,
    /// A predicate comparing two columns (not column vs literal).
    NonLiteralComparison,
    /// A `GROUP BY` expression that is not a plain column.
    NonColumnGroupBy,
    /// `HAVING` present without `GROUP BY` (ill-formed for Verdict).
    HavingWithoutGroupBy,
}

impl std::fmt::Display for UnsupportedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UnsupportedReason::NoAggregate => "no aggregate in select list",
            UnsupportedReason::MinMaxAggregate => "MIN/MAX aggregate",
            UnsupportedReason::Subquery => "nested sub-query",
            UnsupportedReason::Disjunction => "disjunction in predicate",
            UnsupportedReason::Negation => "negation in predicate",
            UnsupportedReason::TextualFilter => "textual LIKE filter",
            UnsupportedReason::NonForeignKeyJoin => "non-foreign-key join",
            UnsupportedReason::NonLiteralComparison => "column-to-column comparison",
            UnsupportedReason::NonColumnGroupBy => "GROUP BY expression that is not a column",
            UnsupportedReason::HavingWithoutGroupBy => "HAVING without GROUP BY",
        };
        f.write_str(s)
    }
}

/// The checker's decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupportVerdict {
    /// Verdict can learn from and improve this query.
    Supported,
    /// The query passes through to the AQP engine untouched; the reasons
    /// explain why (a query may fail several rules at once).
    Unsupported(Vec<UnsupportedReason>),
}

impl SupportVerdict {
    /// Whether the query is supported.
    pub fn is_supported(&self) -> bool {
        matches!(self, SupportVerdict::Supported)
    }
}

/// Declared fact→dimension foreign keys the checker accepts. Pairs are
/// `(fact_column, dimension_table)` — a join `JOIN dim ON fact.fk = dim.pk`
/// is accepted when `(fk, dim)` is declared.
#[derive(Debug, Clone, Default)]
pub struct JoinPolicy {
    declared: Vec<(String, String)>,
}

impl JoinPolicy {
    /// Policy with no declared foreign keys (any join is unsupported).
    pub fn none() -> Self {
        Self::default()
    }

    /// Declares a fact-side column joining to a dimension table.
    #[cfg(test)]
    pub(crate) fn allow(mut self, fact_column: &str, dim_table: &str) -> Self {
        self.declared
            .push((fact_column.to_owned(), dim_table.to_owned()));
        self
    }

    fn allows(&self, fact_column: &str, dim_table: &str) -> bool {
        self.declared
            .iter()
            .any(|(c, t)| c == fact_column && t.eq_ignore_ascii_case(dim_table))
    }
}

/// Checks a parsed query against Verdict's supported class.
pub fn check_query(query: &Query, joins: &JoinPolicy) -> SupportVerdict {
    let mut reasons = Vec::new();

    if query.has_subquery {
        reasons.push(UnsupportedReason::Subquery);
    }

    let aggs = query.aggregates();
    if aggs.is_empty() {
        reasons.push(UnsupportedReason::NoAggregate);
    } else if aggs.iter().any(|(f, _)| !f.verdict_supported()) {
        reasons.push(UnsupportedReason::MinMaxAggregate);
    }

    if let Some(pred) = &query.where_clause {
        check_pred(pred, &mut reasons);
    }
    if let Some(h) = &query.having {
        if query.group_by.is_empty() {
            reasons.push(UnsupportedReason::HavingWithoutGroupBy);
        }
        // HAVING itself only filters the result set; still reject
        // disjunctions inside it for symmetry with the paper's class.
        check_pred(h, &mut reasons);
    }

    for j in &query.joins {
        // Accept `fact.col = dim.col` in either order.
        let ok = match (&j.left, &j.right) {
            (
                ScalarExpr::Column {
                    table: lt,
                    name: ln,
                },
                ScalarExpr::Column {
                    table: rt,
                    name: _rn,
                },
            ) => {
                let fact_first = lt.as_deref().is_none_or(|t| t != j.table.as_str())
                    && rt.as_deref().is_some_and(|t| t == j.table.as_str());
                if fact_first {
                    joins.allows(ln, &j.table)
                } else {
                    // dim.col = fact.col
                    joins.allows(_rn, &j.table)
                }
            }
            _ => false,
        };
        if !ok {
            reasons.push(UnsupportedReason::NonForeignKeyJoin);
        }
    }

    // Grouping columns must be plain columns for decomposition.
    for g in &query.group_by {
        if !matches!(g, ScalarExpr::Column { .. }) {
            reasons.push(UnsupportedReason::NonColumnGroupBy);
        }
    }

    reasons.dedup();
    if reasons.is_empty() {
        SupportVerdict::Supported
    } else {
        SupportVerdict::Unsupported(reasons)
    }
}

fn check_pred(pred: &WherePred, reasons: &mut Vec<UnsupportedReason>) {
    match pred {
        WherePred::And(l, r) => {
            check_pred(l, reasons);
            check_pred(r, reasons);
        }
        WherePred::Or(l, r) => {
            reasons.push(UnsupportedReason::Disjunction);
            check_pred(l, reasons);
            check_pred(r, reasons);
        }
        WherePred::Not(inner) => {
            reasons.push(UnsupportedReason::Negation);
            check_pred(inner, reasons);
        }
        WherePred::Like { .. } => {
            reasons.push(UnsupportedReason::TextualFilter);
        }
        WherePred::Cmp { lhs, rhs, .. } => {
            // One side must be a column (or HAVING aggregate), the other a
            // literal.
            let col_lit = is_column_like(lhs) && is_literal(rhs);
            let lit_col = is_literal(lhs) && is_column_like(rhs);
            if !(col_lit || lit_col) {
                reasons.push(UnsupportedReason::NonLiteralComparison);
            }
        }
        WherePred::Between { expr, lo, hi } => {
            if !is_column_like(expr) || !is_literal(lo) || !is_literal(hi) {
                reasons.push(UnsupportedReason::NonLiteralComparison);
            }
        }
        WherePred::InList { expr, list } => {
            if !is_column_like(expr) || !list.iter().all(is_literal) {
                reasons.push(UnsupportedReason::NonLiteralComparison);
            }
        }
    }
}

fn is_column_like(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Column { .. } | ScalarExpr::AggCall { .. })
}

fn is_literal(e: &ScalarExpr) -> bool {
    match e {
        // A placeholder stands where a literal will be bound, so prepared
        // statements pass the same class check as their bound forms.
        ScalarExpr::Number(_) | ScalarExpr::String(_) | ScalarExpr::Placeholder(_) => true,
        ScalarExpr::Neg(inner) => is_literal(inner),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn check(sql: &str) -> SupportVerdict {
        check_query(&parse_query(sql).unwrap(), &JoinPolicy::none())
    }

    #[test]
    fn simple_aggregates_supported() {
        assert!(check("SELECT AVG(x) FROM t").is_supported());
        assert!(check("SELECT COUNT(*) FROM t WHERE a > 1 AND b = 'x'").is_supported());
        assert!(check("SELECT g, SUM(v) FROM t GROUP BY g").is_supported());
        assert!(check("SELECT g, SUM(v) FROM t GROUP BY g HAVING SUM(v) > 5").is_supported());
    }

    #[test]
    fn no_aggregate_unsupported() {
        match check("SELECT a, b FROM t") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::NoAggregate))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn min_max_unsupported() {
        match check("SELECT MIN(x) FROM t") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::MinMaxAggregate))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn disjunction_unsupported() {
        match check("SELECT AVG(x) FROM t WHERE a = 1 OR b = 2") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::Disjunction))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn like_unsupported() {
        match check("SELECT AVG(x) FROM t WHERE name LIKE '%Apple%'") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::TextualFilter))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn subquery_unsupported() {
        match check("SELECT AVG(x) FROM t WHERE k IN (SELECT k FROM u)") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::Subquery))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn declared_fk_join_supported() {
        let q = parse_query(
            "SELECT SUM(price) FROM lineitem JOIN orders ON lineitem.okey = orders.okey",
        )
        .unwrap();
        let policy = JoinPolicy::none().allow("okey", "orders");
        assert!(check_query(&q, &policy).is_supported());
        // Reversed condition order also accepted.
        let q2 = parse_query(
            "SELECT SUM(price) FROM lineitem JOIN orders ON orders.okey = lineitem.okey",
        )
        .unwrap();
        assert!(check_query(&q2, &policy).is_supported());
    }

    #[test]
    fn undeclared_join_unsupported() {
        let q = parse_query("SELECT SUM(price) FROM lineitem JOIN weird ON lineitem.a = weird.b")
            .unwrap();
        match check_query(&q, &JoinPolicy::none()) {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::NonForeignKeyJoin))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn column_to_column_comparison_unsupported() {
        match check("SELECT AVG(x) FROM t WHERE a = b") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::NonLiteralComparison))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn non_column_group_by_has_its_own_reason() {
        match check("SELECT SUM(v) FROM t GROUP BY a + 1") {
            SupportVerdict::Unsupported(r) => {
                assert_eq!(r, vec![UnsupportedReason::NonColumnGroupBy]);
                assert_eq!(r[0].to_string(), "GROUP BY expression that is not a column");
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn negation_unsupported() {
        match check("SELECT AVG(x) FROM t WHERE NOT a = 1") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.contains(&UnsupportedReason::Negation))
            }
            _ => panic!("should be unsupported"),
        }
    }

    #[test]
    fn negative_literal_comparisons_fine() {
        assert!(check("SELECT AVG(x) FROM t WHERE a > -5").is_supported());
    }

    #[test]
    fn multiple_reasons_reported() {
        match check("SELECT MIN(x) FROM t WHERE a = 1 OR b LIKE 'z%'") {
            SupportVerdict::Unsupported(r) => {
                assert!(r.len() >= 2, "{r:?}");
            }
            _ => panic!("should be unsupported"),
        }
    }
}
