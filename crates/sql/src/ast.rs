//! Parsed query representation.
//!
//! The AST is wider than Verdict's supported class on purpose: disjunction,
//! `LIKE`, `NOT`, `MIN`/`MAX`, and sub-query markers all parse, so the
//! supported-query checker (§2.2) can classify real workloads rather than
//! failing at the parser.

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `AVG(expr)` — supported.
    Avg,
    /// `SUM(expr)` — supported.
    Sum,
    /// `COUNT(*)` / `COUNT(expr)` — supported.
    Count,
    /// `MIN(expr)` — parsed, unsupported by Verdict (§2.5).
    Min,
    /// `MAX(expr)` — parsed, unsupported by Verdict (§2.5).
    Max,
}

impl AggFunc {
    /// Whether Verdict can improve this aggregate.
    pub(crate) fn verdict_supported(&self) -> bool {
        matches!(self, AggFunc::Avg | AggFunc::Sum | AggFunc::Count)
    }
}

/// A scalar expression (aggregate arguments and comparison operands).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column reference (optionally table-qualified).
    Column {
        /// Optional table qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Numeric literal.
    Number(f64),
    /// String literal.
    String(String),
    /// `lhs op rhs` arithmetic.
    Binary {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// Unary negation.
    Neg(Box<ScalarExpr>),
    /// `*` inside `COUNT(*)`.
    Star,
    /// `?` — a positional placeholder in a prepared statement, numbered
    /// left to right from 0. Placeholders are only meaningful through
    /// [`crate::prepared`]; the ad-hoc resolution path rejects them.
    Placeholder(usize),
    /// An aggregate call appearing inside a `HAVING` predicate
    /// (e.g. `HAVING COUNT(*) > 10`). Verdict applies `HAVING` to the
    /// result set returned by the AQP engine (§2.2 item 4).
    AggCall {
        /// Aggregate function.
        func: AggFunc,
        /// Argument.
        arg: Box<ScalarExpr>,
    },
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ScalarExpr {
    /// Unqualified column helper.
    pub fn col(name: &str) -> ScalarExpr {
        ScalarExpr::Column {
            table: None,
            name: name.to_owned(),
        }
    }

    /// Canonical display form used as the aggregate-model key.
    pub fn display(&self) -> String {
        match self {
            ScalarExpr::Column { table, name } => match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            },
            ScalarExpr::Number(n) => format!("{n}"),
            ScalarExpr::String(s) => format!("'{s}'"),
            ScalarExpr::Binary { op, lhs, rhs } => {
                let o = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                };
                format!("({} {o} {})", lhs.display(), rhs.display())
            }
            ScalarExpr::Neg(e) => format!("(-{})", e.display()),
            ScalarExpr::Star => "*".to_owned(),
            ScalarExpr::Placeholder(i) => format!("?{}", i + 1),
            ScalarExpr::AggCall { func, arg } => {
                let name = match func {
                    AggFunc::Avg => "AVG",
                    AggFunc::Sum => "SUM",
                    AggFunc::Count => "COUNT",
                    AggFunc::Min => "MIN",
                    AggFunc::Max => "MAX",
                };
                format!("{name}({})", arg.display())
            }
        }
    }

    /// All referenced column names (unqualified), depth-first.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            ScalarExpr::Column { name, .. } => {
                if !out.contains(&name.as_str()) {
                    out.push(name);
                }
            }
            ScalarExpr::Binary { lhs, rhs, .. } => {
                lhs.collect(out);
                rhs.collect(out);
            }
            ScalarExpr::Neg(e) => e.collect(out),
            ScalarExpr::AggCall { arg, .. } => arg.collect(out),
            ScalarExpr::Number(_)
            | ScalarExpr::String(_)
            | ScalarExpr::Star
            | ScalarExpr::Placeholder(_) => {}
        }
    }
}

/// Comparison operators in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

/// A `WHERE`/`HAVING` predicate tree.
#[derive(Debug, Clone, PartialEq)]
pub enum WherePred {
    /// Comparison between two scalar expressions.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: ScalarExpr,
        /// Right operand.
        rhs: ScalarExpr,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: ScalarExpr,
        /// Lower bound.
        lo: ScalarExpr,
        /// Upper bound.
        hi: ScalarExpr,
    },
    /// `expr IN (literals…)`.
    InList {
        /// Tested expression.
        expr: ScalarExpr,
        /// Literal list.
        list: Vec<ScalarExpr>,
    },
    /// `expr LIKE 'pattern'` — parsed, unsupported by Verdict.
    Like {
        /// Tested expression.
        expr: ScalarExpr,
        /// Pattern.
        pattern: String,
    },
    /// Conjunction.
    And(Box<WherePred>, Box<WherePred>),
    /// Disjunction — parsed, unsupported by Verdict.
    Or(Box<WherePred>, Box<WherePred>),
    /// Negation — parsed, unsupported by Verdict.
    Not(Box<WherePred>),
}

/// One item in the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// Plain (grouping) column.
    Column(ScalarExpr),
    /// Aggregate call.
    Aggregate {
        /// Function.
        func: AggFunc,
        /// Argument (`Star` for `COUNT(*)`).
        arg: ScalarExpr,
    },
}

/// A join clause `JOIN table ON a.x = b.y`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table name.
    pub table: String,
    /// Left side of the equi-join condition.
    pub left: ScalarExpr,
    /// Right side of the equi-join condition.
    pub right: ScalarExpr,
}

/// A parsed flat `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT` list.
    pub select: Vec<SelectItem>,
    /// `FROM` table.
    pub from: String,
    /// `JOIN` clauses.
    pub joins: Vec<JoinClause>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<WherePred>,
    /// `GROUP BY` columns.
    pub group_by: Vec<ScalarExpr>,
    /// Optional `HAVING` predicate.
    pub having: Option<WherePred>,
    /// Whether the statement contained a sub-query anywhere (the parser
    /// flags and skips it; the checker reports it as unsupported).
    pub has_subquery: bool,
    /// Number of `?` placeholders in the statement (lexical order).
    pub placeholders: usize,
}

impl Query {
    /// Aggregate items of the select list.
    pub fn aggregates(&self) -> Vec<(&AggFunc, &ScalarExpr)> {
        self.select
            .iter()
            .filter_map(|i| match i {
                SelectItem::Aggregate { func, arg } => Some((func, arg)),
                SelectItem::Column(_) => None,
            })
            .collect()
    }

    /// Whether any aggregate appears.
    #[cfg(test)]
    pub(crate) fn has_aggregate(&self) -> bool {
        !self.aggregates().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_of_expressions() {
        let e = ScalarExpr::Binary {
            op: ArithOp::Mul,
            lhs: Box::new(ScalarExpr::col("price")),
            rhs: Box::new(ScalarExpr::Binary {
                op: ArithOp::Sub,
                lhs: Box::new(ScalarExpr::Number(1.0)),
                rhs: Box::new(ScalarExpr::col("discount")),
            }),
        };
        assert_eq!(e.display(), "(price * (1 - discount))");
    }

    #[test]
    fn columns_deduplicated() {
        let e = ScalarExpr::Binary {
            op: ArithOp::Add,
            lhs: Box::new(ScalarExpr::col("a")),
            rhs: Box::new(ScalarExpr::Binary {
                op: ArithOp::Mul,
                lhs: Box::new(ScalarExpr::col("a")),
                rhs: Box::new(ScalarExpr::col("b")),
            }),
        };
        assert_eq!(e.columns(), vec!["a", "b"]);
    }

    #[test]
    fn agg_support_classification() {
        assert!(AggFunc::Avg.verdict_supported());
        assert!(AggFunc::Sum.verdict_supported());
        assert!(AggFunc::Count.verdict_supported());
        assert!(!AggFunc::Min.verdict_supported());
        assert!(!AggFunc::Max.verdict_supported());
    }

    #[test]
    fn query_aggregate_listing() {
        let q = Query {
            select: vec![
                SelectItem::Column(ScalarExpr::col("g")),
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    arg: ScalarExpr::col("v"),
                },
            ],
            from: "t".into(),
            joins: vec![],
            where_clause: None,
            group_by: vec![ScalarExpr::col("g")],
            having: None,
            has_subquery: false,
            placeholders: 0,
        };
        assert!(q.has_aggregate());
        assert_eq!(q.aggregates().len(), 1);
    }
}
