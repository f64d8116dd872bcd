//! The one way SQL becomes a [`Predicate`] and a [`ScanPlan`]: a plan
//! template compiled once, bound per run.
//!
//! [`prepare_query`] runs the literal-*independent* half of planning a
//! single time — select-list → deduplicated primitive streams, group
//! columns, and the `WHERE` tree compiled against the table's schema into
//! a [`PreparedQuery`] whose literal positions are slots (a constant or a
//! `?` parameter). Each execution then only *binds*: slot values are
//! substituted (with typed count/type errors), categorical labels resolve
//! against the current dictionary, and the final [`ScanPlan`] is
//! assembled without touching the lexer, parser or checker again.
//!
//! An ad-hoc statement is a prepared one with no placeholders:
//! [`to_predicate`] and [`crate::plan_scan`] compile this template and
//! bind `&[]`, so there is no second resolver to keep in step. The rules
//! live in `bind_template`: numeric `=` is the point range `[v, v]`; an
//! unknown categorical label matches nothing rather than erroring; `<>`
//! complements within the dictionary. Labels and complements resolve at
//! bind time, not compile time, on purpose: ingest can extend a
//! dictionary, and a statement must keep its meaning afterwards.

use verdict_core::persist::{fingerprint_bytes, Encoder};
use verdict_storage::{AggregateFn, ColumnType, Expr, GroupKey, Predicate, Table, Value};

use crate::ast::{CmpOp, Query, ScalarExpr, WherePred};
use crate::decompose::{group_columns, plan_aggregates, AggregateSpec, Combiner};
use crate::resolve::group_equality;
use crate::{Result, ScanPlan, SqlError};

/// What a placeholder slot accepts at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Compared against a numeric column: bind a [`Value::Num`].
    Numeric,
    /// Compared against a categorical column: bind a [`Value::Str`] label
    /// (resolved through the dictionary; unknown labels match nothing,
    /// exactly like a literal), a raw [`Value::Cat`] code, or a
    /// [`Value::Num`] holding an integral code in `0..=u32::MAX`.
    Categorical,
}

/// A numeric literal position: fixed at prepare time or bound per run.
#[derive(Debug, Clone)]
enum NumSlot {
    Const(f64),
    Param(usize),
}

/// A categorical literal position. Labels stay symbolic until bind, so
/// they resolve against the dictionary of the table the plan scans.
#[derive(Debug, Clone)]
enum CatSlot {
    Label(String),
    Code(u32),
    Param(usize),
}

/// The `WHERE` tree compiled against a schema, with literal slots: one
/// variant per predicate shape `bind_template` can emit.
#[derive(Debug, Clone)]
enum PredTemplate {
    True,
    And(Box<PredTemplate>, Box<PredTemplate>),
    Between {
        col: String,
        lo: NumSlot,
        hi: NumSlot,
    },
    Less {
        col: String,
        bound: NumSlot,
        inclusive: bool,
    },
    Greater {
        col: String,
        bound: NumSlot,
        inclusive: bool,
    },
    /// `col = v` on a numeric column (binds to the point range `[v, v]`).
    NumEq {
        col: String,
        value: NumSlot,
    },
    CatIn {
        col: String,
        items: Vec<CatSlot>,
    },
    /// `col <> v`: complement within the dictionary observed at bind time.
    CatComplement {
        col: String,
        items: Vec<CatSlot>,
    },
}

/// A statement prepared against one table: the plan's literal-independent
/// parts plus the predicate template. `Clone`-cheap relative to planning;
/// `Send + Sync` so one prepared statement can serve many threads.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    group_cols: Vec<String>,
    primitives: Vec<AggregateFn>,
    aggregates: Vec<AggregateSpec>,
    template: PredTemplate,
    /// Accepted kind per placeholder index.
    params: Vec<ParamKind>,
    /// Stable fingerprint of the compiled plan (see
    /// [`PreparedQuery::fingerprint`]), computed once at prepare time.
    fingerprint: u64,
}

impl PreparedQuery {
    /// Number of `?` placeholders the statement binds.
    pub fn placeholder_count(&self) -> usize {
        self.params.len()
    }

    /// The accepted kind of each placeholder, by index.
    pub fn param_kinds(&self) -> &[ParamKind] {
        &self.params
    }

    /// Stable 64-bit fingerprint of the compiled plan template.
    ///
    /// Computed at prepare time as [`fingerprint_bytes`] (the workspace's
    /// FNV-1a) over a canonical byte encoding of *everything* the plan
    /// is: group columns, deduplicated primitive streams, aggregate
    /// wiring, the full `WHERE` template (constants, labels, codes, and
    /// placeholder positions all distinguished), and the placeholder
    /// kinds. Two prepared statements with equal fingerprints therefore
    /// compute the same answer for the same bound parameters against the
    /// same table state — the property a server-side plan + answer cache
    /// keys on. The encoding is deterministic and process-independent
    /// (no hash-map iteration order, no addresses), so fingerprints are
    /// stable across runs and hosts.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The statement's `GROUP BY` columns (empty when ungrouped). Callers
    /// enumerate the groups present in their sample with the bound base
    /// predicate before assembling the plan.
    pub fn group_cols(&self) -> &[String] {
        &self.group_cols
    }

    /// The deduplicated primitive streams the plan scans.
    pub fn primitives(&self) -> &[AggregateFn] {
        &self.primitives
    }

    /// The one parameter check: the count matches the placeholders and
    /// every value fits its slot's kind, or [`SqlError::PlaceholderCount`]
    /// / [`SqlError::PlaceholderType`]. Needs no table, so callers can
    /// refuse bad parameters before they pick one.
    pub fn check_params(&self, params: &[Value]) -> Result<()> {
        if params.len() != self.params.len() {
            return Err(SqlError::PlaceholderCount {
                expected: self.params.len(),
                got: params.len(),
            });
        }
        for (index, (kind, value)) in self.params.iter().zip(params).enumerate() {
            match (kind, value) {
                (ParamKind::Numeric, value) => num_param(index, value).map(drop)?,
                (ParamKind::Categorical, Value::Num(n)) => code_param(index, *n).map(drop)?,
                (ParamKind::Categorical, _) => {}
            }
        }
        Ok(())
    }

    /// Binds the statement's base predicate. `table` supplies the
    /// dictionary for label resolution (pass the table the plan will
    /// scan). Parameters are validated by [`PreparedQuery::check_params`].
    pub fn bind(&self, table: &Table, params: &[Value]) -> Result<Predicate> {
        self.check_params(params)?;
        bind_template(&self.template, table, params)
    }

    /// Assembles the final [`ScanPlan`] from an already-bound base
    /// predicate and the enumerated group keys: keeps the groups under
    /// `N_max`, each with its full predicate (base ∧ group-value equalities,
    /// Figure 3); an ungrouped query is the one implicit group `(None, base)`.
    pub fn plan_bound(
        &self,
        base_predicate: Predicate,
        table: &Table,
        group_keys: &[GroupKey],
        nmax: usize,
    ) -> Result<ScanPlan> {
        let (mut groups, mut group_predicates) = (Vec::new(), Vec::new());
        let mut groups_dropped = 0;
        if self.group_cols.is_empty() {
            groups.push(None);
            group_predicates.push(base_predicate.clone());
        } else {
            groups_dropped = group_keys.len().saturating_sub(nmax);
            for key in group_keys.iter().take(nmax) {
                if key.len() != self.group_cols.len() {
                    return Err(SqlError::Resolve(format!(
                        "group key arity {} does not match {} group columns",
                        key.len(),
                        self.group_cols.len()
                    )));
                }
                let mut predicate = base_predicate.clone();
                for (col, value) in self.group_cols.iter().zip(key.iter()) {
                    predicate = predicate.and(group_equality(table, col, value)?);
                }
                groups.push(Some(key.clone()));
                group_predicates.push(predicate);
            }
        }
        Ok(ScanPlan {
            base_predicate,
            group_cols: self.group_cols.clone(),
            groups,
            group_predicates,
            primitives: self.primitives.clone(),
            aggregates: self.aggregates.clone(),
            truncated: groups_dropped > 0,
            groups_dropped,
        })
    }

    /// Convenience: [`PreparedQuery::bind`] + [`PreparedQuery::plan_bound`].
    pub fn plan(
        &self,
        table: &Table,
        params: &[Value],
        group_keys: &[GroupKey],
        nmax: usize,
    ) -> Result<ScanPlan> {
        let base = self.bind(table, params)?;
        self.plan_bound(base, table, group_keys, nmax)
    }
}

/// Compiles a checked query into a [`PreparedQuery`] against `table`'s
/// schema. Placeholders may appear only where predicate literals may;
/// one anywhere else (select list, `GROUP BY`, `HAVING`, joins) is a
/// resolution error.
pub fn prepare_query(query: &Query, table: &Table) -> Result<PreparedQuery> {
    let group_cols = group_columns(query)?;
    let (primitives, aggregates) = plan_aggregates(query)?;
    for item in &query.select {
        let expr = match item {
            crate::ast::SelectItem::Column(e) => e,
            crate::ast::SelectItem::Aggregate { arg, .. } => arg,
        };
        reject_placeholders(expr, "the select list")?;
    }
    for g in &query.group_by {
        reject_placeholders(g, "GROUP BY")?;
    }
    if let Some(h) = &query.having {
        reject_placeholders_pred(h, "HAVING")?;
    }
    for j in &query.joins {
        reject_placeholders(&j.left, "a join condition")?;
        reject_placeholders(&j.right, "a join condition")?;
    }

    let mut params = vec![None; query.placeholders];
    let template = match &query.where_clause {
        Some(w) => compile_template(w, table, &mut params)?,
        None => PredTemplate::True,
    };
    let params = params
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            kind.ok_or_else(|| {
                SqlError::Resolve(format!(
                    "placeholder {} appears outside the WHERE clause",
                    i + 1
                ))
            })
        })
        .collect::<Result<Vec<ParamKind>>>()?;
    let fingerprint = plan_fingerprint(&group_cols, &primitives, &aggregates, &template, &params);
    Ok(PreparedQuery {
        group_cols,
        primitives,
        aggregates,
        template,
        params,
        fingerprint,
    })
}

/// Resolves a `WHERE` tree whose literals are all inline against
/// `table`: compile the template, bind nothing. A `?` in the tree is
/// [`SqlError::PlaceholderCount`] — there is nothing to bind it with.
pub fn to_predicate(pred: &WherePred, table: &Table) -> Result<Predicate> {
    let mut params = Vec::new();
    let template = compile_template(pred, table, &mut params)?;
    if !params.is_empty() {
        return Err(SqlError::PlaceholderCount {
            expected: params.len(),
            got: 0,
        });
    }
    bind_template(&template, table, &[])
}

/// Canonical plan encoding fed to [`fingerprint_bytes`]. Every variant
/// writes a distinct tag before its payload, so structurally different
/// plans can never encode to the same bytes (tag + length-prefixed
/// strings make the encoding prefix-free).
fn plan_fingerprint(
    group_cols: &[String],
    primitives: &[AggregateFn],
    aggregates: &[AggregateSpec],
    template: &PredTemplate,
    params: &[ParamKind],
) -> u64 {
    let mut enc = Encoder::new();
    enc.put_len(group_cols.len());
    for col in group_cols {
        enc.put_str(col);
    }
    enc.put_len(primitives.len());
    for agg in primitives {
        encode_aggregate(&mut enc, agg);
    }
    enc.put_len(aggregates.len());
    for spec in aggregates {
        enc.put_u64(spec.agg_index as u64);
        encode_aggregate(&mut enc, &spec.agg);
        enc.put_u8(match spec.combiner {
            Combiner::Avg => 0,
            Combiner::Count => 1,
            Combiner::Sum => 2,
            Combiner::Freq => 3,
        });
        encode_opt_index(&mut enc, spec.avg_prim);
        encode_opt_index(&mut enc, spec.freq_prim);
    }
    encode_template(&mut enc, template);
    enc.put_len(params.len());
    for kind in params {
        enc.put_u8(match kind {
            ParamKind::Numeric => 0,
            ParamKind::Categorical => 1,
        });
    }
    fingerprint_bytes(&enc.into_bytes())
}

fn encode_opt_index(enc: &mut Encoder, idx: Option<usize>) {
    match idx {
        Some(i) => {
            enc.put_bool(true);
            enc.put_u64(i as u64);
        }
        None => enc.put_bool(false),
    }
}

fn encode_aggregate(enc: &mut Encoder, agg: &AggregateFn) {
    match agg {
        AggregateFn::Avg(e) => {
            enc.put_u8(0);
            encode_expr(enc, e);
        }
        AggregateFn::Sum(e) => {
            enc.put_u8(1);
            encode_expr(enc, e);
        }
        AggregateFn::Count => enc.put_u8(2),
        AggregateFn::Freq => enc.put_u8(3),
    }
}

fn encode_expr(enc: &mut Encoder, expr: &Expr) {
    match expr {
        Expr::Col(name) => {
            enc.put_u8(0);
            enc.put_str(name);
        }
        Expr::Const(v) => {
            enc.put_u8(1);
            enc.put_f64(*v);
        }
        Expr::Add(l, r) => {
            enc.put_u8(2);
            encode_expr(enc, l);
            encode_expr(enc, r);
        }
        Expr::Sub(l, r) => {
            enc.put_u8(3);
            encode_expr(enc, l);
            encode_expr(enc, r);
        }
        Expr::Mul(l, r) => {
            enc.put_u8(4);
            encode_expr(enc, l);
            encode_expr(enc, r);
        }
        Expr::Div(l, r) => {
            enc.put_u8(5);
            encode_expr(enc, l);
            encode_expr(enc, r);
        }
        Expr::Neg(inner) => {
            enc.put_u8(6);
            encode_expr(enc, inner);
        }
    }
}

fn encode_num_slot(enc: &mut Encoder, slot: &NumSlot) {
    match slot {
        NumSlot::Const(v) => {
            enc.put_u8(0);
            enc.put_f64(*v);
        }
        NumSlot::Param(i) => {
            enc.put_u8(1);
            enc.put_u64(*i as u64);
        }
    }
}

fn encode_cat_slot(enc: &mut Encoder, slot: &CatSlot) {
    match slot {
        CatSlot::Label(s) => {
            enc.put_u8(0);
            enc.put_str(s);
        }
        CatSlot::Code(c) => {
            enc.put_u8(1);
            enc.put_u32(*c);
        }
        CatSlot::Param(i) => {
            enc.put_u8(2);
            enc.put_u64(*i as u64);
        }
    }
}

fn encode_template(enc: &mut Encoder, t: &PredTemplate) {
    match t {
        PredTemplate::True => enc.put_u8(0),
        PredTemplate::And(l, r) => {
            enc.put_u8(1);
            encode_template(enc, l);
            encode_template(enc, r);
        }
        PredTemplate::Between { col, lo, hi } => {
            enc.put_u8(2);
            enc.put_str(col);
            encode_num_slot(enc, lo);
            encode_num_slot(enc, hi);
        }
        PredTemplate::Less {
            col,
            bound,
            inclusive,
        } => {
            enc.put_u8(3);
            enc.put_str(col);
            encode_num_slot(enc, bound);
            enc.put_bool(*inclusive);
        }
        PredTemplate::Greater {
            col,
            bound,
            inclusive,
        } => {
            enc.put_u8(4);
            enc.put_str(col);
            encode_num_slot(enc, bound);
            enc.put_bool(*inclusive);
        }
        PredTemplate::NumEq { col, value } => {
            enc.put_u8(5);
            enc.put_str(col);
            encode_num_slot(enc, value);
        }
        PredTemplate::CatIn { col, items } => {
            enc.put_u8(6);
            enc.put_str(col);
            enc.put_len(items.len());
            for item in items {
                encode_cat_slot(enc, item);
            }
        }
        PredTemplate::CatComplement { col, items } => {
            enc.put_u8(7);
            enc.put_str(col);
            enc.put_len(items.len());
            for item in items {
                encode_cat_slot(enc, item);
            }
        }
    }
}

fn reject_placeholders(e: &ScalarExpr, place: &str) -> Result<()> {
    match e {
        ScalarExpr::Placeholder(i) => Err(SqlError::Resolve(format!(
            "placeholder {} cannot appear in {place}; only predicate \
             literals are bindable",
            i + 1
        ))),
        ScalarExpr::Binary { lhs, rhs, .. } => {
            reject_placeholders(lhs, place)?;
            reject_placeholders(rhs, place)
        }
        ScalarExpr::Neg(inner) => reject_placeholders(inner, place),
        ScalarExpr::AggCall { arg, .. } => reject_placeholders(arg, place),
        _ => Ok(()),
    }
}

fn reject_placeholders_pred(p: &WherePred, place: &str) -> Result<()> {
    match p {
        WherePred::And(l, r) | WherePred::Or(l, r) => {
            reject_placeholders_pred(l, place)?;
            reject_placeholders_pred(r, place)
        }
        WherePred::Not(inner) => reject_placeholders_pred(inner, place),
        WherePred::Cmp { lhs, rhs, .. } => {
            reject_placeholders(lhs, place)?;
            reject_placeholders(rhs, place)
        }
        WherePred::Between { expr, lo, hi } => {
            reject_placeholders(expr, place)?;
            reject_placeholders(lo, place)?;
            reject_placeholders(hi, place)
        }
        WherePred::InList { expr, list } => {
            reject_placeholders(expr, place)?;
            list.iter().try_for_each(|e| reject_placeholders(e, place))
        }
        WherePred::Like { expr, .. } => reject_placeholders(expr, place),
    }
}

fn literal_number(e: &ScalarExpr) -> Option<f64> {
    match e {
        ScalarExpr::Number(n) => Some(*n),
        ScalarExpr::Neg(inner) => literal_number(inner).map(|n| -n),
        _ => None,
    }
}

/// A number in a categorical position is a raw dictionary code: finite,
/// integral and in `0..=u32::MAX`, or it is refused — a saturating cast
/// would answer `-1` or `NaN` with the first label's rows.
fn raw_code(n: f64) -> Option<u32> {
    (n.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&n)).then_some(n as u32)
}

/// A numeric literal or placeholder → slot.
fn num_slot(e: &ScalarExpr, params: &mut Vec<Option<ParamKind>>) -> Result<NumSlot> {
    match e {
        ScalarExpr::Placeholder(i) => {
            claim(params, *i, ParamKind::Numeric);
            Ok(NumSlot::Param(*i))
        }
        other => literal_number(other).map(NumSlot::Const).ok_or_else(|| {
            SqlError::Resolve(format!("{} is not a numeric literal", other.display()))
        }),
    }
}

/// A categorical literal or placeholder → slot.
fn cat_slot(e: &ScalarExpr, params: &mut Vec<Option<ParamKind>>) -> Result<CatSlot> {
    match e {
        ScalarExpr::String(s) => Ok(CatSlot::Label(s.clone())),
        ScalarExpr::Number(n) => raw_code(*n)
            .map(CatSlot::Code)
            .ok_or_else(|| SqlError::Resolve(format!("{n} is not a dictionary code"))),
        ScalarExpr::Placeholder(i) => {
            claim(params, *i, ParamKind::Categorical);
            Ok(CatSlot::Param(*i))
        }
        other => Err(SqlError::Resolve(format!(
            "cannot use {} as a categorical literal",
            other.display()
        ))),
    }
}

/// Records placeholder `index`'s kind; `params` grows to fit, so a bare
/// `WHERE` tree compiles without a placeholder count.
fn claim(params: &mut Vec<Option<ParamKind>>, index: usize, kind: ParamKind) {
    if index >= params.len() {
        params.resize(index + 1, None);
    }
    params[index] = Some(kind);
}

/// Compiles a `WHERE` tree into a template, resolving column names and
/// types once and recording each placeholder's kind in `params`. Runs
/// behind the support checker, yet refuses what it refuses on its own.
fn compile_template(
    pred: &WherePred,
    table: &Table,
    params: &mut Vec<Option<ParamKind>>,
) -> Result<PredTemplate> {
    match pred {
        WherePred::And(l, r) => Ok(PredTemplate::And(
            Box::new(compile_template(l, table, params)?),
            Box::new(compile_template(r, table, params)?),
        )),
        WherePred::Or(_, _) => Err(SqlError::Resolve("disjunction is unsupported".into())),
        WherePred::Not(_) => Err(SqlError::Resolve("negation is unsupported".into())),
        WherePred::Like { .. } => Err(SqlError::Resolve("LIKE is unsupported".into())),
        WherePred::Between { expr, lo, hi } => {
            let ScalarExpr::Column { name, .. } = expr else {
                return Err(SqlError::Resolve("BETWEEN needs a column".into()));
            };
            expect_column_type(table, name, ColumnType::Numeric)?;
            Ok(PredTemplate::Between {
                col: name.clone(),
                lo: num_slot(lo, params)?,
                hi: num_slot(hi, params)?,
            })
        }
        WherePred::InList { expr, list } => {
            let ScalarExpr::Column { name, .. } = expr else {
                return Err(SqlError::Resolve("IN needs a column".into()));
            };
            expect_column_type(table, name, ColumnType::Categorical)?;
            let items = list
                .iter()
                .map(|lit| cat_slot(lit, params))
                .collect::<Result<Vec<CatSlot>>>()?;
            Ok(PredTemplate::CatIn {
                col: name.clone(),
                items,
            })
        }
        WherePred::Cmp { op, lhs, rhs } => {
            // Normalize the column to the left.
            let (name, lit, op) = match (lhs, rhs) {
                (ScalarExpr::Column { name, .. }, lit) if !is_column(lit) => (name, lit, *op),
                (lit, ScalarExpr::Column { name, .. }) if !is_column(lit) => (name, lit, flip(*op)),
                _ => {
                    return Err(SqlError::Resolve(
                        "comparison must be column vs literal".into(),
                    ))
                }
            };
            let col_ty = table.schema().column(name)?.ty;
            match col_ty {
                ColumnType::Numeric => {
                    let slot = num_slot(lit, params).map_err(|_| {
                        SqlError::Resolve(format!(
                            "numeric column {name} compared to non-numeric literal"
                        ))
                    })?;
                    Ok(match op {
                        CmpOp::Eq => PredTemplate::NumEq {
                            col: name.clone(),
                            value: slot,
                        },
                        CmpOp::Lt | CmpOp::LtEq => PredTemplate::Less {
                            col: name.clone(),
                            bound: slot,
                            inclusive: op == CmpOp::LtEq,
                        },
                        CmpOp::Gt | CmpOp::GtEq => PredTemplate::Greater {
                            col: name.clone(),
                            bound: slot,
                            inclusive: op == CmpOp::GtEq,
                        },
                        CmpOp::NotEq => {
                            return Err(SqlError::Resolve(
                                "numeric <> creates a disjunctive region".into(),
                            ))
                        }
                    })
                }
                ColumnType::Categorical => {
                    let item = cat_slot(lit, params)?;
                    match op {
                        CmpOp::Eq => Ok(PredTemplate::CatIn {
                            col: name.clone(),
                            items: vec![item],
                        }),
                        CmpOp::NotEq => Ok(PredTemplate::CatComplement {
                            col: name.clone(),
                            items: vec![item],
                        }),
                        _ => Err(SqlError::Resolve(format!(
                            "ordered comparison on categorical column {name}"
                        ))),
                    }
                }
            }
        }
    }
}

fn is_column(e: &ScalarExpr) -> bool {
    matches!(e, ScalarExpr::Column { .. })
}

fn expect_column_type(table: &Table, name: &str, ty: ColumnType) -> Result<()> {
    let actual = table.schema().column(name)?.ty;
    if actual != ty {
        return Err(SqlError::Resolve(format!(
            "column {name} is {actual:?}, expected {ty:?} here"
        )));
    }
    Ok(())
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::GtEq,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::LtEq,
        other => other,
    }
}

/// The value bound to numeric placeholder `index`.
fn num_param(index: usize, value: &Value) -> Result<f64> {
    match value {
        Value::Num(v) => Ok(*v),
        other => Err(SqlError::PlaceholderType {
            index,
            message: format!("numeric column placeholder bound with {other}"),
        }),
    }
}

/// The raw code a number bound to categorical placeholder `index` names.
fn code_param(index: usize, n: f64) -> Result<u32> {
    raw_code(n).ok_or_else(|| SqlError::PlaceholderType {
        index,
        message: format!("categorical column placeholder bound with {n}, not a dictionary code"),
    })
}

fn bind_num(slot: &NumSlot, params: &[Value]) -> Result<f64> {
    match slot {
        NumSlot::Const(v) => Ok(*v),
        NumSlot::Param(i) => num_param(*i, &params[*i]),
    }
}

/// Resolves categorical slots to dictionary codes: unknown labels map to
/// no code (match nothing), numbers are raw codes.
fn bind_cat(items: &[CatSlot], table: &Table, col: &str, params: &[Value]) -> Result<Vec<u32>> {
    let column = table.column(col)?;
    let mut codes = Vec::with_capacity(items.len());
    for item in items {
        match item {
            CatSlot::Code(c) => codes.push(*c),
            CatSlot::Label(s) => codes.extend(column.code_of(s)),
            CatSlot::Param(i) => match &params[*i] {
                Value::Str(s) => codes.extend(column.code_of(s)),
                Value::Cat(c) => codes.push(*c),
                Value::Num(n) => codes.push(code_param(*i, *n)?),
            },
        }
    }
    Ok(codes)
}

/// Binds a compiled template against `table`'s dictionaries: the one
/// place SQL literals and parameters become a [`Predicate`].
fn bind_template(template: &PredTemplate, table: &Table, params: &[Value]) -> Result<Predicate> {
    Ok(match template {
        PredTemplate::True => Predicate::True,
        PredTemplate::And(l, r) => {
            bind_template(l, table, params)?.and(bind_template(r, table, params)?)
        }
        PredTemplate::Between { col, lo, hi } => {
            Predicate::between(col, bind_num(lo, params)?, bind_num(hi, params)?)
        }
        PredTemplate::Less {
            col,
            bound,
            inclusive,
        } => Predicate::less_than(col, bind_num(bound, params)?, *inclusive),
        PredTemplate::Greater {
            col,
            bound,
            inclusive,
        } => Predicate::greater_than(col, bind_num(bound, params)?, *inclusive),
        PredTemplate::NumEq { col, value } => {
            let v = bind_num(value, params)?;
            Predicate::between(col, v, v)
        }
        PredTemplate::CatIn { col, items } => {
            Predicate::cat_in(col, bind_cat(items, table, col, params)?)
        }
        PredTemplate::CatComplement { col, items } => {
            let codes = bind_cat(items, table, col, params)?;
            // Complement within the dictionary observed *now*.
            let card = table.column(col)?.cardinality().unwrap_or(0) as u32;
            let all: Vec<u32> = (0..card).filter(|c| !codes.contains(c)).collect();
            Predicate::cat_in(col, all)
        }
    })
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

    fn code(t: &Table, label: &str) -> u32 {
        t.column("region").unwrap().code_of(label).unwrap()
    }

    /// `cond` is a `WHERE` condition with `{}` where a literal goes: bound
    /// with `params` at `?`s there, and resolved through `to_predicate`
    /// with them written inline, it must give `expected` both ways.
    fn assert_resolves(t: &Table, cond: &str, params: &[Value], expected: &Predicate) {
        let select = |w: &str| parse_query(&format!("SELECT AVG(rev) FROM t WHERE {w}")).unwrap();
        let prepared = prepare_query(&select(&cond.replace("{}", "?")), t).unwrap();
        assert_eq!(&prepared.bind(t, params).unwrap(), expected, "{cond}");
        let inlined = params.iter().fold(cond.to_owned(), |w, p| {
            let literal = match p {
                Value::Str(s) => format!("'{s}'"),
                Value::Num(n) => n.to_string(),
                Value::Cat(c) => c.to_string(),
            };
            w.replacen("{}", &literal, 1)
        });
        let tree = select(&inlined).where_clause.unwrap();
        assert_eq!(&to_predicate(&tree, t).unwrap(), expected, "{inlined}");
    }

    /// Every predicate form with its expectation written out: what a
    /// statement resolves to is the region its snippets are recorded and
    /// correlated under, so each rule is pinned to a constructor.
    #[test]
    fn bound_predicates_match_ad_hoc_resolution() {
        let t = table();
        let (us, eu, jp) = (code(&t, "us"), code(&t, "eu"), code(&t, "jp"));
        let between = Predicate::between;
        let (lt, gt) = (Predicate::less_than, Predicate::greater_than);
        let region = |codes: &[u32]| Predicate::cat_in("region", codes.to_vec());
        let num = Value::Num;
        let label = |s: &str| Value::Str(s.into());
        let cases = [
            (
                "week BETWEEN {} AND {}",
                vec![num(1.0), num(3.0)],
                between("week", 1.0, 3.0),
            ),
            (
                "week > {} AND region = {}",
                vec![num(2.0), label("us")],
                gt("week", 2.0, false).and(region(&[us])),
            ),
            (
                "week < {} AND week <= {} AND week >= {}",
                vec![num(4.0), num(3.0), num(-1.0)],
                lt("week", 4.0, false)
                    .and(lt("week", 3.0, true))
                    .and(gt("week", -1.0, true)),
            ),
            // Flipped operands: the column moves left, the operator turns.
            ("{} >= week", vec![num(2.0)], lt("week", 2.0, true)),
            ("{} < week", vec![num(2.0)], gt("week", 2.0, false)),
            // Numeric `=` is a point range.
            ("week = {}", vec![num(3.0)], between("week", 3.0, 3.0)),
            // `<>` complements within the dictionary.
            ("region <> {}", vec![label("eu")], region(&[us, jp])),
            ("region IN ({}, 'jp')", vec![label("us")], region(&[us, jp])),
            // An unknown label matches nothing; its complement, everything.
            ("region = {}", vec![label("mars")], region(&[])),
            ("region <> {}", vec![label("mars")], region(&[us, eu, jp])),
            // Raw codes: a `Value::Cat` or integral `Value::Num` bound, a
            // number inline.
            ("region = {}", vec![Value::Cat(eu)], region(&[eu])),
            ("region = {}", vec![num(f64::from(jp))], region(&[jp])),
            // Mixed constants and parameters.
            (
                "week BETWEEN 1 AND {} AND region = 'us'",
                vec![num(4.0)],
                between("week", 1.0, 4.0).and(region(&[us])),
            ),
        ];
        for (cond, params, expected) in &cases {
            assert_resolves(&t, cond, params, expected);
        }
    }

    /// Labels and `<>` complements resolve against the dictionary of the
    /// table bound against, not the one compiled against: a label ingested
    /// after `prepare` is found, and joins every complement.
    #[test]
    fn labels_and_complements_resolve_at_bind_time() {
        let mut t = table();
        let prepare = |sql: &str| prepare_query(&parse_query(sql).unwrap(), &t).unwrap();
        let eq = prepare("SELECT AVG(rev) FROM t WHERE region = ?");
        let ne = prepare("SELECT AVG(rev) FROM t WHERE region <> ?");
        let ne_us = prepare("SELECT AVG(rev) FROM t WHERE region <> 'us'");
        let (us, eu, jp) = (code(&t, "us"), code(&t, "eu"), code(&t, "jp"));
        let region = |codes: &[u32]| Predicate::cat_in("region", codes.to_vec());
        let br = [Value::Str("br".into())];
        assert_eq!(eq.bind(&t, &br).unwrap(), region(&[]));

        t.push_row(vec![5.0.into(), "br".into(), 50.0.into()])
            .unwrap();
        let new = code(&t, "br");
        assert_eq!(eq.bind(&t, &br).unwrap(), region(&[new]));
        assert_eq!(ne.bind(&t, &br).unwrap(), region(&[us, eu, jp]));
        assert_eq!(ne_us.bind(&t, &[]).unwrap(), region(&[eu, jp, new]));
    }

    /// A number in a categorical position names a raw code only when it
    /// is one; `as u32` would answer `-1` and `NaN` for the first label.
    #[test]
    fn non_code_numbers_in_categorical_positions_are_typed_errors() {
        let t = table();
        let q = parse_query("SELECT AVG(rev) FROM t WHERE week > ? AND region = ?").unwrap();
        let p = prepare_query(&q, &t).unwrap();
        for bad in [-1.0, 1.5, f64::NAN, f64::INFINITY, 1e12] {
            let params = [Value::Num(0.0), Value::Num(bad)];
            for err in [p.check_params(&params), p.bind(&t, &params).map(drop)] {
                assert!(
                    matches!(err, Err(SqlError::PlaceholderType { index: 1, .. })),
                    "{bad}: {err:?}"
                );
            }
        }
        for cond in ["region = 1.5", "region IN ('us', 1e12)"] {
            let q = parse_query(&format!("SELECT AVG(rev) FROM t WHERE {cond}")).unwrap();
            let err = to_predicate(&q.where_clause.unwrap(), &t).unwrap_err();
            assert!(matches!(err, SqlError::Resolve(_)), "{cond}: {err:?}");
        }
        assert_eq!(raw_code(f64::from(u32::MAX)), Some(u32::MAX));
    }

    #[test]
    fn wrong_count_is_typed_error() {
        let t = table();
        let q = parse_query("SELECT AVG(rev) FROM t WHERE week BETWEEN ? AND ?").unwrap();
        let p = prepare_query(&q, &t).unwrap();
        assert_eq!(p.placeholder_count(), 2);
        match p.bind(&t, &[Value::Num(1.0)]).unwrap_err() {
            SqlError::PlaceholderCount { expected, got } => {
                assert_eq!((expected, got), (2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_type_is_typed_error() {
        let t = table();
        let q = parse_query("SELECT AVG(rev) FROM t WHERE week > ?").unwrap();
        let p = prepare_query(&q, &t).unwrap();
        assert_eq!(p.param_kinds(), &[ParamKind::Numeric]);
        match p.bind(&t, &[Value::Str("us".into())]).unwrap_err() {
            SqlError::PlaceholderType { index, .. } => assert_eq!(index, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn placeholder_outside_where_refused() {
        let t = table();
        for sql in [
            "SELECT AVG(?) FROM t",
            "SELECT week, COUNT(*) FROM t GROUP BY week HAVING COUNT(*) > ?",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(prepare_query(&q, &t).is_err(), "{sql}");
        }
    }

    #[test]
    fn prepared_plan_shape_matches_plan_scan() {
        let t = table();
        let sql_prepared = "SELECT AVG(rev), SUM(rev), COUNT(*) FROM t WHERE week BETWEEN ? AND ?";
        let sql_inline = "SELECT AVG(rev), SUM(rev), COUNT(*) FROM t WHERE week BETWEEN 1 AND 3";
        let qp = parse_query(sql_prepared).unwrap();
        let qi = parse_query(sql_inline).unwrap();
        let p = prepare_query(&qp, &t).unwrap();
        let plan_p = p
            .plan(&t, &[Value::Num(1.0), Value::Num(3.0)], &[], 100)
            .unwrap();
        let plan_i = crate::plan_scan(&qi, &t, &[], 100).unwrap();
        assert_eq!(plan_p.base_predicate, plan_i.base_predicate);
        assert_eq!(plan_p.primitives, plan_i.primitives);
        assert_eq!(plan_p.group_predicates, plan_i.group_predicates);
        assert_eq!(plan_p.num_cells(), plan_i.num_cells());
    }

    #[test]
    fn grouped_prepared_plan_expands_groups() {
        let t = table();
        let q =
            parse_query("SELECT region, COUNT(*) FROM t WHERE week >= ? GROUP BY region").unwrap();
        let p = prepare_query(&q, &t).unwrap();
        let us = Value::Cat(t.column("region").unwrap().code_of("us").unwrap());
        let eu = Value::Cat(t.column("region").unwrap().code_of("eu").unwrap());
        let keys = [vec![us], vec![eu]];
        let plan = p.plan(&t, &[Value::Num(1.0)], &keys, 100).unwrap();
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.group_cols, vec!["region".to_owned()]);
    }
}
