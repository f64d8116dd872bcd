//! SQL front-end for Verdict.
//!
//! The paper runs on Spark SQL; this crate is the reproduction's SQL layer:
//!
//! - [`lexer`]/[`parser`]: a recursive-descent parser for flat analytic
//!   `SELECT` queries (aggregates, FK joins, conjunctive/disjunctive
//!   predicates, `GROUP BY`, `HAVING`) — deliberately *wider* than
//!   Verdict's supported class so the type checker has real work to do;
//! - [`ast`]: the parsed representation;
//! - [`checker`]: the supported-query type checker of §2.2 — decides
//!   whether Verdict can learn from/improve a query and reports the exact
//!   reason when it cannot (disjunction, `LIKE`, `MIN`/`MAX`, nesting, …);
//! - [`decompose`] ([`ScanPlan`]): query → snippets (Figure 3): one
//!   snippet per (aggregate function × group value), with group values
//!   injected as equality predicates and capped at `N_max`, laid out for
//!   one shared scan (deduplicated primitive streams);
//! - [`resolve`]: binds aggregate expressions and group values against a
//!   concrete table and resolves `FROM` names against a catalog of
//!   registered tables;
//! - [`prepared`]: the one statement path. [`prepare_query`] compiles a
//!   checked query into a plan template whose literal positions are slots
//!   (constants or `?` parameters); each execution binds them and assembles
//!   the [`ScanPlan`]. Nothing else turns SQL into a storage `Predicate`: an
//!   ad-hoc statement ([`plan_scan`]) is a prepared one with no placeholders.

pub mod ast;
pub mod checker;
pub mod decompose;
pub mod lexer;
pub mod parser;
pub mod prepared;
pub mod resolve;

pub use ast::{AggFunc, Query, ScalarExpr, SelectItem, WherePred};
pub use checker::{check_query, SupportVerdict, UnsupportedReason};
pub use decompose::{plan_scan, AggregateSpec, Combiner, ScanPlan};
pub use parser::parse_query;
pub use prepared::{prepare_query, ParamKind, PreparedQuery};
pub use resolve::resolve_from;

/// Errors from the SQL front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error with position.
    Lex {
        /// Byte offset in the input.
        position: usize,
        /// Description.
        message: String,
    },
    /// Parse error with the offending token.
    Parse {
        /// Token index.
        position: usize,
        /// Description.
        message: String,
    },
    /// Semantic resolution error (unknown column/table, type mismatch).
    Resolve(String),
    /// `FROM` (or a catalog lookup) names a table the catalog does not
    /// know.
    UnknownTable {
        /// The unresolved table name.
        name: String,
        /// The catalog's registered table names.
        known: Vec<String>,
    },
    /// A prepared statement was bound with the wrong number of parameters.
    PlaceholderCount {
        /// Placeholders in the statement.
        expected: usize,
        /// Parameters supplied to `bind`.
        got: usize,
    },
    /// A bound parameter's type does not fit its placeholder's column.
    PlaceholderType {
        /// Zero-based placeholder index.
        index: usize,
        /// What was expected vs supplied.
        message: String,
    },
    /// Storage-layer error.
    Storage(verdict_storage::StorageError),
}

impl From<verdict_storage::StorageError> for SqlError {
    fn from(e: verdict_storage::StorageError) -> Self {
        SqlError::Storage(e)
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            SqlError::Parse { position, message } => {
                write!(f, "parse error at token {position}: {message}")
            }
            SqlError::Resolve(m) => write!(f, "resolution error: {m}"),
            SqlError::UnknownTable { name, known } => {
                write!(
                    f,
                    "unknown table {name}; catalog has [{}]",
                    known.join(", ")
                )
            }
            SqlError::PlaceholderCount { expected, got } => {
                write!(f, "statement has {expected} placeholder(s), {got} bound")
            }
            SqlError::PlaceholderType { index, message } => {
                write!(f, "parameter {index} type mismatch: {message}")
            }
            SqlError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SqlError>;
