//! Database Learning (DBL) — the Verdict inference engine.
//!
//! This crate implements the paper's contribution: a layer that learns from
//! past approximate query answers and uses a maximum-entropy probabilistic
//! model to improve future answers. The pipeline:
//!
//! 1. every supported query snippet is reduced to an *internal aggregate*
//!    ([`AggKey`]: `AVG(expr)` or `FREQ(*)`, paper §2.3) over a predicate
//!    [`Region`] (a hyper-rectangle over numeric dimensions × code sets
//!    over categorical dimensions, §4.1);
//! 2. past snippets and their raw answers live in a per-aggregate
//!    [`synopsis::QuerySynopsis`] with LRU eviction (§2.3);
//! 3. the [`kernel`] module evaluates the squared-exponential inter-tuple
//!    covariance **analytically integrated** over region pairs
//!    (Eq. 9/10, Appendix F.1/F.2) — no per-tuple work, so the domain size
//!    never enters the complexity (Lemma 2);
//! 4. [`learning`] fits the correlation lengthscales by maximizing the
//!    Gaussian log marginal likelihood (Eq. 13) with a Nelder–Mead
//!    simplex, and estimates `σ²_g` and the prior mean analytically
//!    (Appendix F.3);
//! 5. [`inference`] conditions the maximum-entropy Gaussian (Lemma 1) on
//!    observed answers, in the O(n²) form of Eqs. (11)/(12), yielding the
//!    improved answer/error with the Theorem 1 guarantee `β̂ ≤ β`;
//! 6. [`validation`] rejects implausible model answers (Appendix B);
//! 7. [`append`] keeps old snippets usable after data is appended
//!    (Appendix D, Lemma 3);
//! 8. [`engine::Verdict`] wires it all together behind a black-box-AQP
//!    interface: feed it `(snippet, raw answer, raw error)` triples, get
//!    improved answers back.

pub mod append;
pub mod concurrent;
pub mod config;
pub mod covariance;
pub mod engine;
pub mod inference;
pub mod kernel;
pub mod learning;
pub mod optimizer;
pub mod persist;
pub mod region;
pub mod snippet;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;
pub mod synopsis;
pub mod validation;

pub use append::{AppendAdjustment, IngestBounds, ShiftMoments};
pub use concurrent::{EngineSnapshot, Learner};
pub use config::VerdictConfig;
pub use engine::{
    EngineStats, EngineView, ImprovedAnswer, SnippetObserver, StagedIngest, TrainReport, Verdict,
};
pub use kernel::KernelParams;
pub use persist::{EngineState, Persist, PersistError};
pub use region::{DimKind, DimensionSpec, Region, SchemaInfo};
pub use snippet::{AggKey, Observation, QualifiedAggKey, Snippet};
pub use synopsis::QuerySynopsis;

/// Errors raised by the inference engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying storage error (predicate/region extraction).
    Storage(verdict_storage::StorageError),
    /// Linear-algebra failure (covariance matrix not factorizable).
    Linalg(verdict_linalg::LinalgError),
    /// The snippet does not fit the declared schema.
    SchemaMismatch(String),
    /// The model has not been trained yet.
    NotTrained,
}

impl From<verdict_storage::StorageError> for CoreError {
    fn from(e: verdict_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<verdict_linalg::LinalgError> for CoreError {
    fn from(e: verdict_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            CoreError::NotTrained => write!(f, "model has not been trained"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
