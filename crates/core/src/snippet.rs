//! Query snippets and raw observations.
//!
//! A snippet (paper Definition 1) is a supported query whose answer is a
//! single scalar. Verdict reduces every supported aggregate to one of two
//! internal primitives (§2.3): `AVG(expr)` over a measure expression, or
//! `FREQ(*)` — the fraction of tuples selected. `COUNT` and `SUM` are
//! recovered at the edges:
//!
//! ```text
//! COUNT(*) = round(FREQ(*) × N)        SUM(e) = AVG(e) × COUNT(*)
//! ```

use crate::Region;

/// Identity of an internal aggregate function `g`. Verdict maintains one
/// model (lengthscales, σ², synopsis) per `AggKey`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggKey {
    /// `AVG(expr)` — keyed by the canonical display form of the measure
    /// expression (e.g. `"revenue"`, `"(price * (1 - discount))"`).
    Avg(String),
    /// `FREQ(*)`.
    Freq,
}

impl AggKey {
    /// Key for `AVG` over a named measure column.
    pub fn avg(expr: &str) -> AggKey {
        AggKey::Avg(expr.to_owned())
    }

    /// Whether this is the `FREQ(*)` primitive.
    pub fn is_freq(&self) -> bool {
        matches!(self, AggKey::Freq)
    }

    /// Qualifies this key with the table it was learned over, yielding
    /// its catalog-level identity.
    pub fn qualify(&self, table: &str) -> QualifiedAggKey {
        QualifiedAggKey::new(table, self.clone())
    }
}

/// The catalog-level identity of a learned aggregate: an [`AggKey`]
/// qualified by the table it was learned over.
///
/// Within one table's engine, keys are unqualified (`AVG(rev)`), exactly
/// as before the multi-table catalog existed — which is what keeps
/// single-table state bytes stable across the API generations. A
/// multi-table `Database` holds one engine *per table*, so
/// `orders.AVG(rev)` and `events.AVG(rev)` live in disjoint synopses and
/// can never collide; this type is how the catalog surface names them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QualifiedAggKey {
    /// The table the aggregate was learned over.
    pub table: String,
    /// The per-table aggregate key.
    pub key: AggKey,
}

impl QualifiedAggKey {
    /// Constructs a qualified key.
    pub fn new(table: impl Into<String>, key: AggKey) -> Self {
        QualifiedAggKey {
            table: table.into(),
            key,
        }
    }

    /// Key for `AVG` over a named measure expression of `table`.
    pub fn avg(table: &str, expr: &str) -> Self {
        QualifiedAggKey::new(table, AggKey::avg(expr))
    }

    /// Key for `FREQ(*)` of `table`.
    #[cfg(test)]
    pub(crate) fn freq(table: &str) -> Self {
        QualifiedAggKey::new(table, AggKey::Freq)
    }
}

impl std::fmt::Display for QualifiedAggKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.key)
    }
}

impl std::fmt::Display for AggKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggKey::Avg(e) => write!(f, "AVG({e})"),
            AggKey::Freq => write!(f, "FREQ(*)"),
        }
    }
}

/// An internal query snippet: an aggregate primitive over a region.
#[derive(Debug, Clone, PartialEq)]
pub struct Snippet {
    /// Which internal aggregate.
    pub key: AggKey,
    /// The predicate region `F_i`.
    pub region: Region,
}

impl Snippet {
    /// Constructs a snippet.
    pub fn new(key: AggKey, region: Region) -> Self {
        Snippet { key, region }
    }
}

/// A raw `(θ, β)` observation from the AQP engine for one snippet.
///
/// `Verdict` treats the AQP engine as a black box; this is the entire
/// interface between them (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Raw approximate answer `θ_i`.
    pub answer: f64,
    /// Raw expected error `β_i` (standard error of `θ_i`).
    pub error: f64,
}

impl Observation {
    /// Constructs an observation.
    pub fn new(answer: f64, error: f64) -> Self {
        Observation { answer, error }
    }

    /// An exact observation (zero error), useful in tests.
    #[cfg(test)]
    pub(crate) fn exact(answer: f64) -> Self {
        Observation { answer, error: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DimensionSpec, SchemaInfo};

    #[test]
    fn qualified_keys_namespace_by_table() {
        let orders = AggKey::avg("rev").qualify("orders");
        let events = AggKey::avg("rev").qualify("events");
        assert_ne!(orders, events, "same expression, different tables");
        assert_eq!(orders.to_string(), "orders.AVG(rev)");
        assert_eq!(
            QualifiedAggKey::freq("events").to_string(),
            "events.FREQ(*)"
        );
        assert_eq!(QualifiedAggKey::avg("orders", "rev"), orders);
    }

    #[test]
    fn agg_key_display() {
        assert_eq!(AggKey::avg("rev").to_string(), "AVG(rev)");
        assert_eq!(AggKey::Freq.to_string(), "FREQ(*)");
        assert!(AggKey::Freq.is_freq());
        assert!(!AggKey::avg("rev").is_freq());
    }

    #[test]
    fn agg_keys_hashable_and_distinct() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(AggKey::avg("a"));
        set.insert(AggKey::avg("b"));
        set.insert(AggKey::Freq);
        set.insert(AggKey::avg("a"));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn snippet_holds_region() {
        let schema = SchemaInfo::new(vec![DimensionSpec::numeric("x", 0.0, 1.0)]).unwrap();
        let s = Snippet::new(AggKey::Freq, crate::Region::full(&schema));
        assert_eq!(s.key, AggKey::Freq);
    }

    #[test]
    fn observation_constructors() {
        let o = Observation::new(5.0, 0.3);
        assert_eq!(o.answer, 5.0);
        assert_eq!(o.error, 0.3);
        assert_eq!(Observation::exact(2.0).error, 0.0);
    }
}
