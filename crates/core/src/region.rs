//! Predicate regions `F_i` over the dimension-attribute space.
//!
//! The paper (§4.1) represents each snippet's selection predicate as the
//! product of per-attribute constraints: a range `(s_{i,k}, e_{i,k})` for
//! each numeric dimension attribute (defaulting to the attribute's full
//! domain when unconstrained) and a value set for each categorical
//! dimension attribute (Appendix F.2). A [`Region`] is exactly that product,
//! aligned against a declared [`SchemaInfo`] describing the dimension
//! universe.

use verdict_storage::predicate::ColumnConstraint;
use verdict_storage::Predicate;

use crate::append::{DimBounds, IngestBounds};
use crate::{CoreError, Result};

/// Kind and domain of one dimension attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum DimKind {
    /// Numeric attribute with domain `[lo, hi]`.
    Numeric {
        /// Domain minimum (`min(Ak)` in the paper).
        lo: f64,
        /// Domain maximum (`max(Ak)`).
        hi: f64,
    },
    /// Categorical attribute with codes `0..cardinality`.
    Categorical {
        /// Number of distinct codes in the domain.
        cardinality: u32,
    },
}

/// One dimension attribute of the learned relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionSpec {
    /// Attribute name (matches predicate column names).
    pub name: String,
    /// Kind and domain.
    pub kind: DimKind,
}

impl DimensionSpec {
    /// Numeric dimension helper.
    pub fn numeric(name: &str, lo: f64, hi: f64) -> Self {
        DimensionSpec {
            name: name.to_owned(),
            kind: DimKind::Numeric { lo, hi },
        }
    }

    /// Categorical dimension helper.
    pub fn categorical(name: &str, cardinality: u32) -> Self {
        DimensionSpec {
            name: name.to_owned(),
            kind: DimKind::Categorical { cardinality },
        }
    }
}

/// The declared dimension universe Verdict learns over.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaInfo {
    dims: Vec<DimensionSpec>,
}

impl SchemaInfo {
    /// Builds a schema description; dimension names must be unique.
    pub fn new(dims: Vec<DimensionSpec>) -> Result<Self> {
        for (i, d) in dims.iter().enumerate() {
            if dims[..i].iter().any(|p| p.name == d.name) {
                return Err(CoreError::SchemaMismatch(format!(
                    "duplicate dimension {}",
                    d.name
                )));
            }
            if let DimKind::Numeric { lo, hi } = d.kind {
                if lo > hi || lo.is_nan() || hi.is_nan() {
                    return Err(CoreError::SchemaMismatch(format!(
                        "dimension {} has empty domain [{lo}, {hi}]",
                        d.name
                    )));
                }
            }
        }
        Ok(SchemaInfo { dims })
    }

    /// Derives the dimension universe from a concrete table: numeric
    /// dimension columns contribute their observed `[min, max]` domain
    /// (the paper's `(min(Ak), max(Ak))` default, §4.1) and categorical
    /// columns their dictionary cardinality. Measure columns are skipped.
    pub fn from_table(table: &verdict_storage::Table) -> Result<SchemaInfo> {
        use verdict_storage::{AttributeRole, ColumnType};
        let mut dims = Vec::new();
        for def in table.schema().columns() {
            if def.role != AttributeRole::Dimension {
                continue;
            }
            match def.ty {
                ColumnType::Numeric => {
                    let (lo, hi) = table.column_bounds(&def.name)?;
                    dims.push(DimensionSpec::numeric(&def.name, lo, hi));
                }
                ColumnType::Categorical => {
                    let col = table.column(&def.name)?;
                    let observed = col.cardinality().unwrap_or(0);
                    // Codes need not be dense: size the domain by the
                    // largest observed code as well.
                    let max_code = col
                        .categorical()?
                        .iter()
                        .copied()
                        .max()
                        .map_or(0, |m| m as usize + 1);
                    dims.push(DimensionSpec::categorical(
                        &def.name,
                        observed.max(max_code) as u32,
                    ));
                }
            }
        }
        SchemaInfo::new(dims)
    }

    /// Dimension specs in declaration order.
    pub fn dims(&self) -> &[DimensionSpec] {
        &self.dims
    }

    /// Number of dimensions (the paper's `l`).
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether there are no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Index of a dimension by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d.name == name)
    }

    /// Indices of numeric dimensions (lengthscales are learned for these).
    pub fn numeric_indices(&self) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.kind, DimKind::Numeric { .. }))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-dimension constraint inside a region.
#[derive(Debug, Clone, PartialEq)]
pub enum DimConstraint {
    /// Numeric interval `[lo, hi]` (clamped to the domain).
    Range {
        /// Interval start `s_{i,k}`.
        lo: f64,
        /// Interval end `e_{i,k}`.
        hi: f64,
    },
    /// Categorical code set; `None` means the full domain (paper F.2: a
    /// universal set).
    Set(Option<Vec<u32>>),
}

impl DimConstraint {
    /// Bitwise identity: both interval ends equal by `to_bits` (so `-0.0`
    /// is not `0.0`, and a NaN end equals itself), or the same code set —
    /// the universal `None` is not an explicit set that lists every code.
    /// Two constraints that are the same bits give the same covariance
    /// factor against any third, which is what lets
    /// [`crate::covariance::RegionIndex`] integrate each distinct one once.
    pub fn same_bits(&self, other: &DimConstraint) -> bool {
        match (self, other) {
            (DimConstraint::Range { lo: a, hi: b }, DimConstraint::Range { lo: c, hi: d }) => {
                a.to_bits() == c.to_bits() && b.to_bits() == d.to_bits()
            }
            (DimConstraint::Set(a), DimConstraint::Set(b)) => a == b,
            _ => false,
        }
    }

    fn codes(&self) -> &Option<Vec<u32>> {
        match self {
            DimConstraint::Set(s) => s,
            DimConstraint::Range { .. } => panic!("categorical factor on numeric dimension"),
        }
    }

    /// Size of the categorical overlap `|F_{i,k} ∩ F_{j,k}|` (either
    /// operand may be the universal set).
    pub(crate) fn set_overlap(&self, other: &DimConstraint, cardinality: u32) -> f64 {
        match (self.codes(), other.codes()) {
            (None, None) => cardinality as f64,
            (Some(s), None) | (None, Some(s)) => s.len() as f64,
            (Some(s1), Some(s2)) => {
                // Both sorted (Predicate::cat_in sorts; filter preserves order).
                let mut i = 0;
                let mut j = 0;
                let mut count = 0usize;
                while i < s1.len() && j < s2.len() {
                    match s1[i].cmp(&s2[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                count as f64
            }
        }
    }

    /// Size `|F_{i,k}|` of a categorical constraint.
    pub(crate) fn set_size(&self, cardinality: u32) -> f64 {
        match self.codes() {
            None => cardinality as f64,
            Some(s) => s.len() as f64,
        }
    }
}

/// A snippet's predicate region `F_i`, aligned to a [`SchemaInfo`].
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    constraints: Vec<DimConstraint>,
}

impl Region {
    /// The unconstrained region (whole domain) for `schema`.
    pub fn full(schema: &SchemaInfo) -> Region {
        let constraints = schema
            .dims()
            .iter()
            .map(|d| match &d.kind {
                DimKind::Numeric { lo, hi } => DimConstraint::Range { lo: *lo, hi: *hi },
                DimKind::Categorical { .. } => DimConstraint::Set(None),
            })
            .collect();
        Region { constraints }
    }

    /// Builds the region for `predicate` against `schema`: ranges are
    /// intersected with the domain; unconstrained dimensions default to the
    /// full domain (§4.1). Predicate columns that are not declared
    /// dimensions are an error (the caller's type checker should have
    /// rejected the query), and so is a NaN range bound: no row satisfies
    /// it, while clamping would widen it to the domain edge, so it is no
    /// region the model could answer (the cell passes its raw answer
    /// through and teaches nothing). Infinite bounds clamp to the domain.
    pub fn from_predicate(schema: &SchemaInfo, predicate: &Predicate) -> Result<Region> {
        let mut region = Region::full(schema);
        let nf = predicate.normal_form()?;
        for (col, constraint) in nf {
            let Some(idx) = schema.index_of(&col) else {
                return Err(CoreError::SchemaMismatch(format!(
                    "predicate references undeclared dimension {col}"
                )));
            };
            match (&schema.dims()[idx].kind, constraint) {
                (DimKind::Numeric { .. }, ColumnConstraint::Range(r))
                    if r.lo.is_nan() || r.hi.is_nan() =>
                {
                    return Err(CoreError::SchemaMismatch(format!(
                        "NaN range bound on dimension {col}"
                    )))
                }
                (DimKind::Numeric { lo, hi }, ColumnConstraint::Range(r)) => {
                    let s = r.lo.max(*lo);
                    let e = r.hi.min(*hi);
                    region.constraints[idx] = DimConstraint::Range { lo: s, hi: e };
                }
                (DimKind::Categorical { cardinality }, ColumnConstraint::In(codes)) => {
                    let codes: Vec<u32> = codes.into_iter().filter(|c| c < cardinality).collect();
                    region.constraints[idx] = DimConstraint::Set(Some(codes));
                }
                (DimKind::Numeric { .. }, ColumnConstraint::In(_)) => {
                    return Err(CoreError::SchemaMismatch(format!(
                        "categorical constraint on numeric dimension {col}"
                    )))
                }
                (DimKind::Categorical { .. }, ColumnConstraint::Range(_)) => {
                    return Err(CoreError::SchemaMismatch(format!(
                        "range constraint on categorical dimension {col}"
                    )))
                }
            }
        }
        Ok(region)
    }

    /// Per-dimension constraints (parallel to the schema's dims).
    pub fn constraints(&self) -> &[DimConstraint] {
        &self.constraints
    }

    /// Whether the region has one constraint per dimension of `schema`,
    /// each of its dimension's kind — as every region built against
    /// `schema` has.
    pub(crate) fn fits(&self, schema: &SchemaInfo) -> bool {
        self.constraints.len() == schema.len()
            && self.constraints.iter().zip(schema.dims()).all(|(c, d)| {
                matches!(
                    (c, &d.kind),
                    (DimConstraint::Range { .. }, DimKind::Numeric { .. })
                        | (DimConstraint::Set(_), DimKind::Categorical { .. })
                )
            })
    }

    /// Rebuilds a region from persisted constraints (see [`crate::persist`]).
    /// The caller is responsible for alignment with the schema the region
    /// was originally built against.
    pub fn from_constraints(constraints: Vec<DimConstraint>) -> Region {
        Region { constraints }
    }

    /// The numeric interval of dimension `idx` (domain interval for
    /// categorical dims is an error).
    pub fn range(&self, idx: usize) -> Option<(f64, f64)> {
        match &self.constraints[idx] {
            DimConstraint::Range { lo, hi } => Some((*lo, *hi)),
            DimConstraint::Set(_) => None,
        }
    }

    /// Volume `|F_i|`: the product of numeric widths and categorical set
    /// sizes (Appendix F.3 uses the numeric part for FREQ priors; the
    /// categorical part enters normalized AVG covariances).
    ///
    /// Zero-width numeric intervals (equality predicates) contribute a
    /// small positive floor relative to the domain so FREQ densities stay
    /// finite.
    pub fn volume(&self, schema: &SchemaInfo) -> f64 {
        let mut v = 1.0;
        for (c, d) in self.constraints.iter().zip(schema.dims()) {
            match (c, &d.kind) {
                (DimConstraint::Range { lo, hi }, DimKind::Numeric { lo: dlo, hi: dhi }) => {
                    let width = (hi - lo).max(0.0);
                    let domain = (dhi - dlo).max(f64::MIN_POSITIVE);
                    // Equality predicates: treat as a sliver 1e-6 of domain.
                    let floor = domain * 1e-6;
                    v *= width.max(floor);
                }
                (DimConstraint::Set(set), DimKind::Categorical { cardinality }) => {
                    let size = match set {
                        Some(s) => s.len() as f64,
                        None => *cardinality as f64,
                    };
                    v *= size.max(1e-12);
                }
                _ => unreachable!("region constraints parallel schema dims"),
            }
        }
        v
    }

    /// Whether the region selects nothing (empty range or empty set).
    pub(crate) fn is_degenerate(&self) -> bool {
        self.constraints.iter().any(|c| match c {
            DimConstraint::Range { lo, hi } => lo > hi,
            DimConstraint::Set(Some(s)) => s.is_empty(),
            DimConstraint::Set(None) => false,
        })
    }

    /// Whether this region is **provably disjoint** from the values in
    /// `bounds` — no tuple whose dimension values fall inside `bounds` can
    /// satisfy the region's predicate. Used by the partition-aware ingest
    /// path: a snippet whose region is disjoint from everything an append
    /// touched needs no Lemma 3 widening.
    ///
    /// Conservative by construction: a dimension with no recorded bounds, a
    /// kind mismatch, a NaN-bearing numeric bound, or a universal
    /// categorical constraint never proves disjointness. Only a numeric
    /// interval strictly outside `[min, max]` or a categorical set with an
    /// empty intersection does.
    pub(crate) fn disjoint_from(&self, schema: &SchemaInfo, bounds: &IngestBounds) -> bool {
        for (c, d) in self.constraints.iter().zip(schema.dims()) {
            match (c, bounds.get(&d.name)) {
                (DimConstraint::Range { lo, hi }, Some(DimBounds::Num { min, max, has_nan }))
                    if !has_nan && (max < lo || min > hi) =>
                {
                    return true;
                }
                (DimConstraint::Set(Some(set)), Some(DimBounds::Cat { codes })) => {
                    // Both sides sorted; empty intersection → disjoint.
                    let mut i = 0;
                    let mut j = 0;
                    let mut overlap = false;
                    while i < set.len() && j < codes.len() {
                        match set[i].cmp(&codes[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                overlap = true;
                                break;
                            }
                        }
                    }
                    if !overlap {
                        return true;
                    }
                }
                // Universal set, missing bounds, kind mismatch: no proof.
                _ => {}
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![
            DimensionSpec::numeric("week", 0.0, 100.0),
            DimensionSpec::categorical("region", 4),
        ])
        .unwrap()
    }

    #[test]
    fn full_region_covers_domain() {
        let s = schema();
        let r = Region::full(&s);
        assert_eq!(r.range(0), Some((0.0, 100.0)));
        assert_eq!(r.volume(&s), 100.0 * 4.0);
        assert!(!r.is_degenerate());
    }

    #[test]
    fn from_predicate_clamps_to_domain() {
        let s = schema();
        let p = Predicate::between("week", -50.0, 20.0);
        let r = Region::from_predicate(&s, &p).unwrap();
        assert_eq!(r.range(0), Some((0.0, 20.0)));
    }

    #[test]
    fn from_predicate_with_cat_constraint() {
        let s = schema();
        let p = Predicate::cat_in("region", vec![1, 3, 9]); // 9 outside domain
        let r = Region::from_predicate(&s, &p).unwrap();
        assert_eq!(r.constraints[1].set_size(4), 2.0);
        assert_eq!(r.volume(&s), 100.0 * 2.0);
    }

    #[test]
    fn undeclared_dimension_is_error() {
        let s = schema();
        let p = Predicate::between("nope", 0.0, 1.0);
        assert!(Region::from_predicate(&s, &p).is_err());
    }

    #[test]
    fn kind_mismatch_is_error() {
        let s = schema();
        assert!(Region::from_predicate(&s, &Predicate::cat_eq("week", 1)).is_err());
        assert!(Region::from_predicate(&s, &Predicate::between("region", 0.0, 1.0)).is_err());
    }

    #[test]
    fn set_overlap_cases() {
        let s = schema();
        let full = Region::full(&s);
        let a = Region::from_predicate(&s, &Predicate::cat_in("region", vec![0, 1])).unwrap();
        let b = Region::from_predicate(&s, &Predicate::cat_in("region", vec![1, 2])).unwrap();
        assert_eq!(
            full.constraints[1].set_overlap(&full.constraints[1], 4),
            4.0
        );
        assert_eq!(a.constraints[1].set_overlap(&full.constraints[1], 4), 2.0);
        assert_eq!(a.constraints[1].set_overlap(&b.constraints[1], 4), 1.0);
        let c = Region::from_predicate(&s, &Predicate::cat_in("region", vec![3])).unwrap();
        assert_eq!(a.constraints[1].set_overlap(&c.constraints[1], 4), 0.0);
    }

    #[test]
    fn zero_width_range_volume_floored() {
        let s = schema();
        let p = Predicate::between("week", 50.0, 50.0);
        let r = Region::from_predicate(&s, &p).unwrap();
        assert!(r.volume(&s) > 0.0);
        assert!(r.volume(&s) < 1.0);
    }

    #[test]
    fn degenerate_detection() {
        let s = schema();
        let p = Predicate::between("week", 60.0, 40.0);
        let r = Region::from_predicate(&s, &p).unwrap();
        assert!(r.is_degenerate());
        let p = Predicate::cat_in("region", vec![]);
        let r = Region::from_predicate(&s, &p).unwrap();
        assert!(r.is_degenerate());
    }

    #[test]
    fn nan_bounds_are_no_region_and_infinite_ones_clamp() {
        let s = schema();
        for (lo, hi) in [(f64::NAN, 3.0), (3.0, f64::NAN), (f64::NAN, f64::NAN)] {
            assert!(Region::from_predicate(&s, &Predicate::between("week", lo, hi)).is_err());
        }
        let p = Predicate::between("week", f64::NEG_INFINITY, f64::INFINITY);
        let r = Region::from_predicate(&s, &p).unwrap();
        assert_eq!(r.range(0), Some((0.0, 100.0)));
    }

    #[test]
    fn duplicate_dim_rejected() {
        assert!(SchemaInfo::new(vec![
            DimensionSpec::numeric("x", 0.0, 1.0),
            DimensionSpec::numeric("x", 0.0, 2.0),
        ])
        .is_err());
    }

    #[test]
    fn numeric_indices_listed() {
        let s = schema();
        assert_eq!(s.numeric_indices(), vec![0]);
    }

    #[test]
    fn disjoint_from_numeric_bounds() {
        let s = schema();
        let r = Region::from_predicate(&s, &Predicate::between("week", 10.0, 20.0)).unwrap();
        let mut above = IngestBounds::new();
        above.add_numeric("week", 30.0, 40.0, false);
        assert!(r.disjoint_from(&s, &above));
        let mut below = IngestBounds::new();
        below.add_numeric("week", 0.0, 9.0, false);
        assert!(r.disjoint_from(&s, &below));
        let mut touching = IngestBounds::new();
        touching.add_numeric("week", 20.0, 40.0, false);
        assert!(!r.disjoint_from(&s, &touching), "closed endpoints overlap");
    }

    #[test]
    fn disjoint_from_is_conservative() {
        let s = schema();
        let r = Region::from_predicate(&s, &Predicate::between("week", 10.0, 20.0)).unwrap();
        // No bounds recorded at all → cannot prove disjointness.
        assert!(!r.disjoint_from(&s, &IngestBounds::new()));
        // NaN-bearing bounds never prove disjointness.
        let mut nan = IngestBounds::new();
        nan.add_numeric("week", 30.0, 40.0, true);
        assert!(!r.disjoint_from(&s, &nan));
        // Bounds on a different column prove nothing about `week`.
        let mut other = IngestBounds::new();
        other.add_numeric("elsewhere", 30.0, 40.0, false);
        assert!(!r.disjoint_from(&s, &other));
    }

    #[test]
    fn disjoint_from_categorical_bounds() {
        let s = schema();
        let r = Region::from_predicate(&s, &Predicate::cat_in("region", vec![0, 1])).unwrap();
        let mut miss = IngestBounds::new();
        miss.add_codes("region", &[2, 3]);
        assert!(r.disjoint_from(&s, &miss));
        let mut hit = IngestBounds::new();
        hit.add_codes("region", &[1, 2]);
        assert!(!r.disjoint_from(&s, &hit));
        // The universal set overlaps everything the schema admits.
        let full = Region::full(&s);
        assert!(!full.disjoint_from(&s, &miss));
    }
}
