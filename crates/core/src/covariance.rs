//! Covariance assembly between snippet answers (paper §4, Eqs. 8/10/16).
//!
//! Given the kernel parameters for an aggregate `g` and two predicate
//! regions `F_i`, `F_j`, the covariance of the *exact* answers decomposes
//! into a per-dimension product:
//!
//! ```text
//! cov(θ̄_i, θ̄_j) = σ²_g · Π_k factor_k(F_{i,k}, F_{j,k})
//! ```
//!
//! where `factor_k` ([`dim_factor`]) is the analytic double integral over
//! numeric ranges and the set-overlap count over categorical sets. `AVG`
//! snippets use the normalized (mean-field) factors so the self-covariance
//! of any region is at most `σ²_g`; `FREQ` snippets use the raw integrals
//! of Eq. (10)/(16).
//!
//! ## Assembly
//!
//! A factor depends on one dimension's two constraints and nothing else,
//! and a synopsis repeats constraints massively: a dimension the queries
//! leave unconstrained is the same interval in every snippet, and the
//! cells of one `GROUP BY` statement differ in a single dimension. A
//! [`RegionIndex`] therefore names, per dimension, the `d_k` *distinct*
//! constraints of a region list and gives every region a slot into them;
//! matrices ([`PairFactors`]) and cross-covariance columns
//! ([`CrossFactors`]) are assembled from per-dimension tables over those
//! slots. Each distinct ordered pair of constraints is integrated once —
//! `O(Σ_k d_k²)` integrals for a matrix, `O(Σ_k d_k)` for a column — and
//! what is left per element is one multiply per dimension
//! (`O(n²·dims)` / `O(n·dims)`). A dimension in which no constraint
//! repeats (`d_k = n`) is integrated straight into the matrix, as the
//! all-pairs loop did.
//!
//! Every element is `σ²` times its factors in schema order, each factor
//! evaluated with the orientation and operands [`snippet_covariance`]
//! would use, and an element that reaches exactly `0.0` takes no further
//! factor (that function's early return): the result is `to_bits`-equal
//! to calling [`snippet_covariance`] on every pair, and never evaluates
//! more factors than that would. The all-pairs loops live on as the test
//! oracle (`crates/core/tests/all_pairs/mod.rs`), nowhere else.

use verdict_linalg::Matrix;

use crate::kernel::{avg_numeric_factor, freq_numeric_factor, KernelParams};
use crate::region::{DimConstraint, DimKind, Region, SchemaInfo};
use crate::snippet::AggKey;

/// Aggregate semantics controlling normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Mean-field semantics (normalized factors).
    Avg,
    /// Density semantics (unnormalized factors).
    Freq,
}

impl AggMode {
    /// Mode of an aggregate key.
    pub fn of(key: &AggKey) -> AggMode {
        match key {
            AggKey::Avg(_) => AggMode::Avg,
            AggKey::Freq => AggMode::Freq,
        }
    }
}

/// `factor_k(F_{a,k}, F_{b,k})`: one dimension's share of the covariance
/// between two snippets, from that dimension's two constraints alone.
/// `lengthscale` is unused on a categorical dimension.
pub fn dim_factor(
    kind: &DimKind,
    mode: AggMode,
    lengthscale: f64,
    a: &DimConstraint,
    b: &DimConstraint,
) -> f64 {
    match kind {
        DimKind::Numeric { .. } => {
            let (
                DimConstraint::Range { lo: a_lo, hi: a_hi },
                DimConstraint::Range { lo: b_lo, hi: b_hi },
            ) = (a, b)
            else {
                panic!("region aligned to schema");
            };
            match mode {
                AggMode::Avg => avg_numeric_factor(*a_lo, *a_hi, *b_lo, *b_hi, lengthscale),
                AggMode::Freq => freq_numeric_factor(*a_lo, *a_hi, *b_lo, *b_hi, lengthscale),
            }
        }
        DimKind::Categorical { cardinality } => {
            let overlap = a.set_overlap(b, *cardinality);
            match mode {
                AggMode::Avg => {
                    let sa = a.set_size(*cardinality);
                    let sb = b.set_size(*cardinality);
                    if sa == 0.0 || sb == 0.0 {
                        0.0
                    } else {
                        overlap / (sa * sb)
                    }
                }
                AggMode::Freq => overlap,
            }
        }
    }
}

/// Covariance `cov(θ̄_i, θ̄_j)` between the exact answers of two snippets
/// of the same aggregate function: the pair primitive (`κ̄²`, posterior
/// covariances). Anything over a *list* of regions goes through a
/// [`RegionIndex`].
pub fn snippet_covariance(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    a: &Region,
    b: &Region,
) -> f64 {
    debug_assert_eq!(params.lengthscales.len(), schema.len());
    let mut cov = params.sigma2;
    for (k, dim) in schema.dims().iter().enumerate() {
        if cov == 0.0 {
            return 0.0;
        }
        cov *= dim_factor(
            &dim.kind,
            mode,
            params.lengthscales[k],
            &a.constraints()[k],
            &b.constraints()[k],
        );
    }
    cov
}

/// One dimension of a [`RegionIndex`].
#[derive(Debug, Clone, Default)]
struct DimSlots {
    /// The distinct constraints, in first-occurrence order.
    distinct: Vec<DimConstraint>,
    /// Per region, its constraint's position in `distinct`.
    slots: Vec<u32>,
}

/// The distinct constraints of a region list, per schema dimension, and a
/// slot per region into them. Identity is bitwise
/// ([`DimConstraint::same_bits`]). See the module docs.
#[derive(Debug, Clone, Default)]
pub struct RegionIndex {
    len: usize,
    /// One per schema dimension; empty until the first region arrives.
    dims: Vec<DimSlots>,
}

impl RegionIndex {
    /// Indexes `regions` (all aligned to one schema), in order.
    pub fn new<'a>(regions: impl IntoIterator<Item = &'a Region>) -> RegionIndex {
        let mut index = RegionIndex::default();
        for region in regions {
            index.push(region);
        }
        index
    }

    /// Appends one region.
    pub fn push(&mut self, region: &Region) {
        let constraints = region.constraints();
        if self.len == 0 {
            self.dims = vec![DimSlots::default(); constraints.len()];
        }
        assert_eq!(constraints.len(), self.dims.len(), "regions of one schema");
        for (dim, c) in self.dims.iter_mut().zip(constraints) {
            let slot = match dim.distinct.iter().position(|d| d.same_bits(c)) {
                Some(slot) => slot,
                None => {
                    dim.distinct.push(c.clone());
                    dim.distinct.len() - 1
                }
            };
            dim.slots.push(slot as u32);
        }
        self.len += 1;
    }

    /// Number of regions indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no region is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `d_k`: the number of distinct constraints on each dimension.
    pub fn distinct_per_dim(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.distinct.len()).collect()
    }

    /// Assembler of covariance matrices over the indexed regions. Keep it
    /// across calls that differ only in the kernel parameters: tables
    /// whose lengthscale did not change are not integrated again.
    pub fn pairs<'a>(&'a self, schema: &'a SchemaInfo, mode: AggMode) -> PairFactors<'a> {
        debug_assert!(self.len == 0 || schema.len() == self.dims.len());
        PairFactors {
            index: self,
            schema,
            mode,
            tables: vec![FactorTable::default(); self.dims.len()],
            untabled: 0,
        }
    }

    /// Assembler of cross-covariance columns `k̄` between new regions and
    /// the indexed ones. Keep it across the cells of one statement: cells
    /// that share a dimension's constraint share its integrals.
    pub fn cross<'a>(
        &'a self,
        schema: &'a SchemaInfo,
        params: &'a KernelParams,
        mode: AggMode,
    ) -> CrossFactors<'a> {
        debug_assert!(self.len == 0 || schema.len() == self.dims.len());
        debug_assert_eq!(params.lengthscales.len(), schema.len());
        CrossFactors {
            index: self,
            schema,
            params,
            mode,
            memo: vec![Vec::new(); self.dims.len()],
        }
    }
}

/// Factors of one dimension, each evaluated on first use.
#[derive(Debug, Clone, Default)]
struct LazyFactors {
    values: Vec<f64>,
    filled: Vec<bool>,
    evaluated: u64,
}

impl LazyFactors {
    fn new(len: usize) -> LazyFactors {
        LazyFactors {
            values: vec![0.0; len],
            filled: vec![false; len],
            evaluated: 0,
        }
    }

    #[inline]
    fn get(&mut self, at: usize, eval: impl FnOnce() -> f64) -> f64 {
        if !self.filled[at] {
            self.values[at] = eval();
            self.filled[at] = true;
            self.evaluated += 1;
        }
        self.values[at]
    }
}

/// The `d_k × d_k` factors of one dimension, row = first operand's slot,
/// valid for the lengthscale they were integrated under.
#[derive(Debug, Clone, Default)]
struct FactorTable {
    /// `to_bits` of that lengthscale (categorical factors have none: 0).
    lengthscale: Option<u64>,
    factors: LazyFactors,
}

impl FactorTable {
    /// Empties the table unless it already holds the factors under
    /// `lengthscale`.
    fn retarget(&mut self, lengthscale: u64, len: usize) {
        if self.lengthscale != Some(lengthscale) {
            self.lengthscale = Some(lengthscale);
            self.factors.values.resize(len, 0.0);
            self.factors.filled.clear();
            self.factors.filled.resize(len, false);
        }
    }
}

/// Multiplies one factor into a running covariance element, unless the
/// element is already zero: [`snippet_covariance`] returns `+0.0` there
/// without looking at the remaining dimensions.
#[inline]
fn fold(element: &mut f64, factor: impl FnOnce() -> f64) {
    if *element == 0.0 {
        *element = 0.0; // -0.0 too
    } else {
        *element *= factor();
    }
}

/// Covariance matrices over the regions of a [`RegionIndex`]
/// ([`RegionIndex::pairs`]).
#[derive(Debug)]
pub struct PairFactors<'a> {
    index: &'a RegionIndex,
    schema: &'a SchemaInfo,
    mode: AggMode,
    /// One per dimension; stays empty where no constraint repeats.
    tables: Vec<FactorTable>,
    /// Factors evaluated straight into a matrix.
    untabled: u64,
}

impl PairFactors<'_> {
    /// The `n × n` covariance matrix `K` with `K[i][j] = cov(θ̄_i, θ̄_j)`.
    pub fn covariance_matrix(&mut self, params: &KernelParams) -> Matrix {
        let PairFactors {
            index,
            schema,
            mode,
            tables,
            untabled,
        } = self;
        let n = index.len;
        debug_assert_eq!(params.lengthscales.len(), schema.len());
        for (d, (dim, spec)) in index.dims.iter().zip(schema.dims()).enumerate() {
            let width = dim.distinct.len();
            if width < n {
                let lengthscale = match spec.kind {
                    DimKind::Numeric { .. } => params.lengthscales[d].to_bits(),
                    DimKind::Categorical { .. } => 0,
                };
                tables[d].retarget(lengthscale, width * width);
            }
        }
        let mut k = Matrix::from_vec(n, n, vec![params.sigma2; n * n]).expect("n × n elements");
        // Upper triangle, a row at a time (the row stays in cache while
        // every dimension is folded in), then mirrored.
        for i in 0..n {
            let row = &mut k.row_mut(i)[i..];
            for (d, spec) in schema.dims().iter().enumerate() {
                let dim = &index.dims[d];
                let l = params.lengthscales[d];
                let width = dim.distinct.len();
                if width == n {
                    // No repeats: region `i`'s constraint is `distinct[i]`,
                    // and a table would hold each factor once.
                    let a = &dim.distinct[i];
                    for (e, b) in row.iter_mut().zip(&dim.distinct[i..]) {
                        fold(e, || {
                            *untabled += 1;
                            dim_factor(&spec.kind, *mode, l, a, b)
                        });
                    }
                    continue;
                }
                let table = &mut tables[d];
                let s_i = dim.slots[i] as usize;
                let a = &dim.distinct[s_i];
                for (e, &s_j) in row.iter_mut().zip(&dim.slots[i..]) {
                    let s_j = s_j as usize;
                    fold(e, || {
                        table.factors.get(s_i * width + s_j, || {
                            dim_factor(&spec.kind, *mode, l, a, &dim.distinct[s_j])
                        })
                    });
                }
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                let v = k.get(i, j);
                k.set(j, i, v);
            }
        }
        k
    }

    /// `Σ_n = K + diag(β²)` — the covariance of the *raw* answers, which
    /// adds each snippet's independent sampling noise on the diagonal
    /// (paper Eq. 6).
    pub fn raw_covariance_matrix(&mut self, params: &KernelParams, errors: &[f64]) -> Matrix {
        debug_assert_eq!(self.index.len, errors.len());
        let mut sigma = self.covariance_matrix(params);
        for (i, &beta) in errors.iter().enumerate() {
            let b2 = if beta.is_finite() { beta * beta } else { 0.0 };
            sigma.set(i, i, sigma.get(i, i) + b2);
        }
        sigma
    }

    /// Factors evaluated so far, over every matrix assembled.
    pub fn evaluations(&self) -> u64 {
        self.untabled + self.tables.iter().map(|t| t.factors.evaluated).sum::<u64>()
    }
}

/// One new constraint's factors against a dimension's distinct ones.
#[derive(Debug, Clone)]
struct FactorColumn {
    constraint: DimConstraint,
    factors: LazyFactors,
}

/// Cross-covariance columns between new regions and the regions of a
/// [`RegionIndex`] ([`RegionIndex::cross`]).
#[derive(Debug)]
pub struct CrossFactors<'a> {
    index: &'a RegionIndex,
    schema: &'a SchemaInfo,
    params: &'a KernelParams,
    mode: AggMode,
    /// Per dimension, a column per distinct constraint of the new regions
    /// seen so far.
    memo: Vec<Vec<FactorColumn>>,
}

impl CrossFactors<'_> {
    /// The vector `k̄` between `new`'s exact answer and each indexed
    /// snippet's raw answer. By Eq. (6), `cov(θ_i, θ̄_new) =
    /// cov(θ̄_i, θ̄_new)` (the sampling noise is independent), so no `β`
    /// term appears here.
    pub fn column(&mut self, new: &Region) -> Vec<f64> {
        let mut k = vec![self.params.sigma2; self.index.len];
        for (d, (dim, spec)) in self.index.dims.iter().zip(self.schema.dims()).enumerate() {
            let l = self.params.lengthscales[d];
            let b = &new.constraints()[d];
            let memo = &mut self.memo[d];
            let at = match memo.iter().position(|c| c.constraint.same_bits(b)) {
                Some(at) => at,
                None => {
                    memo.push(FactorColumn {
                        constraint: b.clone(),
                        factors: LazyFactors::new(dim.distinct.len()),
                    });
                    memo.len() - 1
                }
            };
            let factors = &mut memo[at].factors;
            for (e, &s) in k.iter_mut().zip(&dim.slots) {
                let s = s as usize;
                fold(e, || {
                    factors.get(s, || {
                        dim_factor(&spec.kind, self.mode, l, &dim.distinct[s], b)
                    })
                });
            }
        }
        k
    }

    /// Factors evaluated so far, over every column assembled.
    pub fn evaluations(&self) -> u64 {
        self.memo
            .iter()
            .flatten()
            .map(|c| c.factors.evaluated)
            .sum()
    }
}

/// [`PairFactors::covariance_matrix`] of a one-off region list.
pub fn covariance_matrix(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    regions: &[&Region],
) -> Matrix {
    RegionIndex::new(regions.iter().copied())
        .pairs(schema, mode)
        .covariance_matrix(params)
}

/// [`PairFactors::raw_covariance_matrix`] of a one-off region list.
pub fn raw_covariance_matrix(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    regions: &[&Region],
    errors: &[f64],
) -> Matrix {
    debug_assert_eq!(regions.len(), errors.len());
    RegionIndex::new(regions.iter().copied())
        .pairs(schema, mode)
        .raw_covariance_matrix(params, errors)
}

/// [`CrossFactors::column`] of one new region against a one-off list.
pub fn cross_covariance(
    schema: &SchemaInfo,
    params: &KernelParams,
    mode: AggMode,
    past: &[&Region],
    new: &Region,
) -> Vec<f64> {
    RegionIndex::new(past.iter().copied())
        .cross(schema, params, mode)
        .column(new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DimensionSpec;
    use verdict_storage::Predicate;

    fn schema() -> SchemaInfo {
        SchemaInfo::new(vec![
            DimensionSpec::numeric("t", 0.0, 100.0),
            DimensionSpec::categorical("c", 5),
        ])
        .unwrap()
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::from_predicate(&schema(), &Predicate::between("t", lo, hi)).unwrap()
    }

    #[test]
    fn self_covariance_at_most_sigma2_for_avg() {
        let s = schema();
        let p = KernelParams::constant(2, 10.0, 4.0);
        let r = region(0.0, 50.0);
        let v = snippet_covariance(&s, &p, AggMode::Avg, &r, &r);
        assert!(v > 0.0 && v <= 4.0 + 1e-12, "{v}");
    }

    #[test]
    fn covariance_decays_with_distance() {
        let s = schema();
        let p = KernelParams::constant(2, 5.0, 1.0);
        let a = region(0.0, 10.0);
        let near = region(10.0, 20.0);
        let far = region(80.0, 90.0);
        let cn = snippet_covariance(&s, &p, AggMode::Avg, &a, &near);
        let cf = snippet_covariance(&s, &p, AggMode::Avg, &a, &far);
        assert!(cn > cf, "{cn} vs {cf}");
        assert!(cf >= 0.0);
    }

    #[test]
    fn overlapping_regions_correlate_more() {
        let s = schema();
        let p = KernelParams::constant(2, 2.0, 1.0);
        let a = region(0.0, 20.0);
        let overlapping = region(10.0, 30.0);
        let disjoint = region(30.0, 50.0);
        let co = snippet_covariance(&s, &p, AggMode::Avg, &a, &overlapping);
        let cd = snippet_covariance(&s, &p, AggMode::Avg, &a, &disjoint);
        assert!(co > cd);
    }

    #[test]
    fn categorical_disjoint_sets_zero_covariance() {
        let s = schema();
        let p = KernelParams::constant(2, 10.0, 1.0);
        let a = Region::from_predicate(&s, &Predicate::cat_in("c", vec![0, 1])).unwrap();
        let b = Region::from_predicate(&s, &Predicate::cat_in("c", vec![2, 3])).unwrap();
        assert_eq!(snippet_covariance(&s, &p, AggMode::Avg, &a, &b), 0.0);
        assert_eq!(snippet_covariance(&s, &p, AggMode::Freq, &a, &b), 0.0);
    }

    #[test]
    fn freq_mode_scales_with_overlap_count() {
        let s = schema();
        let p = KernelParams::constant(2, 1e9, 1.0); // ~flat kernel
        let a = Region::from_predicate(&s, &Predicate::cat_in("c", vec![0, 1, 2])).unwrap();
        let b = Region::from_predicate(&s, &Predicate::cat_in("c", vec![1, 2, 3])).unwrap();
        let cab = snippet_covariance(&s, &p, AggMode::Freq, &a, &b);
        let caa = snippet_covariance(&s, &p, AggMode::Freq, &a, &a);
        // overlap 2 vs 3 with identical numeric factors.
        assert!((cab / caa - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_is_symmetric_and_psd_diagonal() {
        let s = schema();
        let p = KernelParams::constant(2, 10.0, 2.0);
        let regions = [region(0.0, 30.0), region(20.0, 50.0), region(40.0, 90.0)];
        let refs: Vec<&Region> = regions.iter().collect();
        let k = covariance_matrix(&s, &p, AggMode::Avg, &refs);
        assert!(k.is_symmetric(1e-12));
        for i in 0..3 {
            assert!(k.get(i, i) > 0.0);
        }
    }

    #[test]
    fn raw_matrix_adds_beta_squared() {
        let s = schema();
        let p = KernelParams::constant(2, 10.0, 2.0);
        let regions = [region(0.0, 30.0), region(20.0, 50.0)];
        let refs: Vec<&Region> = regions.iter().collect();
        let k = covariance_matrix(&s, &p, AggMode::Avg, &refs);
        let sig = raw_covariance_matrix(&s, &p, AggMode::Avg, &refs, &[0.5, 0.2]);
        assert!((sig.get(0, 0) - k.get(0, 0) - 0.25).abs() < 1e-12);
        assert!((sig.get(1, 1) - k.get(1, 1) - 0.04).abs() < 1e-12);
        assert_eq!(sig.get(0, 1), k.get(0, 1));
    }

    #[test]
    fn infinite_error_treated_as_uninformative_diagonal() {
        let s = schema();
        let p = KernelParams::constant(2, 10.0, 2.0);
        let regions = [region(0.0, 30.0)];
        let refs: Vec<&Region> = regions.iter().collect();
        let sig = raw_covariance_matrix(&s, &p, AggMode::Avg, &refs, &[f64::INFINITY]);
        assert!(sig.get(0, 0).is_finite());
    }

    #[test]
    fn cross_covariance_matches_pairwise() {
        let s = schema();
        let p = KernelParams::constant(2, 10.0, 2.0);
        let a = region(0.0, 30.0);
        let b = region(20.0, 50.0);
        let new = region(25.0, 45.0);
        let k = cross_covariance(&s, &p, AggMode::Avg, &[&a, &b], &new);
        assert_eq!(k.len(), 2);
        assert_eq!(k[0], snippet_covariance(&s, &p, AggMode::Avg, &a, &new));
        assert_eq!(k[1], snippet_covariance(&s, &p, AggMode::Avg, &b, &new));
    }
}
