//! Data-append generalization (paper Appendix D).
//!
//! When new tuples `r_a` are appended to a relation `r`, old snippet
//! answers remain usable if Verdict lowers its confidence in them. With
//! `s_k` the random difference between a new tuple's attribute value and an
//! old one's (mean `µ_k`, variance `η²_k`), Lemma 3 gives the adjusted raw
//! answer and error for an old `AVG(A_k)` snippet:
//!
//! ```text
//! θ'  = θ + µ_k · |r_a| / (|r| + |r_a|)
//! β'² = β² + (η_k · |r_a| / (|r| + |r_a|))²
//! ```
//!
//! `µ_k` and `η²_k` are estimated from small samples of `r` and `r_a`.
//! Both sides of that estimate are [`ShiftMoments`]: a count, a sum and
//! Welford's recurrence, so the old side can be kept as a running
//! accumulator over a sample that only ever grows at its end, instead of
//! re-reading the sample at every append.

use verdict_stats::Welford;
use verdict_storage::{ColumnSummary, PartitionMap, Table};

use crate::region::Region;
use crate::snippet::Observation;
use crate::synopsis::QuerySynopsis;

/// The running moments of one value stream — the sufficient statistics
/// of one side of a shift estimate ([`AppendAdjustment::from_moments`]).
///
/// Only finite values are folded: a NaN or an infinity carries no
/// information about the shift, and letting one in would turn `µ` and `η`
/// (and so every stored snippet they rewrite) into NaN for good.
///
/// The mean is `sum / count` with the sum taken in fold order, so it has
/// the bits of `verdict_stats::mean` over the same finite values; the
/// variance is Welford's `m2 / (n − 1)`. Both are sequential recurrences:
/// folding `a` then `b` leaves exactly the state folding `a ++ b` does,
/// which is what lets a caller extend an accumulator with the rows a
/// sample admitted instead of folding the whole sample again.
#[derive(Debug, Clone)]
pub struct ShiftMoments {
    sum: f64,
    welford: Welford,
}

impl Default for ShiftMoments {
    fn default() -> Self {
        // `-0.0` is the neutral element `Iterator::sum` folds `f64`s from.
        ShiftMoments {
            sum: -0.0,
            welford: Welford::new(),
        }
    }
}

impl ShiftMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        ShiftMoments::default()
    }

    /// The moments of `values`, folded in order.
    pub fn of(values: &[f64]) -> Self {
        let mut moments = ShiftMoments::new();
        moments.extend(values.iter().copied());
        moments
    }

    /// Folds one value (skipped unless finite).
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.sum += x;
            self.welford.push(x);
        }
    }

    /// Folds every value of `values`, in order.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for x in values {
            self.push(x);
        }
    }

    /// Finite values folded so far.
    pub fn count(&self) -> u64 {
        self.welford.count()
    }

    /// Mean of the folded values; `0.0` before any.
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum / n as f64,
        }
    }

    /// Unbiased sample variance of the folded values; `0.0` below two.
    pub fn variance(&self) -> f64 {
        self.welford.sample_variance()
    }
}

/// Value bounds of one dimension column over the rows an ingest event
/// touched — the appended batch itself unioned with the existing summaries
/// of the partitions that received it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DimBounds {
    /// Numeric column: observed `[min, max]` plus a NaN flag. With
    /// `has_nan` set the bounds cannot prove disjointness (a NaN value is
    /// outside every interval but the rows still shifted the aggregate).
    Num {
        /// Smallest touched value.
        min: f64,
        /// Largest touched value.
        max: f64,
        /// Whether any touched value was NaN.
        has_nan: bool,
    },
    /// Categorical column: the exact sorted set of touched codes.
    Cat {
        /// Sorted, deduplicated dictionary codes.
        codes: Vec<u32>,
    },
}

/// Per-column bounds covering everything an ingest event touched, keyed by
/// dimension name. Built by the session from the partition summaries of
/// the receiving partitions; consumed by
/// `Region::disjoint_from` to skip the
/// Lemma 3 widening for snippet regions provably unaffected by the append.
///
/// Soundness contract: the bounds must **cover** every appended row (and,
/// because old snippets are reinterpreted against the *updated* partition
/// contents, every pre-existing row of the receiving partitions). Columns
/// with no entry are treated as unbounded — absent evidence never proves
/// disjointness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestBounds {
    dims: Vec<(String, DimBounds)>,
}

impl IngestBounds {
    /// Empty bounds (proves nothing disjoint).
    pub fn new() -> Self {
        IngestBounds::default()
    }

    /// Widens (or creates) the numeric bounds for `name`.
    pub(crate) fn add_numeric(&mut self, name: &str, min: f64, max: f64, has_nan: bool) {
        match self.entry(name) {
            Some(DimBounds::Num {
                min: m,
                max: x,
                has_nan: n,
            }) => {
                *m = m.min(min);
                *x = x.max(max);
                *n = *n || has_nan;
            }
            Some(DimBounds::Cat { .. }) => {
                // Kind conflict: degrade to "unbounded" by removing the
                // entry — never prove disjointness from confused evidence.
                self.dims.retain(|(d, _)| d != name);
            }
            None => self
                .dims
                .push((name.to_owned(), DimBounds::Num { min, max, has_nan })),
        }
    }

    /// Unions `codes` into the categorical bounds for `name`.
    pub(crate) fn add_codes(&mut self, name: &str, codes: &[u32]) {
        match self.entry(name) {
            Some(DimBounds::Cat { codes: present }) => {
                for &c in codes {
                    if let Err(pos) = present.binary_search(&c) {
                        present.insert(pos, c);
                    }
                }
            }
            Some(DimBounds::Num { .. }) => {
                self.dims.retain(|(d, _)| d != name);
            }
            None => {
                let mut sorted = codes.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                self.dims
                    .push((name.to_owned(), DimBounds::Cat { codes: sorted }));
            }
        }
    }

    /// The bounds of everything an ingest of `batch` into a table
    /// partitioned by `map` touches, per column: the batch is routed
    /// through a throwaway [`PartitionMap`] built over the batch itself
    /// (routing is a pure function of the cell value, so it agrees with
    /// `map`), and each receiving partition contributes the union of its
    /// summary in `map` with the batch's own — exactly the post-ingest
    /// contents of the touched partitions. Old snippets are reinterpreted
    /// against the updated relation, so the pre-existing rows of a
    /// receiving partition count as touched; rows in partitions the batch
    /// never reaches do not shift any disjoint region's aggregate.
    ///
    /// `map` must be the partition map as it was *before* the batch
    /// landed: the live ingest and WAL replay both compute the bounds
    /// there, so both widen the same snippets.
    pub fn touched(map: &PartitionMap, batch: &Table) -> verdict_storage::Result<IngestBounds> {
        let batch_map = PartitionMap::build(batch, map.spec().clone())?;
        let mut bounds = IngestBounds::new();
        for p in 0..batch_map.num_partitions() {
            if batch_map.part(p).rows() == 0 {
                continue;
            }
            for (col, def) in batch.schema().columns().iter().enumerate() {
                for part in [batch_map.part(p), map.part(p)] {
                    match part.summary(col) {
                        // Skip the empty-partition identity (+inf, -inf):
                        // it describes no rows and must not prove anything
                        // (min > max would read as disjoint).
                        Some(ColumnSummary::Num { min, max, has_nan })
                            if min <= max || *has_nan =>
                        {
                            bounds.add_numeric(&def.name, *min, *max, *has_nan);
                        }
                        Some(ColumnSummary::Cat { codes }) => bounds.add_codes(&def.name, codes),
                        _ => {}
                    }
                }
            }
        }
        Ok(bounds)
    }

    /// The bounds recorded for `name`, if any.
    pub(crate) fn get(&self, name: &str) -> Option<&DimBounds> {
        self.dims.iter().find(|(d, _)| d == name).map(|(_, b)| b)
    }

    /// Number of bounded columns.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether no column is bounded.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    fn entry(&mut self, name: &str) -> Option<&mut DimBounds> {
        self.dims
            .iter_mut()
            .find(|(d, _)| d == name)
            .map(|(_, b)| b)
    }
}

/// The estimated shift distribution and table sizes for one append event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendAdjustment {
    /// Mean of the value shift `s_k`.
    pub mu_shift: f64,
    /// Standard deviation `η_k` of the value shift.
    pub eta: f64,
    /// `|r|`: rows before the append.
    pub old_rows: usize,
    /// `|r_a|`: appended rows.
    pub appended_rows: usize,
}

impl AppendAdjustment {
    /// Estimates the shift from value samples of the old and appended
    /// tuples: `µ_k = mean(new) − mean(old)` and
    /// `η²_k = var(new) + var(old)` (variance of the difference of
    /// independent draws).
    ///
    /// **Units.** `µ_k` and `η_k` are in the units of the aggregated
    /// attribute itself (for an `AVG(A_k)` synopsis: the units of `A_k`;
    /// for a `FREQ(*)` synopsis: relative frequency in `[0, 1]`). The
    /// adjusted answer moves by `µ_k · |r_a| / (|r| + |r_a|)` — the shift
    /// scaled by the *fraction of the updated table that is new* — and the
    /// error inflates in quadrature by `η_k` times the same fraction.
    ///
    /// **Edge cases.** Only finite values count (see [`ShiftMoments`]).
    /// With either side holding none there is no evidence of a shift, so
    /// the estimate degrades to the identity (`µ = 0`, `η = 0`) rather
    /// than inventing a phantom shift from the other slice's mean.
    /// Zero-row inputs (`|r| + |r_a| = 0`) make
    /// [`AppendAdjustment::new_fraction`] zero, so [`AppendAdjustment::adjust`]
    /// is likewise the identity.
    pub fn estimate(
        old_values: &[f64],
        new_values: &[f64],
        old_rows: usize,
        appended_rows: usize,
    ) -> AppendAdjustment {
        AppendAdjustment::from_moments(
            &ShiftMoments::of(old_values),
            &ShiftMoments::of(new_values),
            old_rows,
            appended_rows,
        )
    }

    /// [`AppendAdjustment::estimate`] from the moments of the two sides,
    /// however they were accumulated.
    pub fn from_moments(
        old: &ShiftMoments,
        new: &ShiftMoments,
        old_rows: usize,
        appended_rows: usize,
    ) -> AppendAdjustment {
        if old.count() == 0 || new.count() == 0 {
            return AppendAdjustment {
                mu_shift: 0.0,
                eta: 0.0,
                old_rows,
                appended_rows,
            };
        }
        let mu_shift = new.mean() - old.mean();
        let eta = (new.variance() + old.variance()).sqrt();
        AppendAdjustment {
            mu_shift,
            eta,
            old_rows,
            appended_rows,
        }
    }

    /// The worst-case shift adjustment for a `FREQ(*)` synopsis, whose
    /// per-tuple "attribute" is a region-membership indicator the ingest
    /// path cannot evaluate per stored region. The indicator difference
    /// `s ∈ {−1, 0, 1}` between a new and an old tuple has unknown mean,
    /// so `µ = 0`, and its variance is at most `p(1−p) + q(1−q) ≤ 1/2`
    /// for Bernoulli membership rates `p, q` — hence `η = 1/√2`, the
    /// conservative (never under-covering) bound.
    pub fn freq_worst_case(old_rows: usize, appended_rows: usize) -> AppendAdjustment {
        AppendAdjustment {
            mu_shift: 0.0,
            eta: std::f64::consts::FRAC_1_SQRT_2,
            old_rows,
            appended_rows,
        }
    }

    /// Fraction of the updated table that is new: `|r_a| / (|r| + |r_a|)`.
    pub fn new_fraction(&self) -> f64 {
        let total = self.old_rows + self.appended_rows;
        if total == 0 {
            0.0
        } else {
            self.appended_rows as f64 / total as f64
        }
    }

    /// Applies Lemma 3 to one stored raw observation.
    pub fn adjust(&self, obs: Observation) -> Observation {
        let f = self.new_fraction();
        let answer = obs.answer + self.mu_shift * f;
        let extra = (self.eta * f).powi(2);
        let error = if obs.error.is_finite() {
            (obs.error * obs.error + extra).sqrt()
        } else {
            obs.error
        };
        Observation { answer, error }
    }

    /// Rewrites every observation in a synopsis in place (old snippets are
    /// reinterpreted against the updated relation). Returns the number of
    /// snippets adjusted, so a caller can tell an applied adjustment from
    /// one that found nothing to rewrite.
    pub fn adjust_synopsis(&self, synopsis: &mut QuerySynopsis) -> usize {
        synopsis.rewrite_where(|_| true, |obs| self.adjust(obs))
    }

    /// Like [`AppendAdjustment::adjust_synopsis`], but rewrites only the
    /// observations whose region satisfies `widen` (partition-aware
    /// Lemma 3: a snippet region provably disjoint from every value the
    /// ingest touched keeps its answer *and* its error — drift in one
    /// partition must not widen bounds everywhere). Returns the number of
    /// snippets rewritten.
    pub fn adjust_synopsis_where(
        &self,
        synopsis: &mut QuerySynopsis,
        widen: impl FnMut(&Region) -> bool,
    ) -> usize {
        synopsis.rewrite_where(widen, |obs| self.adjust(obs))
    }

    /// Composes two successive appends into one adjustment relative to the
    /// original relation (the synopsis must only be adjusted once per
    /// event; this helper serves bookkeeping tests).
    #[cfg(test)]
    pub(crate) fn then(&self, later: &AppendAdjustment) -> AppendAdjustment {
        AppendAdjustment {
            mu_shift: self.mu_shift + later.mu_shift,
            eta: (self.eta * self.eta + later.eta * later.eta).sqrt(),
            old_rows: self.old_rows,
            appended_rows: self.appended_rows + later.appended_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{DimensionSpec, Region, SchemaInfo};
    use crate::support::AdjustmentOps;
    use verdict_storage::Predicate;

    #[test]
    fn no_shift_when_distributions_match() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let adj = AppendAdjustment::estimate(&vals, &vals, 100, 10);
        assert_eq!(adj.mu_shift, 0.0);
        let o = adj.adjust(Observation::new(2.5, 0.1));
        assert_eq!(o.answer, 2.5);
        // Error still inflates: new tuples add uncertainty even with equal
        // means (η > 0).
        assert!(o.error > 0.1);
    }

    #[test]
    fn answer_shifts_proportionally_to_append_size() {
        let old = [0.0, 0.0];
        let new = [10.0, 10.0];
        let small = AppendAdjustment::estimate(&old, &new, 90, 10);
        let large = AppendAdjustment::estimate(&old, &new, 50, 50);
        let o = Observation::new(5.0, 0.1);
        let s = small.adjust(o);
        let l = large.adjust(o);
        assert!((s.answer - 6.0).abs() < 1e-12, "{}", s.answer); // 5 + 10*0.1
        assert!((l.answer - 10.0).abs() < 1e-12, "{}", l.answer); // 5 + 10*0.5
    }

    #[test]
    fn error_never_decreases() {
        let adj = AppendAdjustment::estimate(&[0.0, 1.0], &[5.0, 7.0], 80, 20);
        for beta in [0.0, 0.1, 2.0] {
            let o = adj.adjust(Observation::new(1.0, beta));
            assert!(o.error >= beta);
        }
    }

    #[test]
    fn infinite_error_preserved() {
        let adj = AppendAdjustment::estimate(&[0.0, 1.0], &[5.0, 7.0], 80, 20);
        let o = adj.adjust(Observation::new(1.0, f64::INFINITY));
        assert!(o.error.is_infinite());
    }

    #[test]
    fn zero_rows_edge_case() {
        let adj = AppendAdjustment {
            mu_shift: 3.0,
            eta: 1.0,
            old_rows: 0,
            appended_rows: 0,
        };
        assert_eq!(adj.new_fraction(), 0.0);
    }

    #[test]
    fn synopsis_adjusted_in_place() {
        let schema = SchemaInfo::new(vec![DimensionSpec::numeric("x", 0.0, 10.0)]).unwrap();
        let region = Region::from_predicate(&schema, &Predicate::between("x", 0.0, 5.0)).unwrap();
        let mut syn = QuerySynopsis::new(10);
        syn.record(region.clone(), Observation::new(1.0, 0.1));
        let adj = AppendAdjustment {
            mu_shift: 2.0,
            eta: 0.5,
            old_rows: 50,
            appended_rows: 50,
        };
        adj.adjust_synopsis(&mut syn);
        let o = syn.observation_of(&region).unwrap();
        assert!((o.answer - 2.0).abs() < 1e-12);
        assert!(o.error > 0.1);
    }

    #[test]
    fn selective_adjustment_skips_disjoint_regions() {
        let schema = SchemaInfo::new(vec![DimensionSpec::numeric("x", 0.0, 100.0)]).unwrap();
        let low = Region::from_predicate(&schema, &Predicate::between("x", 0.0, 10.0)).unwrap();
        let high = Region::from_predicate(&schema, &Predicate::between("x", 80.0, 90.0)).unwrap();
        let mut syn = QuerySynopsis::new(10);
        syn.record(low.clone(), Observation::new(1.0, 0.1));
        syn.record(high.clone(), Observation::new(2.0, 0.2));
        let adj = AppendAdjustment {
            mu_shift: 5.0,
            eta: 1.0,
            old_rows: 50,
            appended_rows: 50,
        };
        // Ingest confined to x ∈ [82, 88]: only the high region widens.
        let mut bounds = IngestBounds::new();
        bounds.add_numeric("x", 82.0, 88.0, false);
        let n = adj.adjust_synopsis_where(&mut syn, |r| !r.disjoint_from(&schema, &bounds));
        assert_eq!(n, 1);
        let lo = syn.observation_of(&low).unwrap();
        assert_eq!(lo.answer, 1.0);
        assert_eq!(lo.error, 0.1);
        let hi = syn.observation_of(&high).unwrap();
        assert!((hi.answer - 4.5).abs() < 1e-12); // 2 + 5·0.5
        assert!(hi.error > 0.2);
    }

    #[test]
    fn ingest_bounds_merge_and_conflict() {
        let mut b = IngestBounds::new();
        b.add_numeric("x", 5.0, 10.0, false);
        b.add_numeric("x", 2.0, 7.0, true);
        assert_eq!(
            b.get("x"),
            Some(&DimBounds::Num {
                min: 2.0,
                max: 10.0,
                has_nan: true
            })
        );
        b.add_codes("g", &[3, 1]);
        b.add_codes("g", &[2, 3]);
        assert_eq!(
            b.get("g"),
            Some(&DimBounds::Cat {
                codes: vec![1, 2, 3]
            })
        );
        // A kind conflict erases the entry: unbounded, never wrong.
        b.add_codes("x", &[0]);
        assert_eq!(b.get("x"), None);
        assert_eq!(b.len(), 1);
    }

    fn bits(m: &ShiftMoments) -> (u64, u64, u64) {
        (m.count(), m.mean().to_bits(), m.variance().to_bits())
    }

    #[test]
    fn moments_continue_to_the_bits_of_a_fresh_pass() {
        let values: Vec<f64> = (0..97)
            .map(|i| (i as f64 * 0.37).sin() * 13.0 + 80.0)
            .collect();
        let fresh = ShiftMoments::of(&values);
        for cut in [0, 1, 40, 96, 97] {
            let mut continued = ShiftMoments::of(&values[..cut]);
            continued.extend(values[cut..].iter().copied());
            assert_eq!(bits(&continued), bits(&fresh), "cut at {cut}");
        }
        // The mean is the parent's `sum / n`, bit for bit.
        assert_eq!(
            fresh.mean().to_bits(),
            verdict_stats::mean(&values).to_bits()
        );
        let old = &values[..50];
        let new = &values[50..];
        let adj = AppendAdjustment::estimate(old, new, 500, 47);
        assert_eq!(
            adj.mu_shift.to_bits(),
            (verdict_stats::mean(new) - verdict_stats::mean(old)).to_bits()
        );
        let two_pass = (verdict_stats::variance(new) + verdict_stats::variance(old)).sqrt();
        assert!((adj.eta - two_pass).abs() <= 1e-12 * two_pass);
        // Signed zeros sum as `Iterator::sum` sums them.
        assert_eq!(
            ShiftMoments::of(&[-0.0, -0.0]).mean().to_bits(),
            verdict_stats::mean(&[-0.0, -0.0]).to_bits()
        );
        // An empty accumulator folds like an empty sum.
        assert_eq!(ShiftMoments::new().mean(), 0.0);
        assert_eq!(ShiftMoments::new().variance(), 0.0);
    }

    #[test]
    fn moments_fold_finite_values_only() {
        let clean = [4.0, 6.0, 9.0];
        let dirty = [4.0, f64::NAN, 6.0, f64::INFINITY, 9.0, f64::NEG_INFINITY];
        assert_eq!(
            bits(&ShiftMoments::of(&dirty)),
            bits(&ShiftMoments::of(&clean))
        );
        let adj = AppendAdjustment::estimate(&[1.0, 2.0, 3.0], &dirty, 30, 6);
        assert!(adj.mu_shift.is_finite() && adj.eta.is_finite());
        // Nothing finite on one side: no evidence of a shift.
        let none = AppendAdjustment::estimate(&clean, &[f64::NAN, f64::INFINITY], 30, 2);
        assert!(none.is_identity());
    }

    #[test]
    fn composition_accumulates() {
        let a = AppendAdjustment {
            mu_shift: 1.0,
            eta: 0.3,
            old_rows: 100,
            appended_rows: 10,
        };
        let b = AppendAdjustment {
            mu_shift: 0.5,
            eta: 0.4,
            old_rows: 110,
            appended_rows: 20,
        };
        let c = a.then(&b);
        assert_eq!(c.mu_shift, 1.5);
        assert!((c.eta - (0.09f64 + 0.16).sqrt()).abs() < 1e-12);
        assert_eq!(c.appended_rows, 30);
    }
}
