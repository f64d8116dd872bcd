//! CLT-based streaming estimators for sample aggregates.
//!
//! `NoLearn` "estimates its errors and computes confidence intervals using
//! closed-forms (based on the central limit theorem)" (paper §8.1). Each
//! aggregate maps to a textbook survey-sampling estimator over a uniform
//! sample of a base table with `N` rows, of which `n` have been scanned:
//!
//! - `AVG(e)`  — the mean of `e` over matching scanned rows; standard error
//!   `s_match / √m` where `m` is the number of matches;
//! - `COUNT(*)` — Horvitz–Thompson: `N · mean(z)` with `z_i ∈ {0,1}` the
//!   match indicator; standard error `N · s_z / √n`;
//! - `SUM(e)`  — Horvitz–Thompson with `z_i = e_i · 1{match}`; standard
//!   error `N · s_z / √n`;
//! - `FREQ(*)` — `mean(z)` with binomial-style error `s_z / √n`.
//!
//! All four are maintained incrementally — AVG and SUM with Welford
//! accumulators, COUNT and FREQ from their indicator sufficient statistics
//! — so an updated `(answer, error)` pair is available after every batch.
//! Selection is evaluated per batch through a [`CompiledPredicate`]
//! (column-bound, vectorizable) instead of pre-materializing a whole-table
//! row mask.
//!
//! [`BatchEstimator`] is an **oracle, not a path**: no query runs through
//! it. The executor ([`crate::SharedScanDriver`]) computes every cell of a
//! query in one pass and reports each from the same per-primitive estimate
//! functions (`avg_estimate`, `freq_estimate`); the estimator is the
//! independent single-snippet statement of what that cell must equal, bit
//! for bit, after the same batch prefix — which is how the driver tests
//! and the root crate's parity suites use it.

use verdict_stats::{indicator_mean_se, Welford};
use verdict_storage::chunk::SelectionMask;
use verdict_storage::expr::CompiledExpr;
use verdict_storage::{AggregateFn, CompiledPredicate, Predicate, Table};

use crate::Result;

/// Which estimator an aggregate uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Avg,
    Sum,
    Count,
    Freq,
}

/// `(estimate, standard_error)` of the `AVG` primitive from its
/// accumulator over matching rows; `n_scanned` gates the no-data case.
pub(crate) fn avg_estimate(n_scanned: u64, matched: &Welford) -> (f64, f64) {
    if n_scanned == 0 || matched.count() == 0 {
        return (0.0, f64::INFINITY);
    }
    if matched.count() == 1 {
        return (matched.mean(), f64::INFINITY);
    }
    (matched.mean(), matched.standard_error())
}

/// `(estimate, standard_error)` of the `FREQ` primitive from its
/// indicator counts (`n_matched` matches out of `n_scanned` rows).
pub(crate) fn freq_estimate(n_scanned: u64, n_matched: u64) -> (f64, f64) {
    indicator_mean_se(n_scanned, n_matched)
}

/// Incremental estimator for one aggregate over a growing scanned prefix of
/// a uniform sample.
pub struct BatchEstimator<'t> {
    kind: Kind,
    /// Compiled measure expression (absent for COUNT/FREQ).
    expr: Option<CompiledExpr<'t>>,
    /// Column-bound predicate, evaluated per batch.
    pred: CompiledPredicate<'t>,
    /// Per-batch selection bitmap scratch.
    selbuf: SelectionMask,
    /// Accumulator over matching rows only (AVG).
    matched: Welford,
    /// Accumulator over all scanned rows of `z_i` (SUM).
    scanned: Welford,
    /// Rows scanned so far.
    n_scanned: u64,
    /// Matching rows so far (COUNT/FREQ sufficient statistic).
    n_matched: u64,
    /// Base-table cardinality `N`.
    base_rows: usize,
}

impl<'t> BatchEstimator<'t> {
    /// Prepares an estimator for `agg` filtered by `predicate` over the
    /// sampled rows in `sample_table` (drawn from a base table with
    /// `base_rows` rows).
    pub fn new(
        sample_table: &'t Table,
        base_rows: usize,
        agg: &AggregateFn,
        predicate: &Predicate,
    ) -> Result<Self> {
        let (kind, expr) = match agg {
            AggregateFn::Avg(e) => (Kind::Avg, Some(e.compile(sample_table)?)),
            AggregateFn::Sum(e) => (Kind::Sum, Some(e.compile(sample_table)?)),
            AggregateFn::Count => (Kind::Count, None),
            AggregateFn::Freq => (Kind::Freq, None),
        };
        let pred = predicate.compile(sample_table)?;
        Ok(BatchEstimator {
            kind,
            expr,
            pred,
            selbuf: SelectionMask::new(),
            matched: Welford::new(),
            scanned: Welford::new(),
            n_scanned: 0,
            n_matched: 0,
            base_rows,
        })
    }

    /// Feeds the rows in `range` (a batch of the sample).
    ///
    /// Accumulation is canonically *per batch*: each call folds a fresh
    /// per-batch Welford partial into the running state with
    /// [`Welford::merge`], in call order. This is the same
    /// batch-partial + ordered-merge structure the shared-scan driver
    /// (and its parallel morsel scheduler) uses, so oracle and driver agree
    /// bit for bit regardless of how many threads scanned the batches.
    pub fn consume(&mut self, range: std::ops::Range<usize>) {
        let start = range.start;
        self.n_scanned += range.len() as u64;
        self.pred.fill_mask(range, &mut self.selbuf);
        match self.kind {
            Kind::Avg => {
                let expr = self.expr.as_ref().expect("AVG has expr");
                let mut batch = Welford::new();
                self.selbuf
                    .for_each_set(|i| batch.push(expr.eval(start + i)));
                self.matched.merge(&batch);
            }
            Kind::Sum => {
                let expr = self.expr.as_ref().expect("SUM has expr");
                let mut batch = Welford::new();
                for i in 0..self.selbuf.len() {
                    let z = if self.selbuf.get(i) {
                        expr.eval(start + i)
                    } else {
                        0.0
                    };
                    batch.push(z);
                }
                self.scanned.merge(&batch);
            }
            Kind::Count | Kind::Freq => {
                self.n_matched += self.selbuf.count_ones();
            }
        }
    }

    /// Current `(estimate, standard_error)` pair — the paper's raw answer
    /// `θ` and raw error `β`.
    ///
    /// Before any data is scanned the estimate is `0` with infinite error.
    pub fn current(&self) -> (f64, f64) {
        let n_scanned = self.n_scanned;
        if n_scanned == 0 {
            return (0.0, f64::INFINITY);
        }
        match self.kind {
            Kind::Avg => avg_estimate(n_scanned, &self.matched),
            Kind::Sum => {
                let scale = self.base_rows as f64;
                if n_scanned == 1 {
                    (scale * self.scanned.mean(), f64::INFINITY)
                } else {
                    (
                        scale * self.scanned.mean(),
                        scale * self.scanned.standard_error(),
                    )
                }
            }
            Kind::Count => {
                let scale = self.base_rows as f64;
                let (p, se) = freq_estimate(n_scanned, self.n_matched);
                ((scale * p).round(), scale * se)
            }
            Kind::Freq => freq_estimate(n_scanned, self.n_matched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_storage::{ColumnDef, Expr, Schema};

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![(i as f64).into(), ((i % 10) as f64).into()])
                .unwrap();
        }
        t
    }

    #[test]
    fn exact_when_full_table_scanned() {
        let t = table(100);
        let p = Predicate::between("x", 0.0, 49.0);
        let mut e = BatchEstimator::new(&t, 100, &AggregateFn::Count, &p).unwrap();
        e.consume(0..100);
        let (ans, err) = e.current();
        assert_eq!(ans, 50.0);
        // Full scan of the base as a "sample": the HT estimator is exact in
        // expectation; the CLT error term is still nonzero because the
        // estimator does not know the scan was exhaustive.
        assert!(err > 0.0);
    }

    #[test]
    fn avg_matches_exact_on_full_scan() {
        let t = table(100);
        let p = Predicate::between("x", 10.0, 19.0);
        let mut e = BatchEstimator::new(&t, 100, &AggregateFn::Avg(Expr::col("v")), &p).unwrap();
        e.consume(0..100);
        let (ans, _) = e.current();
        // rows 10..=19 have v = 0..=9, avg 4.5.
        assert_eq!(ans, 4.5);
    }

    #[test]
    fn sum_ht_estimator_full_scan() {
        let t = table(100);
        let mut e =
            BatchEstimator::new(&t, 100, &AggregateFn::Sum(Expr::col("v")), &Predicate::True)
                .unwrap();
        e.consume(0..100);
        let (ans, _) = e.current();
        // sum of v over 100 rows = 10 full cycles of 0..9 = 450.
        assert!((ans - 450.0).abs() < 1e-9, "sum {ans}");
    }

    #[test]
    fn error_decreases_with_more_batches() {
        let t = table(1000);
        let p = Predicate::True;
        let mut e = BatchEstimator::new(&t, 1000, &AggregateFn::Avg(Expr::col("v")), &p).unwrap();
        e.consume(0..50);
        let (_, err1) = e.current();
        e.consume(50..500);
        let (_, err2) = e.current();
        assert!(err2 < err1, "{err2} !< {err1}");
    }

    #[test]
    fn empty_scan_reports_infinite_error() {
        let t = table(10);
        let e = BatchEstimator::new(&t, 10, &AggregateFn::Freq, &Predicate::True).unwrap();
        let (ans, err) = e.current();
        assert_eq!(ans, 0.0);
        assert!(err.is_infinite());
    }

    #[test]
    fn freq_is_proportion() {
        let t = table(100);
        let p = Predicate::between("x", 0.0, 24.0);
        let mut e = BatchEstimator::new(&t, 100, &AggregateFn::Freq, &p).unwrap();
        e.consume(0..100);
        let (ans, err) = e.current();
        assert!((ans - 0.25).abs() < 1e-12, "freq {ans}");
        assert!(err > 0.0 && err < 0.1);
    }

    #[test]
    fn count_scales_freq_by_base_rows() {
        // Sample of 50 rows from a base of 1000: COUNT scales by 1000.
        let t = table(50);
        let p = Predicate::True;
        let mut e = BatchEstimator::new(&t, 1000, &AggregateFn::Count, &p).unwrap();
        e.consume(0..50);
        let (ans, _) = e.current();
        assert_eq!(ans, 1000.0);
    }
}
