//! The AQP engine handle (`NoLearn`): one maintained sample plus the cost
//! model that prices a scan of it. Queries run over it through
//! [`OnlineAggregation::shared_scan`] (see [`crate::driver`]).

use crate::{CostModel, Result, Sample, StorageTier};

/// A raw approximate answer as produced by the AQP engine: the paper's
/// `(θ, β)` pair plus the work accounting used by the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawAnswer {
    /// Approximate answer `θ`.
    pub answer: f64,
    /// Expected error `β` (standard error of `θ`).
    pub error: f64,
    /// Cumulative sample tuples scanned to produce this answer.
    pub tuples_scanned: usize,
}

/// The `NoLearn` online-aggregation engine of §8.1 — the black-box AQP
/// engine of the paper's Figure 2: it refines raw `(θ, β)` pairs batch by
/// batch over a pre-built uniform sample.
#[derive(Debug, Clone)]
pub struct OnlineAggregation {
    sample: Sample,
    cost: CostModel,
    tier: StorageTier,
}

impl OnlineAggregation {
    /// Creates an engine over `sample` with the given cost model and tier.
    pub fn new(sample: Sample, cost: CostModel, tier: StorageTier) -> Self {
        OnlineAggregation { sample, cost, tier }
    }

    /// The sample backing this engine.
    pub fn sample(&self) -> &Sample {
        &self.sample
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The storage tier the sample is served from.
    pub fn tier(&self) -> StorageTier {
        self.tier
    }

    /// Simulated time for a query that scanned `tuples` sample rows.
    pub fn simulated_ns(&self, tuples: usize) -> f64 {
        self.cost.query_ns(tuples, self.tier)
    }

    /// Admits appended base-table rows into this engine's maintained
    /// sample (see [`Sample::absorb_appended`]). Returns the rows
    /// admitted.
    pub fn absorb_appended(
        &mut self,
        rows: &verdict_storage::Table,
        first_row_index: u64,
        seed: u64,
        sample_index: u64,
    ) -> Result<usize> {
        self.sample
            .absorb_appended(rows, first_row_index, seed, sample_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScanSpec, SharedScanDriver};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verdict_storage::{AggregateFn, ColumnDef, Expr, Predicate, Schema, Table};

    fn base(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::numeric_dimension("x"),
            ColumnDef::measure("v"),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![(i as f64).into(), ((i % 100) as f64).into()])
                .unwrap();
        }
        t
    }

    fn engine(n: usize, fraction: f64) -> OnlineAggregation {
        let t = base(n);
        let mut rng = StdRng::seed_from_u64(11);
        let s = Sample::uniform(&t, fraction, 100, &mut rng).unwrap();
        OnlineAggregation::new(s, CostModel::default(), StorageTier::Cached)
    }

    /// An ungrouped one-primitive scan: cell `(0, 0)` is the snippet.
    fn scan<'e>(
        e: &'e OnlineAggregation,
        primitive: AggregateFn,
        predicate: &Predicate,
    ) -> SharedScanDriver<'e> {
        e.shared_scan(&ScanSpec {
            predicate,
            group_cols: &[],
            groups: &[],
            primitives: &[primitive],
        })
        .unwrap()
    }

    #[test]
    fn session_refines_error() {
        let e = engine(100_000, 0.1);
        let mut s = scan(&e, AggregateFn::Avg(Expr::col("v")), &Predicate::True);
        assert!(s.step());
        let first = s.raw(0, 0);
        while s.step() {}
        let last = s.raw(0, 0);
        assert!(last.error < first.error);
        assert!(last.tuples_scanned > first.tuples_scanned);
        // True mean of v is ~49.5.
        assert!((last.answer - 49.5).abs() < 2.0, "answer {}", last.answer);
    }

    #[test]
    fn run_until_stops_at_target() {
        let e = engine(100_000, 0.1);
        let mut s = scan(&e, AggregateFn::Avg(Expr::col("v")), &Predicate::True);
        while s.step() && s.raw(0, 0).error >= 1.0 {}
        assert!(s.raw(0, 0).error < 1.0);
        assert!(s.batches_remaining() > 0, "should stop before exhaustion");
    }

    #[test]
    fn engine_answer_respects_tuple_cap() {
        let e = engine(50_000, 0.2);
        let mut s = scan(&e, AggregateFn::Freq, &Predicate::True);
        while s.tuples_scanned() < 300 && s.step() {}
        // Cap rounds up to a whole batch (batch size 100).
        let raw = s.raw(0, 0);
        assert!(raw.tuples_scanned >= 300 && raw.tuples_scanned <= 400);
    }

    #[test]
    fn count_estimate_close_to_truth() {
        let e = engine(100_000, 0.1);
        let p = Predicate::between("x", 0.0, 24_999.0);
        let mut s = scan(&e, AggregateFn::Freq, &p);
        while s.step() {}
        // COUNT = N · FREQ (§2.3).
        let n = e.sample().base_rows() as f64;
        let (count, error) = (s.raw(0, 0).answer * n, s.raw(0, 0).error * n);
        let rel = (count - 25_000.0).abs() / 25_000.0;
        assert!(rel < 0.05, "count {count} rel err {rel}");
        // Error bound should cover the actual deviation at ~2 sigma.
        assert!((count - 25_000.0).abs() < 4.0 * error);
    }

    #[test]
    fn simulated_time_monotone_in_tuples() {
        let e = engine(1000, 1.0);
        assert!(e.simulated_ns(10_000) > e.simulated_ns(100));
    }
}
