//! The AQP engine: online aggregation (`NoLearn`).

use verdict_storage::{AggregateFn, Predicate};

use crate::{AqpError, BatchEstimator, CostModel, Result, Sample, StorageTier};

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

/// Black-box AQP interface consumed by Verdict (paper Figure 2): given a
/// snippet, return a raw answer and raw error.
pub trait AqpEngine {
    /// Answers a snippet scanning at most `max_tuples` sample rows
    /// (`None` scans the whole sample).
    fn answer(
        &self,
        agg: &AggregateFn,
        predicate: &Predicate,
        max_tuples: Option<usize>,
    ) -> Result<RawAnswer>;

    /// The sample backing this engine.
    fn sample(&self) -> &Sample;
}

/// The `NoLearn` online-aggregation engine of §8.1: refines its estimate
/// batch by batch over a pre-built uniform sample.
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

    /// Starts an online-aggregation session for one snippet. Each call to
    /// [`Session::step`] consumes one batch and yields the refined answer.
    pub fn session<'e>(&'e self, agg: &AggregateFn, predicate: &Predicate) -> Result<Session<'e>> {
        if self.sample.is_paged() {
            // A paged sample's `table()` holds only the rows admitted
            // since the draw; the single-snippet estimator would silently
            // answer from that tail alone. Paged execution goes through
            // the shared scan, which pins the segments.
            return Err(AqpError::InvalidConfig(
                "single-snippet sessions are not supported on a paged sample; \
                 use the shared scan driver"
                    .into(),
            ));
        }
        let estimator =
            BatchEstimator::new(self.sample.table(), self.sample.base_rows(), agg, predicate)?;
        Ok(Session {
            sample: &self.sample,
            estimator,
            next_batch: 0,
        })
    }
}

impl AqpEngine for OnlineAggregation {
    fn answer(
        &self,
        agg: &AggregateFn,
        predicate: &Predicate,
        max_tuples: Option<usize>,
    ) -> Result<RawAnswer> {
        let mut session = self.session(agg, predicate)?;
        let limit = max_tuples.unwrap_or(usize::MAX);
        let mut last = RawAnswer {
            answer: 0.0,
            error: f64::INFINITY,
            tuples_scanned: 0,
        };
        while let Some(raw) = session.step() {
            last = raw;
            if last.tuples_scanned >= limit {
                break;
            }
        }
        Ok(last)
    }

    fn sample(&self) -> &Sample {
        &self.sample
    }
}

/// One in-flight online aggregation: a snippet being refined batch by batch.
pub struct Session<'e> {
    sample: &'e Sample,
    estimator: BatchEstimator<'e>,
    next_batch: usize,
}

impl Session<'_> {
    /// Consumes the next batch; `None` once the sample is exhausted.
    pub fn step(&mut self) -> Option<RawAnswer> {
        if self.next_batch >= self.sample.num_batches() {
            return None;
        }
        let range = self.sample.batch_range(self.next_batch);
        self.next_batch += 1;
        self.estimator.consume(range);
        let (answer, error) = self.estimator.current();
        Some(RawAnswer {
            answer,
            error,
            tuples_scanned: self.estimator.rows_scanned() as usize,
        })
    }

    /// Runs until `stop` returns true for an emitted answer (or the sample
    /// is exhausted); returns the last answer.
    pub fn run_until(&mut self, mut stop: impl FnMut(&RawAnswer) -> bool) -> Option<RawAnswer> {
        let mut last = None;
        while let Some(raw) = self.step() {
            let done = stop(&raw);
            last = Some(raw);
            if done {
                break;
            }
        }
        last
    }

    /// Scans every remaining batch and returns the final answer.
    pub fn run_to_completion(&mut self) -> Option<RawAnswer> {
        self.run_until(|_| false)
    }

    /// Batches remaining.
    pub fn batches_remaining(&self) -> usize {
        self.sample.num_batches() - self.next_batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verdict_storage::{ColumnDef, Expr, Schema, Table};

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

    #[test]
    fn session_refines_error() {
        let e = engine(100_000, 0.1);
        let mut s = e
            .session(&AggregateFn::Avg(Expr::col("v")), &Predicate::True)
            .unwrap();
        let first = s.step().unwrap();
        let last = s.run_to_completion().unwrap();
        assert!(last.error < first.error);
        assert!(last.tuples_scanned > first.tuples_scanned);
        // True mean of v is ~49.5.
        assert!((last.answer - 49.5).abs() < 2.0, "answer {}", last.answer);
    }

    #[test]
    fn run_until_stops_at_target() {
        let e = engine(100_000, 0.1);
        let mut s = e
            .session(&AggregateFn::Avg(Expr::col("v")), &Predicate::True)
            .unwrap();
        let raw = s.run_until(|r| r.error < 1.0).unwrap();
        assert!(raw.error < 1.0);
        assert!(s.batches_remaining() > 0, "should stop before exhaustion");
    }

    #[test]
    fn engine_answer_respects_tuple_cap() {
        let e = engine(50_000, 0.2);
        let raw = e
            .answer(&AggregateFn::Count, &Predicate::True, Some(300))
            .unwrap();
        // Cap rounds up to a whole batch (batch size 100).
        assert!(raw.tuples_scanned >= 300 && raw.tuples_scanned <= 400);
    }

    #[test]
    fn count_estimate_close_to_truth() {
        let e = engine(100_000, 0.1);
        let p = Predicate::between("x", 0.0, 24_999.0);
        let raw = e.answer(&AggregateFn::Count, &p, None).unwrap();
        let rel = (raw.answer - 25_000.0).abs() / 25_000.0;
        assert!(rel < 0.05, "count {} rel err {rel}", raw.answer);
        // Error bound should cover the actual deviation at ~2 sigma.
        assert!((raw.answer - 25_000.0).abs() < 4.0 * raw.error);
    }

    #[test]
    fn simulated_time_monotone_in_tuples() {
        let e = engine(1000, 1.0);
        assert!(e.simulated_ns(10_000) > e.simulated_ns(100));
    }
}
