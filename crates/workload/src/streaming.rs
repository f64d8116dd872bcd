//! Streaming workload generators for the ingest pipeline stage.
//!
//! The evolving-table scenario needs data whose distribution *moves*:
//! batches that arrive over time with a drifting measure mean (concept
//! drift — the case Lemma 3's error widening exists for). The generator
//! produces a base table plus an unbounded sequence of row batches shaped
//! for `Database::ingest`.

use rand::Rng;
use verdict_storage::{ColumnDef, Schema, Table, Value};

use crate::synthetic::{SmoothField, NUMERIC_DOMAIN};

/// Batches whose measure mean drifts linearly over time.
///
/// Rows look like the [`crate::synthetic`] tables — a numeric dimension
/// `d0` in `[0, 10]` and a measure `m` that varies smoothly with `d0` —
/// but every batch shifts `m` by another `drift_per_batch`: batch `k`
/// draws `m = field(d0) + k · drift_per_batch + noise`. An engine that
/// learned on the base table sees its old answers drift away at a known,
/// controllable rate.
#[derive(Debug, Clone)]
pub struct DriftingMeanStream {
    /// Rows per emitted batch.
    pub batch_rows: usize,
    /// Mean shift added to the measure with every batch.
    pub drift_per_batch: f64,
    /// Additive uniform observation noise on the measure.
    pub noise: f64,
    field: SmoothField,
    batches_emitted: usize,
}

impl DriftingMeanStream {
    /// Creates a stream; the smooth base field is sampled from `rng` with
    /// smoothing width `smoothness`.
    pub fn new<R: Rng>(
        batch_rows: usize,
        drift_per_batch: f64,
        noise: f64,
        smoothness: f64,
        rng: &mut R,
    ) -> DriftingMeanStream {
        DriftingMeanStream {
            batch_rows,
            drift_per_batch,
            noise,
            field: SmoothField::sample(smoothness, rng),
            batches_emitted: 0,
        }
    }

    /// The schema every batch (and the base table) conforms to.
    pub fn schema(&self) -> Schema {
        Schema::new(vec![
            ColumnDef::numeric_dimension("d0"),
            ColumnDef::measure("m"),
        ])
        .expect("stream schema is valid")
    }

    /// Generates the base (pre-drift) table: `rows` rows at drift zero.
    pub fn base_table<R: Rng>(&self, rows: usize, rng: &mut R) -> Table {
        let mut table = Table::new(self.schema());
        for _ in 0..rows {
            table
                .push_row(self.row(0.0, rng))
                .expect("generated row fits schema");
        }
        table
    }

    /// The drift the *next* batch will carry.
    pub(crate) fn current_drift(&self) -> f64 {
        (self.batches_emitted + 1) as f64 * self.drift_per_batch
    }

    /// Emits the next batch, one `drift_per_batch` further from the base
    /// distribution.
    pub fn next_batch<R: Rng>(&mut self, rng: &mut R) -> Vec<Vec<Value>> {
        let drift = self.current_drift();
        self.batches_emitted += 1;
        (0..self.batch_rows).map(|_| self.row(drift, rng)).collect()
    }

    fn row<R: Rng>(&self, drift: f64, rng: &mut R) -> Vec<Value> {
        let (lo, hi) = NUMERIC_DOMAIN;
        let x = lo + rng.gen::<f64>() * (hi - lo);
        let m = self.field.at(x) + drift + self.noise * (rng.gen::<f64>() * 2.0 - 1.0);
        vec![x.into(), m.into()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drifting_stream_shifts_batch_means() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut stream = DriftingMeanStream::new(2_000, 0.5, 0.05, 1.5, &mut rng);
        let base = stream.base_table(4_000, &mut rng);
        let base_mean: f64 = base
            .column("m")
            .unwrap()
            .numeric()
            .unwrap()
            .iter()
            .sum::<f64>()
            / base.num_rows() as f64;
        let mean_of = |batch: &[Vec<Value>]| -> f64 {
            batch.iter().map(|r| r[1].as_num().unwrap()).sum::<f64>() / batch.len() as f64
        };
        let b1 = stream.next_batch(&mut rng);
        let b2 = stream.next_batch(&mut rng);
        let (m1, m2) = (mean_of(&b1), mean_of(&b2));
        // Batch k should sit ~ k * drift above the base mean.
        assert!((m1 - base_mean - 0.5).abs() < 0.2, "batch 1 mean {m1}");
        assert!((m2 - base_mean - 1.0).abs() < 0.2, "batch 2 mean {m2}");
        // Rows conform to the schema (ingestable).
        let mut t = stream.base_table(10, &mut rng);
        t.push_rows(&b1).unwrap();
    }
}
