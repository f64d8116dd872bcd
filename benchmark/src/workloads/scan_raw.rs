//! `scan_raw`: ad-hoc `NoLearn` / `ScanAll` queries over a sample far
//! larger than cache. One operation = one `Database::query`.
//!
//! Mix, in a fixed rotation of ten: 30 % a 4-week band on `event_week`,
//! 50 % an `amount_band` range ∧ channel `IN`, 20 % `GROUP BY site` over a
//! 15-week band. Every class has one selectivity, so its latencies are
//! narrow, and the shares put the median 40 % into the unclustered class
//! and p95 75 % into the grouped class — never on a class boundary, where
//! a seed's luck would move it.
//!
//! Scans run on one thread (see `SCAN_THREADS`), not the default of all
//! cores. The parallel path is measured by the `aqp.scan.parallel_speedup`
//! probe and, on small samples, by the other three workloads.
//!
//! Fails an operation: an error or refusal, a tuple count other than the
//! sample's row count, an improved error above the raw error.

use std::sync::Arc;

use verdict::{Database, Mode, QueryOptions, StopPolicy};
use verdict_storage::Table;

use super::{check_full_scan, query_op, resident_sample_rows, scan_sizes, SCAN_THREADS};
use crate::fixtures::{self, Obs};
use crate::gen::{self, Sampler, Statement};
use crate::harness::{Budget, Layers, Plan, Workload};
use crate::trace::Recorder;
use crate::{layers, probes};

/// Width of the grouped class's week band.
const GROUPED_WEEKS: f64 = 15.0;

pub struct ScanRaw;

pub struct Fixture {
    db: Database,
    table: Arc<Table>,
    sample_rows: u64,
    sampler: Sampler,
    opts: QueryOptions,
    /// Statements the window ran, kept for the probes (traced runs).
    ran: Vec<Statement>,
}

/// Width of the single-cell class's week band.
const BAND_WEEKS: f64 = 4.0;

/// The `i`-th statement of the rotation.
fn draw(sampler: &mut Sampler, i: usize) -> Statement {
    match i % 10 {
        0 | 3 | 7 => sampler.week_band(BAND_WEEKS, BAND_WEEKS),
        4 | 9 => sampler.grouped(GROUPED_WEEKS),
        _ => sampler.unclustered(),
    }
}

impl Workload for ScanRaw {
    const NAME: &'static str = "scan_raw";
    const SETUP_REPEATS: usize = 2;
    const SMOKE_PASSES: u64 = 40;
    type Fixture = Fixture;

    fn setup(plan: &Plan, obs: Option<&Obs>, _slot: usize) -> Fixture {
        let sizes = scan_sizes(plan.smoke);
        let db = fixtures::resident_db(
            gen::events_table(plan.seed, sizes.rows),
            sizes.sample_fraction,
            sizes.batch_size,
            Some(SCAN_THREADS),
            None,
            plan.seed,
            obs,
        );
        let fx = Fixture {
            table: db.table(fixtures::TABLE).expect("table resolves"),
            db,
            sample_rows: resident_sample_rows(sizes.rows, sizes.sample_fraction),
            sampler: Sampler::new(plan.seed, 0),
            opts: fixtures::query_options(Mode::NoLearn, StopPolicy::ScanAll),
            ran: Vec::new(),
        };
        // Warm-up: zone maps build lazily on the first scan, and every
        // class should have run before the clock starts.
        let mut warm = Sampler::new(plan.seed, 99);
        for st in [
            warm.week_band(BAND_WEEKS, BAND_WEEKS),
            warm.unclustered(),
            warm.grouped(GROUPED_WEEKS),
        ] {
            fx.db
                .query(&st.sql(fixtures::TABLE), &fx.opts)
                .expect("warm-up query");
        }
        fx
    }

    fn window(fx: &mut Fixture, _plan: &Plan, budget: Budget, rec: &mut Recorder) {
        let mut gate = budget.gate();
        while gate.pass() {
            rec.begin_op();
            rec.span("op", |rec| {
                let st = draw(&mut fx.sampler, fx.ran.len());
                if let Some((answer, ms)) = query_op(rec, &fx.db, &fx.table, &st, &fx.opts) {
                    check_full_scan(rec, &answer, fx.sample_rows, &st);
                    rec.latencies_ms.push(ms);
                }
                fx.ran.push(st);
            });
        }
    }

    fn finish(fx: Fixture, plan: &Plan, _rec: &mut Recorder, obs: Option<&Obs>, out: &mut Layers) {
        let Some(obs) = obs else { return };
        layers::engine(obs, &fx.db, out);
        probes::sql(&fx.table, &fx.ran, out);
        probes::scan_kernels(plan, &fx.ran, out);
    }
}
