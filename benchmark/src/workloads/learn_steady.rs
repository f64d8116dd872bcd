//! `learn_steady`: a small sample (a full scan is ≈0.1 ms) under a
//! synopsis of 1,500 recorded snippets — three quarters of the
//! paper-default capacity C_g = 2000; at the full capacity training alone
//! takes 15–20 s here, more than a run may spend — and a model trained on
//! them, so inference, absorb and group enumeration are nearly all of a
//! query. The window's own answers push the synopsis to its capacity,
//! where LRU eviction starts.
//!
//! One operation = `Prepared::bind` + `Bound::run` (`Verdict`, `ScanAll`),
//! every answer absorbed into the synopsis.
//!
//! Mix, in a fixed rotation of five: four single-cell week bands, one
//! `GROUP BY site` (8 cells) — the median is 62 % into the single-cell
//! class, p95 75 % into the grouped class.
//!
//! Fails an operation: an error or refusal, a tuple count other than the
//! sample's row count, an improved error above the raw error. After the
//! window every answered cell is audited against the exact answer over
//! `Database::table`; the audit feeds `workload.bound_coverage` and
//! `workload.error_reduction`.

use std::sync::Arc;
use std::time::Instant;

use verdict::{Database, Mode, Prepared, QueryOptions, StopPolicy};
use verdict_core::{AggKey, VerdictConfig};
use verdict_storage::Table;

use super::{audit_answers, check_full_scan, prepared_op, resident_sample_rows};
use crate::fixtures::{self, Answer, Obs, TABLE};
use crate::gen::{self, Sampler, Statement};
use crate::harness::{Budget, Layers, Plan, Workload};
use crate::trace::Recorder;
use crate::{layers, probes};

const SAMPLE_FRACTION: f64 = 0.1;
/// `TableOptions`' default batch size.
const BATCH_SIZE: usize = 1000;
const GROUPED_WEEKS: f64 = 30.0;

pub struct LearnSteady;

pub struct Fixture {
    db: Database,
    table: Arc<Table>,
    rows: usize,
    sample_rows: u64,
    sampler: Sampler,
    opts: QueryOptions,
    band: Prepared,
    grouped: Prepared,
    train_s: f64,
    /// Statements drawn so far (position in the rotation).
    drawn: usize,
    answered: Vec<(Statement, Answer)>,
}

fn rows(smoke: bool) -> usize {
    if smoke {
        20_000
    } else {
        400_000
    }
}

/// Snippets the set-up records before training: three quarters of the
/// default synopsis capacity (enough for inference + absorb to be ≥ 0.8 of
/// a query and the scan ≤ 0.1), or a handful for `--smoke`, where training would
/// dominate an unoptimised test build.
fn fill_target(smoke: bool) -> usize {
    if smoke {
        48
    } else {
        VerdictConfig::default().synopsis_capacity * 3 / 4
    }
}

/// The `i`-th statement of the rotation.
fn draw(sampler: &mut Sampler, i: usize) -> Statement {
    if i % 5 == 4 {
        sampler.grouped(GROUPED_WEEKS)
    } else {
        sampler.week_band(2.0, 8.0)
    }
}

impl Workload for LearnSteady {
    const NAME: &'static str = "learn_steady";
    const SETUP_REPEATS: usize = 1;
    const SMOKE_PASSES: u64 = 40;
    type Fixture = Fixture;

    fn setup(plan: &Plan, obs: Option<&Obs>, _slot: usize) -> Fixture {
        let rows = rows(plan.smoke);
        let db = fixtures::resident_db(
            gen::events_table(plan.seed, rows),
            SAMPLE_FRACTION,
            BATCH_SIZE,
            None,
            None,
            plan.seed,
            obs,
        );
        let opts = fixtures::query_options(Mode::Verdict, StopPolicy::ScanAll);
        let key = AggKey::avg("value").qualify(TABLE);
        let mut fill = Sampler::new(plan.seed, 1);
        let mut filled = 0;
        while db.synopsis_len(&key).expect("table resolves") < fill_target(plan.smoke) {
            db.query(&draw(&mut fill, filled).sql(TABLE), &opts)
                .expect("fill query");
            filled += 1;
        }
        let t0 = Instant::now();
        db.train(TABLE).expect("train");
        let train_s = t0.elapsed().as_secs_f64();

        let mut sampler = Sampler::new(plan.seed, 0);
        let mut shape = |grouped: bool| {
            let mut st = sampler.week_band(2.0, 8.0);
            st.grouped = grouped;
            db.prepare(&st.template(TABLE)).expect("prepare")
        };
        let (band, grouped) = (shape(false), shape(true));
        let fx = Fixture {
            table: db.table(TABLE).expect("table resolves"),
            rows,
            sample_rows: resident_sample_rows(rows, SAMPLE_FRACTION),
            sampler,
            opts,
            band,
            grouped,
            train_s,
            drawn: 0,
            answered: Vec::new(),
            db,
        };
        // Warm-up: both shapes once through the prepared path.
        let mut warm = Sampler::new(plan.seed, 99);
        for st in [warm.week_band(2.0, 8.0), warm.grouped(GROUPED_WEEKS)] {
            let stmt = if st.grouped { &fx.grouped } else { &fx.band };
            stmt.bind(&st.params())
                .and_then(|b| b.run(&fx.opts))
                .expect("warm-up run");
        }
        fx
    }

    fn window(fx: &mut Fixture, _plan: &Plan, budget: Budget, rec: &mut Recorder) {
        let mut gate = budget.gate();
        while gate.pass() {
            rec.begin_op();
            rec.span("op", |rec| {
                let st = draw(&mut fx.sampler, fx.drawn);
                fx.drawn += 1;
                let stmt = if st.grouped { &fx.grouped } else { &fx.band };
                if let Some((answer, ms)) = prepared_op(rec, stmt, &fx.table, &st, &fx.opts) {
                    check_full_scan(rec, &answer, fx.sample_rows, &st);
                    rec.latencies_ms.push(ms);
                    fx.answered.push((st, answer));
                }
            });
        }
    }

    fn finish(fx: Fixture, plan: &Plan, rec: &mut Recorder, obs: Option<&Obs>, out: &mut Layers) {
        let quality = audit_answers(rec, &fx.table, fx.rows, &fx.answered);
        out.insert("workload.bound_coverage", quality.bound_coverage());
        out.insert("workload.raw_bound_coverage", quality.raw_bound_coverage());
        out.insert("workload.error_reduction", quality.error_reduction());
        out.insert("workload.audited_cells", quality.audited() as f64);
        out.insert("workload.train_s", fx.train_s);
        let Some(obs) = obs else { return };
        layers::engine(obs, &fx.db, out);
        let ran: Vec<Statement> = fx.answered.iter().map(|(st, _)| st.clone()).collect();
        probes::sql(&fx.table, &ran, out);
        probes::scan_kernels(plan, &ran, out);
        probes::core(&fx.db, &ran, fx.train_s, out);
    }
}
