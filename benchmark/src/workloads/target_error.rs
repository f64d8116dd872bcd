//! `target_error`: the paper's Table-4 claim — the same error bound for
//! less scanning. The `scan_raw` fixture, a synopsis of recorded week-band
//! answers and a trained model; then every fresh single-cell statement
//! runs under `Verdict` with one relative-error stop policy, and every
//! fourth one first runs under `NoLearn` with the same policy, as the
//! reference. One operation = one such run.
//!
//! The latencies are those of the whole stream, four `Verdict` runs to one
//! `NoLearn` run: `query_p50_ms` is 62 % into the `Verdict` runs (one
//! batch, one inference, one absorb) and `query_p95_ms` 75 % into the
//! `NoLearn` runs, where the scan has reached the end of the sample or is
//! about to — what the statement costs without the model. Neither is the
//! jitter tail of a sub-millisecond class, which moved by a third of
//! itself between runs of the same code on a shared host. The two ratios
//! and `workload.nolearn_p50_ms` come from the statements that ran under
//! both modes; running the reference right before its `Verdict` run,
//! instead of in a pass of its own, exposes both to the same machine
//! state. Scans run on one thread, as in `scan_raw` and for the same
//! reason.
//!
//! The synopsis' capacity is the number of recorded answers, so it is full
//! when the window opens and every absorb evicts: a window query costs the
//! same whether it is the first or the last. (`Learner::absorb` copies the
//! synopsis it appends to; under the default capacity of 2000 the `Verdict`
//! runs slowed by half over one window, and the percentiles then depended
//! on how many queries the machine got through.)
//!
//! Only single-cell statements: a grouped statement under this policy on
//! the trained fixture re-runs inference for every unmet cell after each
//! of ≈977 batches and does not finish in minutes (see README, known
//! findings).
//!
//! Fails an operation: an error or refusal, an improved error above the
//! raw error, or a scan that stopped early with a reported bound above
//! the target.

use std::sync::Arc;
use std::time::Instant;

use verdict::{Database, Mode, QueryOptions, StopPolicy};
use verdict_storage::Table;

use super::{audit_answers, query_op, resident_sample_rows, scan_sizes, SCAN_THREADS};
use crate::audit::Z_95;
use crate::fixtures::{self, Answer, Obs, TABLE};
use crate::gen::{self, Sampler, Statement};
use crate::harness::{Budget, Layers, Plan, Workload};
use crate::trace::Recorder;
use crate::{layers, probes, stats};

/// Relative half-width both modes must reach, at `DELTA` confidence
/// (the level `audit::Z_95` is the quantile of); chosen so a `NoLearn`
/// run scans a median of at least a tenth of the sample.
const TARGET: f64 = 0.001;
const DELTA: f64 = 0.95;
/// `Verdict` answers audited against exact answers after the window.
const AUDITED: usize = 200;
/// Every statement at a position that is a multiple of this (the first of
/// each four) runs under `NoLearn` first.
const REFERENCE_EVERY: usize = 4;
/// Distance the window's bands keep from the ends of the week range. At an
/// end the model has recorded neighbours on one side only and seldom meets
/// the target early; such a statement scans up to the whole sample under
/// `Verdict`, re-running inference after each of up to 977 batches
/// (≈ 100 ms against 0.15 ms). At 0.5 % of the statements they were a
/// tenth of a window and moved `qps` by 13 % of itself from seed to seed.
const EDGE_WEEKS: f64 = 4.0;

pub struct TargetError;

pub struct Fixture {
    db: Database,
    table: Arc<Table>,
    rows: usize,
    sample_rows: u64,
    sampler: Sampler,
    nolearn: QueryOptions,
    learn: QueryOptions,
    train_s: f64,
    pairs: Vec<Pair>,
    audited: Vec<(Statement, Answer)>,
    ran: Vec<Statement>,
}

/// One statement's runs under both modes.
struct Pair {
    nolearn_ms: f64,
    nolearn_tuples: u64,
    verdict_ms: f64,
    verdict_tuples: u64,
}

fn recorded(smoke: bool) -> usize {
    if smoke {
        40
    } else {
        300
    }
}

/// A statement whose answer the set-up records: a band anywhere in the
/// week range.
fn recorded_draw(sampler: &mut Sampler) -> Statement {
    sampler.week_band(2.0, 8.0)
}

/// A statement of the window: a band of the same widths, `EDGE_WEEKS`
/// clear of either end of the week range.
fn draw(sampler: &mut Sampler) -> Statement {
    sampler.band_within(
        gen::WEEK_LO + EDGE_WEEKS,
        gen::WEEK_HI - EDGE_WEEKS,
        2.0,
        8.0,
    )
}

/// The stop policy's promise: a scan that ended before the sample did
/// reports a bound within the target.
fn check_target(rec: &mut Recorder, answer: &Answer, sample_rows: u64, st: &Statement) {
    for cell in &answer.cells {
        let relative = Z_95 * cell.error / cell.answer.abs().max(1e-9);
        if answer.tuples_scanned < sample_rows && relative > TARGET * (1.0 + 1e-9) {
            rec.fail(|| {
                format!(
                    "stopped at {} of {sample_rows} tuples with bound {relative} > {TARGET}: {}",
                    answer.tuples_scanned,
                    st.sql(TABLE)
                )
            });
        }
    }
}

/// One operation: `st` under `opts` (the target policy in either mode),
/// timed into the window's latencies and checked against the policy's
/// promise.
fn target_op(
    rec: &mut Recorder,
    fx: &Fixture,
    st: &Statement,
    opts: &QueryOptions,
) -> Option<(Answer, f64)> {
    rec.begin_op();
    rec.span("op", |rec| {
        let (answer, ms) = query_op(rec, &fx.db, &fx.table, st, opts)?;
        check_target(rec, &answer, fx.sample_rows, st);
        rec.latencies_ms.push(ms);
        Some((answer, ms))
    })
}

impl Workload for TargetError {
    const NAME: &'static str = "target_error";
    const SETUP_REPEATS: usize = 1;
    const SMOKE_PASSES: u64 = 30;
    type Fixture = Fixture;

    fn setup(plan: &Plan, obs: Option<&Obs>, _slot: usize) -> Fixture {
        let sizes = scan_sizes(plan.smoke);
        let db = fixtures::resident_db(
            gen::events_table(plan.seed, sizes.rows),
            sizes.sample_fraction,
            sizes.batch_size,
            Some(SCAN_THREADS),
            Some(recorded(plan.smoke)),
            plan.seed,
            obs,
        );
        let record = fixtures::query_options(Mode::Verdict, StopPolicy::ScanAll);
        let mut fill = Sampler::new(plan.seed, 1);
        for _ in 0..recorded(plan.smoke) {
            db.query(&recorded_draw(&mut fill).sql(TABLE), &record)
                .expect("recording query");
        }
        let t0 = Instant::now();
        db.train(TABLE).expect("train");
        let train_s = t0.elapsed().as_secs_f64();

        let policy = StopPolicy::RelativeErrorBound {
            target: TARGET,
            delta: DELTA,
        };
        let fx = Fixture {
            table: db.table(TABLE).expect("table resolves"),
            rows: sizes.rows,
            sample_rows: resident_sample_rows(sizes.rows, sizes.sample_fraction),
            sampler: Sampler::new(plan.seed, 0),
            nolearn: fixtures::query_options(Mode::NoLearn, policy),
            learn: fixtures::query_options(Mode::Verdict, policy),
            train_s,
            pairs: Vec::new(),
            audited: Vec::new(),
            ran: Vec::new(),
            db,
        };
        let warm = draw(&mut Sampler::new(plan.seed, 99)).sql(TABLE);
        for opts in [&fx.nolearn, &fx.learn] {
            fx.db.query(&warm, opts).expect("warm-up query");
        }
        fx
    }

    fn window(fx: &mut Fixture, _plan: &Plan, budget: Budget, rec: &mut Recorder) {
        let mut gate = budget.gate();
        while gate.pass() {
            let st = draw(&mut fx.sampler);
            let reference = if fx.ran.len().is_multiple_of(REFERENCE_EVERY) {
                target_op(rec, fx, &st, &fx.nolearn)
            } else {
                None
            };
            if let Some((improved, verdict_ms)) = target_op(rec, fx, &st, &fx.learn) {
                if let Some((raw, nolearn_ms)) = reference {
                    fx.pairs.push(Pair {
                        nolearn_ms,
                        nolearn_tuples: raw.tuples_scanned,
                        verdict_ms,
                        verdict_tuples: improved.tuples_scanned,
                    });
                }
                if fx.audited.len() < AUDITED {
                    fx.audited.push((st.clone(), improved));
                }
            }
            fx.ran.push(st);
        }
    }

    fn finish(fx: Fixture, plan: &Plan, rec: &mut Recorder, obs: Option<&Obs>, out: &mut Layers) {
        let quality = audit_answers(rec, &fx.table, fx.rows, &fx.audited);
        out.insert("workload.bound_coverage", quality.bound_coverage());
        out.insert("workload.raw_bound_coverage", quality.raw_bound_coverage());
        out.insert("workload.error_reduction", quality.error_reduction());
        out.insert("workload.audited_cells", quality.audited() as f64);
        out.insert("workload.train_s", fx.train_s);
        let column = |f: fn(&Pair) -> f64| fx.pairs.iter().map(f).collect::<Vec<f64>>();
        let nolearn_p50 = stats::median(&column(|p| p.nolearn_ms));
        let verdict_p50 = stats::median(&column(|p| p.verdict_ms));
        out.insert("workload.nolearn_p50_ms", nolearn_p50);
        if verdict_p50 > 0.0 {
            out.insert("workload.speedup_vs_nolearn", nolearn_p50 / verdict_p50);
        }
        let nolearn_tuples: f64 = column(|p| p.nolearn_tuples as f64).iter().sum();
        let verdict_tuples: f64 = column(|p| p.verdict_tuples as f64).iter().sum();
        if verdict_tuples > 0.0 {
            out.insert(
                "workload.tuples_ratio_vs_nolearn",
                nolearn_tuples / verdict_tuples,
            );
        }
        out.insert(
            "workload.nolearn_scan_share",
            stats::median(&column(|p| p.nolearn_tuples as f64)) / fx.sample_rows as f64,
        );
        let Some(obs) = obs else { return };
        layers::engine(obs, &fx.db, out);
        probes::sql(&fx.table, &fx.ran, out);
        probes::scan_kernels(plan, &fx.ran, out);
        probes::core(&fx.db, &fx.ran, fx.train_s, out);
    }
}
