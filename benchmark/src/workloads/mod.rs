//! The five workloads. Each file states its sizes, what one operation is,
//! and which checks make an operation fail; `README.md` says why each
//! exists and which layers it stresses or bypasses.

use std::time::Instant;

use verdict::{Database, Prepared, QueryOptions, QueryOutcome};
use verdict_storage::Table;

use crate::audit;
use crate::fixtures::{self, Answer, TABLE};
use crate::gen::Statement;
use crate::trace::Recorder;

pub mod ingest_paged;
pub mod learn_steady;
pub mod scan_raw;
pub mod serve_mixed;
pub mod target_error;

/// Sizes shared by `scan_raw` and `target_error` (one fixture shape): a
/// base table whose 25 % sample (≈130 MB of columns) is far beyond the
/// per-core L2, scanned in 4096-row batches.
pub(crate) struct ScanSizes {
    pub rows: usize,
    pub sample_fraction: f64,
    pub batch_size: usize,
}

pub(crate) fn scan_sizes(smoke: bool) -> ScanSizes {
    ScanSizes {
        rows: if smoke { 160_000 } else { 16_000_000 },
        sample_fraction: 0.25,
        batch_size: 4096,
    }
}

/// Worker threads of one query's scan on the large scan fixture: one, not
/// the default of all cores. On a 2-vCPU host the default is two workers
/// plus a coordinator that hands off after each of a query's 977 batches,
/// and a 10 ms scan then takes ≈10 or ≈20 ms depending on how the three
/// threads were scheduled; the median flips between the two modes from one
/// minute to the next (spread 0.37 across ten seeds, above any bound the
/// contract allows). On one thread the same class of query stays within
/// 2 % of its median.
pub(crate) const SCAN_THREADS: usize = 1;

/// Sample rows a resident, unpartitioned database draws (the program
/// rounds `rows × fraction`); what a `ScanAll` query must report scanned.
pub(crate) fn resident_sample_rows(rows: usize, fraction: f64) -> u64 {
    (rows as f64 * fraction).round() as u64
}

/// Runs one ad-hoc statement in-process as one operation: counts it,
/// spans it, times it, normalises the answer and applies the per-cell
/// checks. Returns the answer and the caller-observed latency in ms;
/// `None` (already counted as failed) if it errored or was refused.
pub(crate) fn query_op(
    rec: &mut Recorder,
    db: &Database,
    table: &Table,
    st: &Statement,
    opts: &QueryOptions,
) -> Option<(Answer, f64)> {
    let sql = st.sql(TABLE);
    let t0 = Instant::now();
    let outcome = rec.span("verdict.query", |_| db.query(&sql, opts));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    settle(rec, outcome, table, &sql).map(|answer| (answer, ms))
}

/// Turns a run's outcome into a checked [`Answer`], failing the current
/// operation if it errored, was refused, or broke a per-cell invariant.
fn settle(
    rec: &mut Recorder,
    outcome: verdict::Result<QueryOutcome>,
    table: &Table,
    what: &str,
) -> Option<Answer> {
    match outcome.map(|o| fixtures::answer_of(o, table)) {
        Ok(Some(answer)) => {
            audit::check_cells(rec, &answer, what);
            Some(answer)
        }
        Ok(None) => {
            rec.fail(|| format!("unsupported: {what}"));
            None
        }
        Err(e) => {
            rec.fail(|| format!("{e}: {what}"));
            None
        }
    }
}

/// Fails the current operation unless a full scan reported exactly the
/// sample's row count.
pub(crate) fn check_full_scan(
    rec: &mut Recorder,
    answer: &Answer,
    sample_rows: u64,
    st: &Statement,
) {
    if answer.tuples_scanned != sample_rows {
        rec.fail(|| {
            format!(
                "ScanAll scanned {} tuples, sample has {sample_rows}: {}",
                answer.tuples_scanned,
                st.sql(TABLE)
            )
        });
    }
}

/// [`query_op`] through the prepared path: `Prepared::bind` then
/// `Bound::run`, timed together as the one operation the caller waits for.
pub(crate) fn prepared_op(
    rec: &mut Recorder,
    stmt: &Prepared,
    table: &Table,
    st: &Statement,
    opts: &QueryOptions,
) -> Option<(Answer, f64)> {
    let params = st.params();
    let t0 = Instant::now();
    let outcome = rec
        .span("verdict.bind", |_| stmt.bind(&params))
        .and_then(|bound| rec.span("verdict.run", |_| bound.run(opts)));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    settle(rec, outcome, table, stmt.sql()).map(|answer| (answer, ms))
}

/// Audits every cell of `answered` against the exact answer over `table`
/// (whose first `clustered_rows` rows are in week order). A cell whose
/// group has no base row cannot have been answered from a sample of the
/// base table, so it counts as a failed check.
pub(crate) fn audit_answers(
    rec: &mut Recorder,
    table: &Table,
    clustered_rows: usize,
    answered: &[(Statement, Answer)],
) -> audit::Quality {
    let mut quality = audit::Quality::default();
    for (st, answer) in answered {
        let exact = audit::exact(table, clustered_rows, st);
        for cell in &answer.cells {
            match exact.avg(cell.site) {
                Some(truth) => quality.audit(cell, truth),
                None => rec.check(false, || {
                    format!("answered a cell no base row matches: {}", st.sql(TABLE))
                }),
            }
        }
    }
    quality
}
