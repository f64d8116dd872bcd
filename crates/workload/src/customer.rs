//! Customer1-style trace generator (paper §8.1).
//!
//! The real Customer1 dataset is a proprietary query trace from a large
//! customer of an analytic-DBMS vendor: 15.5K timestamped queries of which
//! 3.3K are analytical aggregate queries Spark SQL can run, and 73.7% of
//! those are Verdict-supported; most queries use `COUNT(*)` and fewer than
//! 5 distinct selection predicates. This generator reproduces those
//! *statistics* over a synthetic events table: timestamped queries whose
//! time-range predicates drift forward as the trace progresses — the
//! access pattern that makes database learning effective on real
//! dashboards.

use rand::Rng;
use verdict_storage::{ColumnDef, Schema, Table};

use crate::synthetic::SmoothField;

/// Categorical domains of the events table.
pub const SITES: usize = 20;
/// Sales channels.
pub const CHANNELS: [&str; 4] = ["web", "store", "partner", "phone"];
/// Order statuses.
pub const STATUSES: [&str; 5] = ["new", "paid", "shipped", "returned", "cancelled"];
/// Weeks covered by the trace (March 2011 – April 2012 ≈ 60 weeks).
pub(crate) const WEEK_RANGE: (f64, f64) = (1.0, 60.0);

/// One query of the trace.
#[derive(Debug, Clone)]
pub struct TraceQuery {
    /// SQL text.
    pub sql: String,
    /// Arrival timestamp (weeks since trace start; monotone).
    pub timestamp: f64,
    /// Whether the generator intends this query to be Verdict-supported
    /// (the checker must agree; tested).
    pub supported: bool,
}

/// The generated trace.
#[derive(Debug)]
pub struct CustomerTrace {
    /// The events table queries run against.
    pub table: Table,
    /// Timestamped queries, in arrival order.
    pub queries: Vec<TraceQuery>,
}

/// Builds the events table: `event_week`/`amount_band` numeric dimensions,
/// `site`/`channel`/`status` categorical dimensions, `value` measure with
/// smooth weekly structure.
pub fn generate_table<R: Rng>(rows: usize, rng: &mut R) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("event_week"),
        ColumnDef::numeric_dimension("amount_band"),
        ColumnDef::categorical_dimension("site"),
        ColumnDef::categorical_dimension("channel"),
        ColumnDef::categorical_dimension("status"),
        ColumnDef::measure("value"),
    ])
    .expect("valid schema");
    let mut t = Table::new(schema);
    let trend = SmoothField::sample(1.2, rng);
    let (wlo, whi) = WEEK_RANGE;
    for _ in 0..rows {
        let week = wlo + rng.gen::<f64>() * (whi - wlo);
        let band = (rng.gen::<f64>() * 10.0).floor();
        let site = rng.gen_range(0..SITES as u32);
        let channel = CHANNELS[rng.gen_range(0..CHANNELS.len())];
        let status = STATUSES[rng.gen_range(0..STATUSES.len())];
        let x = (week - wlo) / (whi - wlo) * 10.0;
        let value = 100.0
            * (1.0 + 0.3 * trend.at(x))
            * (1.0 + 0.15 * band)
            * (1.0 + 0.05 * (rng.gen::<f64>() - 0.5));
        t.push_row(vec![
            week.into(),
            band.into(),
            site.into(),
            channel.into(),
            status.into(),
            value.into(),
        ])
        .expect("row fits schema");
    }
    t
}

/// Generates a trace of `n` aggregate queries with the paper's support
/// ratio (73.7% supported by default).
pub fn generate_trace<R: Rng>(rows: usize, n: usize, rng: &mut R) -> CustomerTrace {
    let table = generate_table(rows, rng);
    let mut queries = Vec::with_capacity(n);
    let (wlo, whi) = WEEK_RANGE;
    for i in 0..n {
        // Arrival time progresses through the trace window.
        let timestamp = wlo + (whi - wlo) * i as f64 / n.max(1) as f64;
        let supported = rng.gen::<f64>() < 0.737;
        let sql = if supported {
            supported_query(timestamp, rng)
        } else {
            unsupported_query(timestamp, rng)
        };
        queries.push(TraceQuery {
            sql,
            timestamp,
            supported,
        });
    }
    CustomerTrace { table, queries }
}

/// A supported analytic query: mostly `COUNT(*)` (the paper notes most
/// Customer1 queries are counts), time-range predicates anchored near the
/// query's own timestamp (dashboards look at recent data), and 1–4
/// selection predicates.
fn supported_query<R: Rng>(timestamp: f64, rng: &mut R) -> String {
    let agg = match rng.gen_range(0..10) {
        0..=5 => "COUNT(*)".to_owned(),
        6..=7 => "SUM(value)".to_owned(),
        _ => "AVG(value)".to_owned(),
    };
    let mut preds = vec![time_range(timestamp, rng)];
    let extra = rng.gen_range(0..3);
    for _ in 0..extra {
        preds.push(random_filter(rng));
    }
    let group = match rng.gen_range(0..5) {
        0 => " GROUP BY channel",
        1 => " GROUP BY status",
        _ => "",
    };
    format!(
        "SELECT {agg} FROM events WHERE {}{}",
        preds.join(" AND "),
        group
    )
}

/// An unsupported query drawn from the failure modes the paper reports
/// (textual filters, disjunctions, MIN/MAX, nesting).
fn unsupported_query<R: Rng>(timestamp: f64, rng: &mut R) -> String {
    match rng.gen_range(0..4) {
        0 => format!(
            "SELECT COUNT(*) FROM events WHERE {} AND channel LIKE '%web%'",
            time_range(timestamp, rng)
        ),
        1 => format!(
            "SELECT SUM(value) FROM events WHERE {} OR status = 'returned'",
            time_range(timestamp, rng)
        ),
        2 => format!(
            "SELECT MAX(value) FROM events WHERE {}",
            time_range(timestamp, rng)
        ),
        _ => format!(
            "SELECT AVG(value) FROM events WHERE site IN (SELECT site FROM hot_sites) AND {}",
            time_range(timestamp, rng)
        ),
    }
}

fn time_range<R: Rng>(timestamp: f64, rng: &mut R) -> String {
    let (wlo, _) = WEEK_RANGE;
    // Look-back window ending near "now" (the query's timestamp).
    let window = 1.0 + (rng.gen::<f64>() * 12.0).floor();
    let hi = (timestamp.max(wlo + 1.0)).floor();
    let lo = (hi - window).max(wlo);
    format!("event_week BETWEEN {lo} AND {hi}")
}

fn random_filter<R: Rng>(rng: &mut R) -> String {
    match rng.gen_range(0..4) {
        0 => format!("site = {}", rng.gen_range(0..SITES)),
        1 => format!("channel = '{}'", CHANNELS[rng.gen_range(0..CHANNELS.len())]),
        2 => format!("status = '{}'", STATUSES[rng.gen_range(0..STATUSES.len())]),
        _ => {
            let lo = (rng.gen::<f64>() * 8.0).floor();
            format!("amount_band BETWEEN {lo} AND {}", lo + 2.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use verdict_sql::checker::JoinPolicy;
    use verdict_sql::{check_query, parse_query};

    #[test]
    fn trace_matches_support_ratio() {
        let mut rng = StdRng::seed_from_u64(1);
        let trace = generate_trace(500, 2000, &mut rng);
        let supported = trace.queries.iter().filter(|q| q.supported).count();
        let ratio = supported as f64 / trace.queries.len() as f64;
        assert!((ratio - 0.737).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn checker_agrees_with_labels() {
        let mut rng = StdRng::seed_from_u64(2);
        let trace = generate_trace(200, 300, &mut rng);
        for q in &trace.queries {
            let parsed =
                parse_query(&q.sql).unwrap_or_else(|e| panic!("failed to parse: {e}\n{}", q.sql));
            let verdict = check_query(&parsed, &JoinPolicy::none());
            assert_eq!(
                verdict.is_supported(),
                q.supported,
                "{} — checker {verdict:?}",
                q.sql
            );
        }
    }

    #[test]
    fn timestamps_monotone() {
        let mut rng = StdRng::seed_from_u64(3);
        let trace = generate_trace(100, 50, &mut rng);
        for pair in trace.queries.windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp);
        }
    }

    #[test]
    fn supported_queries_resolve_against_table() {
        use verdict_sql::resolve::to_predicate;
        let mut rng = StdRng::seed_from_u64(4);
        let trace = generate_trace(300, 200, &mut rng);
        for q in trace.queries.iter().filter(|q| q.supported) {
            let parsed = parse_query(&q.sql).unwrap();
            let pred = to_predicate(parsed.where_clause.as_ref().unwrap(), &trace.table)
                .unwrap_or_else(|e| panic!("resolve failed: {e}\n{}", q.sql));
            pred.selected_rows(&trace.table).unwrap();
        }
    }

    #[test]
    fn count_star_dominates() {
        let mut rng = StdRng::seed_from_u64(5);
        let trace = generate_trace(100, 1000, &mut rng);
        let counts = trace
            .queries
            .iter()
            .filter(|q| q.supported && q.sql.contains("COUNT(*)"))
            .count();
        let supported = trace.queries.iter().filter(|q| q.supported).count();
        assert!(
            counts as f64 / supported as f64 > 0.45,
            "{counts}/{supported}"
        );
    }
}
