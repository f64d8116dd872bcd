//! Parallel-scan and partition parity: the morsel-driven parallel shared
//! scan must be **bit-identical** to the serial scan — answers, errors,
//! improved bounds, scan accounting, and the synopsis the learned state
//! absorbs — at every thread count, under every stop policy, and for
//! every partition layout (unpartitioned, range, hash). Threads and
//! partitions may change only *how fast* a query scans (and the
//! morsel/prune counters it reports), never *what* it answers or learns.
//!
//! Partition pruning gets its own consistency check: a pruned partition's
//! rows still count toward `tuples_scanned` (the scan position is a
//! property of the sample prefix, not of how much work the executor
//! skipped), so a partitioned session reports the same scan accounting
//! as an unpartitioned one, bit for bit.

use proptest::prelude::*;
use verdict::core::persist::{EngineState, Persist};
use verdict::{Mode, QueryOutcome, QueryResult, SessionBuilder, StopPolicy, VerdictSession};
use verdict_storage::{ColumnDef, PartitionSpec, Schema, Table, Value};

const REGIONS: [&str; 10] = ["r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"];

/// A deterministic table: numeric `week` dimension (1..=25), categorical
/// `region` dimension (10 labels), `rev` measure.
fn base_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::categorical_dimension("region"),
        ColumnDef::measure("rev"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 0x9e3779b97f4a7c15u64;
    for i in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let week = 1.0 + (i % 25) as f64;
        let region = REGIONS[i % REGIONS.len()];
        let rev = 50.0 + 10.0 * (week / 4.0).sin() + 8.0 * (u - 0.5);
        t.push_row(vec![week.into(), region.into(), rev.into()])
            .unwrap();
    }
    t
}

/// The partition layouts under test. `None` is the unpartitioned
/// baseline; the range layout cuts the `week` dimension, the hash layout
/// scatters the `region` dimension.
fn layouts() -> [Option<PartitionSpec>; 3] {
    [
        None,
        Some(PartitionSpec::range("week", vec![6.0, 12.0, 18.0])),
        Some(PartitionSpec::hash("region", 5)),
    ]
}

fn session(rows: usize, layout: Option<PartitionSpec>, threads: usize) -> VerdictSession {
    let mut b = SessionBuilder::new(base_table(rows))
        .sample_fraction(0.25)
        .batch_size(150)
        .seed(17)
        .parallelism(threads)
        .query_log(16);
    if let Some(spec) = layout {
        b = b.partition_by(spec);
    }
    b.build().unwrap()
}

#[derive(Debug, Clone)]
struct QuerySpec {
    sql: String,
    policy: StopPolicy,
}

/// Random supported queries: 1–3 aggregates, optional GROUP BY on either
/// dimension, random week range (sometimes an IN-set on region), and a
/// random draw over all four stop policies.
fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (0u32..20, 1u32..=25, 1u32..8, 0u32..3, 0u32..4, 0u32..3).prop_map(
        |(lo, width, agg_mask, group, policy, shape)| {
            let mut aggs: Vec<&str> = Vec::new();
            if agg_mask & 1 != 0 {
                aggs.push("AVG(rev)");
            }
            if agg_mask & 2 != 0 {
                aggs.push("SUM(rev)");
            }
            if agg_mask & 4 != 0 {
                aggs.push("COUNT(*)");
            }
            let (select_prefix, group_clause) = match group {
                1 => ("region, ", " GROUP BY region"),
                2 => ("week, ", " GROUP BY week"),
                _ => ("", ""),
            };
            let hi = lo + width;
            let filter = match shape {
                1 => format!("region IN ('r1', 'r4', 'r7') AND week BETWEEN {lo} AND {hi}"),
                2 => format!("week = {}", 1 + lo % 25),
                _ => format!("week BETWEEN {lo} AND {hi}"),
            };
            let sql = format!(
                "SELECT {select_prefix}{} FROM t WHERE {filter}{group_clause}",
                aggs.join(", "),
            );
            let policy = match policy {
                0 => StopPolicy::ScanAll,
                1 => StopPolicy::TupleBudget(700),
                2 => StopPolicy::TupleBudget(2_000),
                _ => StopPolicy::RelativeErrorBound {
                    target: 0.05,
                    delta: 0.95,
                },
            };
            QuerySpec { sql, policy }
        },
    )
}

/// Group-key equality by bit identity (a NaN key equals itself).
fn groups_identical(
    a: &Option<verdict_storage::GroupKey>,
    b: &Option<verdict_storage::GroupKey>,
) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(ka), Some(kb)) => {
            ka.len() == kb.len()
                && ka.iter().zip(kb.iter()).all(|(x, y)| match (x, y) {
                    (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
                    _ => x == y,
                })
        }
        _ => false,
    }
}

/// Bitwise comparison of two query results, cell for cell.
fn assert_results_match(parallel: &QueryResult, serial: &QueryResult, sql: &str) {
    assert_eq!(parallel.rows.len(), serial.rows.len(), "{sql}");
    assert_eq!(parallel.truncated, serial.truncated, "{sql}");
    assert_eq!(parallel.tuples_scanned, serial.tuples_scanned, "{sql}");
    for (rp, rs) in parallel.rows.iter().zip(serial.rows.iter()) {
        assert!(
            groups_identical(&rp.group, &rs.group),
            "{sql}: {:?} vs {:?}",
            rp.group,
            rs.group
        );
        assert_eq!(rp.values.len(), rs.values.len(), "{sql}");
        for (cp, cs) in rp.values.iter().zip(rs.values.iter()) {
            assert_eq!(
                cp.raw_answer.to_bits(),
                cs.raw_answer.to_bits(),
                "raw answer diverged: {} vs {} for {sql}",
                cp.raw_answer,
                cs.raw_answer
            );
            assert_eq!(
                cp.raw_error.to_bits(),
                cs.raw_error.to_bits(),
                "raw error diverged for {sql}"
            );
            assert_eq!(
                cp.improved.answer.to_bits(),
                cs.improved.answer.to_bits(),
                "improved answer diverged for {sql}"
            );
            assert_eq!(
                cp.improved.error.to_bits(),
                cs.improved.error.to_bits(),
                "improved error diverged for {sql}"
            );
            assert_eq!(cp.improved.used_model, cs.improved.used_model, "{sql}");
            assert_eq!(cp.tuples_scanned, cs.tuples_scanned, "{sql}");
        }
    }
}

/// The recorded synopses must be identical: a parallel scan feeds the
/// learned state exactly what the serial scan did, bit for bit.
fn assert_synopses_match(parallel: &VerdictSession, serial: &VerdictSession) {
    let a = EngineState::from_bytes(&parallel.snapshot().state_bytes()).unwrap();
    let b = EngineState::from_bytes(&serial.snapshot().state_bytes()).unwrap();
    assert_eq!(a.synopses.len(), b.synopses.len(), "synopsis key sets");
    for ((ka, sa), (kb, sb)) in a.synopses.iter().zip(b.synopses.iter()) {
        assert_eq!(ka, kb);
        assert_eq!(sa.len(), sb.len(), "synopsis length for {ka}");
        for (ea, eb) in sa.entries().iter().zip(sb.entries().iter()) {
            assert_eq!(ea.region, eb.region, "region for {ka}");
            assert_eq!(
                ea.observation.answer.to_bits(),
                eb.observation.answer.to_bits(),
                "recorded answer for {ka}"
            );
            assert_eq!(
                ea.observation.error.to_bits(),
                eb.observation.error.to_bits(),
                "recorded error for {ka}"
            );
        }
    }
}

fn run_all(sessions: &mut [VerdictSession], sql: &str, mode: Mode, policy: StopPolicy) {
    let outcomes: Vec<QueryOutcome> = sessions
        .iter_mut()
        .map(|s| s.execute(sql, mode, policy).unwrap())
        .collect();
    let mut it = outcomes.into_iter();
    let reference = it.next().unwrap();
    for outcome in it {
        match (&reference, &outcome) {
            (QueryOutcome::Answered(rs), QueryOutcome::Answered(rp)) => {
                assert_results_match(rp, rs, sql)
            }
            (QueryOutcome::Unsupported(_), QueryOutcome::Unsupported(_)) => {}
            _ => panic!("support classification diverged for {sql}"),
        }
    }
}

/// An ingest batch that deliberately splits across partitions: week
/// values walk the full 1..=25 range (every range partition) and the
/// region labels cycle (every hash bucket), plus a tail past week 25 so
/// numeric bounds must widen.
fn cross_partition_batch(rows: usize, tag: usize) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| {
            let week = if i % 7 == 0 {
                26.0 + ((tag + i) % 5) as f64
            } else {
                1.0 + ((tag + i) % 25) as f64
            };
            vec![
                week.into(),
                REGIONS[(tag + i) % REGIONS.len()].into(),
                (40.0 + (i % 13) as f64).into(),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline property: for every partition layout, sessions at 2,
    /// 4, and 8 threads answer a random Verdict-mode query sequence
    /// bit-identically to the single-threaded session — per query and in
    /// the synopsis left behind — with cross-partition ingest batches
    /// interleaved so parity also covers the evolving-table path.
    #[test]
    fn parallel_matches_serial_at_every_thread_count(
        specs in prop::collection::vec(query_spec(), 8..=8),
    ) {
        for layout in layouts() {
            let mut sessions: Vec<VerdictSession> = [1usize, 2, 4, 8]
                .iter()
                .map(|&t| session(6_000, layout.clone(), t))
                .collect();
            for (i, spec) in specs.iter().enumerate() {
                run_all(&mut sessions, &spec.sql, Mode::Verdict, spec.policy);
                if i == 3 {
                    // Mid-sequence ingest hitting every partition: the
                    // partitioned samples and maps must evolve in
                    // lock-step across thread counts.
                    let b = cross_partition_batch(900, i * 31);
                    let reports: Vec<_> =
                        sessions.iter_mut().map(|s| s.ingest(&b).unwrap()).collect();
                    for r in &reports[1..] {
                        prop_assert_eq!(r.appended_rows, reports[0].appended_rows);
                        prop_assert_eq!(&r.admitted_rows, &reports[0].admitted_rows);
                        prop_assert_eq!(r.adjusted_snippets, reports[0].adjusted_snippets);
                    }
                }
            }
            let (serial, parallel) = sessions.split_at(1);
            for p in parallel {
                assert_synopses_match(p, &serial[0]);
            }
        }
    }
}

/// Partition pruning must be invisible in the scan accounting: a pruned
/// partition's rows count toward `tuples_scanned` exactly as if they had
/// been scanned — the scan position is a property of the sample prefix,
/// not of how much work the executor skipped. Two `ScanAll` queries on
/// the same partitioned session, one pruning 24 of 25 partitions and one
/// pruning none, must report the same `tuples_scanned`.
#[test]
fn pruned_partitions_count_toward_tuples_scanned() {
    let mut parted = session(
        8_000,
        Some(PartitionSpec::range(
            "week",
            (1..25).map(|w| w as f64 + 0.5).collect(),
        )),
        2,
    );
    let full = "SELECT COUNT(*), AVG(rev) FROM t WHERE week BETWEEN 1 AND 25";
    let narrow = "SELECT COUNT(*), AVG(rev) FROM t WHERE week = 3";
    let rf = parted
        .execute(full, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    let tf = parted.recent_queries(1)[0].clone();
    let rn = parted
        .execute(narrow, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    let tn = parted.recent_queries(1)[0].clone();

    assert!(tn.partitions > 0, "partitioned session reports its layout");
    assert!(
        tn.partitions_pruned as f64 >= 0.9 * tn.partitions as f64,
        "an equality predicate on the partition column must prune \
         nearly everything: {} of {}",
        tn.partitions_pruned,
        tn.partitions
    );
    assert_eq!(tf.partitions_pruned, 0, "the full range prunes nothing");
    assert!(
        rn.rows[0].values[0].raw_answer > 0.0,
        "the surviving partition must still answer"
    );
    assert_eq!(
        rn.tuples_scanned, rf.tuples_scanned,
        "pruning must not change the reported scan position"
    );
}

/// Regression (stale partition summaries): sample rows admitted by an
/// ingest land in stride batches past the partition-clustered prefix.
/// Those batches carry no partition tag and must never be pruned — a
/// query selecting *only* appended-row values would otherwise return a
/// silent zero.
#[test]
fn appended_rows_survive_partition_pruning() {
    let mut parted = session(
        4_000,
        Some(PartitionSpec::range("week", vec![6.0, 12.0, 18.0])),
        4,
    );
    let sql = "SELECT COUNT(*) FROM t WHERE week BETWEEN 26 AND 30";
    let pre = parted
        .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    assert_eq!(pre.rows[0].values[0].raw_answer, 0.0, "no such weeks yet");
    // Weeks 26..=30 route past every range cut into the last partition,
    // widening its summary beyond the original table's bounds.
    let batch: Vec<Vec<Value>> = (0..2_000)
        .map(|i| {
            vec![
                (26.0 + (i % 5) as f64).into(),
                REGIONS[i % REGIONS.len()].into(),
                (40.0 + (i % 13) as f64).into(),
            ]
        })
        .collect();
    parted.ingest(&batch).unwrap();
    let post = parted
        .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap()
        .unwrap_answered();
    assert!(
        post.rows[0].values[0].raw_answer > 0.0,
        "appended rows invisible to the partitioned scan: {}",
        post.rows[0].values[0].raw_answer
    );
}

/// The morsel counters reach the query log: a multi-threaded scan
/// reports the morsels its workers claimed and the threads it ran on, and
/// a single-threaded session reports no morsel and one thread — the
/// serial path never pays for the scheduler.
#[test]
fn morsel_counters_reach_the_query_log() {
    let mut parallel = session(6_000, None, 4);
    let mut serial = session(6_000, None, 1);
    let sql = "SELECT AVG(rev) FROM t WHERE week BETWEEN 1 AND 25";
    parallel
        .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap();
    serial
        .execute(sql, Mode::NoLearn, StopPolicy::ScanAll)
        .unwrap();
    let tp = &parallel.recent_queries(1)[0];
    let ts = &serial.recent_queries(1)[0];
    assert!(tp.morsels > 0, "parallel scan reports its morsels");
    assert_eq!(tp.workers, 4);
    assert_eq!(ts.morsels, 0, "serial scan never builds morsels");
    assert_eq!(ts.workers, 1);
}
