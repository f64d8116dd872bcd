//! Out-of-core (demand-paged) parity and durability guarantees through
//! the public database API.
//!
//! The partition cache is a pure performance lever: answers, error
//! bounds, stop points, and learned state must be **bit-identical** at
//! any memory budget (from "one partition barely fits" to "everything
//! resident") and at any thread count — the budget may only change how
//! often segments fault in, never what a query computes. Warm restarts
//! rebuild the identical partition map and sample geometry from the
//! manifest, and torn partition-file tails (a crash mid-append) heal
//! from the WAL on open without changing a single answer.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use verdict::core::VerdictConfig;
use verdict::obs::MetricsHub;
use verdict::sql::SqlError;
use verdict::store::catalog::table_dir;
use verdict::store::read_part_rows;
use verdict::{
    Database, Error, Mode, OpenOptions, QueryOptions, QueryResult, SessionBuilder, StopPolicy,
    TableOptions,
};
use verdict_storage::{AggregateFn, CacheCounters, Expr, PartitionSpec, Predicate, Table, Value};

const REGIONS: [&str; 10] = ["r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"];

/// A deterministic table: numeric `week` dimension (1..=25), categorical
/// `region` dimension (10 labels), `rev` measure.
fn base_table(rows: usize) -> Table {
    let schema = verdict_storage::Schema::new(vec![
        verdict_storage::ColumnDef::numeric_dimension("week"),
        verdict_storage::ColumnDef::categorical_dimension("region"),
        verdict_storage::ColumnDef::measure("rev"),
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

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict-ooc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sampling geometry every table here is drawn with; `partition`
/// ranges `week` into 4 partitions.
fn options(partition: bool) -> TableOptions {
    TableOptions {
        sample_fraction: 0.25,
        batch_size: 150,
        seed: 17,
        partition: partition.then(|| PartitionSpec::range("week", vec![6.0, 12.0, 18.0])),
        ..TableOptions::default()
    }
}

/// An out-of-core table `t`: range-partitioned on `week` (4 partitions),
/// persisted to `dir`, partition cache bounded to `budget` bytes.
fn paged_session(dir: &Path, rows: usize, budget: u64, threads: usize) -> Database {
    let db = Database::builder()
        .register_table_with("t", base_table(rows), options(true))
        .persist_to(dir)
        .memory_budget(budget)
        .parallelism(threads)
        .query_log(16)
        .build()
        .unwrap();
    assert!(
        db.snapshot("t").unwrap().samples()[0].is_paged(),
        "partition + persist_to must go out-of-core"
    );
    db
}

/// The cumulative partition-cache counters of `db`'s paged table `t`.
fn partition_cache(db: &Database) -> CacheCounters {
    let snapshot = db.snapshot("t").unwrap();
    let rep = snapshot.samples()[0].paged_rep().expect("a paged table");
    rep.partition_store().counters()
}

/// Ground truth of `agg` over every base row the part files of the store
/// in `dir` hold, read back from disk as the benchmark's
/// `paged_base_rows` reads them, coded against `db`'s table `t`.
fn exact_from_part_files(db: &Database, dir: &Path, agg: &AggregateFn, pred: &Predicate) -> f64 {
    let proto = db.table("t").unwrap();
    let mut rows = proto.gather(&[]).unwrap();
    for p in 0.. {
        if !dir.join(format!("part-{p:06}.vcol")).is_file() {
            break;
        }
        rows.append(&read_part_rows(dir, p, &proto, usize::MAX).unwrap())
            .unwrap();
    }
    agg.eval_exact(&rows, pred).unwrap()
}

const POLICIES: [StopPolicy; 4] = [
    StopPolicy::ScanAll,
    StopPolicy::TupleBudget(700),
    StopPolicy::TupleBudget(2_000),
    StopPolicy::RelativeErrorBound {
        target: 0.05,
        delta: 0.95,
    },
];

const QUERIES: [&str; 6] = [
    "SELECT AVG(rev) FROM t WHERE week BETWEEN 2 AND 9",
    "SELECT SUM(rev), COUNT(*) FROM t WHERE week BETWEEN 7 AND 20",
    "SELECT region, AVG(rev) FROM t WHERE week BETWEEN 1 AND 25 GROUP BY region",
    "SELECT week, COUNT(*) FROM t WHERE region IN ('r1', 'r4', 'r7') GROUP BY week",
    "SELECT AVG(rev), SUM(rev) FROM t WHERE week = 13",
    "SELECT COUNT(*) FROM t WHERE week BETWEEN 19 AND 25",
];

/// A bit-exact fingerprint of a query result: group keys, raw and
/// improved answers/errors (as IEEE bits), per-cell scan positions.
fn fingerprint(r: &QueryResult) -> String {
    use std::fmt::Write;
    let mut out = format!("truncated={} tuples={}\n", r.truncated, r.tuples_scanned);
    for row in &r.rows {
        match &row.group {
            None => out.push_str("<all>"),
            Some(key) => {
                for v in key.iter() {
                    match v {
                        Value::Num(x) => write!(out, "n{:016x}|", x.to_bits()).unwrap(),
                        other => write!(out, "{other}|").unwrap(),
                    }
                }
            }
        }
        for c in &row.values {
            write!(
                out,
                " [{:016x} {:016x} {:016x} {:016x} {} {}]",
                c.raw_answer.to_bits(),
                c.raw_error.to_bits(),
                c.improved.answer.to_bits(),
                c.improved.error.to_bits(),
                c.improved.used_model,
                c.tuples_scanned,
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn run(db: &Database, sql: &str, policy: StopPolicy) -> String {
    let opts = QueryOptions::new().with_policy(policy);
    fingerprint(&db.query(sql, &opts).expect("query").unwrap_answered())
}

/// The whole (query × policy) grid on one table, in one fixed order —
/// learning is on, so the sequence exercises evolving state too.
fn run_grid(session: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for sql in QUERIES {
        for policy in POLICIES {
            out.push(run(session, sql, policy));
        }
    }
    out
}

/// Answers, error bounds, and stop points are bit-identical at every
/// cache budget (1 byte / a-couple-of-segments / unbounded) and every
/// thread count. Only the cache counters may differ.
#[test]
fn budget_never_changes_answers() {
    for threads in [1usize, 2, 4] {
        let mut reference: Option<Vec<String>> = None;
        for (tag, budget) in [(0u32, 1u64), (1, 20_000), (2, u64::MAX)] {
            let dir = temp_store(&format!("budget-{threads}-{tag}"));
            let s = paged_session(&dir, 6_000, budget, threads);
            let got = run_grid(&s);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(
                        want, &got,
                        "answers diverged at budget {budget}, {threads} threads"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The acceptance shape: a sampled table ~4x larger than the budget
/// answers bit-identically to the fully-resident configuration, while
/// the cache demonstrably thrashes (evictions happen and residency is
/// held near the budget, not near the full sample size).
#[test]
fn four_x_larger_than_budget_matches_fully_resident() {
    let dir_small = temp_store("fourx-small");
    let dir_big = temp_store("fourx-big");
    // 20k rows, 25% sample: four ~1250-row segments of 3 columns.
    let small = paged_session(&dir_small, 20_000, 32_000, 2);
    let big = paged_session(&dir_big, 20_000, u64::MAX, 2);
    let a = run_grid(&small);
    let b = run_grid(&big);
    assert_eq!(a, b, "budgeted answers must match fully-resident answers");
    let c = partition_cache(&small);
    assert!(c.evictions > 0, "a 4x-over-budget scan must evict: {c:?}");
    assert!(
        c.misses >= c.evictions,
        "an eviction can only follow a fault: {c:?}"
    );
    assert!(
        c.misses > 4,
        "4 partitions re-faulting across the grid must miss repeatedly: {c:?}"
    );
    let full = partition_cache(&big);
    assert!(
        c.resident_bytes < full.resident_bytes,
        "budgeted residency ({}) must stay below everything-fits residency ({})",
        c.resident_bytes,
        full.resident_bytes
    );
    assert_eq!(full.evictions, 0, "unbounded cache must never evict");
    let _ = std::fs::remove_dir_all(&dir_small);
    let _ = std::fs::remove_dir_all(&dir_big);
}

/// The fingerprint of `COUNT(*), AVG(rev)` under `filter`, every row
/// scanned, no model: a filter that matches nothing fails here.
fn answer(db: &Database, filter: &str) -> String {
    let opts = QueryOptions::new()
        .with_mode(Mode::NoLearn)
        .with_policy(StopPolicy::ScanAll);
    let sql = format!("SELECT COUNT(*), AVG(rev) FROM t WHERE {filter}");
    let r = db.query(&sql, &opts).unwrap().unwrap_answered();
    assert!(r.tuples_scanned > 0 && r.rows[0].values[0].raw_answer > 0.0);
    fingerprint(&r)
}

/// Categorical `<>` complements within the column's dictionary, whatever
/// table the statement binds against: a paged table binds against its
/// zero-row resolution table, and a resident sample can miss a label
/// coded below the others. Either way `<>` answers bit for bit as the
/// `IN` list of every other label does.
#[test]
fn categorical_not_equal_matches_its_in_list_paged_and_resident() {
    let all_but_r3 = |labels: &[&str]| {
        let others: Vec<String> = labels
            .iter()
            .filter(|&&l| l != "r3")
            .map(|l| format!("'{l}'"))
            .collect();
        format!("region IN ({})", others.join(", "))
    };

    let dir = temp_store("neq");
    let paged = paged_session(&dir, 6_000, 40_000, 1);
    assert_eq!(
        answer(&paged, "region <> 'r3'"),
        answer(&paged, &all_but_r3(&REGIONS))
    );
    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);

    // Label `rare` takes code 0 on one row, which the sample misses.
    let rows = base_table(6_000);
    let mut table = Table::new(rows.schema().clone());
    table
        .push_row(vec![1.0.into(), "rare".into(), 50.0.into()])
        .unwrap();
    for i in 0..rows.num_rows() {
        table.push_row(rows.row_decoded(i)).unwrap();
    }
    let resident = Database::builder()
        .register_table_with("t", table, options(false))
        .build()
        .unwrap();
    let snapshot = resident.snapshot("t").unwrap();
    let region = snapshot.samples()[0].table().column("region").unwrap();
    assert_eq!(region.code_of("rare"), Some(0));
    assert!(!region.categorical().unwrap().contains(&0));
    let mut labels = vec!["rare"];
    labels.extend(REGIONS);
    assert_eq!(
        answer(&resident, "region <> 'r3'"),
        answer(&resident, &all_but_r3(&labels))
    );
}

/// A column of raw integer codes has no labels to size a complement
/// from, and a paged table binds against its resident tail, which holds
/// none of the create-time rows: `<>` complements over the codes the
/// partition summaries hold as well, so it answers bit for bit as the
/// `IN` list of every other code, paged and resident.
#[test]
fn raw_coded_not_equal_matches_its_in_list_paged_and_resident() {
    let rows = base_table(6_000);
    let mut table = Table::new(rows.schema().clone());
    for i in 0..rows.num_rows() {
        let mut row = rows.row_decoded(i);
        row[1] = Value::Cat((i % REGIONS.len()) as u32);
        table.push_row(row).unwrap();
    }
    let others = "region IN (0, 1, 2, 4, 5, 6, 7, 8, 9)";

    let dir = temp_store("neq-raw");
    let paged = Database::builder()
        .register_table_with("t", table.clone(), options(true))
        .persist_to(&dir)
        .memory_budget(40_000)
        .build()
        .unwrap();
    assert_eq!(answer(&paged, "region <> 3"), answer(&paged, others));
    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);

    let resident = Database::builder()
        .register_table_with("t", table, options(false))
        .build()
        .unwrap();
    assert_eq!(answer(&resident, "region <> 3"), answer(&resident, others));
}

/// A predicate band provably disjoint from every partition summary is
/// answered without touching a single partition file; a band inside one
/// partition faults exactly that partition's segment.
#[test]
fn pruned_band_reads_zero_partition_files() {
    let dir = temp_store("prune");
    let s = paged_session(&dir, 6_000, u64::MAX, 1);
    let before = partition_cache(&s);
    let r = s
        .query(
            "SELECT COUNT(*) FROM t WHERE week BETWEEN 100 AND 200",
            &opts(Mode::Verdict, StopPolicy::ScanAll),
        )
        .unwrap()
        .unwrap_answered();
    let after = partition_cache(&s);
    assert_eq!(r.rows[0].values[0].raw_answer, 0.0);
    let delta = after.since(&before);
    assert_eq!(
        (delta.misses, delta.hits, delta.bytes_faulted),
        (0, 0, 0),
        "a fully-pruned query must do zero partition I/O: {delta:?}"
    );
    // The trace agrees: all four partitions pruned, nothing faulted.
    let t = &s.recent_queries(1)[0];
    assert_eq!(t.partitions, 4);
    assert_eq!(t.partitions_pruned, 4);
    assert_eq!(t.partition_cache_misses, 0);
    assert_eq!(t.partition_bytes_faulted, 0);

    // Weeks 1..=5 live in partition 0 only: exactly one segment faults.
    let before = partition_cache(&s);
    s.query(
        "SELECT AVG(rev) FROM t WHERE week BETWEEN 1 AND 5",
        &opts(Mode::Verdict, StopPolicy::ScanAll),
    )
    .unwrap()
    .unwrap_answered();
    let delta = partition_cache(&s).since(&before);
    assert_eq!(
        delta.misses, 1,
        "one in-band partition, one fault: {delta:?}"
    );
    assert!(delta.bytes_faulted > 0);
    let t = &s.recent_queries(1)[0];
    assert_eq!(t.partitions_pruned, 3);
    assert_eq!(t.partition_cache_misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The last query's segment pins (cache hits + misses), the partitions it
/// could not prune, and the batches it stepped, from its trace.
fn last_scan_pins(s: &Database) -> (u64, u64, u64) {
    let t = &s.recent_queries(1)[0];
    let pins = t.partition_cache_hits + t.partition_cache_misses;
    (pins, t.partitions - t.partitions_pruned, t.batches)
}

/// A serial scan over a cache a quarter of the sample (the shape of the
/// benchmark's paged workload, small). Under an exact horizon — `ScanAll`
/// or a tuple budget — it reads each unpruned segment in one run: at most
/// one pin per segment, where a pin per draw-time batch would fault the
/// interleaved segments over and over. Under an error target, which may
/// stop after any batch, it still pins once per batch. Either way every
/// answer is bit for bit that of a twin whose cache holds everything.
#[test]
fn exact_horizons_pin_each_segment_once() {
    let dir = temp_store("runs");
    let dir_twin = temp_store("runs-twin");
    let full_range = QUERIES[2];
    let twin = paged_session(&dir_twin, 20_000, u64::MAX, 1);
    let first = run(&twin, full_range, StopPolicy::ScanAll);
    let sample_bytes = partition_cache(&twin).resident_bytes;
    let s = paged_session(&dir, 20_000, sample_bytes / 4, 1);
    assert_eq!(run(&s, full_range, StopPolicy::ScanAll), first);
    let (pins, unpruned, batches) = last_scan_pins(&s);
    assert_eq!(unpruned, 4, "the full range prunes nothing");
    assert!(pins <= unpruned, "{pins} pins for {unpruned} segments");
    assert!(batches > 2 * unpruned, "runs span several batches");

    for (sql, policy) in [
        (full_range, StopPolicy::TupleBudget(2_500)),
        (QUERIES[1], StopPolicy::ScanAll),
        (QUERIES[1], StopPolicy::TupleBudget(2_500)),
    ] {
        assert_eq!(
            run(&s, sql, policy),
            run(&twin, sql, policy),
            "{sql} under {policy}"
        );
        let (pins, unpruned, batches) = last_scan_pins(&s);
        assert!(pins <= unpruned, "{sql} under {policy}: {pins} pins");
        assert!(batches > unpruned, "{sql} under {policy}");
    }

    let target = POLICIES[3];
    assert_eq!(run(&s, full_range, target), run(&twin, full_range, target));
    let (pins, unpruned, batches) = last_scan_pins(&s);
    assert_eq!(unpruned, 4);
    assert_eq!(pins, batches, "an error target pins every batch it scans");
    drop((s, twin));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_twin);
}

/// Warm restart: `partition_by` composes with `persist_to`/`open` — a
/// reopened out-of-core session rebuilds the identical partition map and
/// sample geometry from the manifest and keeps answering bit-identically
/// to a twin session that never shut down, across further ingests, at a
/// different (tiny) reopen budget.
#[test]
fn warm_restart_is_bit_identical_to_uninterrupted_twin() {
    let dir = temp_store("warm");
    let dir_twin = temp_store("warm-twin");
    let ingest_batch = |k: u64| -> Vec<Vec<Value>> {
        (0..40u64)
            .map(|i| {
                let week = 1.0 + ((i + 3 * k) % 25) as f64;
                let region = REGIONS[((i + k) % 10) as usize];
                let rev = 40.0 + (i as f64) * 0.25 + k as f64;
                vec![week.into(), region.into(), rev.into()]
            })
            .collect()
    };
    let twin = paged_session(&dir_twin, 6_000, u64::MAX, 2);
    {
        let s = paged_session(&dir, 6_000, u64::MAX, 2);
        for session in [&s, &twin] {
            run(session, QUERIES[0], StopPolicy::ScanAll);
            session.ingest("t", &ingest_batch(0)).expect("ingest");
            run(session, QUERIES[2], StopPolicy::TupleBudget(700));
            session.ingest("t", &ingest_batch(1)).expect("ingest");
        }
        // `s` drops here: the WAL holds both ingests, the partition
        // files hold their routed rows.
    }
    let reopened = Database::open_with(&dir, OpenOptions::new().with_memory_budget(25_000))
        .expect("warm session");
    assert!(
        reopened.snapshot("t").unwrap().samples()[0].is_paged(),
        "paged-ness must survive reopen"
    );
    // Identical answers on the full grid, a further identical ingest, and
    // identical ground truth from the partition files.
    assert_eq!(run_grid(&reopened), run_grid(&twin));
    reopened.ingest("t", &ingest_batch(2)).expect("ingest");
    twin.ingest("t", &ingest_batch(2)).expect("ingest");
    assert_eq!(run_grid(&reopened), run_grid(&twin));
    let agg = AggregateFn::Avg(Expr::col("rev"));
    let p = Predicate::between("week", 3.0, 21.0);
    assert_eq!(
        exact_from_part_files(&reopened, &table_dir(&dir, "t"), &agg, &p).to_bits(),
        exact_from_part_files(&twin, &table_dir(&dir_twin, "t"), &agg, &p).to_bits(),
        "the partition files must hold identical rows"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_twin);
}

/// A checkpoint writes each sample's ingest tail from the live sample
/// itself, with no copy in between. After `checkpoint()` the WAL holds no
/// ingest, so a reopen rebuilds the tails from the snapshot alone and
/// lands on the live table's `state_bytes`, tail sizes and answers (a
/// twin that never checkpointed stands in for the live table once it is
/// dropped). The reopened table then ingests and checkpoints again, and a
/// second reopen still equals the twin.
#[test]
fn checkpointed_tails_reopen_to_the_live_state() {
    let dir = temp_store("ckpt-tails");
    let dir_twin = temp_store("ckpt-tails-twin");
    let twin = paged_session(&dir_twin, 6_000, u64::MAX, 1);
    let tail_rows = |s: &Database| -> Vec<usize> {
        let snap = s.snapshot("t").unwrap();
        snap.samples()
            .iter()
            .map(|x| x.table().num_rows())
            .collect()
    };
    {
        let s = paged_session(&dir, 6_000, 25_000, 1);
        for session in [&s, &twin] {
            run(session, QUERIES[0], StopPolicy::ScanAll);
            session.train("t").unwrap();
            session.ingest("t", &batch_in(1..=24, 120, 2.0)).unwrap();
            run(session, QUERIES[2], StopPolicy::TupleBudget(700));
            session.ingest("t", &batch_in(3..=9, 80, 5.0)).unwrap();
        }
        assert!(
            tail_rows(&s).iter().all(|&n| n > 0),
            "ingests reached the tail"
        );
        s.checkpoint().unwrap();
        assert!(
            s.snapshot("t").unwrap().state_bytes() == twin.snapshot("t").unwrap().state_bytes()
        );
        assert_eq!(tail_rows(&s), tail_rows(&twin));
    }
    for round in 0..2 {
        let reopened = Database::open_with(&dir, OpenOptions::new()).unwrap();
        let report = reopened.recovery_report("t").unwrap().unwrap();
        assert_eq!(report.ingests_replayed, 0, "round {round}");
        assert!(
            reopened.snapshot("t").unwrap().state_bytes()
                == twin.snapshot("t").unwrap().state_bytes(),
            "round {round}"
        );
        assert_eq!(tail_rows(&reopened), tail_rows(&twin), "round {round}");
        assert_eq!(run_grid(&reopened), run_grid(&twin), "round {round}");
        reopened.ingest("t", &batch_in(10..=14, 40, 1.0)).unwrap();
        twin.ingest("t", &batch_in(10..=14, 40, 1.0)).unwrap();
        reopened.checkpoint().unwrap();
        assert!(
            reopened.snapshot("t").unwrap().state_bytes()
                == twin.snapshot("t").unwrap().state_bytes()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_twin);
}

/// `rows` ingest rows spread over `weeks`, `rev` shifted by `shift`.
fn batch_in(weeks: std::ops::RangeInclusive<u64>, rows: u64, shift: f64) -> Vec<Vec<Value>> {
    let span = weeks.end() - weeks.start() + 1;
    (0..rows)
        .map(|i| {
            let week = (weeks.start() + i % span) as f64;
            let rev = 50.0 + shift + (i % 7) as f64;
            vec![week.into(), REGIONS[(i % 10) as usize].into(), rev.into()]
        })
        .collect()
}

/// WAL replay widens exactly what the live ingest widened: on a
/// partitioned table an `AVG` snippet whose region is disjoint from every
/// partition the batch reached keeps its `(θ, β)` live, and must keep it
/// through a reopen too — replay scopes the widening by the same bounds,
/// computed from the partition map as it was before the batch landed. Two
/// more ingests after the restart then land on the state of a twin that
/// never restarted.
#[test]
fn wal_replay_widens_only_what_the_live_ingest_widened() {
    let dir = temp_store("replay-scope");
    let dir_twin = temp_store("replay-scope-twin");
    let twin = paged_session(&dir_twin, 6_000, u64::MAX, 1);
    {
        let s = paged_session(&dir, 6_000, u64::MAX, 1);
        for session in [&s, &twin] {
            for lo in [1, 4, 7, 10, 13, 19] {
                let sql = format!(
                    "SELECT AVG(rev) FROM t WHERE week BETWEEN {lo} AND {}",
                    lo + 3
                );
                run(session, &sql, StopPolicy::ScanAll);
            }
            session.train("t").unwrap();
            // Weeks 20–24 reach only the last partition (weeks ≥ 18).
            let report = session.ingest("t", &batch_in(20..=24, 60, 9.0)).unwrap();
            assert!(
                (1..6).contains(&report.adjusted_snippets),
                "live widening is scoped: {} of 6 snippets",
                report.adjusted_snippets
            );
        }
        assert!(
            s.snapshot("t").unwrap().state_bytes() == twin.snapshot("t").unwrap().state_bytes()
        );
    }
    let reopened = Database::open_with(&dir, OpenOptions::new()).unwrap();
    assert_eq!(
        reopened
            .recovery_report("t")
            .unwrap()
            .unwrap()
            .ingests_replayed,
        1
    );
    assert!(
        reopened.snapshot("t").unwrap().state_bytes() == twin.snapshot("t").unwrap().state_bytes(),
        "replay must widen only the snippets the live ingest widened"
    );
    for (k, weeks) in [(0, 1..=4), (1, 10..=12)] {
        reopened
            .ingest("t", &batch_in(weeks.clone(), 40, k as f64))
            .unwrap();
        twin.ingest("t", &batch_in(weeks, 40, k as f64)).unwrap();
        assert!(
            reopened.snapshot("t").unwrap().state_bytes()
                == twin.snapshot("t").unwrap().state_bytes(),
            "ingest {k} after the restart"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_twin);
}

/// An ingest estimates its shift from running moments of sample 0, so
/// once they exist an ingest folds only the rows the sample
/// admitted since the last one and faults no partition segment — even
/// with a cache too small to keep any. Its learned state is bit for bit
/// that of a twin that re-reads the whole sample before every ingest.
#[test]
fn steady_state_ingests_fault_no_segment_and_match_a_rereading_twin() {
    let dir = temp_store("steady");
    let dir_twin = temp_store("steady-twin");
    let s = paged_session(&dir, 6_000, 1, 1);
    let mut twin = paged_session(&dir_twin, 6_000, 1, 1);
    for session in [&s, &twin] {
        run(session, QUERIES[0], StopPolicy::ScanAll);
        run(session, QUERIES[1], StopPolicy::ScanAll);
        session.train("t").unwrap();
    }
    for k in 0..4u64 {
        let batch = batch_in(1 + 5 * k..=5 + 5 * k, 80, k as f64);
        let before = partition_cache(&s);
        s.ingest("t", &batch).unwrap();
        let faulted = partition_cache(&s).since(&before).bytes_faulted;
        if k == 0 {
            assert!(faulted > 0, "the first ingest reads the sample once");
        } else {
            assert_eq!(faulted, 0, "ingest {k} faulted {faulted} bytes");
        }
        // The twin reopens, which starts it with no moments, so it reads
        // every segment again. (The checkpoint keeps the read counters the
        // WAL does not carry.)
        twin.checkpoint().unwrap();
        drop(twin);
        twin = Database::open_with(&dir_twin, OpenOptions::new().with_memory_budget(1)).unwrap();
        let before = partition_cache(&twin);
        twin.ingest("t", &batch).unwrap();
        assert!(partition_cache(&twin).since(&before).bytes_faulted > 0);
        assert!(
            s.snapshot("t").unwrap().state_bytes() == twin.snapshot("t").unwrap().state_bytes(),
            "ingest {k}: running moments diverged from a fresh pass"
        );
        run(&s, QUERIES[0], StopPolicy::ScanAll);
        run(&twin, QUERIES[0], StopPolicy::ScanAll);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_twin);
}

/// The contract of the benchmark's out-of-core fixture, which builds
/// through `SessionBuilder` with exactly this setter chain and promotes
/// the table with `into_database`. The store keeps the single-table
/// layout: store and partition files at the directory root, no `CATALOG`.
/// The promoted table answers the whole grid bit for bit as a
/// `DatabaseBuilder` twin does and resolves `FROM` strictly.
/// `Database::open_with` then serves it as table `t` with a lenient
/// `FROM`, demand-paged under the reopen budget, still answering as the
/// twin does. Its root part files hold every row built and ingested.
#[test]
fn paged_session_store_reopens_through_database_open() {
    let dir = temp_store("db-open");
    let dir_twin = temp_store("db-open-twin");
    let twin = paged_session(&dir_twin, 6_000, u64::MAX, 2);
    let db = SessionBuilder::new(base_table(6_000))
        .sample_fraction(0.25)
        .batch_size(150)
        .seed(17)
        .partition_by(PartitionSpec::range("week", vec![6.0, 12.0, 18.0]))
        .persist_to(&dir)
        .memory_budget(40_000)
        .verdict_config(VerdictConfig::default())
        .metrics(Arc::new(MetricsHub::new()))
        .query_log(16)
        .build()
        .unwrap()
        .into_database("events")
        .unwrap();
    assert_eq!(db.table_names(), &["events".to_owned()]);
    assert!(matches!(
        db.query("SELECT COUNT(*) FROM t", &QueryOptions::new()),
        Err(Error::Sql(SqlError::UnknownTable { .. }))
    ));
    for sql in QUERIES {
        for policy in POLICIES {
            assert_eq!(
                run(&db, &sql.replace("FROM t", "FROM events"), policy),
                run(&twin, sql, policy),
                "{sql} under {policy}"
            );
        }
    }
    let batch = batch_in(1..=25, 50, 3.0);
    db.ingest("events", &batch).unwrap();
    twin.ingest("t", &batch).unwrap();
    drop(db);
    for file in ["wal.vlog", "LOCK", "part-000000.vcol", "part-000003.vcol"] {
        assert!(dir.join(file).is_file(), "{file} missing at the store root");
    }
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("snapshot-") && name.ends_with(".vsnap"))
        .count();
    assert!(
        snapshots >= 1,
        "snapshot generations live at the store root"
    );
    assert!(!dir.join("CATALOG").exists());
    assert!(!dir.join("tables").exists());

    let db = Database::open_with(&dir, OpenOptions::new().with_memory_budget(25_000)).unwrap();
    assert_eq!(db.table_names(), &["t".to_owned()]);
    assert!(db.snapshot("t").unwrap().samples()[0].is_paged());
    let sql = QUERIES[2].replace("FROM t", "FROM events");
    let got = db
        .query(&sql, &QueryOptions::new().with_policy(POLICIES[1]))
        .unwrap()
        .unwrap_answered();
    assert_eq!(
        fingerprint(&got),
        run(&twin, QUERIES[2], POLICIES[1]),
        "the reopened store must answer what the twin answers"
    );
    let proto = db.table("t").unwrap();
    let rows: usize = (0..4)
        .map(|p| {
            read_part_rows(&dir, p, &proto, usize::MAX)
                .unwrap()
                .num_rows()
        })
        .sum();
    assert_eq!(rows, 6_000 + batch.len(), "built + ingested rows on disk");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_twin);
}

/// `TableOptions::partition` + `DatabaseBuilder::{persist_to,
/// memory_budget}` build the same out-of-core table `SessionBuilder`'s
/// `partition_by` + `persist_to` + `memory_budget` do: same answers bit
/// for bit over the whole grid, same learned state, and the catalog
/// directory reopens demand-paged with that state intact.
#[test]
fn database_builder_builds_the_same_paged_table_as_the_session_builder() {
    let dir = temp_store("dbb");
    let dir_twin = temp_store("dbb-twin");
    let twin = SessionBuilder::new(base_table(6_000))
        .sample_fraction(0.25)
        .batch_size(150)
        .seed(17)
        .partition_by(PartitionSpec::range("week", vec![6.0, 12.0, 18.0]))
        .persist_to(&dir_twin)
        .memory_budget(40_000)
        .build()
        .unwrap()
        .into_database("t")
        .unwrap();
    let db = Database::builder()
        .register_table_with("t", base_table(6_000), options(true))
        .persist_to(&dir)
        .memory_budget(40_000)
        .parallelism(2)
        .build()
        .unwrap();
    assert!(dir.join("tables/t/part-000003.vcol").is_file());
    assert!(db.snapshot("t").unwrap().samples()[0].is_paged());

    let answer = |db: &Database, sql: &str, policy: StopPolicy| {
        let opts = QueryOptions::new().with_policy(policy);
        fingerprint(&db.query(sql, &opts).unwrap().unwrap_answered())
    };
    for sql in QUERIES {
        for policy in POLICIES {
            assert_eq!(
                answer(&db, sql, policy),
                answer(&twin, sql, policy),
                "{sql} under {policy}"
            );
        }
    }
    let learned = db.snapshot("t").unwrap().state_bytes();
    assert!(learned == twin.snapshot("t").unwrap().state_bytes());

    // The WAL carries snippets, not read counters: checkpoint so the
    // reopened state can be compared whole.
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open_with(&dir, OpenOptions::new().with_memory_budget(25_000)).unwrap();
    assert!(db.snapshot("t").unwrap().state_bytes() == learned);
    assert_eq!(
        answer(&db, QUERIES[2], POLICIES[3]),
        answer(&twin, QUERIES[2], POLICIES[3])
    );

    // Nothing to bound: the budget is refused on a resident table.
    assert!(Database::builder()
        .register_table("t", base_table(500))
        .memory_budget(40_000)
        .build()
        .is_err());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_twin);
}

/// Crash-fuzz of torn partition-file appends: truncating the tail of
/// every `part-*.vcol` (a crash mid-append after the WAL landed) must
/// heal on open — the WAL re-appends the lost fragments — leaving
/// answers and ground truth bit-identical to an untorn reopen. A paged
/// store and a persisted resident one (whose rows sit in one part file)
/// alike.
#[test]
fn torn_partition_file_tails_heal_from_the_wal() {
    for paged in [true, false] {
        let tag = if paged { "torn" } else { "torn-resident" };
        let dir = temp_store(tag);
        {
            let s = if paged {
                paged_session(&dir, 4_000, u64::MAX, 1)
            } else {
                Database::builder()
                    .register_table_with("t", base_table(4_000), options(false))
                    .parallelism(1)
                    .persist_to(&dir)
                    .build()
                    .unwrap()
            };
            run(&s, QUERIES[1], StopPolicy::ScanAll);
            // One row per week: every partition receives an ingest append.
            let rows: Vec<Vec<Value>> = (0..50u64)
                .map(|i| {
                    let week = 1.0 + (i % 25) as f64;
                    vec![
                        week.into(),
                        REGIONS[(i % 10) as usize].into(),
                        (60.0 + i as f64).into(),
                    ]
                })
                .collect();
            s.ingest("t", &rows).expect("ingest");
            run(&s, QUERIES[0], StopPolicy::ScanAll);
        }
        // The untorn oracle: copy the database, reopen, record the grid.
        fn copy_store(src: &Path, dst: &Path) {
            std::fs::create_dir_all(dst).unwrap();
            for entry in std::fs::read_dir(src).unwrap() {
                let entry = entry.unwrap();
                let to = dst.join(entry.file_name());
                if entry.file_type().unwrap().is_dir() {
                    copy_store(&entry.path(), &to);
                } else {
                    std::fs::copy(entry.path(), to).unwrap();
                }
            }
        }
        let clean_dir = temp_store(&format!("{tag}-clean"));
        copy_store(&dir, &clean_dir);
        // The store's lock file must not leak into copies as a held lock;
        // opening below re-acquires per directory, so copies are fine.
        let clean = Database::open_with(&clean_dir, OpenOptions::new()).unwrap();
        let want = run_grid(&clean);
        let agg = AggregateFn::Sum(Expr::col("rev"));
        let want_exact =
            exact_from_part_files(&clean, &table_dir(&clean_dir, "t"), &agg, &Predicate::True)
                .to_bits();
        drop(clean);

        for torn in [1u64, 9, 33, 57] {
            let torn_dir = temp_store(&format!("{tag}-{torn}"));
            copy_store(&dir, &torn_dir);
            for entry in std::fs::read_dir(table_dir(&torn_dir, "t")).unwrap() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if name.starts_with("part-") && name.ends_with(".vcol") {
                    let len = std::fs::metadata(&path).unwrap().len();
                    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    file.set_len(len.saturating_sub(torn)).unwrap();
                }
            }
            let s = Database::open_with(&torn_dir, OpenOptions::new())
                .unwrap_or_else(|e| panic!("open after {torn} torn bytes: {e}"));
            assert_eq!(s.snapshot("t").unwrap().samples()[0].is_paged(), paged);
            assert_eq!(
                run_grid(&s),
                want,
                "answers diverged after tearing {torn} bytes off every partition file"
            );
            assert_eq!(
                exact_from_part_files(&s, &table_dir(&torn_dir, "t"), &agg, &Predicate::True)
                    .to_bits(),
                want_exact,
                "ground truth diverged after tearing {torn} bytes"
            );
            let _ = std::fs::remove_dir_all(&torn_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&clean_dir);
    }
}

/// Turns one generated tuple into a supported SQL statement + policy.
fn random_query(spec: (u32, u32, u32, u32, usize)) -> (String, StopPolicy) {
    let (lo, width, agg_mask, group, policy) = spec;
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
    let (prefix, group_by) = match group {
        1 => ("region, ", " GROUP BY region"),
        2 => ("week, ", " GROUP BY week"),
        _ => ("", ""),
    };
    let sql = format!(
        "SELECT {prefix}{} FROM t WHERE week BETWEEN {lo} AND {}{group_by}",
        aggs.join(", "),
        lo + width
    );
    (sql, POLICIES[policy])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Property: for arbitrary supported query sequences (learning on,
    /// so state evolves query to query), a one-byte-budget session and
    /// an unbounded one return bit-identical results at 2 worker
    /// threads.
    #[test]
    fn prop_random_queries_identical_across_budgets(
        specs in prop::collection::vec((0u32..20, 1u32..=25, 1u32..8, 0u32..3, 0usize..4), 3..6),
    ) {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CASE: AtomicU32 = AtomicU32::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir_a = temp_store(&format!("prop-a-{case}"));
        let dir_b = temp_store(&format!("prop-b-{case}"));
        let tight = paged_session(&dir_a, 6_000, 1, 2);
        let loose = paged_session(&dir_b, 6_000, u64::MAX, 2);
        for spec in specs {
            let (sql, policy) = random_query(spec);
            let a = run(&tight, &sql, policy);
            let b = run(&loose, &sql, policy);
            prop_assert_eq!(a, b);
        }
        drop(tight);
        drop(loose);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
