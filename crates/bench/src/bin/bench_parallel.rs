//! Parallel-scan throughput and partition pruning: drives the
//! morsel-driven scheduler directly — `parallel_scan` over a shared-scan
//! driver to exhaustion, the calling thread scanning beside its helpers —
//! across a thread sweep, plus a partition-count grid measuring the prune
//! rate of partition-level summaries on a selective ordered-range
//! predicate. Emits `BENCH_parallel.json`.
//!
//! ```text
//! cargo run --release -p verdict-bench --bin bench_parallel
//! ```
//!
//! The sweep scans a *scattered* uniform predicate (no zone or partition
//! pruning), so the numbers isolate the scheduler: morsel claims, run
//! publication, and ordered merge. Scaling is asserted only when the host
//! actually has the cores (`host_cores` is recorded in the JSON so a
//! 1-core run is self-documenting, not a silent pass).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict_aqp::{
    parallel_scan, CostModel, OnlineAggregation, Sample, ScanSpec, SharedScanDriver, StorageTier,
};
use verdict_storage::{AggregateFn, ColumnDef, Expr, PartitionSpec, Predicate, Schema, Table};

const ROWS: usize = 262_144;
const BATCH: usize = 4_096;
const REPS: usize = 5;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const PARTITION_COUNTS: [usize; 3] = [4, 16, 64];

/// One table serves both experiments: `x` ordered (partition-prunable
/// under a range layout), `y` scattered uniform in [0,1) (never
/// prunable), `v` the measure.
fn bench_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("x"),
        ColumnDef::numeric_dimension("y"),
        ColumnDef::measure("v"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut state = 0x9e3779b97f4a7c15u64;
    for i in 0..ROWS {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        t.push_row(vec![(i as f64).into(), u.into(), (10.0 + 5.0 * u).into()])
            .unwrap();
    }
    t
}

struct RunStats {
    tuples_per_sec: f64,
    morsels: u64,
    workers: u64,
    partitions: u64,
    partitions_pruned: u64,
}

/// Min-of-`REPS` full parallel scans of `eng`'s sample (one warm-up rep
/// populates caches). Every rep re-verifies that the scan covered the
/// whole sample — a scheduler that drops batches would otherwise just
/// look fast.
fn run(eng: &OnlineAggregation, predicate: &Predicate, threads: usize) -> RunStats {
    let primitives = [AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];
    let spec = ScanSpec {
        predicate,
        group_cols: &[],
        groups: &[],
        primitives: &primitives,
    };
    let total_rows = eng.sample().table().num_rows();
    let mut best_ns = u64::MAX;
    let mut stats = RunStats {
        tuples_per_sec: 0.0,
        morsels: 0,
        workers: 0,
        partitions: 0,
        partitions_pruned: 0,
    };
    for rep in 0..=REPS {
        let mut driver: SharedScanDriver<'_> = eng.shared_scan(&spec).unwrap();
        let t0 = Instant::now();
        let pstats = parallel_scan(
            &mut driver,
            threads,
            usize::MAX,
            || Some(eng.shared_scan(&spec).unwrap()),
            |_| true,
        );
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        assert_eq!(driver.tuples_scanned(), total_rows, "scan must be complete");
        if rep == 0 {
            continue; // warm-up
        }
        if ns < best_ns {
            best_ns = ns;
            stats = RunStats {
                tuples_per_sec: driver.tuples_scanned() as f64 / (ns as f64 / 1e9),
                morsels: pstats.morsels,
                workers: pstats.workers,
                partitions: driver.partitions(),
                partitions_pruned: driver.partitions_pruned(),
            };
        }
    }
    stats
}

fn main() {
    let table = bench_table();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // ── Thread sweep: scattered predicate, full sample, no pruning ────
    let eng = OnlineAggregation::new(
        Sample::full(&table, BATCH).unwrap(),
        CostModel::default(),
        StorageTier::Cached,
    );
    let scattered = Predicate::between("y", 0.0, 0.5);
    let mut sweep = Vec::new();
    let mut tps_at = [0.0f64; THREADS.len()];
    for (i, &threads) in THREADS.iter().enumerate() {
        let s = run(&eng, &scattered, threads);
        tps_at[i] = s.tuples_per_sec;
        sweep.push(format!(
            "{{\"threads\":{threads},\"tps\":{:.0},\
             \"morsels\":{},\"workers\":{}}}",
            s.tuples_per_sec, s.morsels, s.workers,
        ));
    }
    let speedup_4t = tps_at[2] / tps_at[0];
    // Scaling is only a claim the host can back: with 4+ cores the
    // 4-thread scan must actually beat serial; below that the recorded
    // host_cores documents the fallback.
    if host_cores >= 4 {
        assert!(
            speedup_4t >= 1.8,
            "4-thread scan must reach 1.8x serial on a {host_cores}-core host, got {speedup_4t:.2}x"
        );
    } else if host_cores > 1 {
        assert!(
            tps_at[1] > tps_at[0],
            "2-thread scan must beat serial on a {host_cores}-core host"
        );
    }

    // ── Prune grid: ordered range band vs partition count ─────────────
    // The band covers 5% of the ordered column, so with P partitions
    // roughly ceil(P/20)+1 overlap it and the rest are provably disjoint
    // — skipped wholesale by `classify_partition`, no chunk touched.
    let band = Predicate::between("x", ROWS as f64 * 0.45, ROWS as f64 * 0.50);
    let mut prune_cells = Vec::new();
    let mut best_prune_rate = 0.0f64;
    for &parts in &PARTITION_COUNTS {
        let cuts: Vec<f64> = (1..parts).map(|p| (ROWS * p / parts) as f64).collect();
        let spec = PartitionSpec::range("x", cuts);
        let mut rng = StdRng::seed_from_u64(11);
        let sample = Sample::uniform_partitioned(&table, spec, 0.5, BATCH, &mut rng).unwrap();
        let eng = OnlineAggregation::new(sample, CostModel::default(), StorageTier::Cached);
        let s = run(&eng, &band, 4.min(host_cores));
        let rate = s.partitions_pruned as f64 / s.partitions.max(1) as f64;
        best_prune_rate = best_prune_rate.max(rate);
        prune_cells.push(format!(
            "{{\"partitions\":{},\"pruned\":{},\"prune_rate\":{:.4},\"tps\":{:.0}}}",
            s.partitions, s.partitions_pruned, rate, s.tuples_per_sec,
        ));
    }
    assert!(
        best_prune_rate >= 0.9,
        "a 5% ordered band over 64 partitions must prune >=90%, got {best_prune_rate:.3}"
    );

    let json = format!(
        "{{\"bench\":\"parallel\",\"rows\":{ROWS},\"batch\":{BATCH},\"reps\":{REPS},\
         \"host_cores\":{host_cores},\
         \"threads\":[{}],\
         \"speedup_4t\":{:.2},\
         \"prune\":[{}],\
         \"best_prune_rate\":{:.4}}}",
        sweep.join(","),
        speedup_4t,
        prune_cells.join(","),
        best_prune_rate,
    );
    println!("BENCH_parallel.json {json}");
    if let Err(e) = std::fs::write("BENCH_parallel.json", format!("{json}\n")) {
        eprintln!("could not write BENCH_parallel.json: {e}");
    }
}
