//! Scan-kernel throughput: drives the shared-scan executor directly —
//! `Sample` + `shared_scan` + `step()` to exhaustion — over a selectivity
//! × group-count grid, once per kernel, and emits `BENCH_scan.json`:
//! tuples/s per grid cell, the chunked/row-wise speedup, the zone-map
//! prune rate on a selective ordered-column predicate, the delta
//! against the end-to-end `BENCH_query.json` baseline, and `group_enum`
//! rows — group enumeration (`GroupKeyCollector`) in tuples/s over
//! selectivity × group cardinality, filtered on the scattered and on the
//! ordered column, with the share of chunks read before the key set was
//! provably complete. Every `group_enum` cell first asserts that the
//! collector's keys equal a row-wise enumeration's.
//!
//! ```text
//! cargo run --release -p verdict-bench --bin bench_scan
//! ```
//!
//! Two predicate families separate the effects: the grid filters on a
//! *scattered* uniform column (every chunk spans the full value range, so
//! zone maps never prune and the numbers isolate the mask/accumulate
//! kernels), while the prune demo filters a narrow band of an *ordered*
//! column (contiguous rows, so most chunks are provably disjoint and
//! skipped without touching data).

use std::time::Instant;

use verdict_aqp::{
    CostModel, OnlineAggregation, Sample, ScanKernel, ScanSpec, SharedScanDriver, StorageTier,
};
use verdict_storage::{
    distinct_group_keys, eval_group_by, AggregateFn, ColumnDef, Expr, GroupKey, GroupKeyCollector,
    Predicate, Schema, Table, CHUNK_ROWS,
};

const ROWS: usize = 262_144;
const BATCH: usize = 4_096;
const REPS: usize = 5;
const SELECTIVITIES: [f64; 4] = [0.01, 0.1, 0.5, 1.0];
/// End-to-end groupby-workload throughput from `BENCH_query.json`, used
/// when that file is absent (its committed trajectory value).
const FALLBACK_BASELINE_TPS: f64 = 21_400_000.0;

/// One table serves the whole grid: `x` ordered (zone-prunable), `y`
/// scattered uniform in [0,1) (never prunable), group columns at three
/// cardinalities, `v` the measure. `g16_rare` is `g16` plus a seventeenth
/// label on the very last row: unless the filter prunes the last chunk,
/// that candidate stays unseen to the end and the pass cannot stop early.
fn bench_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("x"),
        ColumnDef::numeric_dimension("y"),
        ColumnDef::categorical_dimension("g16"),
        ColumnDef::categorical_dimension("g64"),
        ColumnDef::categorical_dimension("g16_rare"),
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
        t.push_row(vec![
            (i as f64).into(),
            u.into(),
            format!("g{}", i % 16).as_str().into(),
            format!("g{}", i % 64).as_str().into(),
            (if i + 1 == ROWS {
                "rare".to_owned()
            } else {
                format!("g{}", i % 16)
            })
            .as_str()
            .into(),
            (10.0 + 5.0 * u).into(),
        ])
        .unwrap();
    }
    t
}

fn engine(table: &Table) -> OnlineAggregation {
    let sample = Sample::full(table, BATCH).unwrap();
    OnlineAggregation::new(sample, CostModel::default(), StorageTier::Cached)
}

struct RunStats {
    tuples_per_sec: f64,
    chunks: u64,
    chunks_pruned: u64,
    rows_matched: u64,
}

/// Min-of-`REPS` full scans of the sample under one kernel. The warm-up
/// rep also populates the table's zone-map cache so the timed chunked
/// reps measure steady-state scanning, as a serving session would.
fn run(
    eng: &OnlineAggregation,
    predicate: &Predicate,
    group_cols: &[String],
    groups: &[GroupKey],
    primitives: &[AggregateFn],
    kernel: ScanKernel,
) -> RunStats {
    let spec = ScanSpec {
        predicate,
        group_cols,
        groups,
        primitives,
    };
    let mut best_ns = u64::MAX;
    let mut stats = RunStats {
        tuples_per_sec: 0.0,
        chunks: 0,
        chunks_pruned: 0,
        rows_matched: 0,
    };
    for rep in 0..=REPS {
        let mut driver: SharedScanDriver<'_> = eng.shared_scan(&spec).unwrap();
        driver.set_kernel(kernel);
        let t0 = Instant::now();
        while driver.step() {}
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if rep == 0 {
            continue; // warm-up
        }
        if ns < best_ns {
            best_ns = ns;
            stats = RunStats {
                tuples_per_sec: driver.tuples_scanned() as f64 / (ns as f64 / 1e9),
                chunks: driver.chunks_scanned(),
                chunks_pruned: driver.chunks_pruned(),
                rows_matched: driver.rows_matched(),
            };
        }
    }
    stats
}

struct EnumStats {
    tuples_per_sec: f64,
    keys: usize,
    chunks_read_share: f64,
}

/// Min-of-`REPS` group enumerations of `table` (the warm-up rep builds the
/// zone maps), each checked against the row-wise enumeration
/// `eval_group_by` performs before any number is reported.
fn run_enum(table: &Table, predicate: &Predicate, group_cols: &[String]) -> EnumStats {
    let oracle: Vec<GroupKey> = eval_group_by(table, predicate, group_cols, &AggregateFn::Count)
        .unwrap()
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    let chunks = table.num_rows().div_ceil(CHUNK_ROWS);
    let (mut best_ns, mut chunks_read) = (u64::MAX, 0);
    for rep in 0..=REPS {
        let t0 = Instant::now();
        let mut collector = GroupKeyCollector::new(group_cols);
        collector.bound_by(predicate, table, []).unwrap();
        collector.observe(table, predicate).unwrap();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let read = collector.chunks_read();
        assert_eq!(
            collector.finish(),
            oracle,
            "collector keys disagree with the row-wise enumeration"
        );
        if rep > 0 && ns < best_ns {
            (best_ns, chunks_read) = (ns, read);
        }
    }
    EnumStats {
        tuples_per_sec: table.num_rows() as f64 / (best_ns as f64 / 1e9),
        keys: oracle.len(),
        chunks_read_share: chunks_read as f64 / chunks as f64,
    }
}

/// Pulls `"tuples_per_sec":<n>` out of BENCH_query.json without a JSON
/// dependency (the bench crate writes that file with fixed key order).
fn baseline_tps() -> (f64, &'static str) {
    if let Ok(text) = std::fs::read_to_string("BENCH_query.json") {
        if let Some(idx) = text.find("\"tuples_per_sec\":") {
            let rest = &text[idx + "\"tuples_per_sec\":".len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == 'e' || c == '-'))
                .unwrap_or(rest.len());
            if let Ok(v) = rest[..end].parse::<f64>() {
                return (v, "BENCH_query.json");
            }
        }
    }
    (FALLBACK_BASELINE_TPS, "fallback")
}

fn main() {
    let table = bench_table();
    let eng = engine(&table);
    let primitives = [AggregateFn::Avg(Expr::col("v")), AggregateFn::Freq];

    // ── Grid: selectivity × group count, scattered predicate ──────────
    let mut cells = Vec::new();
    let mut peak_chunked = 0.0f64;
    for &sel in &SELECTIVITIES {
        let predicate = if sel >= 1.0 {
            Predicate::True
        } else {
            Predicate::between("y", 0.0, sel)
        };
        for group_col in [None, Some("g16"), Some("g64")] {
            let group_cols: Vec<String> = group_col.iter().map(|c| c.to_string()).collect();
            let groups = if group_cols.is_empty() {
                Vec::new()
            } else {
                distinct_group_keys(eng.sample().table(), &Predicate::True, &group_cols).unwrap()
            };
            let n_groups = groups.len().max(1);
            let chunked = run(
                &eng,
                &predicate,
                &group_cols,
                &groups,
                &primitives,
                ScanKernel::Chunked,
            );
            let rowwise = run(
                &eng,
                &predicate,
                &group_cols,
                &groups,
                &primitives,
                ScanKernel::RowWise,
            );
            assert_eq!(
                chunked.rows_matched, rowwise.rows_matched,
                "kernels disagree on matches"
            );
            peak_chunked = peak_chunked.max(chunked.tuples_per_sec);
            cells.push(format!(
                "{{\"selectivity\":{sel},\"groups\":{n_groups},\
                 \"chunked_tps\":{:.0},\"rowwise_tps\":{:.0},\"speedup\":{:.2}}}",
                chunked.tuples_per_sec,
                rowwise.tuples_per_sec,
                chunked.tuples_per_sec / rowwise.tuples_per_sec,
            ));
        }
    }

    // ── Zone-map prune demo: narrow band of the ordered column ────────
    let band = Predicate::between("x", ROWS as f64 * 0.45, ROWS as f64 * 0.50);
    let pruned = run(&eng, &band, &[], &[], &primitives, ScanKernel::Chunked);
    let pruned_rowwise = run(&eng, &band, &[], &[], &primitives, ScanKernel::RowWise);
    assert_eq!(pruned.rows_matched, pruned_rowwise.rows_matched);
    assert!(
        pruned.chunks_pruned > 0,
        "ordered selective band must prune chunks"
    );
    let prune_rate = pruned.chunks_pruned as f64 / pruned.chunks.max(1) as f64;

    // ── Group enumeration: selectivity × cardinality × filter column ──
    let mut enum_cells = Vec::new();
    for &sel in &SELECTIVITIES {
        let filters = [
            ("scattered", Predicate::between("y", 0.0, sel)),
            ("clustered", Predicate::between("x", 0.0, ROWS as f64 * sel)),
        ];
        for (filter, predicate) in filters {
            for group_col in ["g16", "g64", "g16_rare"] {
                let stats = run_enum(&table, &predicate, &[group_col.to_owned()]);
                enum_cells.push(format!(
                    "{{\"selectivity\":{sel},\"filter\":\"{filter}\",\"group_col\":\"{group_col}\",\
                     \"keys\":{},\"tps\":{:.0},\"chunks_read_share\":{:.4}}}",
                    stats.keys, stats.tuples_per_sec, stats.chunks_read_share,
                ));
            }
        }
    }

    let (baseline, baseline_source) = baseline_tps();
    let json = format!(
        "{{\"bench\":\"scan\",\"rows\":{ROWS},\"batch\":{BATCH},\"reps\":{REPS},\
         \"grid\":[{}],\
         \"group_enum\":[{}],\
         \"prune\":{{\"chunks\":{},\"chunks_pruned\":{},\"prune_rate\":{:.4},\
         \"chunked_tps\":{:.0},\"rowwise_tps\":{:.0}}},\
         \"peak_chunked_tps\":{:.0},\
         \"baseline_tps\":{:.0},\"baseline_source\":\"{}\",\
         \"speedup_vs_baseline\":{:.2}}}",
        cells.join(","),
        enum_cells.join(","),
        pruned.chunks,
        pruned.chunks_pruned,
        prune_rate,
        pruned.tuples_per_sec,
        pruned_rowwise.tuples_per_sec,
        peak_chunked,
        baseline,
        baseline_source,
        peak_chunked / baseline,
    );
    println!("BENCH_scan.json {json}");
    if let Err(e) = std::fs::write("BENCH_scan.json", format!("{json}\n")) {
        eprintln!("could not write BENCH_scan.json: {e}");
    }
}
