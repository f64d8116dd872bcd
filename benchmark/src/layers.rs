//! Per-layer numbers read from the program's own observability (its
//! `MetricsHub` series and `QueryLog` traces, switched on through the
//! builders on a traced run), as deltas over the traced window.

use verdict::Database;
use verdict_obs::MetricsSnapshot;

use crate::fixtures::Obs;
use crate::harness::Layers;

/// Sum of a counter over every table label (fixtures hold one table, but
/// a promoted session labels it `t`, a catalog by its name).
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

fn histogram_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.histograms
        .iter()
        .filter(|h| h.name == name)
        .map(|h| h.sum)
        .sum()
}

fn gauge(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.gauges
        .iter()
        .filter(|g| g.name == name)
        .map(|g| g.value)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Engine-side layers (`verdict` glue, `storage`, `aqp`, `core`) from the
/// hub's series and the query log, over the traced window.
pub fn engine(obs: &Obs, db: &Database, out: &mut Layers) {
    let now = obs.hub.snapshot();
    let empty = MetricsSnapshot::default();
    let start = obs.window_start.as_ref().unwrap_or(&empty);
    let delta = |name: &str| (counter(&now, name) - counter(start, name)) as f64;
    let spent = |name: &str| (histogram_sum(&now, name) - histogram_sum(start, name)) as f64;

    let elapsed = spent("verdict_query_latency_ns");
    let mut staged = 0.0;
    for (metric, series) in [
        ("verdict.stage.parse_share", "verdict_stage_parse_ns"),
        ("verdict.stage.plan_share", "verdict_stage_plan_ns"),
        ("verdict.stage.scan_share", "verdict_stage_scan_ns"),
        ("verdict.stage.infer_share", "verdict_stage_infer_ns"),
        ("verdict.stage.absorb_share", "verdict_stage_absorb_ns"),
    ] {
        let share = ratio(spent(series), elapsed);
        staged += share;
        out.insert(metric, share);
    }
    // What the stage clocks do not cover: snapshot pinning, row
    // assembly, trace construction.
    out.insert(
        "verdict.glue_share",
        if elapsed > 0.0 { 1.0 - staged } else { 0.0 },
    );

    let queries = delta("verdict_queries_answered");
    out.insert("verdict.queries_traced", queries);
    out.insert(
        "verdict.cells_frozen_early_share",
        ratio(
            delta("verdict_cells_frozen_early_total"),
            delta("verdict_cells_total"),
        ),
    );
    out.insert(
        "storage.chunk_prune_rate",
        // The total counts pruned segments too.
        ratio(
            delta("verdict_scan_chunks_pruned_total"),
            delta("verdict_scan_chunks_total"),
        ),
    );
    let hits = delta("verdict_partition_cache_hits_total");
    let misses = delta("verdict_partition_cache_misses_total");
    out.insert("storage.pstore.hit_rate", ratio(hits, hits + misses));
    out.insert(
        "storage.pstore.evictions",
        delta("verdict_partition_cache_evictions_total"),
    );
    out.insert(
        "aqp.scan.morsels",
        ratio(delta("verdict_scan_morsels_total"), queries),
    );
    out.insert(
        "aqp.scan.morsels_stolen",
        ratio(delta("verdict_scan_morsels_stolen_total"), queries),
    );
    out.insert(
        "core.synopsis_len",
        gauge(&now, "verdict_synopsis_snippets"),
    );

    // Fields the hub has no series for come from the query log's most
    // recent traces (a bounded ring: a sample of the window's tail).
    let traces = db.recent_queries(usize::MAX);
    let mean = |f: &dyn Fn(&verdict_obs::QueryTrace) -> u64| {
        ratio(
            traces.iter().map(|t| f(t) as f64).sum(),
            traces.len() as f64,
        )
    };
    out.insert("aqp.scan.batches_per_query", mean(&|t| t.batches));
    out.insert(
        "storage.pstore.bytes_faulted",
        mean(&|t| t.partition_bytes_faulted),
    );
    let partitions: f64 = traces.iter().map(|t| t.partitions as f64).sum();
    let pruned: f64 = traces.iter().map(|t| t.partitions_pruned as f64).sum();
    out.insert("storage.partition_prune_rate", ratio(pruned, partitions));

    if let Some(name) = db.table_names().first() {
        if let Ok(snapshot) = db.snapshot(name) {
            let stats = snapshot.stats();
            out.insert(
                "core.validation_reject_rate",
                ratio(
                    stats.rejected as f64,
                    (stats.improved + stats.rejected + stats.passed_through) as f64,
                ),
            );
        }
    }
}

/// Server-side counters (`verdict_server_*` land on the database's hub).
pub fn server(obs: &Obs, out: &mut Layers) {
    let now = obs.hub.snapshot();
    let empty = MetricsSnapshot::default();
    let start = obs.window_start.as_ref().unwrap_or(&empty);
    let delta = |name: &str| (counter(&now, name) - counter(start, name)) as f64;
    let hits = delta("verdict_server_cache_hits_total");
    let misses = delta("verdict_server_cache_misses_total");
    out.insert("server.cache.hit_rate", ratio(hits, hits + misses));
    out.insert(
        "server.cache.evictions",
        delta("verdict_server_cache_evictions_total"),
    );
    out.insert(
        "server.admission.degraded",
        delta("verdict_server_degraded_total"),
    );
    out.insert("server.admission.shed", delta("verdict_server_shed_total"));
    let request_p50_ns = now
        .histograms
        .iter()
        .find(|h| h.name == "verdict_server_request_ns")
        .and_then(|h| h.percentile(0.5))
        .unwrap_or(0.0);
    out.insert("server.request_p50_us", request_p50_ns / 1e3);
}
