//! The metric registry: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! keeps the two in step); definitions, directions and bounds are in
//! `README.md`.

/// End-to-end metrics, printed by every workload on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload on a traced run. A value
/// of 0 means the workload does not exercise that layer (or, for a count,
/// that nothing was counted).
pub const PER_LAYER: &[(&str, &str)] = &[
    // sql
    ("sql.parse_us", "us"),
    ("sql.prepare_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.plan_cells", "count"),
    // storage
    ("storage.fill_mask_tuples_per_s", "1/s"),
    ("storage.group_index_tuples_per_s", "1/s"),
    ("storage.group_enum_us", "us"),
    ("storage.chunk_prune_rate", "ratio"),
    ("storage.partition_prune_rate", "ratio"),
    ("storage.pstore.hit_rate", "ratio"),
    ("storage.pstore.evictions", "count"),
    ("storage.pstore.bytes_faulted", "B/query"),
    // aqp
    ("aqp.scan.tuples_per_s", "1/s"),
    ("aqp.scan.parallel_speedup", "ratio"),
    ("aqp.scan.morsels", "count/query"),
    ("aqp.scan.morsels_stolen", "count/query"),
    ("aqp.scan.batches_per_query", "count/query"),
    ("aqp.sample.absorb_rows_per_s", "1/s"),
    // core
    ("core.synopsis_len", "count"),
    ("core.model_n", "count"),
    ("core.infer_us_per_cell", "us"),
    ("core.absorb_us_per_snippet", "us"),
    ("core.publish_us", "us"),
    ("core.validation_reject_rate", "ratio"),
    ("core.train_s_per_key", "s"),
    ("core.ingest_stage_ms", "ms"),
    ("core.persist.encode_mb_per_s", "MB/s"),
    // linalg
    ("linalg.cholesky_ms", "ms"),
    ("linalg.solve_us", "us"),
    // store
    ("store.wal.append_us", "us"),
    ("store.wal.bytes_per_record", "B"),
    ("store.wal.sync_ms", "ms"),
    ("store.snapshot.ms", "ms"),
    ("store.snapshot.bytes", "B"),
    ("store.reopen_ms", "ms"),
    // server / client
    ("server.wire.encode_request_ns", "ns"),
    ("server.wire.decode_request_ns", "ns"),
    ("server.wire.encode_response_ns", "ns"),
    ("server.wire.decode_response_ns", "ns"),
    ("server.wire.response_bytes", "B"),
    ("server.cache.probe_ns", "ns"),
    ("server.cache.hit_rate", "ratio"),
    ("server.cache.evictions", "count"),
    ("server.admission.degraded", "count"),
    ("server.admission.shed", "count"),
    ("server.request_p50_us", "us"),
    ("client.roundtrip_floor_us", "us"),
    ("server.loopback_over_inproc", "ratio"),
    // verdict (root glue) and obs
    ("verdict.stage.parse_share", "ratio"),
    ("verdict.stage.plan_share", "ratio"),
    ("verdict.stage.scan_share", "ratio"),
    ("verdict.stage.infer_share", "ratio"),
    ("verdict.stage.absorb_share", "ratio"),
    ("verdict.glue_share", "ratio"),
    ("verdict.cells_frozen_early_share", "ratio"),
    ("verdict.ingest.refit_share", "ratio"),
    ("verdict.queries_traced", "count"),
    ("obs.tracing_overhead_pct", "%"),
    // the harness itself
    ("bench.harness_share", "ratio"),
    ("bench.spans", "count"),
    // workload-specific end-to-end numbers (reported, not gated)
    ("workload.train_s", "s"),
    ("workload.nolearn_p50_ms", "ms"),
    ("workload.nolearn_scan_share", "ratio"),
    ("workload.speedup_vs_nolearn", "ratio"),
    ("workload.tuples_ratio_vs_nolearn", "ratio"),
    ("workload.bound_coverage", "ratio"),
    ("workload.raw_bound_coverage", "ratio"),
    ("workload.error_reduction", "ratio"),
    ("workload.audited_cells", "count"),
    ("workload.ingest_p50_ms", "ms"),
    ("workload.ingest_rows_per_s", "1/s"),
    ("workload.disk_bytes_per_user_byte", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>", "unit": "<y>"` pair of one array of
    /// `BENCHMARK.json`, in file order.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section exists");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key exists") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let owned = |defs: &[(&str, &str)]| {
            defs.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
