#!/usr/bin/env bash
# The lint job's structural guards: each keeps one design decision from
# coming undone ("one executor", "one fit path", "one frame parser" ...).
# A guard is one shell clause, run as it stands, that succeeds when the
# tree keeps the decision. Every guard runs; each failing one prints its
# name and what it protects, after whatever its own grep printed.
#
# The clauses run without `pipefail`, as they always have: several end in
# `grep -q`, and a writer killed by the early exit must not count.
#
# Run from the repository root: `ci/lint-guards.sh`.
set -u

failed=0

# guard <name> <purpose>: runs the function <name>; reports it if it fails.
guard() {
    if ! "$1"; then
        echo "lint guard $1 failed: $2" >&2
        failed=1
    fi
}

no_cargo_features() {
    ! grep -rnE 'cfg\((not\()?feature' src crates/*/src tests
}

no_features_table() {
    ! grep -l '^\[features\]' Cargo.toml crates/*/Cargo.toml
}

one_resolver() {
    ! grep -nE 'fn (categorical_codes|column_literal|unbound_placeholder|enumerate_groups|plan_shared_scan)\b' crates/sql/src/*.rs src/*.rs
}

no_fused_multiply_add() {
    ! grep -rnE 'fn infer_with_refs\b|mul_add|fn?m(add|sub)|enable = "[^"]*fma' crates/linalg/src crates/core/src crates/stats/src
}

linalg_unsafe_in_avx2_only() {
    [ -z "$(grep -rlw unsafe crates/linalg/src | grep -vx crates/linalg/src/avx2.rs)" ]
}

no_quadratic_forms() {
    ! grep -rnE 'quadratic_forms?(_with)?\b|bilinear_forms?\b' src crates/*/src
}

sigma_inv_is_the_accessor_only() {
    [ "$(grep -rn 'sigma_inv' src crates/*/src | cut -d: -f1,3-)" = 'crates/core/src/inference.rs:    pub fn sigma_inv(&self) -> &Matrix {' ]
}

inverse_only_in_sigma_inv() {
    [ "$(find src crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{exit} /\.inverse\(/{print FILENAME}' {} \;)" = crates/core/src/inference.rs ]
}

sigma_inv_calls_inverse() {
    grep -A2 'pub fn sigma_inv' crates/core/src/inference.rs | grep -q '\.inverse()'
}

one_covariance_assembly() {
    ! { for f in crates/core/src/*.rs; do awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"; done | grep -B3 'snippet_covariance(' | grep -nE '\bfor\b.*\bin\b|\.map\(|\.iter\(\)|from_fn|\bwhile\b'; }
}

one_ingest_replay() {
    ! grep -rn 'apply_append(' crates/store/src
}

one_store_create_open_snapshot() {
    ! grep -rnE 'fn (create_paged|open_paged|snapshot_paged|snapshot_encoded)\b' crates/store/src
}

one_row_format() {
    ! grep -rnE 'write_table_file|read_table_file|SnapshotBase|table_dirty|\.vtab|decode_v2|refit_jitter' src crates/*/src
}

one_value_codec() {
    ! grep -rnE 'fn (encode|decode)_value\b' crates/store/src crates/server/src
}

one_tmp_name() {
    [ "$(grep -rn '\.tmp"' crates/store/src | cut -d: -f1)" = crates/store/src/snapshot.rs ]
}

one_rename() {
    [ "$(grep -rn 'fs::rename(' crates/store/src | cut -d: -f1)" = crates/store/src/snapshot.rs ]
}

write_atomic_renames() {
    grep -A12 'pub(crate) fn write_atomic' crates/store/src/snapshot.rs | grep -q 'fs::rename(&tmp, path)'
}

one_morsel_queue() {
    ! grep -nE 'VecDeque|morsels_stolen|lock\(\)\.unwrap\(\)|\.window' crates/aqp/src/parallel.rs
}

partfile_reads_one_frame() {
    ! grep -n 'read_to_end' crates/store/src/partfile.rs
}

one_checksum() {
    [ "$(grep -rnE 'fn crc32\b' src crates tests | cut -d: -f1 | sort -u)" = crates/store/src/crc.rs ]
}

no_simulated_cluster_in_serving() {
    ! grep -rnE 'CostModel|StorageTier|OnlineAggregation|TimeBudgetNs|simulated_ns' src crates/server/src crates/client/src
}

no_storage_catalog() {
    [ ! -e crates/storage/src/catalog.rs ]
}

no_unreached_modules() {
    ! grep -rnE 'SnapshotCell|fn stratified\b|pub mod active\b|posterior_cov|fn multi_start\b' src crates/*/src
}

no_active_module() {
    [ ! -e crates/core/src/active.rs ]
}

no_stratified_module() {
    [ ! -e crates/aqp/src/stratified.rs ]
}

one_perf_harness() {
    [ -z "$(find crates/bench/src/bin -name 'bench_*.rs')" ]
}

one_session_reopen() {
    ! grep -n 'pub fn open' src/session.rs
}

one_front_door() {
    [ -z "$(grep -rlE 'SessionBuilder|VerdictSession' src crates tests examples | grep -vxE 'src/(session|lib)\.rs|tests/(ooc|database)\.rs')" ]
}

synopsis_is_chunked() {
    ! awk '/^pub struct QuerySynopsis/,/^}/' crates/core/src/synopsis.rs | grep -q 'Vec<SynopsisEntry>'
}

no_synopsis_touch_clear() {
    ! grep -nE 'fn (touch|clear)\b' crates/core/src/synopsis.rs
}

core_threads_in_learning_only() {
    [ -z "$(for f in crates/core/src/*.rs; do awk '/^#\[cfg\(test\)\]/{exit} /thread::/{print FILENAME}' "$f"; done | sort -u | grep -vx crates/core/src/learning.rs)" ]
}

linalg_threads_in_ops_only() {
    [ -z "$(for f in crates/linalg/src/*.rs; do awk '/^#\[cfg\(test\)\]/{exit} /thread::/{print FILENAME}' "$f"; done | sort -u | grep -vx crates/linalg/src/ops.rs)" ]
}

one_sample_draw() {
    [ -z "$(for f in crates/aqp/src/*.rs; do awk '/^#\[cfg\(test\)\]/{exit} /\.shuffle\(/{print FILENAME}' "$f"; done)" ]
}

no_sort_cardinality() {
    ! grep -rn 'fn cardinality' crates/storage/src
}

locks_absorb_poison() {
    ! { for f in crates/server/src/*.rs crates/obs/src/*.rs; do awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"; done | grep -nE '\.lock\(\)(\.unwrap\(\))?$|\.lock\(\)\.unwrap\(\)'; }
}

one_fit_path() {
    [ -z "$(for f in crates/core/src/*.rs; do awk '/^#\[cfg\(test\)\]/{exit} match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/){n=split(substr($0, RSTART, RLENGTH), w, " "); fn=w[n]} /raw_covariance_matrix\(|Cholesky::new_with_jitter\(/{print FILENAME ":" fn}' "$f"; done | sort -u | grep -vxE 'crates/core/src/(covariance\.rs:raw_covariance_matrix|inference\.rs:infer_direct)')" ]
}

one_frame_parser() {
    ! grep -rn 'fn read_frame' crates/*/src && ! grep -rn 'read_exact' crates/client/src
}

one_frame_codec() {
    [ -z "$(find crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{exit} /crc32\(/{print FILENAME}' {} \; | sort -u | grep -vxE 'crates/store/src/(crc|frame)\.rs')" ]
}

one_spin_wait() {
    [ -z "$(find crates/server/src crates/client/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{exit} /spin_loop|set_nonblocking/{print FILENAME}' {} \; | sort -u | grep -vx crates/server/src/wire.rs)" ]
}


guard no_cargo_features "One program: no cargo feature gates any code, so tier-1 and the benchmark package compile the same executor."
guard no_features_table "One program: no Cargo.toml declares a [features] table."
guard one_resolver "One statement path: the ad-hoc WHERE walk and planner stay deleted; verdict_sql's plan template is the only SQL-to-predicate path."
guard no_fused_multiply_add "One inference path and the bit contract: the per-cell serial pass stays deleted, and no mul_add, fmadd/fmsub intrinsic or fma target feature enters linalg, core or stats (it rounds once where the contract rounds twice)."
guard linalg_unsafe_in_avx2_only "The linalg crate's unsafe stays in its AVX2 kernel module, avx2.rs."
guard no_quadratic_forms "The model is its Cholesky factor: the quadratic and bilinear forms in the inverse covariance stay gone."
guard sigma_inv_is_the_accessor_only "sigma_inv names only the diagnostic accessor in inference.rs."
guard inverse_only_in_sigma_inv "Outside test modules, .inverse( is called only in inference.rs."
guard sigma_inv_calls_inverse "The sigma_inv accessor is the one that calls .inverse()."
guard one_covariance_assembly "One covariance assembly: outside test modules, snippet_covariance is never called from a loop or an iterator over regions (the all-pairs bodies live in crates/core/tests/all_pairs)."
guard one_ingest_replay "One ingest path: WAL replay stages and commits each ingest record like the live ingest, never per key through apply_append."
guard one_store_create_open_snapshot "One persistence path: the store has one create, one open and one snapshot for resident and paged tables (no paged twins)."
guard one_row_format "One row format: table generations (.vtab, their writer and reader, the dirty flag, the snapshot's base enum), the v2 metadata reader and the v2/v3 refit stay deleted."
guard one_value_codec "One Value codec (impl Persist for Value in verdict-core): no per-crate encode_value/decode_value in the store or the server."
guard one_tmp_name "One atomic whole-file writer: the only .tmp name in the store is in snapshot.rs."
guard one_rename "One atomic whole-file writer: the only fs::rename in the store is in snapshot.rs."
guard write_atomic_renames "The one rename is write_atomic's fs::rename(&tmp, path)."
guard one_morsel_queue "One morsel queue: the scan scheduler claims morsels from one atomic cursor (no per-worker deques, steal counter or reorder window) and takes its locks through the poison-tolerant helper."
guard partfile_reads_one_frame "Partition files are read one frame at a time, never buffered whole: no read_to_end in partfile.rs."
guard one_checksum "One checksum: fn crc32 is defined only in the store's crc.rs (WAL, snapshots, catalog, part files and wire frames all call it)."
guard no_simulated_cluster_in_serving "No simulated cluster above verdict_aqp: the cost model, storage tier, OnlineAggregation wrapper, time budget and simulated time stay out of the serving path."
guard no_storage_catalog "The storage crate's unused table registry stays deleted."
guard no_unreached_modules "One of each, nothing unreached: no second snapshot cell, stratified sampler, active-learning module, posterior_cov or second multi-start."
guard no_active_module "The active-learning module file stays deleted."
guard no_stratified_module "The stratified sampler file stays deleted."
guard one_perf_harness "benchmark/ is the one perf harness: no bench_* binaries in crates/bench."
guard one_session_reopen "A single-table store reopens only through Database::open and Database::open_with: src/session.rs defines no open, open_with or any other pub fn open*."
guard one_front_door "One front door: Database is the only way to query, ingest or train; outside src/session.rs, src/lib.rs, tests/ooc.rs and tests/database.rs (the tests of the benchmark fixture's builder, its flat layout and into_database) no file under src, crates, tests or examples names SessionBuilder or VerdictSession."
guard synopsis_is_chunked "The synopsis is Arc-shared chunks: QuerySynopsis holds no flat Vec<SynopsisEntry>."
guard no_synopsis_touch_clear "The synopsis's touch and clear stay deleted."
guard core_threads_in_learning_only "One place spawns threads in verdict-core: outside test modules, thread:: appears only in learning.rs (the lengthscale search)."
guard linalg_threads_in_ops_only "One place spawns threads in verdict-linalg: outside test modules, thread:: appears only in ops.rs (the forward pass's wavefront)."
guard one_sample_draw "One sample draw: outside test modules, no .shuffle( in crates/aqp/src; every draw-time row set goes through draw_prefix."
guard no_sort_cardinality "The sort-based fn cardinality stays out of crates/storage/src."
guard locks_absorb_poison "The server's and the metrics crate's locks absorb poison through their lock helpers: no lock().unwrap() outside their tests."
guard one_fit_path "One fit path: every fit and likelihood assembles the covariance packed and factors it in place, so outside test modules raw_covariance_matrix( and Cholesky::new_with_jitter( appear in core only in covariance.rs's dense wrapper and in infer_direct (the Eq. 4/5 reference)."
guard one_frame_parser "One frame parser: both ends of a connection cut frames off a receive buffer with wire::parse_frame; the blocking read_frame stays deleted and the client reads no exact lengths."
guard one_frame_codec "One framed-record layer: outside test modules, crc32( is called in crates/*/src only in the store's crc.rs and frame.rs, so the WAL, part files, snapshots, catalog and wire build, parse and check their frames, headers and sealed bodies through the frame module."
guard one_spin_wait "One bounded wait: outside test modules, spin_loop and set_nonblocking appear in the server and client crates only in wire.rs, whose spin_read is the one poll-then-park read both ends of a connection use."

exit $failed
