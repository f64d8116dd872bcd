//! Per-layer probes: short timed calls into each layer's public
//! functions, on inputs taken from the statements the workload actually
//! ran and from its fixture's learned state. They run after the traced
//! window, so they never share the clock with an end-to-end number.
//!
//! Scan-kernel probes run over their own `PROBE_ROWS`-row table generated
//! from the same seed (a full-table `Sample`), so their throughput does
//! not depend on how a fixture happened to be sampled.

use std::hint::black_box;
use std::time::Instant;

use verdict::Database;
use verdict_aqp::{parallel_scan, CostModel, OnlineAggregation, Sample, ScanSpec, StorageTier};
use verdict_core::persist::Persist;
use verdict_core::{
    AggKey, AppendAdjustment, EngineState, EngineStats, Learner, Observation, Region, Snippet,
    Verdict,
};
use verdict_linalg::Cholesky;
use verdict_server::wire::{Request, Response, WireOptions};
use verdict_server::{Lru, ServerHandle};
use verdict_sql::checker::JoinPolicy;
use verdict_sql::resolve::to_predicate;
use verdict_sql::{check_query, parse_query, plan_scan, prepare_query, Query};
use verdict_storage::chunk::SelectionMask;
use verdict_storage::{
    distinct_group_keys, AggregateFn, Expr, GroupIndexer, GroupKey, Predicate, Table, Value,
    CHUNK_ROWS,
};
use verdict_store::log::{LogRecord, SnippetLog, SnippetRecord};

use crate::fixtures::{self, TABLE};
use crate::gen::{self, Statement};
use crate::harness::{Layers, Plan};
use crate::stats;

/// Statements a probe samples from those the window ran.
const PROBED_STATEMENTS: usize = 32;
/// Timed repetitions of a probe whose single call is short.
const REPS: usize = 5;

fn probe_rows(plan: &Plan) -> usize {
    if plan.smoke {
        50_000
    } else {
        1_000_000
    }
}

/// A call longer than this is timed once: repeating it would cost the
/// run more than the repeat could steady it.
const LONG_CALL_S: f64 = 0.05;

/// Median wall time of `REPS` calls of `f`, in seconds (of one call, if
/// the first takes longer than `LONG_CALL_S`).
fn median_s(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
        if samples[0] > LONG_CALL_S {
            break;
        }
    }
    stats::median(&samples)
}

/// Median wall time of the calls of `call` (one per input) that succeed.
fn median_call_s(inputs: &[String], mut call: impl FnMut(&str) -> bool) -> f64 {
    let samples: Vec<f64> = inputs
        .iter()
        .filter_map(|input| {
            let t0 = Instant::now();
            call(input).then(|| t0.elapsed().as_secs_f64())
        })
        .collect();
    stats::median(&samples)
}

fn sample_of(ran: &[Statement]) -> Vec<&Statement> {
    let step = (ran.len() / PROBED_STATEMENTS).max(1);
    ran.iter().step_by(step).take(PROBED_STATEMENTS).collect()
}

fn parsed(st: &Statement) -> Query {
    parse_query(&st.sql(TABLE)).expect("generated SQL parses")
}

fn predicate_of(st: &Statement, table: &Table) -> Predicate {
    match &parsed(st).where_clause {
        Some(w) => to_predicate(w, table).expect("generated filter resolves"),
        None => Predicate::True,
    }
}

fn site_keys(table: &Table) -> Vec<GroupKey> {
    let site = table.column("site").expect("site column");
    (0..gen::SITES)
        .filter_map(|i| site.code_of(&gen::site_label(i)))
        .map(|code| vec![Value::Cat(code)])
        .collect()
}

fn group_cols(st: &Statement) -> Vec<String> {
    if st.grouped {
        vec!["site".to_owned()]
    } else {
        Vec::new()
    }
}

/// `sql`: parse + check, prepare, and plan, per statement.
pub fn sql(table: &Table, ran: &[Statement], out: &mut Layers) {
    let statements = sample_of(ran);
    if statements.is_empty() {
        return;
    }
    let policy = JoinPolicy::none();
    let keys = site_keys(table);
    let (mut parse, mut prepare, mut plan, mut cells) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for st in &statements {
        let text = st.sql(TABLE);
        parse.push(median_s(|| {
            let q = parse_query(black_box(&text)).expect("generated SQL parses");
            black_box(check_query(&q, &policy));
        }));
        let template = parse_query(&st.template(TABLE)).expect("template parses");
        prepare.push(median_s(|| {
            black_box(prepare_query(black_box(&template), table).expect("template prepares"));
        }));
        let query = parsed(st);
        let group_keys: &[GroupKey] = if st.grouped { &keys } else { &[] };
        plan.push(median_s(|| {
            black_box(plan_scan(black_box(&query), table, group_keys, 1000).expect("plans"));
        }));
        cells += plan_scan(&query, table, group_keys, 1000)
            .expect("plans")
            .num_cells();
    }
    out.insert("sql.parse_us", stats::median(&parse) * 1e6);
    out.insert("sql.prepare_us", stats::median(&prepare) * 1e6);
    out.insert("sql.plan_us", stats::median(&plan) * 1e6);
    out.insert("sql.plan_cells", cells as f64 / statements.len() as f64);
}

/// `storage` mask/group kernels and `aqp` scan drivers over the probe
/// table, with the predicates of the statements the window ran.
pub fn scan_kernels(plan: &Plan, ran: &[Statement], out: &mut Layers) {
    let statements = sample_of(ran);
    if statements.is_empty() {
        return;
    }
    let rows = probe_rows(plan);
    let table = gen::events_table(plan.seed, rows);
    let chunks: Vec<std::ops::Range<usize>> = (0..rows)
        .step_by(CHUNK_ROWS)
        .map(|lo| lo..(lo + CHUNK_ROWS).min(rows))
        .collect();

    // storage: branch-free predicate masks, chunk by chunk.
    let mut mask = SelectionMask::new();
    let fill: Vec<f64> = statements
        .iter()
        .take(8)
        .map(|st| {
            let compiled = predicate_of(st, &table)
                .compile(&table)
                .expect("predicate compiles");
            let s = median_s(|| {
                for range in &chunks {
                    compiled.fill_mask(range.clone(), &mut mask);
                    black_box(mask.any());
                }
            });
            rows as f64 / s
        })
        .collect();
    out.insert("storage.fill_mask_tuples_per_s", stats::median(&fill));

    // storage: row → group resolution and group enumeration.
    let keys = site_keys(&table);
    let cols = vec!["site".to_owned()];
    let indexer = GroupIndexer::new(&table, &cols, &keys).expect("site keys index");
    let mut groups = Vec::new();
    let s = median_s(|| {
        for range in &chunks {
            indexer.fill_groups(range.clone(), &mut groups);
            black_box(groups.len());
        }
    });
    out.insert("storage.group_index_tuples_per_s", rows as f64 / s);
    let wide = predicate_of(
        statements
            .iter()
            .find(|st| st.grouped)
            .unwrap_or(&statements[0]),
        &table,
    );
    let s = median_s(|| {
        black_box(distinct_group_keys(&table, &wide, &cols).expect("group keys enumerate"));
    });
    out.insert("storage.group_enum_us", s * 1e6);

    // aqp: the shared-scan driver stepped serially, then morsel-parallel.
    let sample = Sample::full(&table, 4096).expect("full sample");
    let engine = OnlineAggregation::new(sample, CostModel::default(), StorageTier::Cached);
    let primitives = [AggregateFn::Avg(
        Expr::parse("value").expect("measure parses"),
    )];
    let threads = stats::cores();
    let (mut serial, mut speedup) = (Vec::new(), Vec::new());
    for st in statements.iter().take(8) {
        let predicate = predicate_of(st, &table);
        let cols = group_cols(st);
        let spec = ScanSpec {
            predicate: &predicate,
            group_cols: &cols,
            groups: if st.grouped { &keys } else { &[] },
            primitives: &primitives,
        };
        let serial_s = median_s(|| {
            let mut driver = engine.shared_scan(&spec).expect("scan driver");
            while driver.step() {}
            black_box(driver.tuples_scanned());
        });
        let parallel_s = median_s(|| {
            let mut driver = engine.shared_scan(&spec).expect("scan driver");
            parallel_scan(
                &mut driver,
                threads,
                usize::MAX,
                || engine.shared_scan(&spec).ok(),
                |_| true,
            );
            black_box(driver.tuples_scanned());
        });
        serial.push(rows as f64 / serial_s);
        speedup.push(serial_s / parallel_s);
    }
    out.insert("aqp.scan.tuples_per_s", stats::median(&serial));
    out.insert("aqp.scan.parallel_speedup", stats::median(&speedup));

    // aqp: sample maintenance — admit an appended batch (a full sample
    // admits every row, so this is the per-row admission + copy cost).
    let appended = 4096.min(rows);
    let mut grown = table.clone();
    grown
        .push_rows(&gen::ingest_batch(plan.seed, 0, appended))
        .expect("batch fits the schema");
    let absorb: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut sample = Sample::full(&table, 4096).expect("full sample");
            let t0 = Instant::now();
            let admitted = sample
                .absorb_appended(&grown, rows as u64, plan.seed, 0)
                .expect("appended rows absorb");
            black_box(admitted);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.insert(
        "aqp.sample.absorb_rows_per_s",
        appended as f64 / stats::median(&absorb),
    );
}

/// A private engine holding the database's current learned state, so the
/// `core` probes can call mutating functions without touching the fixture.
fn engine_twin(db: &Database) -> Option<(Verdict, EngineState)> {
    let name = db.table_names().first()?;
    let snapshot = db.snapshot(name).ok()?;
    let bytes = snapshot.state_bytes();
    let state = EngineState::from_bytes(&bytes).ok()?;
    let mut twin = Verdict::new(
        state.schema.clone(),
        snapshot.engine_snapshot().config().clone(),
    );
    twin.restore_state(state.clone()).ok()?;
    Some((twin, state))
}

/// `core` and `linalg`: inference, absorb, publish, state encoding, and
/// the factorisation the model rests on, at the fixture's synopsis size.
pub fn core(db: &Database, ran: &[Statement], train_s: f64, out: &mut Layers) {
    let Some((twin, state)) = engine_twin(db) else {
        return;
    };
    let key = AggKey::avg("value");
    let table = gen::events_table(0, 1024);
    let requests: Vec<(Snippet, Observation)> = sample_of(ran)
        .iter()
        .filter_map(|st| Region::from_predicate(twin.schema(), &predicate_of(st, &table)).ok())
        .map(|region| {
            (
                Snippet::new(key.clone(), region),
                Observation::new(150.0, 0.5),
            )
        })
        .collect();
    if requests.is_empty() {
        return;
    }

    let model = state.models.iter().find(|(k, _)| *k == key).map(|(_, m)| m);
    out.insert("core.model_n", model.map_or(0.0, |m| m.n() as f64));
    if model.is_some() {
        let s = median_s(|| {
            let mut delta = EngineStats::default();
            black_box(twin.view().improve_batch(black_box(&requests), &mut delta));
        });
        out.insert("core.infer_us_per_cell", s * 1e6 / requests.len() as f64);
        out.insert("core.train_s_per_key", train_s / state.models.len() as f64);
    }
    let s = median_s(|| {
        black_box(twin.publish());
    });
    out.insert("core.publish_us", s * 1e6);
    let mut encoded = 0usize;
    let s = median_s(|| {
        encoded = black_box(twin.state_bytes()).len();
    });
    out.insert("core.persist.encode_mb_per_s", encoded as f64 / 1e6 / s);

    if let Some(model) = model {
        let sigma_inv = model.sigma_inv();
        let s = median_s(|| {
            black_box(Cholesky::new(black_box(sigma_inv)).expect("Σ⁻¹ is positive definite"));
        });
        out.insert("linalg.cholesky_ms", s * 1e3);
        let factor = Cholesky::new(sigma_inv).expect("Σ⁻¹ is positive definite");
        let rhs = vec![1.0; sigma_inv.rows()];
        let s = median_s(|| {
            black_box(factor.solve(black_box(&rhs)).expect("solves"));
        });
        out.insert("linalg.solve_us", s * 1e6);
    }

    // Absorb mutates: one timed pass over a learner that owns the twin.
    let mut learner = Learner::new(twin);
    let t0 = Instant::now();
    learner.absorb(&requests, EngineStats::default());
    out.insert(
        "core.absorb_us_per_snippet",
        t0.elapsed().as_secs_f64() * 1e6 / requests.len() as f64,
    );
}

/// `core`'s share of an ingest: stage (Lemma-3 rewrite + refit) and
/// commit one batch's adjustment against the fixture's learned state.
pub fn ingest(db: &Database, plan: &Plan, base: &Table, ingest_rows: usize, out: &mut Layers) {
    let Some((mut twin, _)) = engine_twin(db) else {
        return;
    };
    let old = base
        .column("value")
        .and_then(|c| c.numeric())
        .expect("measure column");
    let new: Vec<f64> = gen::ingest_batch(plan.seed, 0, ingest_rows)
        .iter()
        .filter_map(|row| row.last().and_then(Value::as_num))
        .collect();
    let stride = (old.len() / 4096).max(1);
    let old_sample: Vec<f64> = old.iter().step_by(stride).copied().collect();
    let adjustments = [(
        AggKey::avg("value"),
        AppendAdjustment::estimate(&old_sample, &new, old.len(), new.len()),
    )];
    let t0 = Instant::now();
    let staged = twin.stage_ingest(&adjustments).expect("ingest stages");
    black_box(twin.commit_ingest(staged));
    out.insert("core.ingest_stage_ms", t0.elapsed().as_secs_f64() * 1e3);
}

/// `store`: the snippet WAL — buffered appends, bytes per record, and one
/// fsync — in a scratch file of its own.
pub fn store(plan: &Plan, out: &mut Layers) {
    const RECORDS: u64 = 512;
    let path = plan
        .scratch
        .join(format!("probe-wal-{}.vlog", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::fs::create_dir_all(&plan.scratch).expect("scratch directory");
    let table = gen::events_table(plan.seed, 1024);
    let schema = verdict_core::SchemaInfo::from_table(&table).expect("schema derives");
    let mut sampler = gen::Sampler::new(plan.seed, 7);
    let records: Vec<LogRecord> = (0..RECORDS)
        .map(|seq| {
            let predicate = predicate_of(&sampler.week_band(2.0, 8.0), &table);
            LogRecord::Snippet(SnippetRecord {
                seq: seq + 1,
                key: AggKey::avg("value"),
                region: Region::from_predicate(&schema, &predicate).expect("region builds"),
                observation: Observation::new(150.0, 0.5),
            })
        })
        .collect();
    let mut log = SnippetLog::create(&path).expect("probe log creates");
    let before = log.len_bytes();
    let t0 = Instant::now();
    for record in &records {
        log.append(record).expect("probe append");
    }
    let append_s = t0.elapsed().as_secs_f64();
    out.insert("store.wal.append_us", append_s * 1e6 / RECORDS as f64);
    out.insert(
        "store.wal.bytes_per_record",
        (log.len_bytes() - before) as f64 / RECORDS as f64,
    );
    let t0 = Instant::now();
    log.sync().expect("probe log syncs");
    out.insert("store.wal.sync_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(log);
    let _ = std::fs::remove_file(&path);
}

/// `server` / `client`: wire codecs, the answer cache's LRU, the
/// round-trip floor, and loopback against in-process for one uncached
/// statement.
pub fn server(
    handle: &ServerHandle,
    db: &Database,
    pool: &[Statement],
    ran: &[Statement],
    options: WireOptions,
    out: &mut Layers,
) {
    let statements = sample_of(ran);
    if statements.is_empty() {
        return;
    }
    let mut client = fixtures::connect(handle.addr());

    // Codecs, on the requests the window sent and the answers it got.
    let requests: Vec<Request> = statements
        .iter()
        .map(|st| Request::Query {
            sql: st.sql(TABLE),
            options,
        })
        .collect();
    let n = requests.len() as f64;
    let s = median_s(|| {
        for r in &requests {
            black_box(r.encode().expect("request encodes"));
        }
    });
    out.insert("server.wire.encode_request_ns", s * 1e9 / n);
    let encoded: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| r.encode().expect("request encodes"))
        .collect();
    let s = median_s(|| {
        for bytes in &encoded {
            black_box(Request::decode(bytes).expect("request decodes"));
        }
    });
    out.insert("server.wire.decode_request_ns", s * 1e9 / n);

    let responses: Vec<Response> = statements
        .iter()
        .filter_map(|st| client.query(&st.sql(TABLE), options).ok())
        .map(|a| {
            Response::Answer(verdict_server::wire::AnswerFrame {
                cached: a.cached,
                degraded: a.degraded,
                elapsed_ns: a.elapsed_ns,
                outcome: a.outcome_bytes,
            })
        })
        .collect();
    if !responses.is_empty() {
        let n = responses.len() as f64;
        let s = median_s(|| {
            for r in &responses {
                black_box(r.encode());
            }
        });
        out.insert("server.wire.encode_response_ns", s * 1e9 / n);
        let encoded: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
        out.insert(
            "server.wire.response_bytes",
            encoded.iter().map(Vec::len).sum::<usize>() as f64 / n,
        );
        let s = median_s(|| {
            for bytes in &encoded {
                black_box(Response::decode(bytes).expect("response decodes"));
            }
        });
        out.insert("server.wire.decode_response_ns", s * 1e9 / n);
    }

    // The cache's LRU at the server's default capacity, probed with keys
    // shaped like answer keys (hits, as the hot pool produces).
    let mut lru: Lru<Vec<u8>, std::sync::Arc<Vec<u8>>> = Lru::new(1024);
    let keys: Vec<Vec<u8>> = pool.iter().map(|st| st.sql(TABLE).into_bytes()).collect();
    for k in &keys {
        lru.insert(k.clone(), std::sync::Arc::new(vec![0u8; 128]));
    }
    let s = median_s(|| {
        for k in &keys {
            black_box(lru.get(black_box(k)));
        }
    });
    out.insert("server.cache.probe_ns", s * 1e9 / keys.len().max(1) as f64);

    // Round-trip floor: the cheapest request the protocol has.
    let hellos: Vec<f64> = (0..200)
        .filter_map(|_| {
            let t0 = Instant::now();
            client.hello().ok()?;
            Some(t0.elapsed().as_secs_f64())
        })
        .collect();
    out.insert("client.roundtrip_floor_us", stats::median(&hellos) * 1e6);

    // Uncached statements (`NoLearn` never touches the synopsis; a fresh
    // literal each time never hits the cache): loopback p50 ÷ in-process
    // p50 of the same statements.
    let raw = fixtures::wire_options(verdict::Mode::NoLearn, options.policy);
    let opts = fixtures::query_options(verdict::Mode::NoLearn, options.policy);
    let fresh = |stream: u64| -> Vec<String> {
        let mut sampler = gen::Sampler::new(0x5eed, stream);
        (0..100)
            .map(|_| sampler.week_band(2.0, 8.0).sql(TABLE))
            .collect()
    };
    let inproc = median_call_s(&fresh(8), |sql| db.query(sql, &opts).is_ok());
    let loopback = median_call_s(&fresh(9), |sql| client.query(sql, raw).is_ok());
    if inproc > 0.0 {
        out.insert("server.loopback_over_inproc", loopback / inproc);
    }
    let _ = client.close();
}
