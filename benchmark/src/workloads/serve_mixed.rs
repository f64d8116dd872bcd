//! `serve_mixed`: the whole stack over loopback TCP. An in-process server
//! (2 workers, otherwise default `ServerConfig`) and one closed-loop
//! `Client` connection per harness thread, zero think time. There is one
//! client per two cores (1 here): a client and the worker serving it take
//! turns on a core, so this loads half the host and leaves the rest to the
//! server's acceptor and to the sandbox's neighbours. With a client per
//! core (four busy threads on 2 vCPUs) every latency here moved by 35 %
//! whenever the host had a slow minute — p50 spread 0.34 across ten seeds. One operation = one statement answered, half by an ad-hoc
//! `query` round trip, half through the prepared path: `prepare` once per
//! statement shape and connection, `bind` once per parameter set, `run`
//! every time (a dashboard re-runs its bound statements).
//!
//! In a fixed rotation of ten, eight statements come from a hot pool of
//! 64 (answer-cache hits once warm; the set-up runs the pool through both
//! paths) and two are never-seen literals (miss → parse, plan cache,
//! admission, scan, learn; on the prepared path also a `bind`). So the
//! median is a cache hit — one round trip on either path — and p95 a miss
//! (engine).
//!
//! Fails an operation: a transport, server or overload error, a refusal,
//! an answer that does not decode, a tuple count other than the sample's
//! row count, an improved error above the raw error.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use verdict::{Database, Mode, StopPolicy};
use verdict_client::Client;
use verdict_server::wire::WireOptions;
use verdict_server::ServerHandle;
use verdict_storage::Table;

use super::{check_full_scan, resident_sample_rows};
use crate::audit;
use crate::fixtures::{self, Obs, TABLE};
use crate::gen::{self, Sampler, Statement};
use crate::harness::{Budget, Layers, Plan, Workload};
use crate::trace::Recorder;
use crate::{layers, probes, stats};

const SAMPLE_FRACTION: f64 = 0.1;
const BATCH_SIZE: usize = 1000;
const SERVER_WORKERS: usize = 2;
const HOT_POOL: usize = 64;
const GROUPED_WEEKS: f64 = 10.0;

pub struct ServeMixed;

pub struct Fixture {
    /// `Some` until `finish` (or `Drop`) shuts the server down.
    server: Option<ServerHandle>,
    db: Database,
    table: Arc<Table>,
    sample_rows: u64,
    pool: Vec<Statement>,
    options: WireOptions,
    clients: usize,
    /// Statements one thread sent (for the probes).
    ran: Vec<Statement>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn rows(smoke: bool) -> usize {
    if smoke {
        20_000
    } else {
        1_000_000
    }
}

/// The `i`-th statement of a stream: every fifth is grouped.
fn draw(sampler: &mut Sampler, i: usize) -> Statement {
    if i % 5 == 4 {
        sampler.grouped(GROUPED_WEEKS)
    } else {
        sampler.week_band(2.0, 8.0)
    }
}

/// One connection with the statements it has prepared (by template text)
/// and the hot-pool statements it has bound (by pool index).
struct Connection {
    client: Client,
    prepared: HashMap<String, u64>,
    bound: HashMap<usize, u64>,
}

impl Connection {
    fn new(client: Client) -> Connection {
        Connection {
            client,
            prepared: HashMap::new(),
            bound: HashMap::new(),
        }
    }

    /// Sends `st` down the ad-hoc or the prepared path; the error string
    /// of a failed round trip otherwise. `hot` is the statement's index in
    /// the hot pool, whose bound handle is kept and re-run.
    fn send(
        &mut self,
        rec: &mut Recorder,
        st: &Statement,
        prepared_path: bool,
        hot: Option<usize>,
        options: WireOptions,
    ) -> Result<verdict_client::Answer, String> {
        if !prepared_path {
            let sql = st.sql(TABLE);
            return rec
                .span("client.query", |_| self.client.query(&sql, options))
                .map_err(|e| format!("{e}: {sql}"));
        }
        if let Some(&bound) = hot.and_then(|i| self.bound.get(&i)) {
            return rec
                .span("client.run", |_| self.client.run(bound, options))
                .map_err(|e| format!("{e}: run hot statement"));
        }
        let template = st.template(TABLE);
        let stmt = match self.prepared.get(&template) {
            Some(&id) => id,
            None => {
                let info = rec
                    .span("client.prepare", |_| self.client.prepare(&template))
                    .map_err(|e| format!("{e}: {template}"))?;
                self.prepared.insert(template.clone(), info.stmt);
                info.stmt
            }
        };
        let bound = rec
            .span("client.bind", |_| self.client.bind(stmt, &st.params()))
            .map_err(|e| format!("{e}: bind {template}"))?;
        if let Some(i) = hot {
            self.bound.insert(i, bound);
        }
        rec.span("client.run", |_| self.client.run(bound, options))
            .map_err(|e| format!("{e}: run {template}"))
    }
}

/// One client thread's closed loop.
fn client_loop(
    fx: &Fixture,
    seed: u64,
    thread: u32,
    budget: Budget,
    rec: &mut Recorder,
) -> Vec<Statement> {
    let addr = fx.server.as_ref().expect("server is up").addr();
    let mut conn = Connection::new(fixtures::connect(addr));
    let mut sampler = Sampler::new(seed, 10 + u64::from(thread));
    let mut ran: Vec<Statement> = Vec::new();
    let mut misses = 0;
    let mut gate = budget.gate();
    while gate.pass() {
        rec.begin_op();
        rec.span("op", |rec| {
            // Slots 4 and 9 of every ten are misses (one per path); the
            // hot slots alternate between the paths.
            let slot = ran.len() % 10;
            let hot = (slot % 5 != 4).then(|| sampler.below(fx.pool.len()));
            let st = match hot {
                Some(i) => fx.pool[i].clone(),
                None => {
                    misses += 1;
                    draw(&mut sampler, misses - 1)
                }
            };
            let prepared_path = slot % 2 == 1;
            let t0 = Instant::now();
            let reply = conn.send(rec, &st, prepared_path, hot, fx.options);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match reply.map(|a| fixtures::answer_of_wire(&a.outcome, &fx.table)) {
                Ok(Some(answer)) => {
                    audit::check_cells(rec, &answer, "wire answer");
                    check_full_scan(rec, &answer, fx.sample_rows, &st);
                    rec.latencies_ms.push(ms);
                }
                Ok(None) => rec.fail(|| format!("unsupported: {}", st.sql(TABLE))),
                Err(e) => rec.fail(|| e),
            }
            ran.push(st);
        });
    }
    if let Err(e) = conn.client.close() {
        rec.fail(|| format!("close: {e}"));
    }
    ran
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    const SETUP_REPEATS: usize = 3;
    const SMOKE_PASSES: u64 = 200;
    type Fixture = Fixture;

    fn setup(plan: &Plan, obs: Option<&Obs>, _slot: usize) -> Fixture {
        let rows = rows(plan.smoke);
        let db = fixtures::resident_db(
            gen::events_table(plan.seed, rows),
            SAMPLE_FRACTION,
            BATCH_SIZE,
            None,
            None,
            plan.seed,
            obs,
        );
        let mut pool_sampler = Sampler::new(plan.seed, 0);
        let pool: Vec<Statement> = (0..HOT_POOL).map(|i| draw(&mut pool_sampler, i)).collect();
        let fx = Fixture {
            server: Some(fixtures::start_server(db.clone(), SERVER_WORKERS)),
            table: db.table(TABLE).expect("table resolves"),
            db,
            sample_rows: resident_sample_rows(rows, SAMPLE_FRACTION),
            pool,
            options: fixtures::wire_options(Mode::Verdict, StopPolicy::ScanAll),
            clients: (stats::cores() / 2).max(1),
            ran: Vec::new(),
        };
        // Warm-up: the hot pool once through each path, so the window
        // starts with the answer cache in its steady state.
        let addr = fx.server.as_ref().expect("server is up").addr();
        let mut conn = Connection::new(fixtures::connect(addr));
        let mut rec = Recorder::new(Instant::now(), 0, false);
        for (i, st) in fx.pool.iter().enumerate() {
            for prepared_path in [false, true] {
                conn.send(&mut rec, st, prepared_path, Some(i), fx.options)
                    .expect("warm-up request");
            }
        }
        conn.client.close().expect("warm-up connection closes");
        fx
    }

    fn window(fx: &mut Fixture, plan: &Plan, budget: Budget, rec: &mut Recorder) {
        let shared: &Fixture = fx;
        let parent: &Recorder = rec;
        let results: Vec<(Recorder, Vec<Statement>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..shared.clients as u32)
                .map(|thread| {
                    s.spawn(move || {
                        let mut rec = parent.for_thread(thread);
                        let ran = client_loop(shared, plan.seed, thread, budget, &mut rec);
                        (rec, ran)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (thread_rec, ran) in results {
            rec.merge(thread_rec);
            if fx.ran.is_empty() {
                fx.ran = ran;
            }
        }
    }

    fn finish(
        mut fx: Fixture,
        plan: &Plan,
        _rec: &mut Recorder,
        obs: Option<&Obs>,
        out: &mut Layers,
    ) {
        if let Some(obs) = obs {
            let server = fx.server.as_ref().expect("server is up");
            probes::server(server, &fx.db, &fx.pool, &fx.ran, fx.options, out);
            layers::engine(obs, &fx.db, out);
            layers::server(obs, out);
            probes::sql(&fx.table, &fx.ran, out);
            probes::scan_kernels(plan, &fx.ran, out);
            probes::core(&fx.db, &fx.ran, 0.0, out);
        }
        if let Some(server) = fx.server.take() {
            server.shutdown();
        }
    }
}
