//! The hand-rolled serving runtime: listener + worker thread pool.
//!
//! No async runtime anywhere — plain `std` threads — and work stealing
//! over connections: one deque of connections per worker, the owner pops
//! from the *front*, an idle worker steals from the *back* of a
//! victim's deque, and a condvar parks workers when every deque is
//! empty. Each connection is serviced in short slices — a bounded read
//! (2 ms socket timeout), then every complete frame in the buffer is cut
//! off by [`parse_frame`] and handled — and goes back on its owner's
//! deque, so one slow client cannot monopolize a worker and partial
//! frames survive across slices. Each response goes out in one call
//! ([`write_frame`]'s one vectored write). A slice after an answered
//! frame, on a worker with nothing else queued, polls about 30 µs
//! ([`Spin`]) before its read parks; an idle connection never spins.
//!
//! Request execution threads through two gates, in order:
//!
//! 1. the **answer cache** ([`crate::cache`]) — a hit serves memoized
//!    canonical bytes and touches neither the scan path nor the
//!    admission budget;
//! 2. **admission control** ([`crate::admission`]) — learn-path misses
//!    take a permit or get degraded/shed.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use verdict::storage::Value;
use verdict::{Database, Error as VerdictError, Mode, Prepared, QueryOptions};

use crate::admission::{Admission, AdmissionController, OverflowPolicy, Permit};
use crate::cache::{AnswerKey, CachedAnswer, Lru};
use crate::metrics::ServerMetrics;
use crate::wire::{
    check_preamble, encode_answer, encode_outcome, parse_frame, write_frame, write_preamble,
    ErrorCode, HelloInfo, IngestSummary, PreparedInfo, Request, Response, Spin, TableInfo,
    WireError, WireOptions, PREAMBLE_LEN, WIRE_VERSION,
};

/// How the server is sized and how it behaves at the limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads servicing connections.
    pub workers: usize,
    /// Maximum concurrent learn-path (`Mode::Verdict`) requests.
    pub admission_limit: u64,
    /// What to do with learn-path requests over the limit.
    pub overflow: OverflowPolicy,
    /// Answer-cache entries (0 disables the answer cache). The plan
    /// cache for ad-hoc statements shares this capacity figure.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            admission_limit: 64,
            overflow: OverflowPolicy::Degrade,
            cache_capacity: 1024,
        }
    }
}

/// Locks `mutex`, absorbing poison. A worker that panics while holding a
/// connection deque or a cache must not take every later request down
/// with it: a deque is whole between pushes and pops, and a cache maps
/// each key only to the answer or plan computed for it, so the worst a
/// half-done update leaves is an entry that is kept or evicted late.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the listener and every worker.
struct Shared {
    db: Arc<Database>,
    metrics: Arc<ServerMetrics>,
    admission: Arc<AdmissionController>,
    answers: Mutex<Lru<AnswerKey, CachedAnswer>>,
    plans: Mutex<Lru<String, Arc<Prepared>>>,
    queues: Vec<Mutex<VecDeque<Conn>>>,
    idle: Mutex<()>,
    cv: Condvar,
    stop: AtomicBool,
}

/// Handles of each kind — prepared and bound statements — a connection
/// keeps (the least recently used goes first).
const MAX_HANDLES: usize = 4096;

/// Per-connection session: prepared-statement and bound handles live
/// here, scoped to the connection (they die with it).
struct Session {
    stmts: Lru<u64, Arc<Prepared>>,
    bounds: Lru<u64, (u64, Vec<Value>)>,
    next: u64,
}

impl Session {
    fn new() -> Session {
        Session {
            stmts: Lru::new(MAX_HANDLES),
            bounds: Lru::new(MAX_HANDLES),
            next: 0,
        }
    }

    fn handle(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// One client connection with its receive buffer and session.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    preamble_done: bool,
    /// Whether the last slice answered a frame: the next one polls.
    hot: bool,
    spin: Spin,
    session: Session,
}

/// What one service slice decided about a connection.
enum ConnFate {
    /// Keep servicing it.
    Keep,
    /// Close it (orderly or on error).
    Drop,
}

/// A running server: bound address plus the handles to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric handles (and through them the hub).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.shared.metrics
    }

    /// Stops accepting, closes every connection, joins all threads. One
    /// loopback connect wakes the acceptor, which blocks in `accept`.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        let _ = TcpStream::connect(wake);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves `db` until [`ServerHandle::shutdown`].
///
/// The metric series land on the database's own hub when it has one
/// (one snapshot then shows engine and server series side by side),
/// else on a private hub reachable via [`ServerHandle::metrics`].
pub fn serve(db: Arc<Database>, addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;

    let hub = match db.metrics_hub() {
        Some(hub) => Arc::clone(hub),
        None => Arc::new(verdict_obs::MetricsHub::new()),
    };
    let metrics = Arc::new(ServerMetrics::on_hub(hub));
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        admission: Arc::new(AdmissionController::new(
            config.admission_limit,
            config.overflow,
            Arc::clone(&metrics),
        )),
        answers: Mutex::new(Lru::new(config.cache_capacity)),
        plans: Mutex::new(Lru::new(config.cache_capacity)),
        queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        idle: Mutex::new(()),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
        db,
        metrics,
    });

    let mut threads = Vec::with_capacity(workers + 1);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("verdict-server-accept".into())
                .spawn(move || accept_loop(listener, &shared))?,
        );
    }
    for worker in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name(format!("verdict-server-worker-{worker}"))
                .spawn(move || worker_loop(worker, &shared))?,
        );
    }

    Ok(ServerHandle {
        addr: local,
        shared,
        threads,
    })
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    let mut next_queue = 0usize;
    for accepted in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok(stream) => {
                if init_stream(&stream).is_err() {
                    continue;
                }
                shared.metrics.connections_total.inc();
                shared.metrics.connections_active.add(1.0);
                let conn = Conn {
                    stream,
                    buf: Vec::new(),
                    preamble_done: false,
                    hot: false,
                    spin: Spin::default(),
                    session: Session::new(),
                };
                // Round-robin placement; stealing rebalances from there.
                lock(&shared.queues[next_queue]).push_back(conn);
                next_queue = (next_queue + 1) % shared.queues.len();
                shared.cv.notify_all();
            }
            // An accept error (out of descriptors, say): back off, do not spin.
            Err(_) => thread::park_timeout(Duration::from_millis(1)),
        }
    }
}

fn init_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // The slice read budget: a worker never blocks on one connection
    // longer than this before moving to the next.
    stream.set_read_timeout(Some(Duration::from_millis(2)))?;
    let mut w = stream;
    write_preamble(&mut w)
}

fn worker_loop(me: usize, shared: &Shared) {
    while !shared.stop.load(Ordering::Acquire) {
        let conn = claim(me, shared);
        let Some(mut conn) = conn else {
            // Nothing anywhere: park until the listener enqueues.
            let guard = lock(&shared.idle);
            let _ = shared
                .cv
                .wait_timeout(guard, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        match service(&mut conn, me, shared) {
            ConnFate::Keep => lock(&shared.queues[me]).push_back(conn),
            ConnFate::Drop => shared.metrics.connections_active.add(-1.0),
        }
    }
}

/// Own deque front first, then steal from the back of the others.
fn claim(me: usize, shared: &Shared) -> Option<Conn> {
    if let Some(c) = lock(&shared.queues[me]).pop_front() {
        return Some(c);
    }
    let n = shared.queues.len();
    for step in 1..n {
        let victim = (me + step) % n;
        if let Some(c) = lock(&shared.queues[victim]).pop_back() {
            return Some(c);
        }
    }
    None
}

/// One service slice: one bounded read, then every complete frame.
fn service(conn: &mut Conn, me: usize, shared: &Shared) -> ConnFate {
    let mut chunk = [0u8; 8192];
    let spin = std::mem::take(&mut conn.hot) && lock(&shared.queues[me]).is_empty();
    let polled = spin.then(|| conn.spin.poll(&conn.stream, &mut chunk));
    let read = match polled.flatten() {
        Some(Ok(Some(n))) => {
            shared.metrics.spin_caught_total.inc();
            Ok(n)
        }
        Some(Err(e)) => Err(e),
        spun => {
            if spun.is_some() {
                shared.metrics.spin_parked_total.inc();
            }
            conn.stream.read(&mut chunk)
        }
    };
    match read {
        Ok(0) => {
            // Peer closed. Mid-frame bytes left behind mean a torn frame.
            if !conn.buf.is_empty() {
                shared.metrics.frame_errors_total.inc();
            }
            return ConnFate::Drop;
        }
        Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut => {}
        Err(_) => return ConnFate::Drop,
    }

    if !conn.preamble_done {
        match check_preamble(&conn.buf) {
            Ok(()) => {
                conn.buf.drain(..PREAMBLE_LEN);
                conn.preamble_done = true;
            }
            // Not all of it has arrived yet.
            Err(WireError::Torn) => return ConnFate::Keep,
            Err(WireError::Version(v)) => {
                // Another version gets a typed goodbye it can decode:
                // error frames are laid out alike in every version.
                shared.metrics.refused_total.inc();
                let refusal = Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("peer protocol v{v} is not the served v{WIRE_VERSION}"),
                };
                let _ = respond(conn, &refusal.encode());
                return ConnFate::Drop;
            }
            Err(_) => {
                // Foreign magic: not our protocol at all, just hang up.
                shared.metrics.refused_total.inc();
                return ConnFate::Drop;
            }
        }
    }

    loop {
        match parse_frame(&conn.buf) {
            Ok(None) => return ConnFate::Keep,
            Ok(Some((payload, consumed))) => {
                conn.buf.drain(..consumed);
                let request = match Request::decode(&payload) {
                    Ok(r) => r,
                    Err(e) => {
                        // Valid frame, malformed content: typed error,
                        // then close — the stream can't be trusted.
                        shared.metrics.frame_errors_total.inc();
                        let refusal = Response::Error {
                            code: ErrorCode::BadRequest,
                            message: e.to_string(),
                        };
                        let _ = respond(conn, &refusal.encode());
                        return ConnFate::Drop;
                    }
                };
                let closing = matches!(request, Request::Close);
                let response = handle(&mut conn.session, shared, request);
                if respond(conn, &response).is_err() {
                    return ConnFate::Drop;
                }
                conn.hot = true;
                if closing {
                    return ConnFate::Drop;
                }
            }
            Err(_) => {
                // Torn/oversized/corrupt framing: close cleanly.
                shared.metrics.frame_errors_total.inc();
                return ConnFate::Drop;
            }
        }
    }
}

/// Sends an encoded response; one past the frame cap, which no client
/// would read (and `write_frame` refuses before writing a byte), goes as a
/// typed `Internal` error in its place.
fn respond(conn: &mut Conn, payload: &[u8]) -> Result<(), WireError> {
    match write_frame(&mut conn.stream, payload) {
        Err(too_large @ WireError::TooLarge(_)) => {
            let error = Response::Error {
                code: ErrorCode::Internal,
                message: too_large.to_string(),
            };
            write_frame(&mut conn.stream, &error.encode())
        }
        sent => sent,
    }
}

/// Runs one request; returns its response, encoded.
fn handle(session: &mut Session, shared: &Shared, request: Request) -> Vec<u8> {
    let t0 = Instant::now();
    shared.metrics.requests_total.inc();
    let payload = dispatch(session, shared, request, t0);
    shared.metrics.request_ns.record(elapsed_ns(t0));
    payload
}

/// An answer is encoded straight from its outcome bytes
/// ([`encode_answer`]); every other response through
/// [`Response::encode`].
fn dispatch(session: &mut Session, shared: &Shared, request: Request, t0: Instant) -> Vec<u8> {
    let response = match request {
        Request::Hello => hello(shared),
        Request::Prepare { sql } => match shared.db.prepare(&sql) {
            Ok(prepared) => {
                let stmt = session.handle();
                let info = PreparedInfo {
                    stmt,
                    table: prepared.table_name().to_string(),
                    params: prepared.param_kinds().to_vec(),
                    fingerprint: prepared.plan_fingerprint(),
                };
                session.stmts.insert(stmt, Arc::new(prepared));
                Response::Prepared(info)
            }
            Err(e) => error_response(e),
        },
        Request::Bind { stmt, params } => match session.stmts.get(&stmt) {
            Some(prepared) => match prepared.bind(&params) {
                Ok(_) => {
                    // Validated; store the literals, re-bind at run time
                    // (a bound statement borrows its plan).
                    let bound = session.handle();
                    session.bounds.insert(bound, (stmt, params));
                    Response::Bound { bound }
                }
                Err(e) => error_response(e),
            },
            None => Response::Error {
                code: ErrorCode::UnknownHandle,
                message: format!("no prepared statement #{stmt} in this session"),
            },
        },
        Request::Run { bound, options } => {
            let Some((stmt, params)) = session.bounds.get(&bound) else {
                return Response::Error {
                    code: ErrorCode::UnknownHandle,
                    message: format!("no bound statement #{bound} in this session"),
                }
                .encode();
            };
            let Some(prepared) = session.stmts.get(&stmt) else {
                return Response::Error {
                    code: ErrorCode::UnknownHandle,
                    message: format!("bound statement #{bound} outlived its plan"),
                }
                .encode();
            };
            return execute(shared, &prepared, &params, options, t0);
        }
        Request::Query { sql, options } => match plan(shared, &sql) {
            Ok(prepared) => return execute(shared, &prepared, &[], options, t0),
            Err(VerdictError::Unsupported(reasons)) => {
                // Parity with `Database::query`: unsupported statements
                // are an outcome, not a connection error.
                let outcome = encode_outcome(&verdict::QueryOutcome::Unsupported(reasons));
                return encode_answer(false, false, elapsed_ns(t0), &outcome);
            }
            Err(e) => error_response(e),
        },
        Request::Ingest { table, rows } => match shared.db.ingest(&table, &rows) {
            Ok(report) => Response::IngestOk(IngestSummary {
                appended_rows: report.appended_rows as u64,
                adjusted_keys: report.adjusted_keys as u64,
                adjusted_snippets: report.adjusted_snippets as u64,
                data_epoch: report.data_epoch,
            }),
            Err(e) => error_response(e),
        },
        Request::Metrics => Response::Metrics {
            json: shared.metrics.hub().snapshot().to_json(),
        },
        Request::Close => Response::Bye,
    };
    response.encode()
}

fn hello(shared: &Shared) -> Response {
    let mut tables = Vec::new();
    for name in shared.db.table_names() {
        let (Ok(schema), Ok(table), Ok(epoch), Ok(data_epoch)) = (
            shared.db.table_schema(name),
            shared.db.table(name),
            shared.db.epoch(name),
            shared.db.data_epoch(name),
        ) else {
            continue;
        };
        tables.push(TableInfo {
            name: name.clone(),
            columns: schema.columns().to_vec(),
            rows: table.num_rows() as u64,
            epoch,
            data_epoch,
        });
    }
    Response::Hello(HelloInfo {
        protocol: WIRE_VERSION,
        tables,
    })
}

/// Ad-hoc statements go through the plan cache: the SQL layer runs once
/// per distinct statement text. Same answers by construction —
/// `Database::query` itself prepares the statement and runs it with no
/// parameters; the cache only keeps the compiled plan between calls.
fn plan(shared: &Shared, sql: &str) -> Result<Arc<Prepared>, VerdictError> {
    if let Some(hit) = lock(&shared.plans).get(sql) {
        return Ok(hit);
    }
    let prepared = Arc::new(shared.db.prepare(sql)?);
    lock(&shared.plans).insert(sql.to_string(), Arc::clone(&prepared));
    Ok(prepared)
}

/// The execution gate sequence: answer cache → admission → engine. The
/// answer is encoded from the outcome bytes the cache shares, so a hit
/// and a miss each copy the outcome once, into the payload.
fn execute(
    shared: &Shared,
    prepared: &Prepared,
    params: &[Value],
    options: WireOptions,
    t0: Instant,
) -> Vec<u8> {
    // 1. Cache, before admission: a hit does no learn-path work, so it
    //    must not consume (or be refused) an admission slot.
    let token = prepared.cache_token();
    if let Some(bytes) = lookup(shared, prepared, params, &options, token) {
        return encode_answer(true, false, elapsed_ns(t0), &bytes);
    }

    // 2. Admission: only the learn path is bounded.
    let mut effective = options;
    let mut degraded = false;
    let _permit: Option<Permit> = if options.mode == Mode::Verdict {
        match shared.admission.try_admit() {
            Admission::Admitted(p) => Some(p),
            Admission::Degrade => {
                effective.mode = Mode::NoLearn;
                degraded = true;
                // The degraded question is a different cache key; it may
                // itself be memoized already.
                if let Some(bytes) = lookup(shared, prepared, params, &effective, token) {
                    return encode_answer(true, true, elapsed_ns(t0), &bytes);
                }
                None
            }
            Admission::Shed { inflight } => {
                return Response::Overloaded {
                    inflight,
                    limit: shared.admission.limit(),
                }
                .encode();
            }
        }
    } else {
        None
    };

    // 3. The engine.
    shared.metrics.cache_misses_total.inc();
    let qopts = QueryOptions::new()
        .with_mode(effective.mode)
        .with_policy(effective.policy);
    let outcome = match prepared.bind(params).and_then(|b| b.run(&qopts)) {
        Ok(outcome) => outcome,
        Err(e) => return error_response(e).encode(),
    };
    let bytes = Arc::new(encode_outcome(&outcome));

    // 4. Memoize — only if the validity token did not move while we ran
    //    (a concurrent train/ingest voids the insert; see crate::cache
    //    for why this makes staleness impossible by construction).
    if let Some(token) = token {
        if prepared.cache_token() == Some(token) {
            let key = AnswerKey::new(
                prepared.table_name(),
                prepared.plan_fingerprint(),
                params,
                &effective,
                token,
            );
            let evicted = lock(&shared.answers).insert(key, Arc::clone(&bytes));
            if evicted {
                shared.metrics.cache_evictions_total.inc();
            }
        }
    }

    encode_answer(false, degraded, elapsed_ns(t0), &bytes)
}

fn lookup(
    shared: &Shared,
    prepared: &Prepared,
    params: &[Value],
    options: &WireOptions,
    token: Option<(u64, u64)>,
) -> Option<CachedAnswer> {
    let token = token?;
    let key = AnswerKey::new(
        prepared.table_name(),
        prepared.plan_fingerprint(),
        params,
        options,
        token,
    );
    let hit = lock(&shared.answers).get(&key);
    if hit.is_some() {
        shared.metrics.cache_hits_total.inc();
    }
    hit
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn error_response(e: VerdictError) -> Response {
    let code = match &e {
        VerdictError::Sql(_) | VerdictError::Unsupported(_) => ErrorCode::Sql,
        VerdictError::Catalog(_) => ErrorCode::Catalog,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::AnswerFrame;
    use verdict::workload::multi::{orders_table, TwoTableSpec};
    use verdict::TableOptions;

    /// One `read` onto the receive buffer.
    fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) {
        let mut chunk = [0u8; 8192];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "the server closed the connection");
        buf.extend_from_slice(&chunk[..n]);
    }

    /// The next response, cut off the receive buffer by `parse_frame`.
    fn receive(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
        loop {
            if let Some((payload, consumed)) = parse_frame(buf).unwrap() {
                buf.drain(..consumed);
                return Response::decode(&payload).unwrap();
            }
            read_more(stream, buf);
        }
    }

    fn query(stream: &mut TcpStream, buf: &mut Vec<u8>, sql: &str) -> AnswerFrame {
        let request = Request::Query {
            sql: sql.to_string(),
            options: WireOptions::default(),
        };
        write_frame(stream, &request.encode().unwrap()).unwrap();
        match receive(stream, buf) {
            Response::Answer(answer) => answer,
            other => panic!("wanted an answer, got {other:?}"),
        }
    }

    /// A thread that panics while holding the answer cache (or the plan
    /// cache) poisons its mutex; every later request is still answered,
    /// and a repeat is still a byte-identical cache hit.
    #[test]
    fn a_poisoned_cache_mutex_does_not_stop_serving() {
        let table = orders_table(&TwoTableSpec {
            orders_rows: 2_000,
            events_rows: 1,
            seed: 5,
        });
        let options = TableOptions {
            sample_fraction: 0.2,
            batch_size: 250,
            seed: 5,
            ..Default::default()
        };
        let db = Database::builder()
            .register_table_with("orders", table, options)
            .build()
            .unwrap();
        let server = serve(Arc::new(db), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_preamble(&mut stream).unwrap();
        let mut buf = Vec::new();
        while buf.len() < PREAMBLE_LEN {
            read_more(&mut stream, &mut buf);
        }
        check_preamble(&buf[..PREAMBLE_LEN]).unwrap();
        buf.drain(..PREAMBLE_LEN);
        let sql = "SELECT AVG(amount) FROM orders WHERE day BETWEEN 10 AND 40";
        let first = query(&mut stream, &mut buf, sql);
        assert!(!first.cached);

        let shared = Arc::clone(&server.shared);
        let poisoner = thread::spawn(move || {
            let _answers = shared.answers.lock().unwrap();
            let _plans = shared.plans.lock().unwrap();
            panic!("a worker dies holding both caches");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.answers.is_poisoned());
        assert!(server.shared.plans.is_poisoned());

        let again = query(&mut stream, &mut buf, sql);
        assert!(again.cached);
        assert_eq!(again.outcome, first.outcome);
        let other = query(
            &mut stream,
            &mut buf,
            "SELECT AVG(amount) FROM orders WHERE day BETWEEN 50 AND 70",
        );
        assert!(!other.cached);
        assert_ne!(other.outcome, first.outcome);
        drop(stream);
        server.shutdown();
    }

    /// A response past the frame cap would be refused by the client's
    /// reader and leave the stream out of step; the connection gets a
    /// typed error in its place and keeps serving.
    #[test]
    fn an_oversized_response_becomes_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        // Nothing reads until both responses are sent: a full-size frame
        // would block here, so give up instead of hanging.
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            preamble_done: true,
            hot: false,
            spin: Spin::default(),
            session: Session::new(),
        };
        let oversized = Response::Error {
            code: ErrorCode::Sql,
            message: "x".repeat(16 * 1024 * 1024),
        };
        respond(&mut conn, &oversized.encode()).unwrap();
        respond(&mut conn, &Response::Bye.encode()).unwrap();
        let mut buf = Vec::new();
        match receive(&mut client, &mut buf) {
            Response::Error {
                code: ErrorCode::Internal,
                message,
            } => assert!(message.contains("exceeds"), "{message}"),
            other => panic!("wanted an internal error, got {other:?}"),
        }
        let next = receive(&mut client, &mut buf);
        assert!(matches!(next, Response::Bye), "{next:?}");
    }
}
