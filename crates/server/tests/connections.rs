//! Connection lifecycle: the acceptor blocks and shutdown wakes it, only
//! an answered frame makes a connection poll (with back-off), and a
//! session keeps a bounded number of prepared and bound handles.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use verdict::workload::multi::{orders_table, TwoTableSpec};
use verdict::{Database, TableOptions};
use verdict_client::{Client, ClientError};
use verdict_server::wire::{ErrorCode, WireOptions};
use verdict_server::{serve, ServerConfig, ServerHandle};

fn fixture_db() -> Arc<Database> {
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
        .expect("fixture database");
    Arc::new(db)
}

fn start(addr: &str) -> ServerHandle {
    serve(fixture_db(), addr, ServerConfig::default()).expect("bind an ephemeral port")
}

/// Shuts `server` down on another thread and waits for it with a
/// generous timeout, so an acceptor that never wakes fails the test
/// instead of hanging it.
fn shutdown_within(server: ServerHandle, timeout: Duration) {
    let (done, returned) = mpsc::channel();
    thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    returned
        .recv_timeout(timeout)
        .expect("shutdown returned while the acceptor was blocked in accept");
}

#[test]
fn shutdown_wakes_a_blocked_acceptor() {
    // Bound to a loopback address, and to the unspecified one, which
    // shutdown reaches through the loopback address.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = start(addr);
        thread::sleep(Duration::from_millis(20));
        shutdown_within(server, Duration::from_secs(30));
    }
}

#[test]
fn a_connection_opened_right_after_serve_is_answered() {
    let server = start("127.0.0.1:0");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.hello().expect("hello").tables.len(), 1);
    client.close().expect("close");
    shutdown_within(server, Duration::from_secs(30));
}

/// A connected client that stays silent costs no poll. Afterwards only
/// an answered request makes the next slice poll, and here every poll
/// runs out (the client waits 20 ms between requests), so the polls back
/// off: after requests 1 to 6 the server has parked 1, 2, 2, 3, 3, 3 polls
/// and caught none. On one core nothing polls.
#[test]
fn only_an_answered_frame_makes_the_next_slice_poll() {
    let server = start("127.0.0.1:0");
    let metrics = Arc::clone(server.metrics());
    let mut client = Client::connect(server.addr()).expect("connect");
    thread::sleep(Duration::from_millis(20));
    assert_eq!(
        metrics.spin_parked_total.value(),
        0,
        "a silent connection polled"
    );

    let one_core = thread::available_parallelism().map_or(1, usize::from) == 1;
    for (request, want) in (1..=6).zip([1, 2, 2, 3, 3, 3]) {
        let want = if one_core { 0 } else { want };
        client.hello().expect("hello");
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.spin_parked_total.value() < want && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        // Longer than a poll and the slice's 2 ms read: the connection
        // is cold again before the next request.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(
            metrics.spin_parked_total.value(),
            want,
            "after request {request}"
        );
        assert_eq!(metrics.spin_caught_total.value(), 0);
    }
    drop(client);
    shutdown_within(server, Duration::from_secs(30));
}

/// A session holds at most 4,096 bound handles: binding one more drops
/// the least recently run handle, which then answers `UnknownHandle`,
/// while a handle re-run in between survives.
#[test]
fn the_least_recently_run_bound_handle_is_dropped_past_the_cap() {
    const CAP: usize = 4096;
    let server = start("127.0.0.1:0");
    let mut client = Client::connect(server.addr()).expect("connect");
    let stmt = client
        .prepare("SELECT AVG(amount) FROM orders WHERE day BETWEEN ? AND ?")
        .expect("prepare");
    let bind = |client: &mut Client, lo: usize| {
        let params = [(lo as f64).into(), (lo as f64 + 10.0).into()];
        client.bind(stmt.stmt, &params).expect("bind")
    };
    let mut handles: Vec<u64> = (0..CAP).map(|lo| bind(&mut client, lo)).collect();
    let (first, second) = (handles[0], handles[1]);
    // Running the first leaves the second least recently used.
    let answer = client.run(first, WireOptions::default()).expect("run");
    handles.push(bind(&mut client, CAP));

    match client.run(second, WireOptions::default()) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownHandle,
            ..
        }) => {}
        other => panic!("wanted UnknownHandle for the evicted handle, got {other:?}"),
    }
    let again = client.run(first, WireOptions::default()).expect("rerun");
    assert_eq!(again.outcome_bytes, answer.outcome_bytes);
    client
        .run(handles[CAP], WireOptions::default())
        .expect("the newest handle runs");
    client.close().expect("close");
    shutdown_within(server, Duration::from_secs(30));
}

/// Prepared statements share the cap: past it the least recently used
/// statement is dropped, so binding it answers `UnknownHandle`, while a
/// statement bound in between stays. A bound handle whose statement was
/// dropped answers `UnknownHandle` when run.
#[test]
fn the_least_recently_used_statement_is_dropped_past_the_cap() {
    const CAP: usize = 4096;
    let server = start("127.0.0.1:0");
    let mut client = Client::connect(server.addr()).expect("connect");
    let sql = "SELECT AVG(amount) FROM orders WHERE day BETWEEN ? AND ?";
    let prepare = |client: &mut Client| client.prepare(sql).expect("prepare").stmt;
    let stmts: Vec<u64> = (0..CAP).map(|_| prepare(&mut client)).collect();
    let params = [10.0.into(), 20.0.into()];
    // Binding the first leaves the second least recently used.
    let bound = client.bind(stmts[0], &params).expect("bind");
    prepare(&mut client);
    match client.bind(stmts[1], &params) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownHandle,
            ..
        }) => {}
        other => panic!("wanted UnknownHandle for the evicted statement, got {other:?}"),
    }
    client.run(bound, WireOptions::default()).expect("run");

    // A full cap of newer statements drops the plan a bound handle runs.
    let orphan = client.bind(stmts[2], &params).expect("bind");
    for _ in 0..CAP {
        prepare(&mut client);
    }
    match client.run(orphan, WireOptions::default()) {
        Err(ClientError::Server {
            code: ErrorCode::UnknownHandle,
            message,
        }) => assert!(message.contains("outlived its plan"), "{message}"),
        other => panic!("wanted UnknownHandle for the orphaned handle, got {other:?}"),
    }
    client.close().expect("close");
    shutdown_within(server, Duration::from_secs(30));
}
