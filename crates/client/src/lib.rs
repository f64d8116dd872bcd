//! # verdict-client — blocking client for the verdict-server protocol
//!
//! One TCP connection, one [`Client`]: connect performs the preamble
//! handshake (magic + version, both directions), and every method is a
//! synchronous request/response round trip over the frames of
//! [`verdict_server::wire`]: a request goes out in one [`write_frame`],
//! and a response is cut off the connection's receive buffer with the
//! server's own [`parse_frame`], so one that arrives whole costs one
//! `read`. Waiting for a response, the client polls about 30 µs
//! ([`wire::Spin`]) before it parks, so a cached answer is read without
//! a sleeping reader's wake-up; an idle client never spins.
//!
//! Answers come back as an [`Answer`]: the server's `cached` /
//! `degraded` flags, its wall-clock, the decoded
//! [`wire::WireOutcome`], *and* the raw canonical outcome bytes — the
//! latter so callers (the parity tests, the benchmark) can compare a
//! wire answer byte-for-byte against [`wire::encode_outcome`] of an
//! in-process run.

#![warn(missing_docs)]

use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};

use verdict::storage::Value;
use verdict_server::wire::{
    self, check_preamble, decode_outcome, parse_frame, write_frame, write_preamble, ErrorCode,
    HelloInfo, IngestSummary, PreparedInfo, Request, Response, WireError, WireOptions, WireOutcome,
    PREAMBLE_LEN,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes did not decode (framing or payload).
    Wire(WireError),
    /// The server answered with a typed error; the connection is still
    /// usable.
    Server {
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server shed the request under load; retry later, or resubmit
    /// with `no_learn` options.
    Overloaded {
        /// Learn-path requests in flight at refusal.
        inflight: u64,
        /// The server's admission bound.
        limit: u64,
    },
    /// The server answered with a well-formed but out-of-protocol
    /// response for this request.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Overloaded { inflight, limit } => {
                write!(
                    f,
                    "server overloaded: {inflight} learn queries in flight (limit {limit})"
                )
            }
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Result alias for client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// An answered query as seen by the client.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Served from the server's answer cache (no scan ran).
    pub cached: bool,
    /// Degraded to `no_learn` by the server's admission controller.
    pub degraded: bool,
    /// Server-side wall-clock for the request, nanoseconds.
    pub elapsed_ns: u64,
    /// The canonical outcome bytes, verbatim off the wire
    /// ([`wire::encode_outcome`] form) — byte-comparable against an
    /// in-process run.
    pub outcome_bytes: Vec<u8>,
    /// The decoded outcome.
    pub outcome: WireOutcome,
}

/// One connection to a verdict-server, with its receive buffer: bytes
/// read past the end of one response wait there for the next.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    spin: wire::Spin,
}

impl Client {
    /// Connects and performs the preamble handshake in both directions.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_preamble(&mut stream)?;
        let mut client = Client {
            stream,
            buf: Vec::new(),
            spin: wire::Spin::default(),
        };
        while client.buf.len() < PREAMBLE_LEN {
            client.fill()?;
        }
        check_preamble(&client.buf[..PREAMBLE_LEN])?;
        client.buf.drain(..PREAMBLE_LEN);
        Ok(client)
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response> {
        write_frame(&mut self.stream, &request.encode()?)?;
        loop {
            if let Some((payload, consumed)) = parse_frame(&self.buf)? {
                self.buf.drain(..consumed);
                return Ok(Response::decode(&payload)?);
            }
            self.fill()?;
        }
    }

    /// One `read` onto the receive buffer; the peer closing first is a
    /// torn frame. Polls before it parks ([`wire::Spin`]).
    fn fill(&mut self) -> Result<()> {
        let mut chunk = [0u8; 8192];
        let read = match self.spin.poll(&self.stream, &mut chunk) {
            Some(Ok(Some(n))) => Ok(n),
            Some(Err(e)) => Err(e),
            None | Some(Ok(None)) => self.stream.read(&mut chunk),
        };
        match read {
            Ok(0) => return Err(WireError::Torn.into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    fn fail<T>(response: Response, wanted: &str) -> Result<T> {
        Err(match response {
            Response::Error { code, message } => ClientError::Server { code, message },
            Response::Overloaded { inflight, limit } => ClientError::Overloaded { inflight, limit },
            other => ClientError::Unexpected(format!("wanted {wanted}, got {other:?}")),
        })
    }

    /// The server's catalog: protocol version, tables, schemas, epochs.
    pub fn hello(&mut self) -> Result<HelloInfo> {
        match self.round_trip(&Request::Hello)? {
            Response::Hello(info) => Ok(info),
            other => Self::fail(other, "hello"),
        }
    }

    /// Prepares a statement server-side.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedInfo> {
        let sql = sql.to_string();
        match self.round_trip(&Request::Prepare { sql })? {
            Response::Prepared(info) => Ok(info),
            other => Self::fail(other, "prepared"),
        }
    }

    /// Binds parameters to a prepared statement; returns the bound
    /// handle.
    pub fn bind(&mut self, stmt: u64, params: &[Value]) -> Result<u64> {
        let params = params.to_vec();
        match self.round_trip(&Request::Bind { stmt, params })? {
            Response::Bound { bound } => Ok(bound),
            other => Self::fail(other, "bound"),
        }
    }

    /// Runs a bound statement.
    pub fn run(&mut self, bound: u64, options: WireOptions) -> Result<Answer> {
        match self.round_trip(&Request::Run { bound, options })? {
            Response::Answer(a) => Self::answer(a),
            other => Self::fail(other, "answer"),
        }
    }

    /// Runs an ad-hoc statement (served through the server's plan
    /// cache).
    pub fn query(&mut self, sql: &str, options: WireOptions) -> Result<Answer> {
        let sql = sql.to_string();
        match self.round_trip(&Request::Query { sql, options })? {
            Response::Answer(a) => Self::answer(a),
            other => Self::fail(other, "answer"),
        }
    }

    /// Appends rows to a table.
    pub fn ingest(&mut self, table: &str, rows: &[Vec<Value>]) -> Result<IngestSummary> {
        let (table, rows) = (table.to_string(), rows.to_vec());
        match self.round_trip(&Request::Ingest { table, rows })? {
            Response::IngestOk(summary) => Ok(summary),
            other => Self::fail(other, "ingest-ok"),
        }
    }

    /// The server's metrics snapshot, JSON rendering.
    pub fn metrics_json(&mut self) -> Result<String> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            other => Self::fail(other, "metrics"),
        }
    }

    /// Orderly goodbye; consumes the client.
    pub fn close(mut self) -> Result<()> {
        match self.round_trip(&Request::Close)? {
            Response::Bye => Ok(()),
            other => Self::fail(other, "bye"),
        }
    }

    fn answer(frame: wire::AnswerFrame) -> Result<Answer> {
        let outcome = decode_outcome(&frame.outcome)?;
        Ok(Answer {
            cached: frame.cached,
            degraded: frame.degraded,
            elapsed_ns: frame.elapsed_ns,
            outcome_bytes: frame.outcome,
            outcome,
        })
    }
}
