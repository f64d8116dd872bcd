//! The wire protocol: length-prefixed, CRC-framed binary messages.
//!
//! Framing is the store's framed-record layer, [`verdict_store::frame`]:
//! a connection opens with its header prefix (magic `VDBLWIRE`, version
//! [`WIRE_VERSION`]; any other is refused), and every message after it
//! is one frame. A frame goes out in one call ([`write_frame`]), so on a
//! `TCP_NODELAY` socket it leaves as one segment, and both ends cut
//! frames off a receive buffer with [`parse_frame`]. A torn or corrupt
//! frame closes the connection cleanly — the decoder can reject bytes
//! but never panic on them, which the truncation/bit-flip fuzz tests
//! assert.
//!
//! Payloads are encoded with the bit-exact
//! [`verdict_core::persist`] [`Encoder`]/[`Decoder`] pair: floats travel
//! as raw IEEE-754 bits, so an answer decoded from the wire is
//! *byte-identical* to the in-process answer it was encoded from
//! ([`encode_outcome`] is the canonical form both the parity tests and
//! the server's answer cache operate on).
//!
//! One request tag per protocol verb: `hello / prepare / bind / run /
//! query / ingest / metrics / close`; responses mirror them plus the
//! typed [`Response::Overloaded`] shed signal and [`Response::Error`].

use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use verdict::sql::ParamKind;
use verdict::storage::{ColumnDef, Value};
use verdict::{Mode, QueryOutcome, StopPolicy};
use verdict_core::persist::{Decoder, Encoder, Persist, PersistError};
use verdict_store::frame::{self, check_header, FrameError, HeaderStatus, MAX_FRAME_LEN};
use verdict_store::tablecodec::{decode_columns, encode_columns};

pub use verdict_store::frame::FRAME_HEADER_LEN;

/// Connection preamble magic (8 bytes, store-style).
pub const WIRE_MAGIC: [u8; 8] = *b"VDBLWIRE";
/// Protocol version spoken by this build. Connections announcing any
/// other version are refused: there is no down-negotiation. Version 2
/// dropped the time-budget stop policy and the outcome's simulated time.
pub const WIRE_VERSION: u32 = 2;
/// Preamble length: magic + version, the frame layer's header prefix.
pub const PREAMBLE_LEN: usize = frame::HEADER_PREFIX_LEN;

/// Why a connection or message was rejected. Every variant is a clean
/// rejection — wire decoding never panics on arbitrary bytes.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer closed mid-preamble or mid-frame (a torn frame).
    Torn,
    /// The preamble's magic is not [`WIRE_MAGIC`].
    ForeignMagic([u8; 8]),
    /// The peer speaks a protocol version other than this build's.
    Version(u32),
    /// A frame announced (or was asked to carry) a payload over the
    /// 16 MiB frame cap.
    TooLarge(u64),
    /// The payload's CRC did not match its header.
    Crc {
        /// CRC announced by the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The payload's bytes did not decode to a well-formed message.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Torn => write!(f, "connection closed mid-frame"),
            WireError::ForeignMagic(m) => write!(f, "foreign magic {m:02x?}"),
            WireError::Version(v) => write!(
                f,
                "peer speaks protocol v{v}, this build speaks v{WIRE_VERSION}"
            ),
            WireError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            WireError::Crc { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:08x}, payload {actual:08x}"
                )
            }
            WireError::Corrupt(m) => write!(f, "corrupt payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<PersistError> for WireError {
    fn from(e: PersistError) -> Self {
        WireError::Corrupt(e.to_string())
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => WireError::Io(e),
            FrameError::TooLarge(n) => WireError::TooLarge(n),
            FrameError::Crc { expected, actual } => WireError::Crc { expected, actual },
        }
    }
}

/// Writes the connection preamble (magic + version) in one write.
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&frame::header(WIRE_MAGIC, WIRE_VERSION))
}

/// Validates the [`PREAMBLE_LEN`] bytes a peer's stream opens with; fewer
/// are [`WireError::Torn`].
pub fn check_preamble(bytes: &[u8]) -> Result<(), WireError> {
    match check_header(bytes, PREAMBLE_LEN, WIRE_MAGIC, WIRE_VERSION) {
        HeaderStatus::Ok => Ok(()),
        HeaderStatus::TooShort => Err(WireError::Torn),
        HeaderStatus::ForeignMagic(magic) => Err(WireError::ForeignMagic(magic)),
        HeaderStatus::OtherVersion(version) => Err(WireError::Version(version)),
    }
}

/// Writes one frame, `len | crc | payload`, in one vectored write
/// ([`frame::write_frame`]), so a frame leaves in one segment, not three.
/// A payload the peer would refuse (over the 16 MiB frame cap) is
/// refused with [`WireError::TooLarge`] before a byte is written, so the
/// stream stays in step.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    Ok(frame::write_frame(w, payload)?)
}

/// Tries to cut one frame off the front of a receive buffer
/// ([`frame::parse_frame`]): `Ok(None)` while the buffer holds only a
/// frame prefix (keep reading), `Ok(Some((payload, consumed)))` for a
/// complete valid frame, and an error for a frame that can never become
/// valid (oversized length, CRC mismatch) — the length is checked
/// against the cap from the head alone, before any payload is awaited.
/// The payload is copied out, so the caller can drain the buffer before
/// decoding it.
pub fn parse_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    Ok(frame::parse_frame(buf)?.map(|(payload, consumed)| (payload.to_vec(), consumed)))
}

/// How long a reader that has just exchanged a frame polls before it
/// parks. On 2 vCPUs `serve_mixed`'s p50 read 45 / 34 / 26 / 24 / 23 µs at
/// budgets of 0 / 15 / 30 / 60 / 200 µs.
const SPIN_BUDGET: Duration = Duration::from_micros(30);

/// The spin budget on `cores` cores: none on one, where the peer waits.
fn spin_budget(cores: usize) -> Duration {
    SPIN_BUDGET * u32::from(cores > 1)
}

/// One reader's bounded polls before it parks. Two polls in a row that
/// run out the budget — the peer was slow, or could not run while we
/// polled, as when both share one free core — skip the next poll, and each
/// further one doubles the skip, up to 63; a poll that catches ends it.
#[derive(Debug, Default)]
pub struct Spin {
    misses: u32,
    skip: u32,
}

impl Spin {
    /// Polls `stream` for up to the spin budget unless skipping or on one
    /// core (`None`): `Some(Ok(Some(n)))` once a read returns `n` bytes
    /// into `chunk` (0: the peer closed), `Some(Ok(None))` if none came.
    /// The caller then makes its blocking read.
    pub fn poll(
        &mut self,
        stream: &TcpStream,
        chunk: &mut [u8],
    ) -> Option<io::Result<Option<usize>>> {
        static BUDGET: OnceLock<Duration> = OnceLock::new();
        let cores = || std::thread::available_parallelism().map_or(1, usize::from);
        let budget = *BUDGET.get_or_init(|| spin_budget(cores()));
        if budget.is_zero() || self.skip > 0 {
            self.skip = self.skip.saturating_sub(1);
            return None;
        }
        let polled = spin_read(stream, chunk, budget);
        if let Ok(caught) = &polled {
            self.misses = caught.map_or((self.misses + 1).min(7), |_| 0);
            self.skip = (1u32 << self.misses >> 1).saturating_sub(1);
        }
        Some(polled)
    }
}

/// Polls `stream` for up to `budget`: `Ok(Some(n))` once a read returns
/// `n` bytes into `chunk`, `Ok(None)` if none came. The stream is left
/// blocking unless restoring that is the error returned.
fn spin_read(stream: &TcpStream, chunk: &mut [u8], budget: Duration) -> io::Result<Option<usize>> {
    stream.set_nonblocking(true)?;
    let (mut reader, t0) = (stream, Instant::now());
    let again = |e: &io::Error| matches!(e.kind(), WouldBlock | Interrupted);
    let read = loop {
        match reader.read(chunk) {
            Err(e) if again(&e) && t0.elapsed() < budget => std::hint::spin_loop(),
            Err(e) if again(&e) => break Ok(None),
            read => break read.map(Some),
        }
    };
    stream.set_nonblocking(false)?;
    read
}

/// `value`, if decoding it consumed the whole payload.
fn exhausted<T>(dec: &Decoder<'_>, what: &str, value: T) -> Result<T, WireError> {
    match dec.remaining() {
        0 => Ok(value),
        n => Err(WireError::Corrupt(format!(
            "{n} trailing bytes after {what}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Options codec (values travel in their `Persist` form).

/// Execution options as they travel on the wire: mode + stop policy.
/// (Pinned snapshots are a process-local concept and do not cross it.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireOptions {
    /// Inference mode.
    pub mode: Mode,
    /// Stop policy.
    pub policy: StopPolicy,
}

impl Default for WireOptions {
    fn default() -> Self {
        WireOptions {
            mode: Mode::Verdict,
            policy: StopPolicy::ScanAll,
        }
    }
}

/// Encodes `opts` (also the options part of an answer-cache key).
pub(crate) fn encode_options(enc: &mut Encoder, opts: &WireOptions) -> Result<(), WireError> {
    match opts.mode {
        Mode::NoLearn => enc.put_u8(0),
        Mode::Verdict => enc.put_u8(1),
        // `Mode` is non-exhaustive; a future variant must extend the
        // protocol before it can travel.
        _ => return Err(WireError::Corrupt("unencodable mode".into())),
    }
    match opts.policy {
        StopPolicy::ScanAll => enc.put_u8(0),
        StopPolicy::RelativeErrorBound { target, delta } => {
            enc.put_u8(1);
            enc.put_f64(target);
            enc.put_f64(delta);
        }
        StopPolicy::TupleBudget(n) => {
            enc.put_u8(2);
            enc.put_u64(n as u64);
        }
        _ => return Err(WireError::Corrupt("unencodable stop policy".into())),
    }
    Ok(())
}

fn decode_options(dec: &mut Decoder<'_>) -> Result<WireOptions, WireError> {
    let mode = match dec.take_u8()? {
        0 => Mode::NoLearn,
        1 => Mode::Verdict,
        t => return Err(WireError::Corrupt(format!("mode tag {t}"))),
    };
    let policy = match dec.take_u8()? {
        0 => StopPolicy::ScanAll,
        1 => StopPolicy::RelativeErrorBound {
            target: dec.take_f64()?,
            delta: dec.take_f64()?,
        },
        2 => StopPolicy::TupleBudget(dec.take_count()?),
        t => return Err(WireError::Corrupt(format!("stop policy tag {t}"))),
    };
    Ok(WireOptions { mode, policy })
}

// ---------------------------------------------------------------------
// Requests.

/// One client request: a protocol verb plus its arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Catalog handshake: advertise tables, schemas, and epochs.
    Hello,
    /// Compile a statement server-side; returns a statement handle.
    Prepare {
        /// Statement text (with `?` placeholders).
        sql: String,
    },
    /// Bind parameters to a prepared statement; returns a bound handle.
    Bind {
        /// Statement handle from [`Response::Prepared`].
        stmt: u64,
        /// One value per placeholder.
        params: Vec<Value>,
    },
    /// Execute a bound statement (repeatably).
    Run {
        /// Bound handle from [`Response::Bound`].
        bound: u64,
        /// Execution options.
        options: WireOptions,
    },
    /// Execute an ad-hoc statement (server-side plan cache applies).
    Query {
        /// Statement text (no placeholders).
        sql: String,
        /// Execution options.
        options: WireOptions,
    },
    /// Append rows to a table (WAL-first on persistent catalogs).
    Ingest {
        /// Catalog table name.
        table: String,
        /// Rows in schema column order.
        rows: Vec<Vec<Value>>,
    },
    /// Fetch the server's metrics snapshot (JSON rendering).
    Metrics,
    /// Orderly goodbye; the server replies [`Response::Bye`] and closes.
    Close,
}

const REQ_HELLO: u8 = 0x01;
const REQ_PREPARE: u8 = 0x02;
const REQ_BIND: u8 = 0x03;
const REQ_RUN: u8 = 0x04;
const REQ_QUERY: u8 = 0x05;
const REQ_INGEST: u8 = 0x06;
const REQ_METRICS: u8 = 0x07;
const REQ_CLOSE: u8 = 0x08;

impl Request {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut enc = Encoder::new();
        match self {
            Request::Hello => enc.put_u8(REQ_HELLO),
            Request::Prepare { sql } => {
                enc.put_u8(REQ_PREPARE);
                enc.put_str(sql);
            }
            Request::Bind { stmt, params } => {
                enc.put_u8(REQ_BIND);
                enc.put_u64(*stmt);
                params.encode(&mut enc);
            }
            Request::Run { bound, options } => {
                enc.put_u8(REQ_RUN);
                enc.put_u64(*bound);
                encode_options(&mut enc, options)?;
            }
            Request::Query { sql, options } => {
                enc.put_u8(REQ_QUERY);
                enc.put_str(sql);
                encode_options(&mut enc, options)?;
            }
            Request::Ingest { table, rows } => {
                enc.put_u8(REQ_INGEST);
                enc.put_str(table);
                rows.encode(&mut enc);
            }
            Request::Metrics => enc.put_u8(REQ_METRICS),
            Request::Close => enc.put_u8(REQ_CLOSE),
        }
        Ok(enc.into_bytes())
    }

    /// Decodes a frame payload, requiring full consumption.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut dec = Decoder::new(payload);
        let req = match dec.take_u8()? {
            REQ_HELLO => Request::Hello,
            REQ_PREPARE => Request::Prepare {
                sql: dec.take_str()?,
            },
            REQ_BIND => Request::Bind {
                stmt: dec.take_u64()?,
                params: Vec::decode(&mut dec)?,
            },
            REQ_RUN => Request::Run {
                bound: dec.take_u64()?,
                options: decode_options(&mut dec)?,
            },
            REQ_QUERY => Request::Query {
                sql: dec.take_str()?,
                options: decode_options(&mut dec)?,
            },
            REQ_INGEST => Request::Ingest {
                table: dec.take_str()?,
                rows: Vec::decode(&mut dec)?,
            },
            REQ_METRICS => Request::Metrics,
            REQ_CLOSE => Request::Close,
            t => return Err(WireError::Corrupt(format!("request tag {t:#04x}"))),
        };
        exhausted(&dec, "request", req)
    }
}

// ---------------------------------------------------------------------
// Responses.

/// One column advertised by the `hello` handshake: a schema column,
/// encoded by the store's column-list codec
/// ([`verdict_store::tablecodec::encode_columns`]).
pub type ColumnInfo = ColumnDef;

/// One table advertised by the `hello` handshake.
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    /// Catalog name.
    pub name: String,
    /// Schema, in column order.
    pub columns: Vec<ColumnInfo>,
    /// Base-table rows at handshake time.
    pub rows: u64,
    /// Learned-state epoch at handshake time.
    pub epoch: u64,
    /// Data epoch at handshake time.
    pub data_epoch: u64,
}

/// The `hello` reply: the server's protocol version and catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloInfo {
    /// Protocol version the server speaks.
    pub protocol: u32,
    /// Registered tables, in registration order.
    pub tables: Vec<TableInfo>,
}

/// The `prepare` reply: a statement handle plus its signature.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedInfo {
    /// Session-scoped statement handle.
    pub stmt: u64,
    /// The catalog table the statement resolved to.
    pub table: String,
    /// Accepted kind per placeholder index.
    pub params: Vec<ParamKind>,
    /// Stable plan fingerprint (cache key material; equal across
    /// processes for structurally identical plans).
    pub fingerprint: u64,
}

/// The `ingest` reply: what one appended batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSummary {
    /// Rows appended to the base table.
    pub appended_rows: u64,
    /// Aggregates whose synopses were adjusted (Lemma 3).
    pub adjusted_keys: u64,
    /// Stored snippets rewritten across all adjusted synopses.
    pub adjusted_snippets: u64,
    /// The table's data epoch after the batch.
    pub data_epoch: u64,
}

/// Typed error codes a server can answer with (the connection stays
/// usable after any of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// SQL parse/check/resolve/bind failure.
    Sql = 0,
    /// Unknown table or catalog-level failure.
    Catalog = 1,
    /// Unknown statement or bound handle.
    UnknownHandle = 2,
    /// Malformed request at the protocol level.
    BadRequest = 3,
    /// Engine-side failure (store, scan, ingest).
    Internal = 4,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => ErrorCode::Sql,
            1 => ErrorCode::Catalog,
            2 => ErrorCode::UnknownHandle,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::Internal,
            t => return Err(WireError::Corrupt(format!("error code {t}"))),
        })
    }
}

/// An answered query as it travels: flags + the canonical outcome bytes.
///
/// `outcome` stays encoded ([`encode_outcome`]) end to end: the server
/// caches and serves these exact bytes, and the parity tests compare
/// them against a local [`encode_outcome`] of the in-process answer —
/// byte equality, not approximate equality.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerFrame {
    /// Whether the answer was served from the memoized answer cache
    /// without touching the scan path.
    pub cached: bool,
    /// Whether admission control degraded a learn-path request to
    /// `no_learn` before running it.
    pub degraded: bool,
    /// Server-side wall-clock for this request, nanoseconds.
    pub elapsed_ns: u64,
    /// Canonical outcome bytes (see [`encode_outcome`]).
    pub outcome: Vec<u8>,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Hello`].
    Hello(HelloInfo),
    /// Reply to [`Request::Prepare`].
    Prepared(PreparedInfo),
    /// Reply to [`Request::Bind`].
    Bound {
        /// Session-scoped bound-statement handle.
        bound: u64,
    },
    /// Reply to [`Request::Run`] / [`Request::Query`].
    Answer(AnswerFrame),
    /// Reply to [`Request::Ingest`].
    IngestOk(IngestSummary),
    /// Reply to [`Request::Metrics`].
    Metrics {
        /// The metrics snapshot, JSON rendering.
        json: String,
    },
    /// Typed shed: the admission controller refused a learn-path
    /// request. Retry later (or resubmit as `no_learn`); the connection
    /// stays open.
    Overloaded {
        /// Learn-path requests in flight when this one was refused.
        inflight: u64,
        /// The configured admission bound.
        limit: u64,
    },
    /// Typed request failure; the connection stays open.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to [`Request::Close`]; the server closes after sending it.
    Bye,
}

const RESP_HELLO: u8 = 0x81;
const RESP_PREPARED: u8 = 0x82;
const RESP_BOUND: u8 = 0x83;
const RESP_ANSWER: u8 = 0x84;
const RESP_INGEST_OK: u8 = 0x85;
const RESP_METRICS: u8 = 0x86;
const RESP_OVERLOADED: u8 = 0x87;
const RESP_ERROR: u8 = 0x88;
const RESP_BYE: u8 = 0x89;

impl Response {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Response::Hello(info) => {
                enc.put_u8(RESP_HELLO);
                enc.put_u32(info.protocol);
                enc.put_len(info.tables.len());
                for t in &info.tables {
                    enc.put_str(&t.name);
                    encode_columns(&t.columns, &mut enc);
                    enc.put_u64(t.rows);
                    enc.put_u64(t.epoch);
                    enc.put_u64(t.data_epoch);
                }
            }
            Response::Prepared(info) => {
                enc.put_u8(RESP_PREPARED);
                enc.put_u64(info.stmt);
                enc.put_str(&info.table);
                enc.put_len(info.params.len());
                for k in &info.params {
                    enc.put_u8(match k {
                        ParamKind::Numeric => 0,
                        ParamKind::Categorical => 1,
                    });
                }
                enc.put_u64(info.fingerprint);
            }
            Response::Bound { bound } => {
                enc.put_u8(RESP_BOUND);
                enc.put_u64(*bound);
            }
            Response::Answer(a) => {
                return encode_answer(a.cached, a.degraded, a.elapsed_ns, &a.outcome);
            }
            Response::IngestOk(s) => {
                enc.put_u8(RESP_INGEST_OK);
                enc.put_u64(s.appended_rows);
                enc.put_u64(s.adjusted_keys);
                enc.put_u64(s.adjusted_snippets);
                enc.put_u64(s.data_epoch);
            }
            Response::Metrics { json } => {
                enc.put_u8(RESP_METRICS);
                enc.put_str(json);
            }
            Response::Overloaded { inflight, limit } => {
                enc.put_u8(RESP_OVERLOADED);
                enc.put_u64(*inflight);
                enc.put_u64(*limit);
            }
            Response::Error { code, message } => {
                enc.put_u8(RESP_ERROR);
                enc.put_u8(*code as u8);
                enc.put_str(message);
            }
            Response::Bye => enc.put_u8(RESP_BYE),
        }
        enc.into_bytes()
    }

    /// Decodes a frame payload, requiring full consumption.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut dec = Decoder::new(payload);
        let resp = match dec.take_u8()? {
            RESP_HELLO => {
                let protocol = dec.take_u32()?;
                let n = dec.take_len()?;
                let mut tables = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    tables.push(TableInfo {
                        name: dec.take_str()?,
                        columns: decode_columns(&mut dec)?,
                        rows: dec.take_u64()?,
                        epoch: dec.take_u64()?,
                        data_epoch: dec.take_u64()?,
                    });
                }
                Response::Hello(HelloInfo { protocol, tables })
            }
            RESP_PREPARED => {
                let stmt = dec.take_u64()?;
                let table = dec.take_str()?;
                let n = dec.take_len()?;
                let mut params = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    params.push(match dec.take_u8()? {
                        0 => ParamKind::Numeric,
                        1 => ParamKind::Categorical,
                        t => return Err(WireError::Corrupt(format!("param kind {t}"))),
                    });
                }
                Response::Prepared(PreparedInfo {
                    stmt,
                    table,
                    params,
                    fingerprint: dec.take_u64()?,
                })
            }
            RESP_BOUND => Response::Bound {
                bound: dec.take_u64()?,
            },
            RESP_ANSWER => {
                let cached = dec.take_bool()?;
                let degraded = dec.take_bool()?;
                let elapsed_ns = dec.take_u64()?;
                // Fixed-size header: tag + 2 bool bytes + u64. The rest
                // of the payload is the canonical outcome, verbatim.
                return Ok(Response::Answer(AnswerFrame {
                    cached,
                    degraded,
                    elapsed_ns,
                    outcome: payload[ANSWER_HEADER_LEN..].to_vec(),
                }));
            }
            RESP_INGEST_OK => Response::IngestOk(IngestSummary {
                appended_rows: dec.take_u64()?,
                adjusted_keys: dec.take_u64()?,
                adjusted_snippets: dec.take_u64()?,
                data_epoch: dec.take_u64()?,
            }),
            RESP_METRICS => Response::Metrics {
                json: dec.take_str()?,
            },
            RESP_OVERLOADED => Response::Overloaded {
                inflight: dec.take_u64()?,
                limit: dec.take_u64()?,
            },
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u8(dec.take_u8()?)?,
                message: dec.take_str()?,
            },
            RESP_BYE => Response::Bye,
            t => return Err(WireError::Corrupt(format!("response tag {t:#04x}"))),
        };
        exhausted(&dec, "response", resp)
    }
}

/// Bytes of an `Answer` payload before its outcome: tag, two flags, the
/// elapsed time.
const ANSWER_HEADER_LEN: usize = 1 + 1 + 1 + 8;

/// Encodes an `Answer` payload around canonical `outcome` bytes: the one
/// encoder of the answer arm, which [`Response::encode`] and the server
/// both call — the server straight on the bytes its answer cache shares,
/// so an answer is copied once, into the payload. The outcome rides as
/// the payload's tail: the fields before it are fixed-size, so no inner
/// length prefix is needed and the bytes stay exactly
/// [`encode_outcome`]'s.
pub(crate) fn encode_answer(
    cached: bool,
    degraded: bool,
    elapsed_ns: u64,
    outcome: &[u8],
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(RESP_ANSWER);
    enc.put_bool(cached);
    enc.put_bool(degraded);
    enc.put_u64(elapsed_ns);
    enc.put_bytes(outcome);
    enc.into_bytes()
}

// ---------------------------------------------------------------------
// The canonical outcome encoding.

/// A decoded answer cell (mirror of [`verdict::CellAnswer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireCell {
    /// The answer returned to the user.
    pub answer: f64,
    /// Its error at stop time.
    pub error: f64,
    /// Whether the model-based answer was used.
    pub used_model: bool,
    /// The raw AQP answer at stop time.
    pub raw_answer: f64,
    /// The raw AQP error at stop time.
    pub raw_error: f64,
    /// Sample tuples scanned for this cell.
    pub tuples_scanned: u64,
}

/// A decoded result row (mirror of [`verdict::ResultRow`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// Group key (`None` for ungrouped queries).
    pub group: Option<Vec<Value>>,
    /// One cell per aggregate in select-list order.
    pub values: Vec<WireCell>,
}

/// A decoded query result (mirror of [`verdict::QueryResult`], minus
/// the wall-clock `elapsed`, which is measurement, not answer).
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Result rows.
    pub rows: Vec<WireRow>,
    /// Sample tuples visited by the one shared scan.
    pub tuples_scanned: u64,
    /// Whether the `N_max` cap dropped groups.
    pub truncated: bool,
    /// Epoch of the learned state the query read.
    pub epoch: u64,
}

/// A decoded outcome: answered, or unsupported with rendered reasons.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// The query was answered.
    Answered(WireResult),
    /// The checker rejected the statement (rendered reasons).
    Unsupported(Vec<String>),
}

/// Encodes a [`QueryOutcome`] into its canonical wire form.
///
/// Deterministic and bit-exact: floats are raw IEEE-754 bits, rows keep
/// their order, and the wall-clock `elapsed` is deliberately excluded —
/// so two executions that computed the same answer encode to *equal
/// byte strings*. That is the contract both the end-to-end parity tests
/// and the server's answer cache rely on.
pub fn encode_outcome(outcome: &QueryOutcome) -> Vec<u8> {
    let mut enc = Encoder::new();
    match outcome {
        QueryOutcome::Answered(r) => {
            enc.put_u8(0);
            enc.put_len(r.rows.len());
            for row in &r.rows {
                enc.put_bool(row.group.is_some());
                if let Some(key) = &row.group {
                    key.encode(&mut enc);
                }
                enc.put_len(row.values.len());
                for cell in &row.values {
                    enc.put_f64(cell.improved.answer);
                    enc.put_f64(cell.improved.error);
                    enc.put_bool(cell.improved.used_model);
                    enc.put_f64(cell.raw_answer);
                    enc.put_f64(cell.raw_error);
                    enc.put_u64(cell.tuples_scanned as u64);
                }
            }
            enc.put_u64(r.tuples_scanned as u64);
            enc.put_bool(r.truncated);
            enc.put_u64(r.epoch);
        }
        QueryOutcome::Unsupported(reasons) => {
            enc.put_u8(1);
            enc.put_len(reasons.len());
            for r in reasons {
                enc.put_str(&r.to_string());
            }
        }
    }
    enc.into_bytes()
}

/// Decodes canonical outcome bytes (see [`encode_outcome`]), requiring
/// full consumption.
pub fn decode_outcome(bytes: &[u8]) -> Result<WireOutcome, WireError> {
    let mut dec = Decoder::new(bytes);
    let outcome = match dec.take_u8()? {
        0 => {
            let n = dec.take_len()?;
            let mut rows = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let group = if dec.take_bool()? {
                    Some(Vec::decode(&mut dec)?)
                } else {
                    None
                };
                let cells = dec.take_len()?;
                let mut values = Vec::with_capacity(cells.min(4096));
                for _ in 0..cells {
                    values.push(WireCell {
                        answer: dec.take_f64()?,
                        error: dec.take_f64()?,
                        used_model: dec.take_bool()?,
                        raw_answer: dec.take_f64()?,
                        raw_error: dec.take_f64()?,
                        tuples_scanned: dec.take_u64()?,
                    });
                }
                rows.push(WireRow { group, values });
            }
            WireOutcome::Answered(WireResult {
                rows,
                tuples_scanned: dec.take_u64()?,
                truncated: dec.take_bool()?,
                epoch: dec.take_u64()?,
            })
        }
        1 => {
            let n = dec.take_len()?;
            let mut reasons = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                reasons.push(dec.take_str()?);
            }
            WireOutcome::Unsupported(reasons)
        }
        t => return Err(WireError::Corrupt(format!("outcome tag {t}"))),
    };
    exhausted(&dec, "outcome", outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records every call and takes at most `per_call`
    /// bytes per call (all of them when `None`).
    struct Counting {
        calls: usize,
        per_call: Option<usize>,
        interrupt_first: bool,
        bytes: Vec<u8>,
    }

    impl Counting {
        fn new(per_call: Option<usize>) -> Counting {
            Counting {
                calls: 0,
                per_call,
                interrupt_first: false,
                bytes: Vec::new(),
            }
        }

        fn take(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if std::mem::take(&mut self.interrupt_first) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut budget = self.per_call.unwrap_or(usize::MAX);
            let before = self.bytes.len();
            for buf in bufs {
                let n = buf.len().min(budget);
                self.bytes.extend_from_slice(&buf[..n]);
                budget -= n;
            }
            Ok(self.bytes.len() - before)
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.take(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.take(bufs)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    use std::io::IoSlice;
    use verdict_store::crc::crc32;

    /// `len | crc | payload`, assembled by hand.
    fn layout(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn a_frame_and_a_preamble_are_one_write_each() {
        for payload in [&b""[..], b"x", &Response::Bye.encode(), &[7u8; 70_000]] {
            let mut w = Counting::new(None);
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.calls, 1, "payload of {} bytes", payload.len());
            assert_eq!(w.bytes, layout(payload));
        }
        let mut w = Counting::new(None);
        write_preamble(&mut w).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.bytes[..8], WIRE_MAGIC);
        assert_eq!(w.bytes[8..], WIRE_VERSION.to_le_bytes());
        assert_eq!(w.bytes.len(), PREAMBLE_LEN);
    }

    /// A writer that takes a few bytes at a time, or is interrupted,
    /// still gets the whole frame, byte for byte, in order.
    #[test]
    fn partial_and_interrupted_writes_resume_where_they_stopped() {
        let payload: Vec<u8> = (0..=255).collect();
        for per_call in 1..=FRAME_HEADER_LEN + 2 {
            let mut w = Counting::new(Some(per_call));
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.bytes, layout(&payload), "{per_call} bytes per call");
            assert_eq!(w.calls, layout(&payload).len().div_ceil(per_call));
        }
        let mut w = Counting::new(None);
        w.interrupt_first = true;
        write_frame(&mut w, &payload).unwrap();
        assert_eq!((w.calls, w.bytes), (2, layout(&payload)));
    }

    #[test]
    fn an_oversized_payload_writes_nothing() {
        let mut w = Counting::new(None);
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut w, &payload),
            Err(WireError::TooLarge(n)) if n == payload.len() as u64
        ));
        assert_eq!(w.calls, 0);
    }

    /// One core never spins: the peer it waits for cannot run meanwhile.
    #[test]
    fn spin_budget_table() {
        for (cores, want) in [
            (0, Duration::ZERO),
            (1, Duration::ZERO),
            (2, SPIN_BUDGET),
            (64, SPIN_BUDGET),
        ] {
            assert_eq!(spin_budget(cores), want, "{cores} cores");
        }
        assert!(SPIN_BUDGET <= Duration::from_micros(100));
    }

    /// A connected stream and its peer.
    fn connected() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (listener.accept().unwrap().0, peer)
    }

    /// Nothing to read is reported after the budget, and the stream is
    /// blocking again: a later read waits for the peer's bytes.
    #[test]
    fn an_empty_spin_restores_blocking_mode() {
        let (mut stream, mut peer) = connected();
        let mut chunk = [0u8; 16];
        let t0 = Instant::now();
        assert!(matches!(
            spin_read(&stream, &mut chunk, SPIN_BUDGET),
            Ok(None)
        ));
        assert!(t0.elapsed() < Duration::from_secs(1));
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            peer.write_all(b"late").unwrap();
        });
        assert_eq!(stream.read(&mut chunk).unwrap(), 4);
        writer.join().unwrap();
        assert_eq!(&chunk[..4], b"late");
    }

    /// Polls that run out their budget back off: after two the next poll
    /// is skipped, after three the next three, after four the next seven;
    /// a poll that catches its bytes ends the skipping. On one core no
    /// poll runs.
    #[test]
    fn polls_that_run_out_back_off_until_one_catches() {
        let (stream, mut peer) = connected();
        let (mut spin, mut chunk) = (Spin::default(), [0u8; 16]);
        let mut polls = |n: usize| -> Vec<bool> {
            (0..n)
                .map(|_| spin.poll(&stream, &mut chunk).is_some())
                .collect()
        };
        let (t, f) = (true, false);
        let mut want = vec![t, t, f, t, f, f, f, t, f, f, f, f, f, f, f, t, t];
        let mut seen = polls(15);
        // The 16th poll catches this byte, so the 17th polls again.
        peer.write_all(b"x").unwrap();
        seen.extend(polls(2));
        if std::thread::available_parallelism().map_or(1, usize::from) == 1 {
            want.fill(f);
        }
        assert_eq!(seen, want);
    }
}
