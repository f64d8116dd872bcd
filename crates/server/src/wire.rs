//! The wire protocol: length-prefixed, CRC-framed binary messages.
//!
//! Framing follows the store's WAL conventions
//! (`crates/store/src/log.rs`): a connection opens with a fixed preamble
//! — magic `VDBLWIRE` plus a version word — and every message after it
//! is one frame of `len: u32 | crc: u32 | payload`, with the CRC
//! (CRC-32/ISO-HDLC, the same [`verdict_store::crc::crc32`] the WAL
//! uses) covering the payload. Connections with a foreign magic or any
//! version but [`WIRE_VERSION`] are refused; a torn or corrupt frame
//! closes the connection cleanly — the decoder can reject bytes but never
//! panic on them, which the truncation/bit-flip fuzz tests assert.
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

use std::io::{self, Read, Write};

use verdict::sql::ParamKind;
use verdict::storage::{AttributeRole, ColumnType, Value};
use verdict::{CellAnswer, Mode, QueryOutcome, QueryResult, ResultRow, StopPolicy};
use verdict_core::persist::{Decoder, Encoder, Persist, PersistError};
use verdict_store::crc::crc32;

/// Connection preamble magic (8 bytes, store-style).
pub const WIRE_MAGIC: [u8; 8] = *b"VDBLWIRE";
/// Protocol version spoken by this build. Connections announcing any
/// other version are refused: there is no down-negotiation. Version 2
/// dropped the time-budget stop policy and the outcome's simulated time.
pub const WIRE_VERSION: u32 = 2;
/// Preamble length: magic + version.
pub const PREAMBLE_LEN: usize = WIRE_MAGIC.len() + 4;
/// Frame header length: payload length + CRC.
pub const FRAME_HEADER_LEN: usize = 8;
/// Hard cap on one frame's payload (the WAL's `MAX_RECORD_LEN` idiom):
/// a corrupt length field must bound allocation, not drive it.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

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
    /// A frame announced a payload larger than [`MAX_FRAME_LEN`].
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

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Torn
        } else {
            WireError::Io(e)
        }
    }
}

impl From<PersistError> for WireError {
    fn from(e: PersistError) -> Self {
        WireError::Corrupt(e.to_string())
    }
}

/// Writes the connection preamble (magic + version).
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&WIRE_MAGIC)?;
    w.write_all(&WIRE_VERSION.to_le_bytes())
}

/// Validates a peer's preamble bytes (exactly [`PREAMBLE_LEN`] of them).
pub fn check_preamble(bytes: &[u8]) -> Result<(), WireError> {
    debug_assert_eq!(bytes.len(), PREAMBLE_LEN);
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&bytes[..8]);
    if magic != WIRE_MAGIC {
        return Err(WireError::ForeignMagic(magic));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::Version(version));
    }
    Ok(())
}

/// Reads and validates a peer's preamble from a blocking stream.
pub fn read_preamble(r: &mut impl Read) -> Result<(), WireError> {
    let mut buf = [0u8; PREAMBLE_LEN];
    r.read_exact(&mut buf)?;
    check_preamble(&buf)
}

/// Writes one frame: `len | crc | payload`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame from a blocking stream (the client's receive path).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(len as u64));
    }
    let expected = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(WireError::Crc { expected, actual });
    }
    Ok(payload)
}

/// Tries to parse one frame from the front of a receive buffer (the
/// server's non-blocking path). Returns `Ok(None)` when the buffer holds
/// only a frame prefix so far (keep reading), `Ok(Some((payload,
/// consumed)))` for a complete valid frame, and an error for a frame
/// that can never become valid (oversized length, CRC mismatch).
pub fn parse_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(len as u64));
    }
    if buf.len() < FRAME_HEADER_LEN + len {
        return Ok(None);
    }
    let expected = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload = &buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
    let actual = crc32(payload);
    if actual != expected {
        return Err(WireError::Crc { expected, actual });
    }
    Ok(Some((payload.to_vec(), FRAME_HEADER_LEN + len)))
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
        if !dec.is_exhausted() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after request",
                dec.remaining()
            )));
        }
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses.

/// One column advertised by the `hello` handshake.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInfo {
    /// Column name.
    pub name: String,
    /// Physical type.
    pub ty: ColumnType,
    /// Dimension/measure role.
    pub role: AttributeRole,
}

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
    Sql,
    /// Unknown table or catalog-level failure.
    Catalog,
    /// Unknown statement or bound handle.
    UnknownHandle,
    /// Malformed request at the protocol level.
    BadRequest,
    /// Engine-side failure (store, scan, ingest).
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Sql => 0,
            ErrorCode::Catalog => 1,
            ErrorCode::UnknownHandle => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::Internal => 4,
        }
    }

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
                    enc.put_len(t.columns.len());
                    for c in &t.columns {
                        enc.put_str(&c.name);
                        enc.put_u8(match c.ty {
                            ColumnType::Numeric => 0,
                            ColumnType::Categorical => 1,
                        });
                        enc.put_u8(match c.role {
                            AttributeRole::Dimension => 0,
                            AttributeRole::Measure => 1,
                        });
                    }
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
                enc.put_u8(RESP_ANSWER);
                enc.put_bool(a.cached);
                enc.put_bool(a.degraded);
                enc.put_u64(a.elapsed_ns);
                // The outcome rides as the frame's tail: the header
                // above is fixed-size, so no inner length prefix is
                // needed and the bytes stay exactly [`encode_outcome`]'s.
                enc.put_bytes(&a.outcome);
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
                enc.put_u8(code.to_u8());
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
                    let name = dec.take_str()?;
                    let cols = dec.take_len()?;
                    let mut columns = Vec::with_capacity(cols.min(4096));
                    for _ in 0..cols {
                        let cname = dec.take_str()?;
                        let ty = match dec.take_u8()? {
                            0 => ColumnType::Numeric,
                            1 => ColumnType::Categorical,
                            t => {
                                return Err(WireError::Corrupt(format!("column type {t}")));
                            }
                        };
                        let role = match dec.take_u8()? {
                            0 => AttributeRole::Dimension,
                            1 => AttributeRole::Measure,
                            t => {
                                return Err(WireError::Corrupt(format!("column role {t}")));
                            }
                        };
                        columns.push(ColumnInfo {
                            name: cname,
                            ty,
                            role,
                        });
                    }
                    tables.push(TableInfo {
                        name,
                        columns,
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
                const HEADER: usize = 1 + 1 + 1 + 8;
                if payload.len() < HEADER {
                    return Err(WireError::Corrupt("short answer frame".into()));
                }
                return Ok(Response::Answer(AnswerFrame {
                    cached,
                    degraded,
                    elapsed_ns,
                    outcome: payload[HEADER..].to_vec(),
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
        if !dec.is_exhausted() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after response",
                dec.remaining()
            )));
        }
        Ok(resp)
    }
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
            encode_result(&mut enc, r);
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

fn encode_result(enc: &mut Encoder, r: &QueryResult) {
    enc.put_len(r.rows.len());
    for row in &r.rows {
        encode_row(enc, row);
    }
    enc.put_u64(r.tuples_scanned as u64);
    enc.put_bool(r.truncated);
    enc.put_u64(r.epoch);
}

fn encode_row(enc: &mut Encoder, row: &ResultRow) {
    match &row.group {
        Some(key) => {
            enc.put_bool(true);
            key.encode(enc);
        }
        None => enc.put_bool(false),
    }
    enc.put_len(row.values.len());
    for cell in &row.values {
        encode_cell(enc, cell);
    }
}

fn encode_cell(enc: &mut Encoder, cell: &CellAnswer) {
    enc.put_f64(cell.improved.answer);
    enc.put_f64(cell.improved.error);
    enc.put_bool(cell.improved.used_model);
    enc.put_f64(cell.raw_answer);
    enc.put_f64(cell.raw_error);
    enc.put_u64(cell.tuples_scanned as u64);
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
    if !dec.is_exhausted() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after outcome",
            dec.remaining()
        )));
    }
    Ok(outcome)
}
