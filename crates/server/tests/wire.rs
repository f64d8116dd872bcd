//! Wire-codec property tests: round trips are exact, and arbitrarily
//! mangled bytes (truncations, bit flips, garbage) are rejected cleanly
//! — the decoders can refuse input but never panic on it.

use proptest::prelude::*;

use verdict::storage::Value;
use verdict::{Mode, StopPolicy};
use verdict_server::wire::{
    check_preamble, parse_frame, write_frame, AnswerFrame, ColumnInfo, ErrorCode, HelloInfo,
    IngestSummary, PreparedInfo, Request, Response, TableInfo, WireError, WireOptions,
    FRAME_HEADER_LEN, PREAMBLE_LEN, WIRE_MAGIC, WIRE_VERSION,
};

// -------------------------------------------------------------------
// Strategies.

fn value_strategy() -> impl Strategy<Value = Value> {
    (0u8..3, -1e9..1e9f64, 0u32..10_000, "[a-z0-9]{0,12}").prop_map(
        |(tag, num, cat, s)| match tag {
            0 => Value::Num(num),
            1 => Value::Cat(cat),
            _ => Value::Str(s),
        },
    )
}

fn options_strategy() -> impl Strategy<Value = WireOptions> {
    (0u8..2, 0u8..3, 0.001..0.5f64, 0.8..0.99f64, 1usize..100_000).prop_map(
        |(mode, policy, target, delta, budget)| WireOptions {
            mode: if mode == 0 {
                Mode::NoLearn
            } else {
                Mode::Verdict
            },
            policy: match policy {
                0 => StopPolicy::ScanAll,
                1 => StopPolicy::RelativeErrorBound { target, delta },
                _ => StopPolicy::TupleBudget(budget),
            },
        },
    )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..8,
        "[a-zA-Z0-9 ?()*,<>=.]{0,60}",
        0u64..1_000_000,
        prop::collection::vec(value_strategy(), 0..5),
        prop::collection::vec(prop::collection::vec(value_strategy(), 0..4), 0..4),
        options_strategy(),
    )
        .prop_map(|(tag, sql, handle, params, rows, options)| match tag {
            0 => Request::Hello,
            1 => Request::Prepare { sql },
            2 => Request::Bind {
                stmt: handle,
                params,
            },
            3 => Request::Run {
                bound: handle,
                options,
            },
            4 => Request::Query { sql, options },
            5 => Request::Ingest { table: sql, rows },
            6 => Request::Metrics,
            _ => Request::Close,
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        0u8..9,
        "[a-z0-9_ ]{0,40}",
        0u64..1_000_000,
        (0u64..50, 0u64..50, 0u64..500, 0u64..20),
        prop::collection::vec((0u8..2, "[a-z]{1,8}"), 0..4),
        prop::collection::vec(0u8..5, 0..200),
    )
        .prop_map(|(tag, text, handle, (a, b, c, d), cols, blob)| match tag {
            0 => Response::Hello(HelloInfo {
                protocol: WIRE_VERSION,
                tables: vec![TableInfo {
                    name: text,
                    columns: cols
                        .into_iter()
                        .map(|(k, name)| ColumnInfo {
                            name,
                            ty: if k == 0 {
                                verdict::storage::ColumnType::Numeric
                            } else {
                                verdict::storage::ColumnType::Categorical
                            },
                            role: if k == 0 {
                                verdict::storage::AttributeRole::Dimension
                            } else {
                                verdict::storage::AttributeRole::Measure
                            },
                        })
                        .collect(),
                    rows: a,
                    epoch: b,
                    data_epoch: c,
                }],
            }),
            1 => Response::Prepared(PreparedInfo {
                stmt: handle,
                table: text,
                params: vec![],
                fingerprint: a.wrapping_mul(0x9e3779b9),
            }),
            2 => Response::Bound { bound: handle },
            3 => Response::Answer(AnswerFrame {
                cached: a % 2 == 0,
                degraded: b % 2 == 0,
                elapsed_ns: c,
                outcome: blob,
            }),
            4 => Response::IngestOk(IngestSummary {
                appended_rows: a,
                adjusted_keys: b,
                adjusted_snippets: c,
                data_epoch: d,
            }),
            5 => Response::Metrics { json: text },
            6 => Response::Overloaded {
                inflight: a,
                limit: d,
            },
            7 => Response::Error {
                code: ErrorCode::Sql,
                message: text,
            },
            _ => Response::Bye,
        })
}

// -------------------------------------------------------------------
// Round trips.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_round_trips_exactly(req in request_strategy()) {
        let payload = req.encode().expect("encodable");
        let back = Request::decode(&payload).expect("decodes");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn response_round_trips_exactly(resp in response_strategy()) {
        let payload = resp.encode();
        let back = Response::decode(&payload).expect("decodes");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn frame_round_trips_through_buffer(req in request_strategy()) {
        let payload = req.encode().expect("encodable");
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("write");
        let (got, consumed) = parse_frame(&framed)
            .expect("valid frame")
            .expect("complete frame");
        prop_assert_eq!(consumed, framed.len());
        prop_assert_eq!(got, payload);
    }

    // Every strict prefix of a valid frame is "incomplete", never an
    // error and never a bogus frame: a torn write is always detected.
    #[test]
    fn truncated_frames_are_incomplete_never_bogus(req in request_strategy()) {
        let payload = req.encode().expect("encodable");
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("write");
        for cut in 0..framed.len() {
            match parse_frame(&framed[..cut]) {
                Ok(None) => {}
                Ok(Some(_)) => prop_assert!(false, "truncation at {} parsed", cut),
                // A cut inside the header may leave an absurd length
                // field; rejecting is as good as waiting.
                Err(_) => {}
            }
        }
    }

    // A single flipped bit anywhere in a frame never yields a different
    // payload: CRC-32 detects all single-bit errors, so the frame is
    // either rejected or (when the flip lands in the length field,
    // making the frame look longer) classified incomplete/oversized.
    #[test]
    fn single_bit_flips_never_forge_a_frame(
        req in request_strategy(),
        byte_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let payload = req.encode().expect("encodable");
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("write");
        let idx = ((framed.len() - 1) as f64 * byte_frac) as usize;
        framed[idx] ^= 1 << bit;
        if let Ok(Some((got, _))) = parse_frame(&framed) {
            prop_assert!(
                got != payload,
                "flip at byte {} bit {} went undetected yet payload matched",
                idx,
                bit
            );
        }
    }

    // Arbitrary garbage never panics any decoder.
    #[test]
    fn garbage_never_panics_decoders(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = parse_frame(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = verdict_server::wire::decode_outcome(&bytes);
        if bytes.len() >= PREAMBLE_LEN {
            let _ = check_preamble(&bytes[..PREAMBLE_LEN]);
        }
    }
}

// -------------------------------------------------------------------
// Preamble checks (deterministic).

#[test]
fn preamble_accepts_own_magic_and_version() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&WIRE_MAGIC);
    bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    assert!(check_preamble(&bytes).is_ok());
}

#[test]
fn preamble_refuses_foreign_magic() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"HTTP/1.1");
    bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    assert!(matches!(
        check_preamble(&bytes),
        Err(WireError::ForeignMagic(_))
    ));
}

/// A peer one version ahead and one behind are both refused: the protocol
/// has no cross-version compatibility.
#[test]
fn preamble_refuses_every_version_but_its_own() {
    for version in [WIRE_VERSION + 1, WIRE_VERSION - 1] {
        let mut preamble = Vec::new();
        preamble.extend_from_slice(&WIRE_MAGIC);
        preamble.extend_from_slice(&version.to_le_bytes());
        assert!(
            matches!(check_preamble(&preamble), Err(WireError::Version(v)) if v == version),
            "version {version}"
        );
    }
}

#[test]
fn preamble_refuses_the_first_version() {
    let mut v1 = Vec::new();
    v1.extend_from_slice(&WIRE_MAGIC);
    v1.extend_from_slice(&1u32.to_le_bytes());
    assert!(matches!(check_preamble(&v1), Err(WireError::Version(1))));
}

/// Version 1's time-budget policy (tag 3, an `f64` of nanoseconds) is not
/// a stop policy of this protocol: a request carrying it is refused.
#[test]
fn time_budget_policy_tag_is_refused() {
    let query = Request::Query {
        sql: "SELECT COUNT(*) FROM t".into(),
        options: WireOptions {
            mode: Mode::NoLearn,
            policy: StopPolicy::ScanAll,
        },
    };
    let mut payload = query.encode().expect("encodable");
    // The options close the payload: mode tag, then the policy tag.
    assert_eq!(payload.pop(), Some(0));
    payload.push(3);
    payload.extend_from_slice(&12e6f64.to_bits().to_le_bytes());
    assert!(matches!(
        Request::decode(&payload),
        Err(WireError::Corrupt(_))
    ));
}

#[test]
fn oversized_length_field_is_rejected_not_allocated() {
    // A frame header announcing 4 GiB must be refused outright.
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 4]);
    bytes.extend_from_slice(&[0u8; 32]);
    assert!(matches!(parse_frame(&bytes), Err(WireError::TooLarge(_))));
    let _ = FRAME_HEADER_LEN;
}

// -------------------------------------------------------------------
// Byte freeze: the round trips above cannot see a layout change made on
// both sides at once, so the bytes of one fixed instance of every message
// are held to recorded FNV-1a constants, as `tests/format_freeze.rs` holds
// the store's files. A failure means a byte on the wire moved; the message
// prints every new hash. They are re-recorded only with a deliberate
// protocol (`WIRE_VERSION`) change.

fn frozen_outcomes() -> (verdict::QueryOutcome, verdict::QueryOutcome) {
    use verdict::core::ImprovedAnswer;
    use verdict::sql::UnsupportedReason;
    use verdict::{CellAnswer, QueryOutcome, QueryResult, ResultRow};
    let cell = |answer: f64, error: f64, used_model: bool, tuples: usize| CellAnswer {
        improved: ImprovedAnswer {
            answer,
            error,
            used_model,
        },
        raw_answer: answer + 0.25,
        raw_error: error * 2.0,
        tuples_scanned: tuples,
    };
    let grouped = QueryOutcome::Answered(QueryResult {
        rows: vec![
            ResultRow {
                group: Some(vec![Value::Str("north".into()), Value::Num(3.0)]),
                values: vec![
                    cell(41.5, 0.75, true, 900),
                    cell(-0.0, f64::INFINITY, false, 0),
                ],
            },
            ResultRow {
                group: Some(vec![Value::Cat(7), Value::Num(-2.5)]),
                values: vec![
                    cell(1e-300, 1e300, true, 12_345),
                    cell(f64::NAN, 0.5, false, 1),
                ],
            },
        ],
        tuples_scanned: 13_246,
        truncated: true,
        epoch: 5,
        elapsed: std::time::Duration::from_millis(3),
    });
    let unsupported = QueryOutcome::Unsupported(vec![
        UnsupportedReason::Disjunction,
        UnsupportedReason::MinMaxAggregate,
    ]);
    (grouped, unsupported)
}

fn frozen_messages() -> Vec<(&'static str, Vec<u8>)> {
    use verdict::sql::ParamKind;
    use verdict::storage::{AttributeRole, ColumnType};
    use verdict_server::wire::{encode_outcome, write_preamble};
    let sql = "SELECT region, AVG(amount) FROM orders WHERE day BETWEEN ? AND ? GROUP BY region";
    let (grouped, unsupported) = frozen_outcomes();
    let requests = [
        ("request/hello", Request::Hello),
        ("request/prepare", Request::Prepare { sql: sql.into() }),
        (
            "request/bind",
            Request::Bind {
                stmt: 7,
                params: vec![Value::Num(10.5), Value::Cat(3), Value::Str("north".into())],
            },
        ),
        (
            "request/run",
            Request::Run {
                bound: 9,
                options: WireOptions {
                    mode: Mode::Verdict,
                    policy: StopPolicy::RelativeErrorBound {
                        target: 0.05,
                        delta: 0.95,
                    },
                },
            },
        ),
        (
            "request/query",
            Request::Query {
                sql: sql.into(),
                options: WireOptions {
                    mode: Mode::NoLearn,
                    policy: StopPolicy::TupleBudget(5_000),
                },
            },
        ),
        (
            "request/ingest",
            Request::Ingest {
                table: "orders".into(),
                rows: vec![
                    vec![Value::Num(1.0), Value::Str("a".into())],
                    vec![Value::Num(-0.0), Value::Cat(2)],
                ],
            },
        ),
        ("request/metrics", Request::Metrics),
        ("request/close", Request::Close),
    ];
    let column = |name: &str, ty, role| ColumnInfo {
        name: name.into(),
        ty,
        role,
    };
    let responses = [
        (
            "response/hello",
            Response::Hello(HelloInfo {
                protocol: WIRE_VERSION,
                tables: vec![TableInfo {
                    name: "orders".into(),
                    columns: vec![
                        column("day", ColumnType::Numeric, AttributeRole::Dimension),
                        column("region", ColumnType::Categorical, AttributeRole::Dimension),
                        column("amount", ColumnType::Numeric, AttributeRole::Measure),
                    ],
                    rows: 4_000,
                    epoch: 3,
                    data_epoch: 1,
                }],
            }),
        ),
        (
            "response/prepared",
            Response::Prepared(PreparedInfo {
                stmt: 1,
                table: "orders".into(),
                params: vec![ParamKind::Numeric, ParamKind::Categorical],
                fingerprint: 0x0123_4567_89ab_cdef,
            }),
        ),
        ("response/bound", Response::Bound { bound: 2 }),
        (
            "response/answer",
            Response::Answer(AnswerFrame {
                cached: true,
                degraded: false,
                elapsed_ns: 12_345,
                outcome: encode_outcome(&grouped),
            }),
        ),
        (
            "response/ingest_ok",
            Response::IngestOk(IngestSummary {
                appended_rows: 1,
                adjusted_keys: 2,
                adjusted_snippets: 3,
                data_epoch: 4,
            }),
        ),
        (
            "response/metrics",
            Response::Metrics {
                json: "{\"verdict_server_requests_total\":1}".into(),
            },
        ),
        (
            "response/overloaded",
            Response::Overloaded {
                inflight: 64,
                limit: 64,
            },
        ),
        (
            "response/error",
            Response::Error {
                code: ErrorCode::UnknownHandle,
                message: "no bound statement #9 in this session".into(),
            },
        ),
        ("response/bye", Response::Bye),
    ];
    let mut out: Vec<(&'static str, Vec<u8>)> = requests
        .into_iter()
        .map(|(name, r)| (name, r.encode().expect("encodable")))
        .collect();
    out.extend(responses.into_iter().map(|(name, r)| (name, r.encode())));
    let mut framed = Vec::new();
    write_frame(&mut framed, b"verdict wire frame").expect("write");
    out.push(("frame", framed));
    let mut preamble = Vec::new();
    write_preamble(&mut preamble).expect("write");
    out.push(("preamble", preamble));
    out.push(("outcome/grouped", encode_outcome(&grouped)));
    out.push(("outcome/unsupported", encode_outcome(&unsupported)));
    out
}

/// FNV-1a of each frozen message, recorded at protocol version 2.
const FROZEN: [(&str, u64); 21] = [
    ("request/hello", 0xaf63bc4c8601b62c),
    ("request/prepare", 0xf2f298998383d0a7),
    ("request/bind", 0x13d7c36534970dc7),
    ("request/run", 0x261eb1852f84a19a),
    ("request/query", 0xda6294ac4e150749),
    ("request/ingest", 0x9d4557a82a0fe9ba),
    ("request/metrics", 0xaf63ba4c8601b2c6),
    ("request/close", 0xaf63c54c8601c577),
    ("response/hello", 0x74c955ef09043e4f),
    ("response/prepared", 0xd08b1c18bddab57e),
    ("response/bound", 0xf0a3f84ff0c79510),
    ("response/answer", 0x4ec972fb8a92354e),
    ("response/ingest_ok", 0x6df57a878106ede4),
    ("response/metrics", 0xcc720317714f3656),
    ("response/overloaded", 0x4edf490576719546),
    ("response/error", 0xd0099b7e7b56874d),
    ("response/bye", 0xaf64444c86029d44),
    ("frame", 0x5c0ff1f0ef98793d),
    ("preamble", 0xbcdddf88baacf93e),
    ("outcome/grouped", 0x958bf81de1e9c440),
    ("outcome/unsupported", 0xc2c1897802b12ed5),
];

#[test]
fn wire_bytes_are_frozen() {
    use verdict_core::persist::fingerprint_bytes;
    let got: Vec<(&str, u64)> = frozen_messages()
        .into_iter()
        .map(|(name, bytes)| (name, fingerprint_bytes(&bytes)))
        .collect();
    let listing: String = got
        .iter()
        .map(|(name, h)| format!("    ({name:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(got, FROZEN, "a wire byte moved; the new hashes:\n{listing}");
}
