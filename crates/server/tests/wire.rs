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
