//! Property tests for the durable store: round trips are bit-exact and
//! recovery is total on arbitrarily mangled logs.

use proptest::prelude::*;

use verdict_core::append::AppendAdjustment;
use verdict_core::persist::{fingerprint, Encoder, Persist};
use verdict_core::region::{DimensionSpec, SchemaInfo};
use verdict_core::snippet::{AggKey, Observation};
use verdict_core::synopsis::QuerySynopsis;
use verdict_core::{Region, Snippet, Verdict, VerdictConfig};
use verdict_storage::{ColumnDef, Predicate, Schema, Table, Value};
use verdict_store::log::{scan_log_bytes, LogRecord, SnippetLog, SnippetRecord, LOG_HEADER_LEN};
use verdict_store::tablecodec::encode_table;
use verdict_store::{BaseRows, SessionMeta, StorePolicy, SynopsisStore};

fn schema() -> SchemaInfo {
    SchemaInfo::new(vec![
        DimensionSpec::numeric("t", 0.0, 100.0),
        DimensionSpec::categorical("c", 4),
    ])
    .unwrap()
}

fn region(lo: f64, w: f64, codes: &[u32]) -> Region {
    let mut p = Predicate::between("t", lo, lo + w);
    if !codes.is_empty() {
        p = p.and(Predicate::cat_in("c", codes.to_vec()));
    }
    Region::from_predicate(&schema(), &p).unwrap()
}

/// Strategy: snippet observations as raw tuples.
fn entries_strategy(max: usize) -> impl Strategy<Value = Vec<(f64, f64, f64, f64, Vec<u32>)>> {
    prop::collection::vec(
        (
            0.0..95.0f64,
            0.1..20.0f64,
            -1e6..1e6f64,
            0.0..1e3f64,
            prop::collection::vec(0u32..4, 0..3),
        ),
        0..max,
    )
}

fn unique_temp(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "verdict-storeprop-{tag}-{}-{case}",
        std::process::id()
    ))
}

/// One randomized session operation for the crash-recovery fuzz.
#[derive(Debug, Clone)]
enum Op {
    /// Observe one snippet (`lo`, `width`, `answer`, `error`).
    Snippet(f64, f64, f64, f64),
    /// Ingest a batch (`rows`, `value shift`).
    Ingest(usize, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (The vendored proptest stub has no `prop_oneof`; a selector byte
    // over a composite tuple draws the same distribution.)
    (
        0u8..2,
        (0.0..90.0f64, 0.5..10.0f64, -100.0..100.0f64, 0.01..10.0f64),
        (1usize..6, -5.0..5.0f64),
    )
        .prop_map(|(which, (lo, w, a, e), (n, s))| {
            if which == 0 {
                Op::Snippet(lo, w, a, e)
            } else {
                Op::Ingest(n, s)
            }
        })
}

fn fuzz_base_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("t"),
        ColumnDef::measure("v"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for i in 0..30 {
        t.push_row(vec![
            Value::Num((i % 10) as f64 * 10.0),
            Value::Num(1.0 + i as f64),
        ])
        .unwrap();
    }
    t
}

fn fuzz_meta() -> SessionMeta {
    SessionMeta {
        sample_fraction: 0.2,
        batch_size: 100,
        seed: 3,
        num_samples: 1,
        original_rows: 30,
        partition_spec: None,
        paged: false,
        config: VerdictConfig::default(),
    }
}

fn table_bytes(table: &Table) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_table(table, &mut enc);
    enc.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (save → load) of a synopsis is bit-exact: the decoded value
    /// re-encodes to identical bytes, and continues to behave identically
    /// under further records (same LRU victim, same dedupe winner).
    #[test]
    fn synopsis_roundtrip_bit_exact(
        entries in entries_strategy(40),
        cap in 1usize..24,
        extra_lo in 0.0..95.0f64,
    ) {
        let mut syn = QuerySynopsis::new(cap);
        for (lo, w, ans, err, codes) in &entries {
            syn.record(region(*lo, *w, codes), Observation::new(*ans, *err));
        }
        let bytes = syn.to_bytes();
        let mut back = QuerySynopsis::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(back.to_bytes(), bytes.clone());
        // Behavioral equivalence after the round trip.
        let mut orig = syn.clone();
        orig.record(region(extra_lo, 1.0, &[]), Observation::new(1.0, 0.1));
        back.record(region(extra_lo, 1.0, &[]), Observation::new(1.0, 0.1));
        prop_assert_eq!(orig.to_bytes(), back.to_bytes());
    }

    /// A full engine state (synopses + trained models) round-trips to
    /// identical bytes, and the restored engine's improved answers are
    /// bit-identical.
    #[test]
    fn engine_state_roundtrip_preserves_answers(
        entries in entries_strategy(20),
        q_lo in 0.0..90.0f64,
        q_w in 0.5..10.0f64,
        q_ans in -10.0..10.0f64,
        q_err in 0.01..2.0f64,
    ) {
        let mut engine = Verdict::new(schema(), VerdictConfig::default());
        for (lo, w, ans, err, codes) in &entries {
            engine.observe(
                &Snippet::new(AggKey::avg("v"), region(*lo, *w, codes)),
                Observation::new(*ans, err.max(1e-6)),
            );
        }
        engine.train().expect("train");
        let state = engine.export_state();
        let bytes = state.to_bytes();
        let restored = verdict_core::EngineState::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(restored.to_bytes(), bytes);

        let mut warm = Verdict::new(schema(), VerdictConfig::default());
        warm.restore_state(restored).expect("restore");
        let snippet = Snippet::new(AggKey::avg("v"), region(q_lo, q_w, &[]));
        let raw = Observation::new(q_ans, q_err);
        let a = engine.improve(&snippet, raw);
        let b = warm.improve(&snippet, raw);
        prop_assert_eq!(a.answer.to_bits(), b.answer.to_bits());
        prop_assert_eq!(a.error.to_bits(), b.error.to_bits());
        prop_assert_eq!(a.used_model, b.used_model);
        prop_assert!(b.error <= q_err + 1e-12, "Theorem 1 after restore");
    }

    /// Schema fingerprints are stable and discriminating.
    #[test]
    fn fingerprint_stable_and_sensitive(hi in 1.0..1e6f64) {
        let a = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, hi)]).unwrap();
        let b = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, hi)]).unwrap();
        let c = SchemaInfo::new(vec![DimensionSpec::numeric("t", 0.0, hi + 1.0)]).unwrap();
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert!(fingerprint(&a) != fingerprint(&c));
    }

    /// Crash safety: truncating the log at *any* byte offset yields a
    /// valid prefix — no panic, every surviving record identical to what
    /// was appended, and the file reopens cleanly for further appends.
    #[test]
    fn log_truncation_recovers_valid_prefix(
        entries in entries_strategy(12),
        cut_frac in 0.0..1.0f64,
        case in 0u64..1_000_000,
    ) {
        let dir = unique_temp("trunc", case);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        let mut originals = Vec::new();
        for (i, (lo, w, ans, err, codes)) in entries.iter().enumerate() {
            let record = LogRecord::Snippet(SnippetRecord {
                seq: i as u64 + 1,
                key: AggKey::avg("v"),
                region: region(*lo, *w, codes),
                observation: Observation::new(*ans, *err),
            });
            log.append(&record).unwrap();
            originals.push(record);
        }
        drop(log);
        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() as f64 * cut_frac) as usize;
        let scan = scan_log_bytes(&full[..cut]);
        prop_assert!(scan.valid_len <= cut as u64);
        prop_assert!(scan.records.len() <= originals.len());
        for (got, want) in scan.records.iter().zip(originals.iter()) {
            prop_assert_eq!(got, want);
        }
        // Reopen-after-truncation keeps working.
        std::fs::write(&path, &full[..cut]).unwrap();
        let (mut log, rescan) = SnippetLog::open(&path).unwrap();
        prop_assert_eq!(rescan.records.len(), scan.records.len());
        log.append(&LogRecord::Snippet(SnippetRecord {
            seq: 999,
            key: AggKey::Freq,
            region: region(0.0, 1.0, &[]),
            observation: Observation::new(0.5, 0.05),
        })).unwrap();
        drop(log);
        let (_, final_scan) = SnippetLog::open(&path).unwrap();
        prop_assert_eq!(final_scan.records.len(), scan.records.len() + 1);
        prop_assert_eq!(final_scan.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash safety across the *evolving-table* format: a live session
    /// interleaves snippet observations and ingested batches, the WAL is
    /// truncated at an arbitrary byte offset (the crash), and reopening
    /// must recover **exactly** the live state as of the last complete
    /// record — table, synopses, and trained models all mutually
    /// consistent and bit-identical to what the live engine held at that
    /// point. A torn ingest frame loses the whole batch, never half of
    /// one.
    #[test]
    fn ingest_truncation_recovers_to_last_complete_record(
        ops in prop::collection::vec(op_strategy(), 1..10),
        cut_frac in 0.0..1.0f64,
        case in 0u64..1_000_000,
    ) {
        let dir = unique_temp("ingestfuzz", case);
        let _ = std::fs::remove_dir_all(&dir);
        let mut table = fuzz_base_table();
        let meta = fuzz_meta();
        let mut engine = Verdict::new(schema(), meta.config.clone());
        let (mut store, _) = SynopsisStore::create(
            &dir,
            StorePolicy::default(),
            meta.clone(),
            &table,
            &engine.export_state(),
        )
        .unwrap();
        // `checkpoints[k]` is the live (state, table) after k records.
        let mut checkpoints = vec![(engine.export_state().to_bytes(), table_bytes(&table))];
        for op in &ops {
            match op {
                Op::Snippet(lo, w, ans, err) => {
                    let r = region(*lo, *w, &[]);
                    let obs = Observation::new(*ans, *err);
                    store.append_snippet(&AggKey::avg("v"), &r, obs).unwrap();
                    engine.observe(&Snippet::new(AggKey::avg("v"), r), obs);
                }
                Op::Ingest(n, shift) => {
                    let first = table.num_rows();
                    let rows: Vec<Vec<Value>> = (0..*n)
                        .map(|i| {
                            vec![
                                Value::Num(((first + i) % 10) as f64 * 10.0),
                                Value::Num(1.0 + shift + (first + i) as f64),
                            ]
                        })
                        .collect();
                    let adjustments = vec![
                        (
                            AggKey::avg("v"),
                            AppendAdjustment::estimate(
                                &[1.0, 2.0],
                                &[1.0 + shift, 2.0 + shift],
                                first,
                                *n,
                            ),
                        ),
                        (AggKey::Freq, AppendAdjustment::freq_worst_case(first, *n)),
                    ];
                    let seq = store.append_ingest(&rows, &adjustments).unwrap();
                    table.push_rows(&rows).unwrap();
                    let batch: Vec<usize> = (first..table.num_rows()).collect();
                    store
                        .append_parts(seq, &table.gather(&batch).unwrap(), &vec![0; *n])
                        .unwrap();
                    for (key, adj) in &adjustments {
                        engine.apply_append(key, adj).unwrap();
                    }
                }
            }
            checkpoints.push((engine.export_state().to_bytes(), table_bytes(&table)));
        }
        drop(store);

        // The crash: truncate the WAL at an arbitrary offset.
        let wal = dir.join("wal.vlog");
        let full = std::fs::read(&wal).unwrap();
        let cut = (full.len() as f64 * cut_frac) as usize;
        std::fs::write(&wal, &full[..cut]).unwrap();

        let (_store, recovered) = SynopsisStore::open(&dir, StorePolicy::default()).unwrap();
        let survived = recovered.report.records_replayed as usize;
        prop_assert!(survived <= ops.len());
        let (want_state, want_table) = &checkpoints[survived];
        prop_assert_eq!(&recovered.state.to_bytes(), want_state);
        let BaseRows::Table(recovered_table) = &recovered.base else {
            panic!("a resident store recovers its table");
        };
        prop_assert_eq!(&table_bytes(recovered_table), want_table);
        // Data epoch counts exactly the ingest records that survived.
        let ingests_survived = ops[..survived]
            .iter()
            .filter(|op| matches!(op, Op::Ingest(..)))
            .count() as u64;
        prop_assert_eq!(recovered.data_epoch, ingests_survived);
        prop_assert_eq!(recovered.report.ingests_replayed, ingests_survived);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bit flips anywhere in the log never panic the scanner and never
    /// produce a record that was not appended (beyond the flipped point).
    #[test]
    fn log_bitflip_never_yields_phantom_records(
        entries in entries_strategy(10),
        flip_frac in 0.0..1.0f64,
        flip_bit in 0u8..8,
        case in 0u64..1_000_000,
    ) {
        let dir = unique_temp("flip", case);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.vlog");
        let mut log = SnippetLog::create(&path).unwrap();
        let mut originals = Vec::new();
        for (i, (lo, w, ans, err, codes)) in entries.iter().enumerate() {
            let record = LogRecord::Snippet(SnippetRecord {
                seq: i as u64 + 1,
                key: AggKey::avg("v"),
                region: region(*lo, *w, codes),
                observation: Observation::new(*ans, *err),
            });
            log.append(&record).unwrap();
            originals.push(record);
        }
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip_at = (bytes.len() as f64 * flip_frac) as usize % bytes.len().max(1);
        bytes[flip_at] ^= 1 << flip_bit;
        let scan = scan_log_bytes(&bytes);
        if flip_at >= LOG_HEADER_LEN as usize {
            // Records strictly before the flipped byte's frame survive and
            // match; everything from the flip on is either dropped or (for
            // flips in already-scanned padding) identical. No phantoms.
            for (got, want) in scan.records.iter().zip(originals.iter()) {
                if got != want {
                    // The flip landed inside this record but still passed
                    // CRC — astronomically unlikely; flag it loudly.
                    prop_assert!(false, "phantom record after bit flip");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
