//! Format freeze: the bytes a persistent catalog leaves on disk.
//!
//! One seeded scenario — create, queries, train, ingest, checkpoint,
//! ingest — runs on a resident persisted table and on a paged
//! (partitioned + persisted) one under one catalog. Every file of the
//! catalog directory (`CATALOG`, `snapshot-*`, `part-*`,
//! `wal.vlog`) must hash to its recorded FNV-1a constant, so a change to
//! the store that is meant to leave the format alone is held to every
//! byte. Reopening must then yield each live table's learned state.

use std::path::{Path, PathBuf};

use verdict::{Database, QueryOptions, TableOptions};
use verdict_core::persist::fingerprint_bytes;
use verdict_core::AggKey;
use verdict_storage::{ColumnDef, PartitionSpec, Schema, Table, Value};

const REGIONS: [&str; 6] = ["north", "south", "east", "west", "alpine", "coast"];

/// Row `i` of the scenario: `week` numeric dimension (1..=24), `region`
/// categorical dimension, `rev` measure — a fixed function of `i`.
fn row(i: usize) -> Vec<Value> {
    let week = 1.0 + (i % 24) as f64;
    let noise = ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64;
    let rev = 40.0 + 9.0 * (week / 5.0).sin() + 6.0 * (noise - 0.5);
    vec![week.into(), REGIONS[i % REGIONS.len()].into(), rev.into()]
}

fn base_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::numeric_dimension("week"),
        ColumnDef::categorical_dimension("region"),
        ColumnDef::measure("rev"),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for i in 0..rows {
        t.push_row(row(i)).unwrap();
    }
    t
}

/// An ingest batch; its region labels include one the base table lacks,
/// so the dictionaries grow through the WAL too.
fn batch(from: usize, n: usize) -> Vec<Vec<Value>> {
    (from..from + n)
        .map(|i| {
            let mut r = row(i);
            if i % 5 == 0 {
                r[1] = "islands".into();
            }
            r
        })
        .collect()
}

/// Every file under `root` except the (empty) writer locks, as
/// `(relative path, FNV-1a of its bytes)`, sorted by path.
fn file_hashes(root: &Path) -> Vec<(String, u64)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, u64)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.file_name().unwrap() != "LOCK" {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fingerprint_bytes(&std::fs::read(&path).unwrap())));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict-freeze-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The recorded hashes: a resident table (one partition file) and a paged
/// one (a partition file per partition) side by side under one catalog.
const FROZEN: &[(&str, u64)] = &[
    ("CATALOG", 0x6cfbc7c1608f0f4e),
    ("tables/paged/part-000000.vcol", 0x2a9b6d55fc76251b),
    ("tables/paged/part-000001.vcol", 0x4fc68646436e5495),
    ("tables/paged/part-000002.vcol", 0x1b35bdd3c07e65f3),
    ("tables/paged/part-000003.vcol", 0x63bcbfec86cfbe90),
    ("tables/paged/snapshot-0000000001.vsnap", 0x6d061f41c48bdbd3),
    ("tables/paged/snapshot-0000000002.vsnap", 0x06bf2ae28c9ad033),
    ("tables/paged/wal.vlog", 0xf22dd25866d2fa9c),
    ("tables/res/part-000000.vcol", 0x3d3b8be7e6744ed4),
    ("tables/res/snapshot-0000000001.vsnap", 0xf04ff123446729ba),
    ("tables/res/snapshot-0000000002.vsnap", 0x0267ecef8b118b11),
    ("tables/res/wal.vlog", 0xb8fc6da1a70f736d),
];

#[test]
fn store_files_keep_their_bytes_and_reopen_to_the_live_state() {
    let dir = temp_store("files");
    let opts = |partition| TableOptions {
        sample_fraction: 0.2,
        batch_size: 80,
        seed: 11,
        partition,
        ..TableOptions::default()
    };
    let db = Database::builder()
        .register_table_with("res", base_table(2_400), opts(None))
        .register_table_with(
            "paged",
            base_table(2_400),
            opts(Some(PartitionSpec::range("week", vec![6.0, 12.0, 18.0]))),
        )
        .persist_to(&dir)
        .parallelism(1)
        .build()
        .unwrap();
    let mut live = Vec::new();
    for name in ["res", "paged"] {
        for i in 0..10 {
            let lo = 1.0 + i as f64 * 2.1;
            let sql = format!(
                "SELECT AVG(rev) FROM {name} WHERE week BETWEEN {lo} AND {}",
                lo + 4.5
            );
            db.query(&sql, &QueryOptions::new()).unwrap();
        }
        db.query(
            &format!("SELECT COUNT(*) FROM {name} WHERE region = 'east'"),
            &QueryOptions::new(),
        )
        .unwrap();
        db.train(name).unwrap();
        assert!(db.snapshot(name).unwrap().has_model(&AggKey::avg("rev")));
        db.ingest(name, &batch(10_000, 60)).unwrap();
        db.checkpoint_table(name).unwrap();
        db.ingest(name, &batch(20_000, 45)).unwrap();
        live.push(db.snapshot(name).unwrap().state_bytes());
    }
    drop(db);

    let got = file_hashes(&dir);
    let want: Vec<(String, u64)> = FROZEN.iter().map(|&(p, h)| (p.to_owned(), h)).collect();
    assert_eq!(got, want, "store files changed; got:\n{got:#x?}");

    let db = Database::open(&dir).unwrap();
    for (name, state) in ["res", "paged"].into_iter().zip(&live) {
        assert!(
            db.snapshot(name).unwrap().state_bytes() == *state,
            "{name} reopened to a different learned state"
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
