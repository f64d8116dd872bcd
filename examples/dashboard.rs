//! A Customer1-style analytics dashboard db (paper §8.1–8.3).
//!
//! Replays a timestamped trace of analytic queries against an events
//! table: the first half trains the model (as in §8.3), the second half
//! measures how much less data Verdict needs to hit the same error target.
//!
//! Run with: `cargo run --release --example dashboard`

use rand::rngs::StdRng;
use rand::SeedableRng;
use verdict::workload::customer;
use verdict::{Database, Mode, QueryOptions, StopPolicy, TableOptions};

fn opts(mode: Mode, policy: StopPolicy) -> QueryOptions {
    QueryOptions::new().with_mode(mode).with_policy(policy)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(11);
    let trace = customer::generate_trace(150_000, 200, &mut rng);
    println!(
        "events table: {} rows; trace: {} timestamped queries",
        trace.table.num_rows(),
        trace.queries.len()
    );

    let db = Database::builder()
        .register_table_with(
            "events",
            trace.table,
            TableOptions {
                sample_fraction: 0.1,
                batch_size: 500,
                seed: 11,
                ..TableOptions::default()
            },
        )
        .build()?;

    // First half: process queries, learn from every supported one.
    let half = trace.queries.len() / 2;
    let mut supported = 0usize;
    let mut unsupported = 0usize;
    for q in &trace.queries[..half] {
        match db.query(&q.sql, &opts(Mode::Verdict, StopPolicy::ScanAll))? {
            verdict::QueryOutcome::Answered(_) => supported += 1,
            verdict::QueryOutcome::Unsupported(_) => unsupported += 1,
        }
    }
    println!(
        "first half: {supported} supported / {unsupported} unsupported \
         ({:.1}% supported — paper reports 73.7%)",
        supported as f64 / (supported + unsupported) as f64 * 100.0
    );
    db.train("events")?;

    // Second half: same queries under both modes at a 2.5% error target.
    let policy = StopPolicy::RelativeErrorBound {
        target: 0.025,
        delta: 0.95,
    };
    let mut nl_tuples = 0usize;
    let mut vd_tuples = 0usize;
    let mut answered = 0usize;
    let mut improved_count = 0usize;
    for q in &trace.queries[half..] {
        let verdict::QueryOutcome::Answered(nl) = db.query(&q.sql, &opts(Mode::NoLearn, policy))?
        else {
            continue;
        };
        let verdict::QueryOutcome::Answered(vd) = db.query(&q.sql, &opts(Mode::Verdict, policy))?
        else {
            continue;
        };
        nl_tuples += nl.tuples_scanned;
        vd_tuples += vd.tuples_scanned;
        answered += 1;
        if vd
            .rows
            .iter()
            .any(|r| r.values.iter().any(|c| c.improved.used_model))
        {
            improved_count += 1;
        }
    }
    println!("second half: {answered} supported queries answered under both modes");
    println!(
        "model engaged on {improved_count}/{answered} queries \
         ({:.0}%)",
        improved_count as f64 / answered.max(1) as f64 * 100.0
    );
    println!(
        "sample tuples scanned to 2.5% bounds — NoLearn {nl_tuples}, Verdict {vd_tuples} \
         ({:.1}x fewer)",
        nl_tuples as f64 / vd_tuples.max(1) as f64
    );
    let stats = db.snapshot("events").unwrap().stats();
    println!(
        "engine stats: improved {}, validation-rejected {}, passed-through {}, observed {}",
        stats.improved, stats.rejected, stats.passed_through, stats.observed
    );
    Ok(())
}
