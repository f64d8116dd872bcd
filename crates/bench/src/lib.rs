//! Experiment harness for the Verdict reproduction.
//!
//! Each `figN`/`tabN` function in [`experiments`] regenerates one table or
//! figure of the paper, named after it. The `experiments` binary
//! dispatches:
//!
//! ```text
//! cargo run --release -p verdict-bench --bin experiments -- all
//! cargo run --release -p verdict-bench --bin experiments -- fig4 tab4
//! ```
//!
//! Numbers will not match the paper's EC2 cluster absolutely — runtime is
//! simulated from tuples scanned by [`verdict_aqp::CostModel`] — but the
//! qualitative shape (who wins, by how much, where curves cross) is the
//! reproduction target. Measured performance lives in the `benchmark/`
//! package, not here.

pub mod experiments;
pub mod harness;
