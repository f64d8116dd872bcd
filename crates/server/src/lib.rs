//! # verdict-server — the network serving layer
//!
//! Serves one shared [`verdict::Database`] over a length-prefixed binary
//! wire protocol, with a hand-rolled thread-pool runtime (no async
//! framework, no registry dependencies), admission control over the
//! learn path, and a plan + answer cache whose hits are stale-proof by
//! construction.
//!
//! ## The pieces
//!
//! | Module | Contents |
//! |---|---|
//! | [`wire`] | preamble + CRC frame codec, [`wire::Request`] / [`wire::Response`], the canonical [`wire::encode_outcome`] answer encoding |
//! | [`server`] | listener + worker pool (connection deques with work stealing), per-connection sessions, the execution gate sequence |
//! | [`admission`] | the in-flight learn-path bound: admit / degrade-to-`no_learn` / typed shed |
//! | [`cache`] | LRU plan cache + answer cache keyed on `(table, plan fingerprint, literals, options, validity token)` |
//! | [`metrics`] | the `verdict_server_*` series on a [`verdict_obs::MetricsHub`] |
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use verdict::Database;
//! use verdict_server::{serve, ServerConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! # let db: Arc<Database> = unimplemented!();
//! let handle = serve(db, "127.0.0.1:0", ServerConfig::default())?;
//! println!("serving on {}", handle.addr());
//! // ... later:
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Answers travel as canonical bytes ([`wire::encode_outcome`]): floats
//! as raw IEEE-754 bits, wall-clock excluded — so a wire answer is
//! *byte-identical* to the in-process answer, and the answer cache can
//! serve memoized bytes without re-encoding drift. See
//! [`cache`] for the argument that a cache hit can never be stale.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod metrics;
pub mod server;
pub mod wire;

pub use admission::OverflowPolicy;
pub use cache::Lru;
pub use metrics::ServerMetrics;
pub use server::{serve, ServerConfig, ServerHandle};
