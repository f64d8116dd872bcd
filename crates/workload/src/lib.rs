//! Workload generators for the Verdict experiments.
//!
//! The paper evaluates on (i) a proprietary Customer1 trace, (ii) TPC-H,
//! and (iii) controlled synthetic datasets. This crate regenerates
//! statistical stand-ins for all three:
//!
//! - [`synthetic`]: tables with configurable row counts, dimension counts,
//!   value distributions (uniform/Gaussian/log-normal) and *controlled
//!   inter-tuple correlation* (Gaussian-kernel-smoothed noise ⇒ known
//!   squared-exponential lengthscale), plus the power-law column-access
//!   query generator of §8.6;
//! - [`timeseries`]: the Figure 1 weekly-counts scenario;
//! - [`tpch`]: a scaled-down TPC-H-style star schema, its denormalized
//!   fact table, and the 22 query templates with the paper's support
//!   profile (21 contain aggregates; 14 are Verdict-supported = 63.6%);
//! - [`customer`]: a Customer1-style trace generator matching the
//!   paper's reported statistics (73.7% supported aggregate queries,
//!   mostly COUNT(*), < 5 selection predicates per query);
//! - [`streaming`]: evolving-table batch streams for the ingest stage —
//!   drifting measure means (concept drift, Appendix D);
//! - [`multi`]: a two-table catalog workload (`orders` + `events`, with
//!   deliberately different schemas and signal shapes) for the
//!   multi-table `Database` front-end.

pub mod customer;
pub mod multi;
pub mod streaming;
pub mod synthetic;
pub mod timeseries;
pub mod tpch;

pub use multi::TwoTableSpec;
pub use streaming::DriftingMeanStream;
pub use synthetic::{Distribution, SyntheticSpec};
