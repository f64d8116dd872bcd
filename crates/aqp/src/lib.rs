//! Sample-based approximate query processing (AQP).
//!
//! This crate is the "off-the-shelf AQP engine" Verdict treats as a black
//! box (paper Figure 2). It reproduces the `NoLearn` baseline of §8.1: an
//! online-aggregation engine that pre-builds uniform random samples, splits
//! them into batches, and refines a CLT-based estimate batch by batch.
//! There is one sample type ([`Sample`] — resident or demand-paged, same
//! batch geometry) and one executor over it ([`SharedScanDriver`], driven
//! serially or by [`parallel_scan`]). Two oracles live beside it for tests
//! and benches to compare against, reachable from no serving option:
//! [`BatchEstimator`] (one snippet's textbook estimator over a batch
//! prefix) and the row-wise kernel ([`ScanKernel::RowWise`] behind
//! [`SharedScanDriver::set_kernel`]).
//!
//! The cost model ([`cost::CostModel`]) replaces the paper's EC2 cluster
//! for the paper experiments only: "runtime" is simulated from tuples
//! scanned, with a configurable multiplier for cold (SSD) versus cached
//! (in-memory) data so that the cached/not-cached panels of Figure 4 can
//! be regenerated deterministically. An experiment that wants a time
//! budget (§7 case 2, Appendix C.2) turns it into a tuple budget with
//! [`CostModel::tuples_within`]; no engine or serving layer prices a scan.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

pub mod cost;
pub mod driver;
pub mod engine;
pub mod estimator;
pub mod paged;
pub mod parallel;
pub mod sample;
pub mod stratified;

pub use cost::{CostModel, StorageTier};
pub use driver::{BatchPartial, ScanKernel, ScanSpec, SharedScanDriver};
pub use engine::{OnlineAggregation, RawAnswer};
pub use estimator::BatchEstimator;
pub use paged::{PagedRep, SegmentLoader};
pub use parallel::{parallel_scan, Horizon, ParallelScanStats};
pub use sample::{appended_row_admitted, BatchLayout, Sample};
pub use stratified::{stratified, stratum_slots, Allocation};

/// Errors surfaced by the AQP engine.
#[derive(Debug, Clone, PartialEq)]
pub enum AqpError {
    /// Underlying storage error.
    Storage(verdict_storage::StorageError),
    /// Requested an empty or invalid sample configuration.
    InvalidConfig(String),
}

impl From<verdict_storage::StorageError> for AqpError {
    fn from(e: verdict_storage::StorageError) -> Self {
        AqpError::Storage(e)
    }
}

impl std::fmt::Display for AqpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AqpError::Storage(e) => write!(f, "storage error: {e}"),
            AqpError::InvalidConfig(m) => write!(f, "invalid AQP configuration: {m}"),
        }
    }
}

impl std::error::Error for AqpError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AqpError>;

/// Locks `mutex`, absorbing poison. Every mutex in this crate guards state
/// that each update leaves whole (a published morsel run, a fault latch),
/// so one thread's panic must not cascade into the threads that share it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `lock`, absorbing poison. The one `RwLock` this crate reads
/// is a paged sample's shared partition map: its summaries only ever
/// widen and its segments hold create-time rows only, so a map that a
/// panicking ingest left half-extended still prunes soundly.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}
