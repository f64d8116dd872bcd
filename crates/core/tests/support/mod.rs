//! Test-only views of engine types, shared by the crate's unit tests (the
//! library mounts this file under `#[cfg(test)]`) and the `properties`
//! suite. The engine never asks them, so the library does not ship them.
//! Both hosts have `AppendAdjustment` in scope.

use super::AppendAdjustment;

/// What the tests ask of an append adjustment.
pub trait AdjustmentOps {
    /// Whether applying the adjustment is a no-op (`µ = 0`, `η = 0`).
    fn is_identity(&self) -> bool;
}

impl AdjustmentOps for AppendAdjustment {
    fn is_identity(&self) -> bool {
        self.mu_shift == 0.0 && self.eta == 0.0
    }
}
