//! Model validation (paper Appendix B).
//!
//! Verdict only trusts its model-based answer when the AQP engine's raw
//! answer falls inside the *likely region*: the interval around the
//! model-based answer `θ̈` in which the engine's answer would land with
//! probability `δ_v` (0.99 by default) **if the model were correct**.
//! Under the CLT the engine's answer is normal with standard deviation
//! `β_{n+1}`, so the likely region is `θ̈ ± α_{δ_v} · β_{n+1}`.
//!
//! Two additional guards handle `FREQ(*)` (whose maximum-entropy prior has
//! no non-negativity constraint): a negative model-based `FREQ` answer is
//! rejected outright, and confidence intervals are floored at zero.

use verdict_stats::normal::confidence_multiplier;

use crate::inference::ModelInference;
use crate::snippet::Observation;

/// Outcome of the validation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict2 {
    /// The model-based answer is plausible; use it.
    Accept,
    /// The raw answer fell outside the likely region.
    RejectOutsideLikelyRegion,
    /// A `FREQ` model answer was negative.
    RejectNegativeFrequency,
}

impl Verdict2 {
    /// Whether the model answer should be used.
    pub fn accepted(&self) -> bool {
        matches!(self, Verdict2::Accept)
    }
}

/// Validates a model-based answer against the raw answer (Appendix B).
///
/// `is_freq` enables the non-negativity guard. An infinite raw error means
/// the engine has seen no data, in which case the likely region is the
/// whole line and the model answer stands (subject to the FREQ guard).
pub fn validate(
    inference: &ModelInference,
    raw: Observation,
    is_freq: bool,
    delta_v: f64,
) -> Verdict2 {
    if is_freq && inference.model_answer < 0.0 {
        return Verdict2::RejectNegativeFrequency;
    }
    if !raw.error.is_finite() {
        return Verdict2::Accept;
    }
    if raw.error == 0.0 {
        // Exact answer: inference already passed it through; nothing to
        // validate.
        return Verdict2::Accept;
    }
    let t = confidence_multiplier(delta_v) * raw.error;
    if (raw.answer - inference.model_answer).abs() <= t {
        Verdict2::Accept
    } else {
        Verdict2::RejectOutsideLikelyRegion
    }
}

/// Floors a confidence-interval lower bound at zero for `FREQ` answers
/// (Appendix B: "even if θ̈ ≥ 0, the lower bound of the confidence
/// interval is set to zero if the value is less than zero").
pub(crate) fn clamp_freq_interval(lo: f64, hi: f64) -> (f64, f64) {
    (lo.max(0.0), hi.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inf(model_answer: f64) -> ModelInference {
        ModelInference {
            model_answer,
            model_error: 0.1,
            prior_answer: model_answer,
            gamma: 0.2,
        }
    }

    #[test]
    fn accepts_close_raw_answer() {
        let v = validate(&inf(10.0), Observation::new(10.1, 0.5), false, 0.99);
        assert!(v.accepted());
    }

    #[test]
    fn rejects_far_raw_answer() {
        // α_{0.99} ≈ 2.576, so the likely region is 10 ± 1.288.
        let v = validate(&inf(10.0), Observation::new(15.0, 0.5), false, 0.99);
        assert_eq!(v, Verdict2::RejectOutsideLikelyRegion);
    }

    #[test]
    fn boundary_case_accepts_within_radius() {
        let radius = verdict_stats::normal::confidence_multiplier(0.99) * 0.5;
        let v = validate(
            &inf(10.0),
            Observation::new(10.0 + radius * 0.999, 0.5),
            false,
            0.99,
        );
        assert!(v.accepted());
    }

    #[test]
    fn rejects_negative_freq() {
        let v = validate(&inf(-0.01), Observation::new(0.02, 0.05), true, 0.99);
        assert_eq!(v, Verdict2::RejectNegativeFrequency);
        // The same answer is fine for AVG.
        let v = validate(&inf(-0.01), Observation::new(0.02, 0.05), false, 0.99);
        assert!(v.accepted());
    }

    #[test]
    fn infinite_raw_error_accepts() {
        let v = validate(&inf(7.0), Observation::new(0.0, f64::INFINITY), false, 0.99);
        assert!(v.accepted());
    }

    #[test]
    fn higher_delta_widens_likely_region() {
        let raw = Observation::new(11.2, 0.5);
        // At δ_v = 0.80 (α ≈ 1.28, radius 0.64) 11.2 is outside 10 ± 0.64.
        assert_eq!(
            validate(&inf(10.0), raw, false, 0.80),
            Verdict2::RejectOutsideLikelyRegion
        );
        // At δ_v = 0.999 (α ≈ 3.29, radius 1.65) it is inside.
        assert!(validate(&inf(10.0), raw, false, 0.999).accepted());
    }

    #[test]
    fn freq_interval_clamped() {
        assert_eq!(clamp_freq_interval(-0.2, 0.5), (0.0, 0.5));
        assert_eq!(clamp_freq_interval(0.1, 0.5), (0.1, 0.5));
        assert_eq!(clamp_freq_interval(-0.5, -0.1), (0.0, 0.0));
    }
}
