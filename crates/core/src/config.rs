//! Engine configuration.

/// Tunables of the Verdict engine. Defaults follow the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictConfig {
    /// Maximum snippets generated per query for group-by expansion
    /// (`N_max`, §2.3; default 1000).
    pub nmax: usize,
    /// Synopsis capacity per aggregate function (`C_g`, §2.3; default 2000)
    /// with least-recently-used eviction.
    pub synopsis_capacity: usize,
    /// Confidence level `δ_v` of the model-validation likely region
    /// (Appendix B; default 0.99).
    pub validation_delta: f64,
    /// Whether model validation is applied at all (fig9 ablates this).
    pub enable_validation: bool,
    /// Confidence level for reported error bounds (§3.4; default 0.95).
    pub confidence_delta: f64,
    /// Relative diagonal jitter added before factorizing `Σ_n`.
    pub jitter: f64,
    /// Minimum number of past snippets before a model is trained; below
    /// this the engine passes raw answers through unchanged.
    pub min_snippets_to_train: usize,
    /// Multi-start factors (relative to each dimension's domain width) for
    /// the lengthscale optimizer. The paper starts at the domain width
    /// (Appendix A.1); extra starts guard against bad local optima. Each
    /// usable start descends on a thread of its own, so the list also sets
    /// how many cores a search uses; the result does not depend on it.
    pub lengthscale_starts: Vec<f64>,
    /// Maximum Nelder–Mead iterations per start.
    pub max_optimizer_iters: usize,
    /// Cap on the number of most-recent snippets used for lengthscale
    /// learning (the O(n³) likelihood stays cheap offline).
    pub max_training_snippets: usize,
}

impl Default for VerdictConfig {
    fn default() -> Self {
        VerdictConfig {
            nmax: 1000,
            synopsis_capacity: 2000,
            validation_delta: 0.99,
            enable_validation: true,
            confidence_delta: 0.95,
            jitter: 1e-9,
            min_snippets_to_train: 3,
            lengthscale_starts: vec![1.0, 0.3, 0.1],
            max_optimizer_iters: 200,
            max_training_snippets: 400,
        }
    }
}

impl VerdictConfig {
    /// Configuration with validation disabled (Appendix B ablation).
    pub fn without_validation() -> Self {
        VerdictConfig {
            enable_validation: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = VerdictConfig::default();
        assert_eq!(c.nmax, 1000);
        assert_eq!(c.synopsis_capacity, 2000);
        assert_eq!(c.validation_delta, 0.99);
        assert_eq!(c.confidence_delta, 0.95);
        assert!(c.enable_validation);
    }

    #[test]
    fn without_validation_flag() {
        assert!(!VerdictConfig::without_validation().enable_validation);
    }
}
