//! Statistical primitives for Verdict.
//!
//! Everything Verdict needs from a statistics library, implemented in-tree:
//!
//! - [`erf()`]: the error function, needed by the closed-form double integral
//!   of the squared-exponential covariance (paper Appendix F.1);
//! - [`normal`]: Gaussian cdf/quantile and the confidence-interval
//!   multiplier `α_δ` of §3.4;
//! - [`describe`]: streaming and batch descriptive statistics (Welford
//!   accumulators back the AQP engine's CLT error estimates);
//! - [`percentile()`]: order statistics used when reporting error
//!   distributions (Figure 5).

pub mod describe;
pub mod erf;
pub mod normal;
pub mod percentile;

pub use describe::{covariance, indicator_mean_se, mean, variance, Welford};
pub use erf::{erf, erfc};
pub use normal::{confidence_multiplier, normal_cdf, normal_quantile};
pub use percentile::percentile;
