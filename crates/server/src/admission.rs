//! Admission control: a hard bound on in-flight learn-path work.
//!
//! Learn-path queries (`Mode::Verdict`) are the expensive class — they
//! scan, infer, and absorb into the synopsis. The controller holds an
//! atomic in-flight count against a configured limit; a request over the
//! limit is either **degraded** to `no_learn` (still answered, raw AQP
//! only, no synopsis write) or **shed** with the typed
//! [`crate::wire::Response::Overloaded`] frame, per
//! [`OverflowPolicy`]. `NoLearn` requests never consume a permit: the
//! cheap class cannot be starved by the expensive one.
//!
//! The count is mirrored into the `verdict_server_learn_inflight` gauge
//! so operators watch the same number the controller enforces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::ServerMetrics;

/// What to do with a learn-path request that arrives over the limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Answer it anyway, degraded to `no_learn` (default): the client
    /// still gets a correct raw-AQP answer, the engine learns nothing
    /// from it, and the response is flagged `degraded`.
    #[default]
    Degrade,
    /// Refuse it with [`crate::wire::Response::Overloaded`]; the
    /// connection stays open and the client may retry.
    Shed,
}

/// Outcome of one admission attempt.
#[derive(Debug)]
pub(crate) enum Admission {
    /// Under the limit: run at full fidelity. Dropping the permit
    /// releases the slot.
    Admitted(Permit),
    /// Over the limit, policy [`OverflowPolicy::Degrade`]: run as
    /// `no_learn`.
    Degrade,
    /// Over the limit, policy [`OverflowPolicy::Shed`]: refuse. Carries
    /// the observed in-flight count for the typed response.
    Shed {
        /// Learn-path requests in flight at refusal time.
        inflight: u64,
    },
}

/// Bounds concurrent learn-path work. Cheap to clone via `Arc`.
#[derive(Debug)]
pub(crate) struct AdmissionController {
    limit: u64,
    policy: OverflowPolicy,
    inflight: AtomicU64,
    metrics: Arc<ServerMetrics>,
}

impl AdmissionController {
    /// A controller admitting at most `limit` concurrent learn-path
    /// requests (0 degrades/sheds every one — useful for tests and for
    /// read-only replicas).
    pub fn new(limit: u64, policy: OverflowPolicy, metrics: Arc<ServerMetrics>) -> Self {
        AdmissionController {
            limit,
            policy,
            inflight: AtomicU64::new(0),
            metrics,
        }
    }

    /// The configured bound.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Learn-path requests currently in flight.
    #[cfg(test)]
    fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Tries to admit one learn-path request. Lock-free CAS loop: the
    /// count can never overshoot the limit, so with bound `N` and `N+k`
    /// concurrent learn requests, *exactly* `k` are degraded or shed.
    pub(crate) fn try_admit(self: &Arc<Self>) -> Admission {
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= self.limit {
                return match self.policy {
                    OverflowPolicy::Degrade => {
                        self.metrics.degraded_total.inc();
                        Admission::Degrade
                    }
                    OverflowPolicy::Shed => {
                        self.metrics.shed_total.inc();
                        Admission::Shed { inflight: current }
                    }
                };
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.metrics.learn_inflight.set((current + 1) as f64);
                    return Admission::Admitted(Permit {
                        controller: Arc::clone(self),
                    });
                }
                Err(observed) => current = observed,
            }
        }
    }
}

/// An admitted learn-path slot; dropping it releases the slot.
#[derive(Debug)]
pub(crate) struct Permit {
    controller: Arc<AdmissionController>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let before = self.controller.inflight.fetch_sub(1, Ordering::AcqRel);
        self.controller
            .metrics
            .learn_inflight
            .set(before.saturating_sub(1) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    fn controller(limit: u64, policy: OverflowPolicy) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(
            limit,
            policy,
            Arc::new(ServerMetrics::detached()),
        ))
    }

    #[test]
    fn admits_up_to_limit_then_degrades() {
        let c = controller(2, OverflowPolicy::Degrade);
        let p1 = match c.try_admit() {
            Admission::Admitted(p) => p,
            other => panic!("expected admit, got {other:?}"),
        };
        let _p2 = match c.try_admit() {
            Admission::Admitted(p) => p,
            other => panic!("expected admit, got {other:?}"),
        };
        assert!(matches!(c.try_admit(), Admission::Degrade));
        assert_eq!(c.inflight(), 2);
        drop(p1);
        assert_eq!(c.inflight(), 1);
        assert!(matches!(c.try_admit(), Admission::Admitted(_)));
    }

    #[test]
    fn shed_reports_observed_inflight() {
        let c = controller(1, OverflowPolicy::Shed);
        let _p = match c.try_admit() {
            Admission::Admitted(p) => p,
            other => panic!("expected admit, got {other:?}"),
        };
        match c.try_admit() {
            Admission::Shed { inflight } => assert_eq!(inflight, 1),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(c.metrics.shed_total.value(), 1);
    }

    /// With bound N and N+k concurrent attempts held at a barrier,
    /// exactly k are degraded — the CAS loop cannot overshoot.
    #[test]
    fn exactly_k_overflow_under_concurrency() {
        const N: u64 = 3;
        const K: u64 = 4;
        let c = controller(N, OverflowPolicy::Degrade);
        let start = Barrier::new((N + K) as usize);
        let release = Barrier::new((N + K) as usize);
        let admitted = thread::scope(|s| {
            let handles: Vec<_> = (0..(N + K))
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let outcome = c.try_admit();
                        let admitted = matches!(outcome, Admission::Admitted(_));
                        // Hold the permit (alive in `outcome`) until all
                        // attempts resolved, so no slot is recycled.
                        release.wait();
                        drop(outcome);
                        admitted
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .filter(|&admitted| admitted)
                .count() as u64
        });
        assert_eq!(admitted, N);
        // All permits dropped: the gauge and count must both read 0.
        assert_eq!(c.inflight(), 0);
        assert_eq!(c.metrics.degraded_total.value(), K);
    }
}
