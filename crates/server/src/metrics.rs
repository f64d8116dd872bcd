//! The server's `verdict_server_*` metric series.
//!
//! All handles come from one [`MetricsHub`] — the database's own hub
//! when it has one (so one snapshot shows engine and server series side
//! by side), else a private hub owned by the server. Handles are cloned
//! `Arc`s: recording is lock-free and never blocks a connection.

use std::sync::Arc;

use verdict_obs::{Counter, Gauge, Histogram, MetricsHub};

/// Cloneable bundle of every server metric handle.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    hub: Arc<MetricsHub>,
    /// Connections ever accepted (post-preamble).
    pub connections_total: Counter,
    /// Connections currently open.
    pub connections_active: Gauge,
    /// Connections refused at the preamble (foreign magic / another
    /// version).
    pub refused_total: Counter,
    /// Connections dropped on a torn or corrupt frame.
    pub frame_errors_total: Counter,
    /// Requests decoded and dispatched.
    pub requests_total: Counter,
    /// Learn-path requests currently admitted (the admission
    /// controller's own count, mirrored).
    pub learn_inflight: Gauge,
    /// Learn-path requests degraded to `no_learn` by admission control.
    pub degraded_total: Counter,
    /// Learn-path requests refused with `Overloaded`.
    pub shed_total: Counter,
    /// Answers served from the answer cache.
    pub cache_hits_total: Counter,
    /// Answers that had to run (including uncacheable ones).
    pub cache_misses_total: Counter,
    /// Answer-cache entries evicted by LRU pressure.
    pub cache_evictions_total: Counter,
    /// Per-request wall-clock, nanoseconds (decode → response written).
    pub request_ns: Histogram,
    /// Service slices whose bounded poll caught the peer's next bytes.
    pub spin_caught_total: Counter,
    /// Service slices whose poll ran out and parked in a blocking read.
    pub spin_parked_total: Counter,
}

impl ServerMetrics {
    /// Binds every series on `hub`.
    pub(crate) fn on_hub(hub: Arc<MetricsHub>) -> ServerMetrics {
        ServerMetrics {
            connections_total: hub.counter("verdict_server_connections_total"),
            connections_active: hub.gauge("verdict_server_connections_active"),
            refused_total: hub.counter("verdict_server_refused_total"),
            frame_errors_total: hub.counter("verdict_server_frame_errors_total"),
            requests_total: hub.counter("verdict_server_requests_total"),
            learn_inflight: hub.gauge("verdict_server_learn_inflight"),
            degraded_total: hub.counter("verdict_server_degraded_total"),
            shed_total: hub.counter("verdict_server_shed_total"),
            cache_hits_total: hub.counter("verdict_server_cache_hits_total"),
            cache_misses_total: hub.counter("verdict_server_cache_misses_total"),
            cache_evictions_total: hub.counter("verdict_server_cache_evictions_total"),
            request_ns: hub.histogram("verdict_server_request_ns"),
            spin_caught_total: hub.counter("verdict_server_spin_caught_total"),
            spin_parked_total: hub.counter("verdict_server_spin_parked_total"),
            hub,
        }
    }

    /// A bundle on a fresh private hub.
    #[cfg(test)]
    pub(crate) fn detached() -> ServerMetrics {
        ServerMetrics::on_hub(Arc::new(MetricsHub::new()))
    }

    /// The hub the series live on.
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_land_on_the_bound_hub() {
        let m = ServerMetrics::detached();
        m.connections_total.inc();
        m.cache_hits_total.add(3);
        m.learn_inflight.set(2.0);
        m.request_ns.record(1_000);
        let snap = m.hub().snapshot();
        assert_eq!(
            snap.counter("verdict_server_connections_total", None),
            Some(1)
        );
        assert_eq!(
            snap.counter("verdict_server_cache_hits_total", None),
            Some(3)
        );
        assert_eq!(snap.gauge("verdict_server_learn_inflight", None), Some(2.0));
        let json = snap.to_json();
        assert!(json.contains("verdict_server_request_ns"));
    }
}
