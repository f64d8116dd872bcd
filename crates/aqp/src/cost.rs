//! Deterministic query cost model.
//!
//! The paper measures wall-clock on a 5-node EC2 Spark cluster with data
//! either cached in memory or read from SSD-backed HDFS (§8.1). Wall-clock
//! on arbitrary hardware is noisy and meaningless to compare, so the
//! reproduction *simulates* runtime: scanning a tuple costs a fixed number
//! of nanoseconds, multiplied by a storage-tier factor, plus a fixed
//! per-query overhead (parsing/planning — the paper notes this overhead
//! caps Verdict's relative speedup for cached data, §7). The simulated
//! runtimes drive the runtime-versus-error curves of Figure 4 and the
//! speedup table (Table 4); the *shape* of those plots depends only on
//! tuples-scanned ratios, which the model preserves.

/// Where the scanned data lives; chooses the per-tuple cost multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTier {
    /// Data resident in memory ("Cached" panels of Figure 4).
    Cached,
    /// Data read from SSD-backed storage ("Not Cached" panels).
    Ssd,
}

/// Deterministic cost model mapping scanned tuples to simulated time.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost of scanning one tuple from memory, in nanoseconds.
    pub ns_per_tuple_cached: f64,
    /// Multiplier applied when reading from SSD instead of memory.
    pub ssd_multiplier: f64,
    /// Fixed per-query overhead in nanoseconds (parsing, planning,
    /// scheduling) — the Spark overhead the paper discusses in §7/§8.3.
    pub fixed_overhead_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // ~1M tuples/sec effective rate for the cached tier — Spark's
            // effective per-tuple cost including scheduling and shuffles
            // (absolute value arbitrary; only ratios matter).
            ns_per_tuple_cached: 1_000.0,
            // SSD scans land ~25x slower than memory in the paper's setup
            // (e.g. Table 5: 2.08s cached vs 52.5s not cached).
            ssd_multiplier: 25.0,
            // Fixed engine overhead (query parsing/planning/setup). The
            // paper notes this overhead caps Verdict's relative speedup on
            // cached data (§7).
            fixed_overhead_ns: 10_000_000.0,
        }
    }
}

impl CostModel {
    /// Simulated nanoseconds to scan `tuples` rows from `tier`.
    pub fn scan_ns(&self, tuples: usize, tier: StorageTier) -> f64 {
        let per_tuple = match tier {
            StorageTier::Cached => self.ns_per_tuple_cached,
            StorageTier::Ssd => self.ns_per_tuple_cached * self.ssd_multiplier,
        };
        tuples as f64 * per_tuple
    }

    /// Simulated nanoseconds for one query that scans `tuples` rows.
    pub fn query_ns(&self, tuples: usize, tier: StorageTier) -> f64 {
        self.fixed_overhead_ns + self.scan_ns(tuples, tier)
    }

    /// Largest number of tuples scannable within `budget_ns` (after fixed
    /// overhead); used by the time-bound engine.
    pub fn tuples_within(&self, budget_ns: f64, tier: StorageTier) -> usize {
        let per_tuple = match tier {
            StorageTier::Cached => self.ns_per_tuple_cached,
            StorageTier::Ssd => self.ns_per_tuple_cached * self.ssd_multiplier,
        };
        let avail = budget_ns - self.fixed_overhead_ns;
        if avail <= 0.0 {
            return 0;
        }
        (avail / per_tuple).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_slower_than_cached() {
        let m = CostModel::default();
        assert!(m.scan_ns(1000, StorageTier::Ssd) > m.scan_ns(1000, StorageTier::Cached));
        assert_eq!(
            m.scan_ns(1000, StorageTier::Ssd),
            m.scan_ns(1000, StorageTier::Cached) * m.ssd_multiplier
        );
    }

    #[test]
    fn query_includes_fixed_overhead() {
        let m = CostModel::default();
        assert_eq!(m.query_ns(0, StorageTier::Cached), m.fixed_overhead_ns);
    }

    #[test]
    fn tuples_within_inverts_query_ns() {
        let m = CostModel::default();
        let budget = m.query_ns(12345, StorageTier::Cached);
        assert_eq!(m.tuples_within(budget, StorageTier::Cached), 12345);
    }

    #[test]
    fn tuples_within_zero_when_budget_below_overhead() {
        let m = CostModel::default();
        assert_eq!(m.tuples_within(1.0, StorageTier::Cached), 0);
    }
}
