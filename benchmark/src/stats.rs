//! Small statistics and host helpers: percentiles, quartiles, peak RSS,
//! host metadata.

/// The `q`-quantile (`0 < q <= 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `samples` ascending (NaN-free inputs) and returns it.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    samples
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile of `samples`, computed the
/// way Python's `statistics.quantiles(values, n=4)` (exclusive method)
/// does, so `--repeat` prints the same spread the acceptance rule uses.
/// Fewer than two samples yield the single value three times.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(1), at(2), at(3))
}

/// Parses `VmHWM` (peak resident set, in kB) out of a
/// `/proc/<pid>/status` rendering; `None` if the field is missing.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// This process's peak resident set in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Host facts recorded beside every result.
#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
}

/// Cores this process may run on (1 if the host cannot say).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn host() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Host {
        cores: cores(),
        cpu_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s[..1], 0.95), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbenchmark\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() >= 0.0);
    }
}
