//! Order statistics and process measurements shared by every workload.

/// A latency sample set, sorted once.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The percentile that rank stands for, in `(0, 100]`.
    pub percentile: f64,
    /// Samples strictly above the chosen rank.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

/// At least this many samples must lie beyond a reported tail rank.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank quantile `q` in `(0, 1]`: the smallest sample with
    /// at least `q·n` samples at or below it. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(self.sorted[nearest_rank(q, n) - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The `target` quantile, lowered until at least [`MIN_BEYOND`]
    /// samples lie beyond it: the highest percentile the sample size
    /// supports. `None` when fewer than `MIN_BEYOND + 1` samples exist.
    pub fn tail(&self, target: f64) -> Option<Tail> {
        let n = self.sorted.len();
        if n <= MIN_BEYOND {
            return None;
        }
        let rank = nearest_rank(target, n).min(n - MIN_BEYOND);
        Some(Tail {
            value: self.sorted[rank - 1],
            percentile: 100.0 * rank as f64 / n as f64,
            beyond: n - rank,
            n,
        })
    }
}

/// `ceil(q·n)` clamped to `1..=n`; the epsilon keeps `0.99 · 1000` from
/// rounding up to 991.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an unsorted slice (nearest rank); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(f64::NAN)
}

/// The queue-and-reply cost of a served request: the median round trip
/// through the server minus the median of the same request made through
/// the calls a worker makes, on identical state.
pub fn handoff(roundtrip: &[f64], direct: &[f64]) -> f64 {
    median(roundtrip) - median(direct)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let kib = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kib)
    })
}

/// This process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(ramp(5).median(), Some(3.0));
        assert_eq!(ramp(4).median(), Some(2.0));
        assert_eq!(Samples::new(Vec::new()).median(), None);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_p99_when_the_sample_supports_it() {
        let t = ramp(2000).tail(0.99).unwrap();
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.n, 2000);
        // Exactly ten beyond p99.
        let t = ramp(1000).tail(0.99).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (990.0, 10, 99.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 500 samples: p99 would leave 5 beyond, so rank 490 (p98) is used.
        let t = ramp(500).tail(0.99).unwrap();
        assert_eq!(t.value, 490.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 98.0);
        // 11 samples: only the lowest rank leaves ten beyond.
        let t = ramp(11).tail(0.99).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        assert!(ramp(10).tail(0.99).is_none());
    }

    #[test]
    fn handoff_is_median_roundtrip_minus_median_direct() {
        let roundtrip = [50.0, 40.0, 45.0, 1000.0, 42.0];
        let direct = [20.0, 21.0, 19.0, 22.0, 500.0];
        assert_eq!(handoff(&roundtrip, &direct), 45.0 - 21.0);
        // Medians, not means: one outlier on either side moves nothing.
        assert_eq!(handoff(&[10.0, 10.0, 9e9], &[4.0, 4.0, 9e9]), 6.0);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
