//! Server-wide counters and a lock-free query-latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Power-of-two (log2 nanosecond) latency histogram.
///
/// Recording is one relaxed atomic increment, so the query path stays
/// lock-free; quantiles resolve to the upper edge of the matched bucket
/// (2x resolution — load harnesses wanting exact percentiles measure
/// client-side and use this only as the server's own coarse telemetry).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().max(1) as u64;
        let bucket = (64 - ns.leading_zeros() as usize).min(63);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bucket edge at quantile `q` in [0, 1]; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Some(Duration::from_nanos(1u64 << i));
            }
        }
        Some(Duration::from_nanos(u64::MAX))
    }

    /// The 99th-percentile bucket edge.
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }
}

/// Monotonic server-wide counters (all relaxed atomics: cheap to bump
/// from any worker or client thread, read as a consistent-enough
/// [`StatsSnapshot`] for gates and dashboards).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Sessions opened.
    pub sessions_opened: AtomicU64,
    /// Sessions closed.
    pub sessions_closed: AtomicU64,
    /// Snapshots accepted into queues.
    pub snapshots_accepted: AtomicU64,
    /// Submits rejected by queue backpressure.
    pub snapshots_rejected: AtomicU64,
    /// Snapshots incorporated into committed rounds.
    pub snapshots_processed: AtomicU64,
    /// Committed update rounds.
    pub rounds: AtomicU64,
    /// Driver batch incorporations (one per `incorporate_data`-equivalent).
    pub updates: AtomicU64,
    /// Rounds replayed cleanly after a permanent injected fault.
    pub replays: AtomicU64,
    /// Queries answered.
    pub queries: AtomicU64,
    /// Sessions spilled to checkpoint blobs.
    pub evictions: AtomicU64,
    /// Sessions restored from checkpoint blobs.
    pub rehydrations: AtomicU64,
    /// Bytes spilled by evictions.
    pub evicted_bytes: AtomicU64,
    /// Wire messages across all session worlds.
    pub wire_messages: AtomicU64,
    /// Wire bytes across all session worlds.
    pub wire_bytes: AtomicU64,
    /// Delayed sends absorbed: held back, then delivered out of order.
    pub faults_absorbed: AtomicU64,
    /// Query latencies (coarse; see [`LatencyHistogram`]).
    pub query_latency: LatencyHistogram,
}

/// A plain-value copy of [`ServeStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub snapshots_accepted: u64,
    pub snapshots_rejected: u64,
    pub snapshots_processed: u64,
    pub rounds: u64,
    pub updates: u64,
    pub replays: u64,
    pub queries: u64,
    pub evictions: u64,
    pub rehydrations: u64,
    pub evicted_bytes: u64,
    pub wire_messages: u64,
    pub wire_bytes: u64,
    pub faults_absorbed: u64,
}

impl ServeStats {
    /// Read every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            sessions_opened: ld(&self.sessions_opened),
            sessions_closed: ld(&self.sessions_closed),
            snapshots_accepted: ld(&self.snapshots_accepted),
            snapshots_rejected: ld(&self.snapshots_rejected),
            snapshots_processed: ld(&self.snapshots_processed),
            rounds: ld(&self.rounds),
            updates: ld(&self.updates),
            replays: ld(&self.replays),
            queries: ld(&self.queries),
            evictions: ld(&self.evictions),
            rehydrations: ld(&self.rehydrations),
            evicted_bytes: ld(&self.evicted_bytes),
            wire_messages: ld(&self.wire_messages),
            wire_bytes: ld(&self.wire_bytes),
            faults_absorbed: ld(&self.faults_absorbed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered() {
        let h = LatencyHistogram::default();
        assert_eq!(h.p99(), None);
        for us in [1u64, 2, 4, 100, 1000] {
            for _ in 0..20 {
                h.record(Duration::from_micros(us));
            }
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= p99);
        assert!(p99 >= Duration::from_micros(1000), "p99 must reach the slow bucket");
        assert!(p50 <= Duration::from_micros(8), "p50 stays near the fast buckets");
    }

    #[test]
    fn snapshot_reads_counters() {
        let s = ServeStats::default();
        s.rounds.fetch_add(3, Ordering::Relaxed);
        s.queries.fetch_add(7, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.rounds, 3);
        assert_eq!(snap.queries, 7);
        assert_eq!(snap.replays, 0);
    }
}
