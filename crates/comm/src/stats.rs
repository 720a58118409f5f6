//! Traffic recording.
//!
//! Every point-to-point message is recorded per sending and receiving rank.
//! The weak-scaling harness (Figure 1c) reads these counters to charge the
//! alpha–beta network model, and the truncation ablation reports them as the
//! communication-volume axis.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-rank message/byte counters, shared across all ranks of a world.
#[derive(Debug)]
pub struct TrafficStats {
    sent_messages: Vec<AtomicU64>,
    sent_bytes: Vec<AtomicU64>,
    recv_messages: Vec<AtomicU64>,
    recv_bytes: Vec<AtomicU64>,
}

impl TrafficStats {
    /// Fresh counters for a world of `size` ranks.
    pub fn new(size: usize) -> Self {
        let mk = || (0..size).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Self { sent_messages: mk(), sent_bytes: mk(), recv_messages: mk(), recv_bytes: mk() }
    }

    /// Number of ranks the counters cover.
    pub fn size(&self) -> usize {
        self.sent_messages.len()
    }

    pub(crate) fn record_send(&self, rank: usize, bytes: usize) {
        self.sent_messages[rank].fetch_add(1, Ordering::Relaxed);
        self.sent_bytes[rank].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recv(&self, rank: usize, bytes: usize) {
        self.recv_messages[rank].fetch_add(1, Ordering::Relaxed);
        self.recv_bytes[rank].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Messages sent by `rank`.
    pub fn sent_messages(&self, rank: usize) -> u64 {
        self.sent_messages[rank].load(Ordering::Relaxed)
    }

    /// Bytes sent by `rank`.
    pub fn sent_bytes(&self, rank: usize) -> u64 {
        self.sent_bytes[rank].load(Ordering::Relaxed)
    }

    /// Messages received by `rank`.
    pub fn recv_messages(&self, rank: usize) -> u64 {
        self.recv_messages[rank].load(Ordering::Relaxed)
    }

    /// Bytes received by `rank`.
    pub fn recv_bytes(&self, rank: usize) -> u64 {
        self.recv_bytes[rank].load(Ordering::Relaxed)
    }

    /// Total messages across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.sent_messages.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total bytes across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Reset all counters.
    pub fn reset(&self) {
        for v in [&self.sent_messages, &self.sent_bytes, &self.recv_messages, &self.recv_bytes] {
            for c in v {
                c.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = TrafficStats::new(2);
        s.record_send(0, 100);
        s.record_send(0, 50);
        s.record_recv(1, 150);
        assert_eq!(s.sent_messages(0), 2);
        assert_eq!(s.sent_bytes(0), 150);
        assert_eq!(s.recv_messages(1), 1);
        assert_eq!(s.recv_bytes(1), 150);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 150);
    }

    #[test]
    fn reset_clears() {
        let s = TrafficStats::new(1);
        s.record_send(0, 10);
        s.reset();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.recv_messages(0), 0);
    }
}
