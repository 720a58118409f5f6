//! Multi-rank in-process world: one OS thread per rank, crossbeam channels
//! as the fabric, per-message traffic recording, and optional simulated
//! clocks driven by a [`NetworkModel`].

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::communicator::{Communicator, COLLECTIVE_TAG_BASE};
use crate::error::CommError;
use crate::model::NetworkModel;
use crate::payload::Payload;
use crate::stats::TrafficStats;

struct Envelope {
    src: usize,
    tag: u64,
    bytes: usize,
    /// Sender's simulated clock at departure.
    depart: f64,
    payload: Box<dyn Any + Send>,
}

/// The per-rank endpoint of a [`World`]: owns its single inbox and a shared
/// table of senders toward every peer. Not `Sync` — each rank thread owns
/// exactly one.
///
/// The fabric is one MPMC inbox channel per rank (envelopes carry their
/// source), not a `P x P` channel matrix: worlds of thousands of simulated
/// ranks — the regime the merge-tree weak-scaling sweep probes — cost
/// `O(P)` channels and `O(P)` sender handles total instead of `O(P^2)`.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    /// senders[dst]: channel into rank `dst`'s inbox, shared by all ranks.
    senders: Arc<Vec<Sender<Envelope>>>,
    /// Our inbox for messages from every peer.
    inbox: Receiver<Envelope>,
    /// Buffered envelopes whose `(source, tag)` nobody has asked for yet.
    pending: RefCell<VecDeque<Envelope>>,
    stats: Arc<TrafficStats>,
    model: Option<NetworkModel>,
    clock: Cell<f64>,
    coll_seq: Cell<u64>,
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn try_send<T: Payload>(&self, value: T, dest: usize, tag: u64) -> Result<(), CommError> {
        assert!(dest < self.size, "send: destination {dest} out of range");
        let bytes = value.byte_len();
        self.stats.record_send(self.rank, bytes);
        if let Some(m) = &self.model {
            // Sender CPU overhead per message.
            self.clock.set(self.clock.get() + m.overhead);
        }
        let env = Envelope {
            src: self.rank,
            tag,
            bytes,
            depart: self.clock.get(),
            payload: Box::new(value),
        };
        self.senders[dest].send(env).expect("send: peer world torn down");
        Ok(())
    }

    fn try_recv<T: Payload>(&self, source: usize, tag: u64) -> Result<T, CommError> {
        assert!(source < self.size, "recv: source {source} out of range");
        let env = self.wait_for(source, tag);
        self.stats.record_recv(self.rank, env.bytes);
        if let Some(m) = &self.model {
            let arrival = env.depart + m.transit_time(env.bytes);
            // Receiver waits for arrival, then pays per-message CPU overhead.
            self.clock.set(self.clock.get().max(arrival) + m.overhead);
        }
        Ok(*env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("recv: payload type mismatch from rank {source} tag {tag} at rank {}", self.rank)
        }))
    }

    fn next_collective_tag(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        COLLECTIVE_TAG_BASE + s
    }

    fn now(&self) -> f64 {
        self.clock.get()
    }

    fn advance(&self, secs: f64) {
        debug_assert!(secs >= 0.0, "advance: negative time");
        self.clock.set(self.clock.get() + secs);
    }
}

impl ThreadComm {
    fn wait_for(&self, source: usize, tag: u64) -> Envelope {
        // First drain anything already buffered for this (source, tag).
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|e| e.src == source && e.tag == tag) {
                return pending.remove(pos).expect("position was valid");
            }
        }
        loop {
            let env = self
                .inbox
                .recv()
                .unwrap_or_else(|_| panic!("recv: world torn down under rank {}", self.rank));
            if env.src == source && env.tag == tag {
                return env;
            }
            self.pending.borrow_mut().push_back(env);
        }
    }
}

/// A fixed-size world from which rank closures are spawned.
pub struct World {
    size: usize,
    stats: Arc<TrafficStats>,
    model: Option<NetworkModel>,
}

impl World {
    /// A world of `size` ranks without a network model (clocks stay at 0).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world must have at least one rank");
        Self { size, stats: Arc::new(TrafficStats::new(size)), model: None }
    }

    /// A world of `size` ranks whose simulated clocks follow `model`.
    pub fn with_model(size: usize, model: NetworkModel) -> Self {
        assert!(size > 0, "world must have at least one rank");
        Self { size, stats: Arc::new(TrafficStats::new(size)), model: Some(model) }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Traffic counters, valid after (and during) `run`.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Run the SPMD closure on every rank, returning results in rank order.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&ThreadComm) -> R + Sync,
        R: Send,
    {
        self.run_with_clocks(f).0
    }

    /// As [`World::run`], additionally returning each rank's final simulated
    /// clock (seconds). The weak-scaling harness reports `max(clocks)`.
    pub fn run_with_clocks<F, R>(&self, f: F) -> (Vec<R>, Vec<f64>)
    where
        F: Fn(&ThreadComm) -> R + Sync,
        R: Send,
    {
        let size = self.size;
        // One inbox per rank; every rank shares the sender table. Envelopes
        // carry their source, so the matching logic is unchanged while the
        // fabric stays O(P) — thousand-rank simulated worlds are cheap.
        let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(size);
        let mut inboxes: Vec<Receiver<Envelope>> = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            inboxes.push(rx);
        }
        let senders = Arc::new(senders);

        let mut comms: Vec<ThreadComm> = Vec::with_capacity(size);
        for (rank, inbox) in inboxes.into_iter().enumerate() {
            comms.push(ThreadComm {
                rank,
                size,
                senders: Arc::clone(&senders),
                inbox,
                pending: RefCell::new(VecDeque::new()),
                stats: Arc::clone(&self.stats),
                model: self.model,
                clock: Cell::new(0.0),
                coll_seq: Cell::new(0),
            });
        }
        drop(senders);

        let f = &f;
        // Tell the linalg worker pool how many rank threads are live so its
        // automatic thread count shares the machine instead of
        // oversubscribing (each rank gets ~available_parallelism / size
        // GEMM threads). This is a best-effort global heuristic: worlds
        // running concurrently overwrite each other's registration, which
        // only shifts the performance split, never results.
        psvd_linalg::par::set_comm_ranks(size);
        // Large simulated worlds spawn thousands of mostly-blocked threads;
        // a trimmed stack keeps the reservation footprint proportional to
        // the world size instead of the default 8 MB per thread. 2 MB is
        // still generous for the rank closures (deep recursion lives in the
        // linalg pool, not here).
        let stack = if size > 64 { 512 * 1024 } else { 2 * 1024 * 1024 };
        let mut out: Vec<Option<(R, f64)>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    std::thread::Builder::new()
                        .stack_size(stack)
                        .spawn_scoped(scope, move || {
                            let r = f(&comm);
                            (r, comm.now())
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            for (slot, h) in out.iter_mut().zip(handles) {
                *slot = Some(h.join().expect("rank thread panicked"));
            }
        });
        psvd_linalg::par::set_comm_ranks(1);
        let (results, clocks): (Vec<R>, Vec<f64>) =
            out.into_iter().map(|s| s.expect("rank result missing")).unzip();
        (results, clocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_have_identity() {
        let w = World::new(4);
        let ids = w.run(|c| (c.rank(), c.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        let w = World::new(3);
        let sums = w.run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(c.rank() as f64, next, 1);
            let from_prev: f64 = c.recv(prev, 1);
            from_prev
        });
        assert_eq!(sums, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn out_of_order_tags_buffered() {
        let w = World::new(2);
        let got = w.run(|c| {
            if c.rank() == 0 {
                c.send(1.0f64, 1, 10);
                c.send(2.0f64, 1, 20);
                Vec::new()
            } else {
                // Receive in reverse tag order.
                let b: f64 = c.recv(0, 20);
                let a: f64 = c.recv(0, 10);
                vec![a, b]
            }
        });
        assert_eq!(got[1], vec![1.0, 2.0]);
    }

    #[test]
    fn gather_orders_by_rank() {
        let w = World::new(4);
        let out = w.run(|c| c.gather(c.rank() as f64 * 10.0, 0));
        assert_eq!(out[0], Some(vec![0.0, 10.0, 20.0, 30.0]));
        assert!(out[1..].iter().all(Option::is_none));
    }

    #[test]
    fn gather_at_nonzero_root() {
        let w = World::new(3);
        let out = w.run(|c| c.gather(c.rank(), 2));
        assert_eq!(out[2], Some(vec![0, 1, 2]));
        assert!(out[0].is_none() && out[1].is_none());
    }

    #[test]
    fn bcast_from_root() {
        let w = World::new(4);
        let out = w.run(|c| {
            let v = if c.rank() == 1 { Some(vec![3.0, 4.0]) } else { None };
            c.bcast(v, 1)
        });
        for v in out {
            assert_eq!(v, vec![3.0, 4.0]);
        }
    }

    #[test]
    fn stats_count_messages() {
        let w = World::new(2);
        w.run(|c| {
            if c.rank() == 0 {
                c.send(vec![0.0f64; 100], 1, 1);
            } else {
                let _: Vec<f64> = c.recv(0, 1);
            }
        });
        assert_eq!(w.stats().sent_messages(0), 1);
        assert_eq!(w.stats().sent_bytes(0), 800);
        assert_eq!(w.stats().recv_bytes(1), 800);
        assert_eq!(w.stats().total_messages(), 1);
    }

    #[test]
    fn simulated_clock_charges_transit() {
        let model = NetworkModel { latency: 1e-3, bandwidth: 1e6, overhead: 0.0 };
        let w = World::with_model(2, model);
        let (_, clocks) = w.run_with_clocks(|c| {
            if c.rank() == 0 {
                c.send(vec![0.0f64; 125], 1, 1); // 1000 bytes -> 1 ms transit
            } else {
                let _: Vec<f64> = c.recv(0, 1);
            }
        });
        // Receiver clock = latency + bytes/bw = 1 ms + 1 ms = 2 ms.
        assert!((clocks[1] - 2e-3).abs() < 1e-12, "clock {}", clocks[1]);
        assert_eq!(clocks[0], 0.0);
    }

    #[test]
    fn overhead_charges_rank0_gather_bottleneck() {
        let model = NetworkModel { latency: 0.0, bandwidth: f64::INFINITY, overhead: 1e-6 };
        let size = 8;
        let w = World::with_model(size, model);
        let (_, clocks) = w.run_with_clocks(|c| {
            c.gather(0.0f64, 0);
        });
        // Root pays (size-1) per-message receive overheads on top of the
        // first sender's departure overhead (arrival = 1 us): size total.
        assert!((clocks[0] - size as f64 * 1e-6).abs() < 1e-15, "root {}", clocks[0]);
    }

    #[test]
    fn matrix_payload_roundtrip() {
        use psvd_linalg::Matrix;
        let w = World::new(2);
        let out = w.run(|c| {
            if c.rank() == 0 {
                c.send(Matrix::from_fn(3, 2, |i, j| (i + j) as f64), 1, 5);
                Matrix::zeros(0, 0)
            } else {
                c.recv::<Matrix>(0, 5)
            }
        });
        assert_eq!(out[1], Matrix::from_fn(3, 2, |i, j| (i + j) as f64));
    }

    #[test]
    fn large_world_smoke() {
        let w = World::new(16);
        let out = w.run(|c| {
            let total = c.gather(1.0f64, 0).map(|all| all.iter().sum::<f64>());
            c.bcast(total, 0)
        });
        assert_eq!(out, vec![16.0; 16]);
    }
}
