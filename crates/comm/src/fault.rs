//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure function from `(rank, op index)` to a fault
//! decision, derived from a seed by counter-based hashing — no shared RNG
//! state, no dependence on thread scheduling. Wrapping any
//! [`Communicator`] in a [`FaultComm`] replays the plan bit-reproducibly:
//! two runs with the same plan delay the same sends and kill the same rank
//! at the same round, at any `PSVD_NUM_THREADS`, because the kernel worker
//! pool never touches the communicator and each rank's operation counter
//! advances in SPMD program order.
//!
//! Point-to-point delivery is reliable, as MPI's is; the plan injects only
//! the two faults that change what runs:
//!
//! - **Delay-reorder** (send-side): the message is held back and released
//!   after a later operation, exercising the receivers' out-of-order tag
//!   buffering. Values are unchanged.
//! - **Rank death** (fail-stop): from the start of collective round `k`,
//!   every operation on *every* rank returns [`CommError::RankDead`] naming
//!   the victim, as a lost rank brings an MPI communicator down. The world
//!   never changes size; recovery is a restart from checkpoints.

use std::cell::{Cell, RefCell};

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::payload::Payload;

/// A scheduled permanent rank failure.
#[derive(Clone, Copy, Debug)]
pub struct RankDeath {
    /// Victim rank.
    pub rank: usize,
    /// Collective round (1-based: the `k`-th collective any rank starts)
    /// at whose entry the rank dies.
    pub at_round: u64,
}

/// Counters of injected faults, per [`FaultComm`] instance (one rank).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Sends held back for reordering.
    pub delays: u64,
}

/// A seeded, deterministic fault schedule shared by every rank of a world.
///
/// Delay decisions are a pure function of `(seed, rank, op)` via
/// counter-based hashing, so a plan replays identically regardless of
/// thread interleaving; deaths are an explicit `(rank, round)` list.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    delay_prob: f64,
    delay_ops: u64,
    deaths: Vec<RankDeath>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed. Compose faults with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The seed — together with the builder parameters it fully identifies
    /// the schedule, so a failing run is reproduced by rebuilding the same
    /// plan (the `Debug` form prints every field).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sub-seed for an independent fault stream derived from a master
    /// seed — e.g. one schedule per `(tenant session, update round)` in a
    /// long-lived service. Pure counter-based mixing, so derived streams
    /// replay identically and stay uncorrelated across `stream`/`round`
    /// (`FaultPlan::new(derive_seed(s, a, b))` rebuilds any schedule from
    /// its three coordinates).
    pub fn derive_seed(seed: u64, stream: u64, round: u64) -> u64 {
        hash4(seed, stream, round, 0x5E55_10D0_5EED_0001)
    }

    /// Builder: probability that a send is delayed, released after
    /// `release_after_ops` further operations on the sender. A collective
    /// round or a receive releases everything pending regardless — a rank
    /// never blocks while holding undelivered messages.
    pub fn with_delay_prob(mut self, p: f64, release_after_ops: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay probability must be in [0,1]");
        self.delay_prob = p;
        self.delay_ops = release_after_ops;
        self
    }

    /// Builder: kill `rank` at the entry of collective round `at_round`
    /// (1-based).
    pub fn with_death(mut self, rank: usize, at_round: u64) -> Self {
        assert!(at_round >= 1, "rounds are 1-based; death at round 0 never fires");
        self.deaths.push(RankDeath { rank, at_round });
        self
    }

    /// The scheduled deaths.
    pub fn deaths(&self) -> &[RankDeath] {
        &self.deaths
    }

    /// Whether send `op` (the rank-local operation index) on `rank` is
    /// delayed.
    fn delays(&self, rank: usize, op: u64) -> bool {
        unit(hash4(self.seed, rank as u64, op, 0)) < self.delay_prob
    }
}

/// SplitMix64 over a 4-word counter: the standard stateless generator for
/// reproducible per-event decisions.
fn hash4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(d.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A send held back by a delay fault.
struct DelayedSend<C> {
    release_at_op: u64,
    deliver: Box<dyn FnOnce(&C)>,
}

/// A [`Communicator`] wrapper that replays a [`FaultPlan`] over any inner
/// transport.
///
/// Only `try_send`/`try_recv` are written here; the collectives and the
/// infallible names are the trait's. Delays change only the order in
/// which messages arrive, so every operation returns exactly what it would
/// on the inner transport; a rank death surfaces through the `try_*`
/// operations on every rank (the infallible names panic with it).
pub struct FaultComm<'a, C: Communicator> {
    inner: &'a C,
    plan: FaultPlan,
    /// The victim of the first death that fired. Set at the same
    /// collective round on every rank (the schedule is shared), after
    /// which every operation fails.
    dead: Cell<Option<usize>>,
    /// Rank-local operation counter (sends and receives).
    op: Cell<u64>,
    /// Collective rounds started (1-based after the first).
    round: Cell<u64>,
    delayed: RefCell<Vec<DelayedSend<C>>>,
    stats: RefCell<FaultStats>,
}

impl<'a, C: Communicator> FaultComm<'a, C> {
    /// Wrap `inner`, replaying `plan`.
    pub fn new(inner: &'a C, plan: FaultPlan) -> Self {
        let size = inner.size();
        for d in plan.deaths() {
            assert!(d.rank < size, "death schedule names rank {} of a {size}-rank world", d.rank);
        }
        Self {
            inner,
            plan,
            dead: Cell::new(None),
            op: Cell::new(0),
            round: Cell::new(0),
            delayed: RefCell::new(Vec::new()),
            stats: RefCell::new(FaultStats::default()),
        }
    }

    /// Injection counters for this rank.
    pub fn stats(&self) -> FaultStats {
        *self.stats.borrow()
    }

    /// Release every delayed message immediately.
    pub fn flush_delayed(&self) {
        let pending = std::mem::take(&mut *self.delayed.borrow_mut());
        for d in pending {
            (d.deliver)(self.inner);
        }
    }

    /// Release delayed messages whose hold has expired.
    fn flush_due(&self) {
        let now = self.op.get();
        // Drain in FIFO order among the due, preserving channel order.
        let mut pending = self.delayed.borrow_mut();
        if pending.iter().all(|d| d.release_at_op > now) {
            return;
        }
        let held = std::mem::take(&mut *pending);
        drop(pending);
        for d in held {
            if d.release_at_op <= now {
                (d.deliver)(self.inner);
            } else {
                self.delayed.borrow_mut().push(d);
            }
        }
    }

    /// Claim the next rank-local operation index.
    fn bump_op(&self) -> u64 {
        let o = self.op.get();
        self.op.set(o + 1);
        o
    }

    fn dead_guard(&self) -> Result<(), CommError> {
        match self.dead.get() {
            Some(rank) => Err(CommError::RankDead { rank }),
            None => Ok(()),
        }
    }
}

impl<C: Communicator> Drop for FaultComm<'_, C> {
    fn drop(&mut self) {
        // Never strand a delayed message: the inner channels outlive this
        // wrapper within the rank closure.
        self.flush_delayed();
    }
}

impl<C: Communicator> Communicator for FaultComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn try_send<T: Payload>(&self, value: T, dest: usize, tag: u64) -> Result<(), CommError> {
        self.dead_guard()?;
        self.flush_due();
        let op = self.bump_op();
        if !self.plan.delays(self.rank(), op) {
            return self.inner.try_send(value, dest, tag);
        }
        self.stats.borrow_mut().delays += 1;
        self.delayed.borrow_mut().push(DelayedSend {
            release_at_op: op + self.plan.delay_ops,
            deliver: Box::new(move |inner: &C| inner.send(value, dest, tag)),
        });
        Ok(())
    }

    fn try_recv<T: Payload>(&self, source: usize, tag: u64) -> Result<T, CommError> {
        self.dead_guard()?;
        // Release everything held before a potentially-blocking receive: a
        // rank must never wait on a peer while sitting on undelivered
        // messages that peer may itself be waiting for (deadlock).
        self.flush_delayed();
        self.bump_op();
        self.inner.try_recv(source, tag)
    }

    fn next_collective_tag(&self) -> u64 {
        // Collective rounds are global synchronization points in SPMD
        // order: release every delayed message (so no peer waits on one
        // this rank holds), then apply the round's scheduled deaths on
        // every rank alike.
        self.flush_delayed();
        let r = self.round.get() + 1;
        self.round.set(r);
        if self.dead.get().is_none() {
            let victim = self.plan.deaths().iter().filter(|d| d.at_round == r).map(|d| d.rank);
            self.dead.set(victim.min());
        }
        self.inner.next_collective_tag()
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn advance(&self, secs: f64) {
        self.inner.advance(secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread_comm::World;

    /// Every rank's value on every rank: a gather at 0, then a broadcast
    /// (two collective rounds).
    fn try_gather_bcast<C: Communicator>(c: &C, x: f64) -> Result<Vec<f64>, CommError> {
        let gathered = c.try_gather(x, 0)?;
        c.try_bcast(gathered, 0)
    }

    /// Elementwise sum over the world, summed at rank 0 in rank order and
    /// broadcast back.
    fn sum_everywhere<C: Communicator>(c: &C, x: Vec<f64>) -> Vec<f64> {
        let total = c.gather(x, 0).map(|parts| {
            let mut acc = vec![0.0; parts[0].len()];
            for part in parts {
                for (a, v) in acc.iter_mut().zip(part) {
                    *a += v;
                }
            }
            acc
        });
        c.bcast(total, 0)
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let w = World::new(3);
        let out = w.run(|c| {
            let fc = FaultComm::new(c, FaultPlan::new(1));
            let all = try_gather_bcast(&fc, fc.rank() as f64).unwrap();
            (all, fc.stats())
        });
        for (all, stats) in out {
            assert_eq!(all, vec![0.0, 1.0, 2.0]);
            assert_eq!(stats, FaultStats::default());
        }
    }

    #[test]
    fn plan_decisions_are_deterministic() {
        let plan = FaultPlan::new(42).with_delay_prob(0.3, 2);
        let never = FaultPlan::new(42);
        let always = FaultPlan::new(42).with_delay_prob(1.0, 2);
        let mut delayed = 0;
        for op in 0..64u64 {
            for rank in 0..4usize {
                assert_eq!(plan.delays(rank, op), plan.delays(rank, op));
                assert!(!never.delays(rank, op) && always.delays(rank, op));
                delayed += u32::from(plan.delays(rank, op));
            }
        }
        assert!((40..120).contains(&delayed), "{delayed} of 256 sends delayed at p = 0.3");
    }

    #[test]
    fn delayed_sends_reorder_but_preserve_values() {
        let w = World::new(2);
        let out = w.run(|c| {
            let fc = FaultComm::new(c, FaultPlan::new(3).with_delay_prob(1.0, 1));
            if fc.rank() == 0 {
                fc.send(10.0f64, 1, 1);
                fc.send(20.0f64, 1, 2);
                fc.flush_delayed();
                (0.0, fc.stats())
            } else {
                let b: f64 = fc.recv(0, 2);
                let a: f64 = fc.recv(0, 1);
                (a + 2.0 * b, fc.stats())
            }
        });
        assert_eq!(out[1].0, 50.0);
        assert!(out[0].1.delays > 0);
    }

    #[test]
    fn root_death_at_bcast_boundary_fails_every_rank() {
        // Rank 0 dies exactly at the second bcast's boundary: the whole
        // round fails with the same permanent error on every rank — no
        // rank panics or waits on the dead root.
        let plan = FaultPlan::new(21).with_death(0, 2);
        let w = World::new(3);
        let out = w.run(|c| {
            let fc = FaultComm::new(c, plan.clone());
            let supply = |v: f64| if fc.rank() == 0 { Some(v) } else { None };
            let first = fc.try_bcast(supply(7.0), 0);
            let second = fc.try_bcast(supply(9.0), 0);
            (first, second)
        });
        for (rank, (first, second)) in out.iter().enumerate() {
            assert_eq!(*first, Ok(7.0), "rank {rank}: pre-death bcast works");
            assert_eq!(
                *second,
                Err(CommError::RankDead { rank: 0 }),
                "rank {rank}: doomed round fails consistently"
            );
        }
    }

    /// One rank's outcome in [`death_sweep_case`]: rounds 1–2, rounds 3–4,
    /// whether a later send failed, and the world size it saw.
    type RankFate = (Result<Vec<f64>, CommError>, Result<Vec<f64>, CommError>, bool, usize);

    /// Two gather + broadcast pairs (collective rounds 1–4), then a
    /// point-to-point send, on a `size`-rank world under `plan`. The world
    /// runs on its own thread under a 10 s deadline, so a fault that fails
    /// only some ranks (leaving the others waiting on them) is an `Err`
    /// instead of a hang; a rank's panic disconnects the channel.
    fn death_sweep_case(
        size: usize,
        plan: FaultPlan,
    ) -> Result<Vec<RankFate>, std::sync::mpsc::RecvTimeoutError> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let out = World::new(size).run(|c| {
                let fc = FaultComm::new(c, plan.clone());
                let first = try_gather_bcast(&fc, fc.rank() as f64);
                let second = try_gather_bcast(&fc, fc.rank() as f64);
                let later = fc.try_send(1.0f64, (fc.rank() + 1) % size, 5);
                (first, second, later.is_err(), fc.size())
            });
            let _ = tx.send(out);
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
    }

    #[test]
    fn rank_death_stops_every_rank_from_its_round() {
        // Whatever the world size, victim, death round, and whether every
        // send is held back, the death fails its round and everything
        // after it on every rank, and `World::run` returns.
        for size in 2..=5usize {
            for (victim, at_round) in (0..size).flat_map(|v| (1..=4u64).map(move |r| (v, r))) {
                for delay_prob in [0.0, 1.0] {
                    let case = format!(
                        "size {size}, rank {victim} dies at round {at_round}, delay_prob {delay_prob}"
                    );
                    let plan = FaultPlan::new(13)
                        .with_delay_prob(delay_prob, 3)
                        .with_death(victim, at_round);
                    let out = match death_sweep_case(size, plan) {
                        Ok(out) => out,
                        Err(e) => panic!("{case}: World::run did not return ({e})"),
                    };
                    let dead = Err(CommError::RankDead { rank: victim });
                    let all = Ok((0..size).map(|r| r as f64).collect());
                    let want_first = if at_round <= 2 { &dead } else { &all };
                    for (rank, (first, second, later_failed, world)) in out.into_iter().enumerate()
                    {
                        assert_eq!(&first, want_first, "{case}: rank {rank}, rounds 1-2");
                        assert_eq!(second, dead, "{case}: rank {rank}, rounds 3-4");
                        assert!(later_failed, "{case}: rank {rank}, a later send");
                        assert_eq!(world, size, "{case}: the world never changes size");
                    }
                }
            }
        }
    }

    #[test]
    fn death_after_delayed_sends_fails_every_rank_without_hanging() {
        // Every send is held back: the root enters the death round still
        // holding its round-2 broadcast, which the other ranks are waiting
        // on. The round's tag claim must release it before failing, or they
        // would wait forever and `World::run` would never return.
        let plan = FaultPlan::new(23).with_delay_prob(1.0, 3).with_death(2, 3);
        let out = World::new(3).run(|c| {
            let fc = FaultComm::new(c, plan.clone());
            let all = try_gather_bcast(&fc, fc.rank() as f64);
            let third = fc.try_gather(fc.rank() as f64, 0).map(|_| ());
            (all, third, fc.stats().delays)
        });
        for (rank, (all, third, delays)) in out.into_iter().enumerate() {
            assert_eq!(all, Ok(vec![0.0, 1.0, 2.0]), "rank {rank}: rounds 1-2 precede the death");
            assert_eq!(third, Err(CommError::RankDead { rank: 2 }), "rank {rank}");
            assert!(delays > 0, "rank {rank}: the schedule must actually have delayed sends");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let plan = FaultPlan::new(99).with_delay_prob(0.5, 2);
        let run = || {
            let w = World::new(4);
            w.run(|c| {
                let fc = FaultComm::new(c, plan.clone());
                let mut acc = Vec::new();
                for _ in 0..5 {
                    acc = sum_everywhere(&fc, vec![fc.rank() as f64, acc.len() as f64]);
                }
                (acc, fc.stats())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan, same seed: the replay must be bitwise identical");
        assert!(a.iter().any(|(_, s)| s.delays > 0), "the schedule must actually have fired");
    }
}
