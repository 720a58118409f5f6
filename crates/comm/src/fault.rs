//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure function from `(rank, op index, attempt)` to a
//! fault decision, derived from a seed by counter-based hashing — no shared
//! RNG state, no dependence on thread scheduling. Wrapping any
//! [`Communicator`] in a [`FaultComm`] replays the plan bit-reproducibly:
//! two runs with the same plan perform exactly the same drops, delays,
//! corruptions and rank deaths, at any `PSVD_NUM_THREADS`, because the
//! kernel worker pool never touches the communicator and each rank's
//! operation counter advances in SPMD program order.
//!
//! Fault model:
//!
//! - **Drop** (send-side, transient): the payload is lost before it reaches
//!   the fabric. Recovery re-sends an identical copy.
//! - **Delay-reorder** (send-side, benign): the message is held back and
//!   released after a later operation, exercising the receivers'
//!   out-of-order tag buffering. Values are unchanged.
//! - **Truncation / corruption** (receive-side, transient): the wire copy
//!   fails validation and is discarded; the modeled retransmission delivers
//!   the sender's intact payload. No extra payload allocation is charged —
//!   the wrapper keeps the one delivered copy.
//! - **Rank death** (permanent, fail-stop): from the start of collective
//!   round `k`, every operation on *every* rank returns
//!   [`CommError::RankDead`] naming the victim, as a lost rank brings an
//!   MPI communicator down. The world never changes size; recovery is a
//!   restart from checkpoints.
//!
//! Transient faults are absorbed inside [`FaultComm`] by up to
//! [`MAX_ATTEMPTS`] attempts with exponential backoff; the backoff is
//! charged to the *simulated* clock ([`Communicator::advance`]), never
//! slept, so replays stay deterministic and fast. Only permanent failures
//! surface through the `try_*` operations.

use std::cell::{Cell, RefCell};

use crate::communicator::Communicator;
use crate::error::{CommError, CorruptionKind};
use crate::payload::Payload;

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Lose a sent payload (transient; send-side).
    Drop,
    /// Hold a sent message back until `release_after_ops` further
    /// operations have run on the sender (reorder; send-side).
    Delay {
        /// Operations after which the message is released. A collective
        /// round or a receive releases everything pending regardless — a
        /// rank never blocks while holding undelivered messages.
        release_after_ops: u64,
    },
    /// Deliver a short payload that fails length validation (transient;
    /// receive-side).
    Truncate,
    /// Deliver a bit-flipped payload that fails checksum validation
    /// (transient; receive-side).
    Corrupt,
}

impl FaultKind {
    fn applies_to_send(self) -> bool {
        matches!(self, FaultKind::Drop | FaultKind::Delay { .. })
    }
}

/// An explicit per-operation fault table entry.
#[derive(Clone, Copy, Debug)]
pub struct FaultEntry {
    /// Victim rank.
    pub rank: usize,
    /// The rank-local operation index (0-based; sends and receives share
    /// one counter per rank).
    pub op: u64,
    /// What to inject.
    pub kind: FaultKind,
    /// How many leading attempts of the operation fault before it is let
    /// through. `u32::MAX` makes the fault persistent (exhausts the
    /// [`MAX_ATTEMPTS`] budget).
    pub attempts: u32,
}

/// A scheduled permanent rank failure.
#[derive(Clone, Copy, Debug)]
pub struct RankDeath {
    /// Victim rank.
    pub rank: usize,
    /// Collective round (1-based: the `k`-th collective any rank starts)
    /// at whose entry the rank dies.
    pub at_round: u64,
}

/// Attempts per logical operation (first try included) before a transient
/// fault surfaces as [`CommError::RetriesExhausted`].
pub const MAX_ATTEMPTS: u32 = 4;

/// Simulated seconds to back off before retry number `attempt` (1-based):
/// 1 µs, doubling. Charged to the communicator's simulated clock
/// ([`Communicator::advance`]), never slept.
fn backoff(attempt: u32) -> f64 {
    1e-6 * 2f64.powi(attempt.saturating_sub(1) as i32)
}

/// Counters of injected faults and recoveries, per [`FaultComm`] instance
/// (one rank).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Sends whose payload was dropped at least once.
    pub drops: u64,
    /// Sends held back for reordering.
    pub delays: u64,
    /// Receives that saw a truncated payload.
    pub truncations: u64,
    /// Receives that saw a bit-flipped payload.
    pub corruptions: u64,
    /// Retry attempts performed (all transient kinds).
    pub retries: u64,
    /// Simulated seconds spent backing off.
    pub backoff_secs: f64,
}

/// Which side of a point-to-point operation a fault decision is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Send,
    Recv,
}

/// A seeded, deterministic fault schedule shared by every rank of a world.
///
/// Fault decisions are a pure function of `(seed, rank, op, attempt)`
/// via counter-based hashing, so a plan replays identically regardless of
/// thread interleaving. Probabilistic faults hit only the first
/// `faulty_attempts` attempts of an operation (default 1), so with fewer
/// than [`MAX_ATTEMPTS`] faulty attempts every operation recovers; explicit
/// [`FaultEntry`] rows override the probabilistic layer per operation.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    delay_prob: f64,
    delay_ops: u64,
    corrupt_prob: f64,
    faulty_attempts: u32,
    entries: Vec<FaultEntry>,
    deaths: Vec<RankDeath>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed. Compose faults with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self { seed, faulty_attempts: 1, ..Self::default() }
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

    /// A fault-free plan on the `(stream, round)` sub-seed of this plan's
    /// seed; compose faults with the `with_*` builders as usual.
    pub fn derive(&self, stream: u64, round: u64) -> FaultPlan {
        FaultPlan::new(Self::derive_seed(self.seed, stream, round))
    }

    /// Builder: probability that a send's payload is dropped.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1]");
        self.drop_prob = p;
        self
    }

    /// Builder: probability that a send is delayed, released after
    /// `release_after_ops` further operations.
    pub fn with_delay_prob(mut self, p: f64, release_after_ops: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay probability must be in [0,1]");
        self.delay_prob = p;
        self.delay_ops = release_after_ops;
        self
    }

    /// Builder: probability that a receive sees a mangled payload (split
    /// evenly between truncation and bit-flip by a hash bit).
    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corrupt probability must be in [0,1]");
        self.corrupt_prob = p;
        self
    }

    /// Builder: how many leading attempts of each operation the
    /// probabilistic faults hit (default 1 — one transient fault, then the
    /// retry goes through).
    pub fn with_faulty_attempts(mut self, n: u32) -> Self {
        self.faulty_attempts = n;
        self
    }

    /// Builder: add an explicit per-operation fault.
    pub fn with_entry(mut self, entry: FaultEntry) -> Self {
        self.entries.push(entry);
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

    /// The fault decision for attempt `attempt` (0-based) of operation
    /// `op` on `rank`.
    fn fault_for(&self, rank: usize, op: u64, attempt: u32, class: OpClass) -> Option<FaultKind> {
        // Explicit table rows override the probabilistic layer entirely.
        for e in &self.entries {
            if e.rank == rank && e.op == op && e.kind.applies_to_send() == (class == OpClass::Send)
            {
                return (attempt < e.attempts).then_some(e.kind);
            }
        }
        if attempt >= self.faulty_attempts {
            return None;
        }
        let h = hash4(self.seed, rank as u64, op, (attempt as u64) << 1 | class as u64);
        let u = unit(h);
        match class {
            OpClass::Send => {
                if u < self.drop_prob {
                    Some(FaultKind::Drop)
                } else if u < self.drop_prob + self.delay_prob {
                    Some(FaultKind::Delay { release_after_ops: self.delay_ops })
                } else {
                    None
                }
            }
            OpClass::Recv => (u < self.corrupt_prob).then(|| {
                // An independent hash bit picks the corruption flavor.
                if hash4(self.seed ^ 0x9E37_79B9, rank as u64, op, attempt as u64) & 1 == 0 {
                    FaultKind::Truncate
                } else {
                    FaultKind::Corrupt
                }
            }),
        }
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
/// infallible names are the trait's. Transient faults (drops, delays,
/// corruptions) are retried internally up to [`MAX_ATTEMPTS`] times, so
/// every operation behaves exactly as on the reliable transport —
/// bit-identically, since retries re-deliver the original payloads.
/// Permanent failures (rank death, retry exhaustion) surface through the
/// `try_*` operations (the infallible names panic with them).
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

    /// Injection/recovery counters for this rank.
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

    /// Charge one backoff interval to the simulated clock.
    fn back_off(&self, attempt: u32) {
        let b = backoff(attempt);
        let mut stats = self.stats.borrow_mut();
        stats.retries += 1;
        stats.backoff_secs += b;
        drop(stats);
        self.inner.advance(b);
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
        let mut attempt = 0u32;
        loop {
            match self.plan.fault_for(self.rank(), op, attempt, OpClass::Send) {
                None => return self.inner.try_send(value, dest, tag),
                Some(FaultKind::Delay { release_after_ops }) => {
                    self.stats.borrow_mut().delays += 1;
                    self.delayed.borrow_mut().push(DelayedSend {
                        release_at_op: op + release_after_ops,
                        deliver: Box::new(move |inner: &C| inner.send(value, dest, tag)),
                    });
                    return Ok(());
                }
                Some(FaultKind::Drop) => {
                    self.stats.borrow_mut().drops += 1;
                    attempt += 1;
                    if attempt >= MAX_ATTEMPTS {
                        return Err(CommError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(CommError::Dropped { dest, tag }),
                        });
                    }
                    self.back_off(attempt);
                }
                Some(k) => unreachable!("receive-side fault {k:?} scheduled for a send"),
            }
        }
    }

    fn try_recv<T: Payload>(&self, source: usize, tag: u64) -> Result<T, CommError> {
        self.dead_guard()?;
        // Release everything held before a potentially-blocking receive: a
        // rank must never wait on a peer while sitting on undelivered
        // messages that peer may itself be waiting for (deadlock).
        self.flush_delayed();
        let op = self.bump_op();
        let mut attempt = 0u32;
        // The intact wire copy: pulled off the channel once; a validation
        // failure discards only the modeled mangled view, so the retry
        // ("retransmission") re-delivers this copy without new allocation.
        let mut delivered: Option<T> = None;
        loop {
            match self.plan.fault_for(self.rank(), op, attempt, OpClass::Recv) {
                None => {
                    return match delivered.take() {
                        Some(v) => Ok(v),
                        None => self.inner.try_recv(source, tag),
                    }
                }
                Some(kind @ (FaultKind::Truncate | FaultKind::Corrupt)) => {
                    if delivered.is_none() {
                        delivered = Some(self.inner.try_recv(source, tag)?);
                    }
                    let expected = delivered.as_ref().map_or(0, Payload::byte_len);
                    let (ckind, got) = match kind {
                        FaultKind::Truncate => {
                            self.stats.borrow_mut().truncations += 1;
                            (CorruptionKind::Truncated, expected.saturating_sub(8))
                        }
                        _ => {
                            self.stats.borrow_mut().corruptions += 1;
                            (CorruptionKind::BitFlip, expected)
                        }
                    };
                    attempt += 1;
                    if attempt >= MAX_ATTEMPTS {
                        return Err(CommError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(CommError::Corrupted {
                                source,
                                tag,
                                kind: ckind,
                                expected_bytes: expected,
                                got_bytes: got,
                            }),
                        });
                    }
                    self.back_off(attempt);
                }
                Some(k) => unreachable!("send-side fault {k:?} scheduled for a receive"),
            }
        }
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

    fn record_payload_alloc(&self, bytes: usize) {
        self.inner.record_payload_alloc(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::SelfComm;
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
        let plan = FaultPlan::new(42).with_drop_prob(0.3).with_corrupt_prob(0.2);
        for op in 0..64u64 {
            for rank in 0..4usize {
                for class in [OpClass::Send, OpClass::Recv] {
                    let a = plan.fault_for(rank, op, 0, class);
                    let b = plan.fault_for(rank, op, 0, class);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn probabilistic_faults_respect_attempt_budget() {
        let plan = FaultPlan::new(7).with_drop_prob(1.0);
        // Attempt 0 always faults, attempt 1 never (faulty_attempts = 1).
        assert_eq!(plan.fault_for(0, 0, 0, OpClass::Send), Some(FaultKind::Drop));
        assert_eq!(plan.fault_for(0, 0, 1, OpClass::Send), None);
    }

    #[test]
    fn dropped_sends_recover_bitwise() {
        let run = |plan: FaultPlan| {
            let w = World::new(4);
            let out = w.run(|c| {
                let fc = FaultComm::new(c, plan.clone());
                let g = fc.gather(vec![fc.rank() as f64 + 0.25; 8], 0);
                let b = fc.bcast(g, 0);
                (b, fc.stats())
            });
            out
        };
        let clean = run(FaultPlan::new(5));
        let faulty = run(FaultPlan::new(5).with_drop_prob(1.0));
        for ((cv, cs), (fv, fs)) in clean.iter().zip(&faulty) {
            assert_eq!(cv, fv, "retried payloads must be identical");
            assert_eq!(cs.drops, 0);
            assert!(fs.drops > 0 || fs.retries == 0);
        }
        // Someone dropped and retried.
        assert!(faulty.iter().any(|(_, s)| s.drops > 0 && s.retries > 0));
    }

    #[test]
    fn corrupted_receives_recover_bitwise() {
        let run = |p: f64| {
            let w = World::new(3);
            w.run(|c| {
                let fc = FaultComm::new(c, FaultPlan::new(11).with_corrupt_prob(p));
                let s = sum_everywhere(&fc, vec![fc.rank() as f64, 1.0]);
                (s, fc.stats())
            })
        };
        let clean = run(0.0);
        let faulty = run(1.0);
        for ((cv, _), (fv, _)) in clean.iter().zip(&faulty) {
            assert_eq!(cv, fv);
        }
        assert_eq!(clean[0].0, vec![3.0, 3.0]);
        let total: u64 = faulty.iter().map(|(_, s)| s.truncations + s.corruptions).sum();
        assert!(total > 0, "corruption plan must have injected something");
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
    #[should_panic(expected = "send failed: gave up after 4 attempts; last failure: message to \
                               rank 0 (tag 7) was dropped")]
    fn derived_send_panics_with_exhausted_retries() {
        // FaultComm writes only `try_send`; the trait's `send` turns its
        // `RetriesExhausted` into the panic.
        let c = SelfComm::new();
        let fc = FaultComm::new(
            &c,
            FaultPlan::new(0).with_drop_prob(1.0).with_faulty_attempts(u32::MAX),
        );
        fc.send(1.0f64, 0, 7);
    }

    #[test]
    fn persistent_fault_exhausts_retries() {
        let c = SelfComm::new();
        let plan = FaultPlan::new(0).with_entry(FaultEntry {
            rank: 0,
            op: 0,
            kind: FaultKind::Drop,
            attempts: u32::MAX,
        });
        let fc = FaultComm::new(&c, plan);
        let err = fc.try_send(1.0f64, 0, 7).unwrap_err();
        match err {
            CommError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, MAX_ATTEMPTS);
                assert_eq!(*last, CommError::Dropped { dest: 0, tag: 7 });
            }
            other => panic!("expected exhaustion, got {other}"),
        }
    }

    #[test]
    fn backoff_charges_simulated_clock() {
        let w = World::with_model(2, crate::model::NetworkModel::free());
        let (out, clocks) = w.run_with_clocks(|c| {
            let fc = FaultComm::new(c, FaultPlan::new(9).with_drop_prob(1.0));
            if fc.rank() == 0 {
                fc.send(vec![1.0f64; 4], 1, 1);
            } else {
                let _: Vec<f64> = fc.recv(0, 1);
            }
            fc.stats().backoff_secs
        });
        assert!(out[0] > 0.0, "sender must have backed off");
        assert!(clocks[0] >= out[0], "backoff must be on the simulated clock");
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

    #[test]
    fn rank_death_stops_every_rank_from_its_round() {
        // A gather plus a broadcast is two collective rounds; dying at
        // round 3 is the boundary between the first and second pair.
        let plan = FaultPlan::new(13).with_death(1, 3);
        let w = World::new(3);
        let out = w.run(|c| {
            let fc = FaultComm::new(c, plan.clone());
            let first = try_gather_bcast(&fc, fc.rank() as f64);
            let second = try_gather_bcast(&fc, fc.rank() as f64);
            // Point-to-point traffic after the death fails too.
            let later = fc.try_send(1.0f64, (fc.rank() + 1) % 3, 5);
            (first, second, later, fc.rank(), fc.size())
        });
        let dead = CommError::RankDead { rank: 1 };
        for (rank, (first, second, later, r, size)) in out.into_iter().enumerate() {
            assert_eq!(first, Ok(vec![0.0, 1.0, 2.0]), "rank {rank}: rounds 1-2 precede the death");
            assert_eq!(second, Err(dead.clone()), "rank {rank}: round 3 fails");
            assert_eq!(later, Err(dead.clone()), "rank {rank}: every later operation fails");
            assert_eq!((r, size), (rank, 3), "the world never changes size");
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
        let plan =
            FaultPlan::new(99).with_drop_prob(0.4).with_corrupt_prob(0.3).with_delay_prob(0.2, 2);
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
    }

    #[test]
    fn explicit_entry_overrides_probabilistic_layer() {
        let plan = FaultPlan::new(21).with_entry(FaultEntry {
            rank: 0,
            op: 0,
            kind: FaultKind::Drop,
            attempts: 2,
        });
        assert_eq!(plan.fault_for(0, 0, 0, OpClass::Send), Some(FaultKind::Drop));
        assert_eq!(plan.fault_for(0, 0, 1, OpClass::Send), Some(FaultKind::Drop));
        assert_eq!(plan.fault_for(0, 0, 2, OpClass::Send), None);
        assert_eq!(plan.fault_for(0, 1, 0, OpClass::Send), None);
        assert_eq!(plan.fault_for(1, 0, 0, OpClass::Send), None);
    }
}
