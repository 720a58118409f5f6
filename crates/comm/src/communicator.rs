//! The [`Communicator`] trait: MPI-flavored point-to-point and collective
//! operations, plus a per-rank simulated clock.
//!
//! The trait carries exactly the four operations the paper's listings use
//! through mpi4py: `gather` concentrates at a root (the APMOS `W`
//! assembly), `bcast` fans the reduced factors back out, and `send`/`recv`
//! are what every other exchange is built from — in `psvd-core`, the
//! merge-tree walks that carry the APMOS factors, the TSQR `R` and `Q`
//! blocks, the sums and the mode gathers. SPMD discipline applies: all
//! ranks must call collectives in the same order.
//!
//! Each operation is written once, in its fallible `try_*` form returning
//! [`CommError`]: a backend implements `try_send`/`try_recv`, and the
//! collectives are default methods built on them. The infallible names are
//! derived from the fallible ones by panicking on the error, so reliable
//! backends ([`SelfComm`], [`ThreadComm`](crate::thread_comm::ThreadComm))
//! and the fault-injecting [`FaultComm`](crate::fault::FaultComm) share one
//! code path.

use crate::error::CommError;
use crate::payload::Payload;

/// Tag space reserved for collective operations; user tags must stay below.
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 32;

/// An MPI-like communicator over a fixed-size world of ranks.
pub trait Communicator {
    /// This rank's index, `0 <= rank < size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Point-to-point send. Non-blocking buffered semantics (like
    /// `MPI_Bsend`): never blocks on the receiver. Fails only once a rank
    /// has died (fault-injecting backends); reliable backends never fail.
    fn try_send<T: Payload>(&self, value: T, dest: usize, tag: u64) -> Result<(), CommError>;

    /// Blocking receive matching `(source, tag)`. Out-of-order messages from
    /// the same source are buffered until their tag is requested. Fails
    /// only once a rank has died; reliable backends never fail.
    fn try_recv<T: Payload>(&self, source: usize, tag: u64) -> Result<T, CommError>;

    /// Next tag for an internal collective round (must advance identically
    /// on every rank).
    fn next_collective_tag(&self) -> u64;

    /// Simulated clock (seconds). Zero for communicators without a model.
    fn now(&self) -> f64 {
        0.0
    }

    /// Advance the simulated clock by `secs` of modeled compute.
    fn advance(&self, _secs: f64) {}

    /// Gather one value per rank at `root` (rank order). Returns `Some(all)`
    /// at the root, `None` elsewhere.
    fn try_gather<T: Payload>(&self, value: T, root: usize) -> Result<Option<Vec<T>>, CommError> {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let mut slots: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            slots[root] = Some(value);
            for (src, slot) in slots.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.try_recv(src, tag)?);
                }
            }
            Ok(Some(slots.into_iter().map(|s| s.expect("gather slot unfilled")).collect()))
        } else {
            self.try_send(value, root, tag)?;
            Ok(None)
        }
    }

    /// Broadcast from `root`. `value` must be `Some` at the root and is
    /// ignored elsewhere (mirroring mpi4py's `comm.bcast(x, root)`).
    fn try_bcast<T: Payload + Clone>(&self, value: Option<T>, root: usize) -> Result<T, CommError> {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let v = value.expect("bcast: root must supply a value");
            for dst in 0..self.size() {
                if dst != root {
                    self.try_send(v.clone(), dst, tag)?;
                }
            }
            Ok(v)
        } else {
            self.try_recv(root, tag)
        }
    }

    /// [`Communicator::try_send`], panicking on failure.
    fn send<T: Payload>(&self, value: T, dest: usize, tag: u64) {
        self.try_send(value, dest, tag).unwrap_or_else(|e| panic!("send failed: {e}"));
    }

    /// [`Communicator::try_recv`], panicking on failure.
    fn recv<T: Payload>(&self, source: usize, tag: u64) -> T {
        self.try_recv(source, tag).unwrap_or_else(|e| panic!("recv failed: {e}"))
    }

    /// [`Communicator::try_gather`], panicking on failure.
    fn gather<T: Payload>(&self, value: T, root: usize) -> Option<Vec<T>> {
        self.try_gather(value, root).unwrap_or_else(|e| panic!("gather failed: {e}"))
    }

    /// [`Communicator::try_bcast`], panicking on failure.
    fn bcast<T: Payload + Clone>(&self, value: Option<T>, root: usize) -> T {
        self.try_bcast(value, root).unwrap_or_else(|e| panic!("bcast failed: {e}"))
    }
}

/// Trivial single-rank communicator; collectives degenerate to identity.
/// Self-sends are buffered and matched by tag, so rank-0-only code paths
/// that send to themselves still work.
pub struct SelfComm {
    pending: std::cell::RefCell<Vec<(u64, Box<dyn std::any::Any + Send>)>>,
    seq: std::cell::Cell<u64>,
}

impl SelfComm {
    /// Create a single-rank world.
    pub fn new() -> Self {
        Self { pending: std::cell::RefCell::new(Vec::new()), seq: std::cell::Cell::new(0) }
    }
}

impl Default for SelfComm {
    fn default() -> Self {
        Self::new()
    }
}

impl Communicator for SelfComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn try_send<T: Payload>(&self, value: T, dest: usize, tag: u64) -> Result<(), CommError> {
        assert_eq!(dest, 0, "SelfComm: only rank 0 exists");
        self.pending.borrow_mut().push((tag, Box::new(value)));
        Ok(())
    }

    fn try_recv<T: Payload>(&self, source: usize, tag: u64) -> Result<T, CommError> {
        assert_eq!(source, 0, "SelfComm: only rank 0 exists");
        let mut pending = self.pending.borrow_mut();
        let idx = pending
            .iter()
            .position(|(t, _)| *t == tag)
            .unwrap_or_else(|| panic!("SelfComm: no buffered message with tag {tag}"));
        let (_, payload) = pending.remove(idx);
        Ok(*payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("SelfComm: payload type mismatch for tag {tag}")))
    }

    fn next_collective_tag(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        COLLECTIVE_TAG_BASE + s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selfcomm_identity_collectives() {
        let c = SelfComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        assert_eq!(c.gather(5.0f64, 0), Some(vec![5.0]));
        assert_eq!(c.bcast(Some(vec![1.0, 2.0]), 0), vec![1.0, 2.0]);
        assert_eq!(c.try_gather(3.0f64, 0), Ok(Some(vec![3.0])));
        assert_eq!(c.try_bcast(Some(9.0f64), 0), Ok(9.0));
    }

    #[test]
    fn selfcomm_self_send_roundtrip() {
        let c = SelfComm::new();
        c.send(vec![1.0, 2.0, 3.0], 0, 7);
        c.send(4.0f64, 0, 8);
        // Out-of-order receive by tag.
        let x: f64 = c.recv(0, 8);
        assert_eq!(x, 4.0);
        let v: Vec<f64> = c.recv(0, 7);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn selfcomm_type_mismatch_panics() {
        let c = SelfComm::new();
        c.send(1.0f64, 0, 1);
        let _: Vec<f64> = c.recv(0, 1);
    }

    #[test]
    #[should_panic(expected = "no buffered message")]
    fn selfcomm_missing_message_panics() {
        let c = SelfComm::new();
        let _: f64 = c.recv(0, 42);
    }
}
