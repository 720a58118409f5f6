//! Communication failures.
//!
//! The reproduction's fault model mirrors what the paper's MPI deployment
//! on Theta had to survive: lost messages, payloads mangled in flight, and
//! ranks dying mid-collective. [`CommError`] classifies every failure a
//! communicator can report through the `try_*` operations; transient
//! failures ([`CommError::is_transient`]) are retryable — the payload can
//! be re-sent or re-delivered and the operation completes bit-identically
//! — while permanent ones stop the run, whose recovery is a restart from
//! checkpoints.

use std::fmt;

/// How a payload was mangled in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionKind {
    /// The delivered payload is shorter than the sender's framing said.
    Truncated,
    /// The delivered payload has the right length but a failed checksum.
    BitFlip,
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionKind::Truncated => write!(f, "truncated"),
            CorruptionKind::BitFlip => write!(f, "bit-flipped"),
        }
    }
}

/// A failed communication operation.
#[derive(Clone, Debug, PartialEq)]
pub enum CommError {
    /// The message never left this rank (send-side loss). Transient: the
    /// payload was consumed, but re-sending an identical copy recovers.
    Dropped {
        /// Destination rank.
        dest: usize,
        /// Message tag.
        tag: u64,
    },
    /// The delivered payload failed validation and was discarded.
    /// Transient: the sender's copy is intact, so retransmission recovers.
    Corrupted {
        /// Source rank.
        source: usize,
        /// Message tag.
        tag: u64,
        /// How the payload was mangled.
        kind: CorruptionKind,
        /// Wire size the framing promised.
        expected_bytes: usize,
        /// Wire size (or valid prefix) actually delivered.
        got_bytes: usize,
    },
    /// A rank is gone for good. Permanent and fail-stop: from the
    /// collective round in which it died, every operation on every rank
    /// fails with this error, and recovery is a restart from checkpoints.
    RankDead {
        /// The dead rank's id.
        rank: usize,
    },
    /// A bounded-retry policy ran out of attempts on a transient fault.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// The failure the final attempt saw.
        last: Box<CommError>,
    },
}

impl CommError {
    /// True when retrying the operation (with an identical payload) can
    /// succeed: drops and corruptions are transient, dead ranks and
    /// exhausted retry budgets are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, CommError::Dropped { .. } | CommError::Corrupted { .. })
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Dropped { dest, tag } => {
                write!(f, "message to rank {dest} (tag {tag}) was dropped")
            }
            CommError::Corrupted { source, tag, kind, expected_bytes, got_bytes } => write!(
                f,
                "payload from rank {source} (tag {tag}) {kind}: expected {expected_bytes} \
                 bytes, got {got_bytes}"
            ),
            CommError::RankDead { rank } => write!(f, "rank {rank} is dead"),
            CommError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last failure: {last}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(CommError::Dropped { dest: 1, tag: 7 }.is_transient());
        assert!(CommError::Corrupted {
            source: 0,
            tag: 1,
            kind: CorruptionKind::Truncated,
            expected_bytes: 80,
            got_bytes: 72,
        }
        .is_transient());
        assert!(!CommError::RankDead { rank: 2 }.is_transient());
        let exhausted = CommError::RetriesExhausted {
            attempts: 4,
            last: Box::new(CommError::Dropped { dest: 0, tag: 0 }),
        };
        assert!(!exhausted.is_transient());
    }

    #[test]
    fn display_is_informative() {
        let e = CommError::Corrupted {
            source: 3,
            tag: 9,
            kind: CorruptionKind::BitFlip,
            expected_bytes: 100,
            got_bytes: 100,
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 3") && msg.contains("bit-flipped"), "{msg}");
        let r = CommError::RetriesExhausted { attempts: 3, last: Box::new(e) };
        assert!(r.to_string().contains("3 attempts"));
    }
}
