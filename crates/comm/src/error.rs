//! Communication failures.
//!
//! The paper's MPI deployment on Theta delivers point-to-point messages
//! reliably; the one failure the application sees is a lost process, and
//! it brings the communicator down. [`CommError`] is that failure, reported
//! through the `try_*` operations. It is permanent and fail-stop: the run
//! stops on every rank, and recovery is a restart from checkpoints.

use std::fmt;

/// A failed communication operation.
#[derive(Clone, Debug, PartialEq)]
pub enum CommError {
    /// A rank is gone for good. From the collective round in which it
    /// died, every operation on every rank fails with this error.
    RankDead {
        /// The dead rank's id.
        rank: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankDead { rank } => write!(f, "rank {rank} is dead"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(CommError::RankDead { rank: 3 }.to_string(), "rank 3 is dead");
    }
}
