//! # psvd-comm
//!
//! In-process message-passing substrate standing in for MPI (Rust MPI
//! bindings being thin, per the reproduction plan in `DESIGN.md`). A
//! [`World`] spawns one thread per rank; each thread drives an SPMD closure
//! through a [`Communicator`] offering exactly the operations the paper's
//! listings use (`gather`, `bcast`, `send`, `recv`), each written once in
//! fallible `try_*` form. The collectives here are the flat rank-0 ones;
//! tree-shaped exchanges are `psvd-core`'s merge-tree walks, built on
//! `try_send`/`try_recv`. On top of that:
//!
//! - **traffic recording** ([`TrafficStats`]): every message's byte volume is
//!   counted per rank, so benchmarks can report real communication volumes;
//! - **simulated clocks** ([`NetworkModel`]): per-rank clocks charged with an
//!   alpha–beta–overhead cost per message, which lets the weak-scaling
//!   harness model Theta-scale runs from a single host;
//! - **deterministic fault injection** ([`FaultComm`] replaying a seeded
//!   [`FaultPlan`]): delay-reorders, which exercise the receivers'
//!   out-of-order tag buffering, and fail-stop rank death, surfaced on
//!   every rank as [`CommError`] through the fallible `try_*` operations.
//!
//! ```
//! use psvd_comm::{Communicator, World};
//!
//! let world = World::new(4);
//! let sums = world.run(|comm| {
//!     let total = comm.gather(comm.rank() as f64, 0).map(|all| all.iter().sum::<f64>());
//!     comm.bcast(total, 0)
//! });
//! assert_eq!(sums, vec![6.0; 4]);
//! ```

pub mod communicator;
pub mod error;
pub mod fault;
pub mod model;
pub mod payload;
pub mod stats;
pub mod thread_comm;

pub use communicator::{Communicator, SelfComm};
pub use error::CommError;
pub use fault::{FaultComm, FaultPlan, FaultStats, RankDeath};
pub use model::NetworkModel;
pub use payload::Payload;
pub use stats::TrafficStats;
pub use thread_comm::{ThreadComm, World};
