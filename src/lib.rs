//! # pyparsvd
//!
//! Facade crate for the Rust reproduction of **PyParSVD: a streaming,
//! distributed and randomized singular-value-decomposition library**
//! (Maulik & Mengaldo, SC 2021).
//!
//! Re-exports the full workspace under one roof:
//!
//! - [`linalg`] — dense kernels (QR, SVD, eigensolver, randomized SVD);
//! - [`comm`] — MPI-like in-process communicator with traffic recording
//!   and a simulated network clock;
//! - [`data`] — workload generators (Burgers, synthetic ERA5) and the
//!   `ncsim` parallel-IO container;
//! - [`core`] — the streaming / distributed / randomized SVD drivers;
//! - [`serve`] — the multi-tenant SVD-as-a-service daemon (session
//!   manager, ingestion queues, checkpoint-backed eviction, chaos layer).
//!
//! ## Quickstart
//!
//! ```
//! use pyparsvd::prelude::*;
//!
//! // Stream a tall snapshot matrix in batches of 16 columns.
//! let data = Matrix::from_fn(500, 64, |i, j| ((i * 3 + j * 7) as f64 * 0.01).sin());
//! let mut svd = SerialStreamingSvd::new(SvdConfig::new(8));
//! svd.fit_batched(&data, 16);
//! assert_eq!(svd.modes().shape(), (500, 8));
//! ```
//!
//! ## Distributed
//!
//! ```
//! use pyparsvd::prelude::*;
//!
//! let data = Matrix::from_fn(120, 20, |i, j| ((i + j * j) as f64 * 0.03).cos());
//! let blocks = pyparsvd::data::partition::split_rows(&data, 4);
//! let world = World::new(4);
//! let results = world.run(|comm| {
//!     let mut driver = ParallelStreamingSvd::new(comm, SvdConfig::new(4));
//!     driver.fit_batched(&blocks[comm.rank()], 5);
//!     driver.singular_values().to_vec()
//! });
//! assert_eq!(results[0].len(), 4);
//! assert_eq!(results[0], results[3]); // every rank agrees
//! ```

pub use psvd_comm as comm;
pub use psvd_core as core;
pub use psvd_data as data;
pub use psvd_linalg as linalg;
pub use psvd_serve as serve;

/// The common imports for applications.
pub mod prelude {
    pub use psvd_comm::{
        CommError, Communicator, FaultComm, FaultPlan, NetworkModel, RetryPolicy, SelfComm, World,
    };
    pub use psvd_core::{
        batch_truncated_svd, parallel_svd_once, try_merge_tree_svd, DegradedInfo, MergeTreePlan,
        ParallelStreamingSvd, PlanError, Precision, SerialStreamingSvd, SvdConfig, TreeMergeInfo,
    };
    pub use psvd_data::{BurgersConfig, Era5Config};
    pub use psvd_linalg::{svd, Matrix, RandomizedConfig, Svd, SvdMethod};
    pub use psvd_serve::{ChaosSpec, ServeConfig, SessionSpec, SvdServer};
}
