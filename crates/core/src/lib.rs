//! # psvd-core
//!
//! The streaming, distributed and randomized SVD library — a Rust
//! reproduction of PyParSVD (Maulik & Mengaldo, SC 2021).
//!
//! Three building blocks compose (paper Section 3):
//!
//! 1. **Streaming** ([`serial::SerialStreamingSvd`]): Levy–Lindenbaum
//!    batch-wise updates of the `K` leading left singular vectors with a
//!    forget factor.
//! 2. **Distributed** ([`parallel::ParallelStreamingSvd`]): APMOS for the
//!    one-shot distributed SVD (one exchange, [`hierarchical`]'s merge
//!    tree; depth 1 is the paper's flat gather) and TSQR for the
//!    distributed QR inside the streaming loop, over any
//!    [`psvd_comm::Communicator`].
//! 3. **Randomized**: every inner factorization may use the randomized
//!    low-rank SVD (`SvdConfig::with_low_rank(true)`, tuned by
//!    `with_oversampling` / `with_power_iterations` in every driver).
//!
//! ```
//! use psvd_core::{SerialStreamingSvd, SvdConfig};
//! use psvd_linalg::Matrix;
//!
//! let data = Matrix::from_fn(200, 40, |i, j| ((i + 3 * j) as f64 * 0.05).sin());
//! let mut svd = SerialStreamingSvd::new(SvdConfig::new(5).with_forget_factor(1.0));
//! svd.fit_batched(&data, 10); // four streaming batches of 10 snapshots
//! assert_eq!(svd.modes().shape(), (200, 5));
//! assert!(svd.singular_values().windows(2).all(|w| w[0] >= w[1]));
//! ```

pub mod brand;
pub mod checkpoint;
pub mod config;
pub mod dmd;
pub mod hierarchical;
pub mod parallel;
pub mod pod;
pub mod postprocess;
pub mod serial;
pub mod spod;
pub mod streaming_dmd;

pub use brand::BrandIncrementalSvd;
pub use checkpoint::SvdCheckpoint;
pub use config::{Precision, SvdConfig};
pub use dmd::{dmd, Dmd};
pub use hierarchical::{
    merge_tree_svd, try_merge_tree_svd, try_merge_tree_svd_into, try_merge_tree_svd_timed,
    MergeTreePlan, PlanError, TreeMergeInfo,
};
pub use parallel::{parallel_svd_once, DegradedInfo, IngestError, ParallelStreamingSvd};
pub use pod::{pod, Pod, StreamingPod};
pub use serial::{batch_truncated_svd, SerialStreamingSvd};
pub use spod::{spod, Spod, SpodConfig};
pub use streaming_dmd::StreamingDmd;
