//! # psvd-core
//!
//! The streaming, distributed and randomized SVD library — a Rust
//! reproduction of PyParSVD (Maulik & Mengaldo, SC 2021).
//!
//! Three building blocks compose (paper Section 3):
//!
//! 1. **Streaming** ([`serial::SerialStreamingSvd`]): Levy–Lindenbaum
//!    batch-wise updates of the `K` leading left singular vectors with a
//!    forget factor. The update — state, projection of each batch onto the
//!    modes, CholeskyQR2 of the `M x B` residual → inner SVD of the small core
//!    → `[U | J]·U'_K`, the full `[ff·U·D | A]` stack when the measured
//!    `UᵀU` cannot be trusted (not finite, or further than ½ from `I`),
//!    ingestion loop, checkpoint capture — is written once (the private `update` module); a driver
//!    supplies how small matrices are summed, how a tall matrix is
//!    QR-factored, and how the first batch is factored.
//! 2. **Distributed** ([`parallel::ParallelStreamingSvd`]): the same update
//!    with allreduces as the sums (the residual's Grams among them), TSQR
//!    as the QR where CholeskyQR2 falls back, and one APMOS round (one exchange,
//!    [`hierarchical`]'s merge tree, one-shot entry point
//!    [`try_merge_tree_svd`]; depth 1 is the paper's flat gather) as
//!    the first-batch factorization, over any
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

pub mod checkpoint;
pub mod config;
pub mod hierarchical;
pub mod parallel;
pub mod pod;
pub mod postprocess;
pub mod serial;
mod update;

pub use checkpoint::SvdCheckpoint;
pub use config::{ConfigError, SvdConfig};
pub use hierarchical::{try_merge_tree_svd, MergeTreePlan, PlanError, TreeMergeInfo};
pub use parallel::{parallel_svd_once, IngestError, ParallelStreamingSvd};
pub use pod::{pod, Pod, StreamingPod};
pub use serial::{batch_truncated_svd, SerialStreamingSvd};
