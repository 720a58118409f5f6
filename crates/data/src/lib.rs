//! # psvd-data
//!
//! Workload generators and IO for the PyParSVD reproduction:
//!
//! - [`burgers`]: the paper's viscous Burgers analytical snapshot set;
//! - [`era5`]: a synthetic global-pressure dataset with *planted* coherent
//!   structures, substituting for the non-redistributable ERA5 record;
//! - [`stream`]: column-batch adapters feeding the streaming SVD;
//! - [`partition`]: balanced row-block domain decomposition;
//! - [`ncsim`]: the one snapshot container (v2: row-panel chunks of f64,
//!   optional codec) with per-rank hyperslab reads, standing in for
//!   NetCDF4 parallel IO;
//! - [`prefetch`]: the background reader that overlaps out-of-core IO and
//!   decode with the SVD update.

pub mod burgers;
pub mod era5;
pub mod ncsim;
pub mod partition;
pub mod prefetch;
pub mod solver;
pub mod stream;

pub use burgers::{snapshot_matrix, BurgersConfig};
pub use era5::{generate as generate_era5, Era5Config, Era5Data};
pub use partition::{block_range, split_rows};
pub use prefetch::{IoStats, SnapshotPrefetcher};
pub use stream::{column_batches, MatrixBatchSource, SnapshotSource};
