//! The four workloads. Each stresses different layers; see the module
//! docs for why it exists and `benchmark/README.md` for the prediction
//! table.

pub mod burgers_dist;
pub mod era5_ooc;
mod serial;
pub mod serve_mixed;
pub mod tall_stream;
