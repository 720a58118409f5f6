//! # psvd-modal
//!
//! The SVD-based methods Section 2 of the paper lists as what the library
//! is *for* — dynamic mode decomposition ([`mod@dmd`]), spectral POD
//! ([`mod@spod`]), pseudoinverse and least squares ([`pinv`]) — and the
//! kernels only they need: complex arithmetic ([`complex`], [`cmatrix`]),
//! the FFT ([`fft`]) and the nonsymmetric eigensolver ([`hessenberg`] →
//! [`schur`] → [`eig_general`]). None of it is on the streaming /
//! distributed / randomized SVD's path, so it lives beside `psvd-linalg`
//! (its only dependency: `Matrix`, GEMM, `svd`, `sym_eig`), not inside it.
//! `psvd dmd` / `psvd spod` and the `modal_analysis`, `vortex_shedding` and
//! `least_squares` examples are the callers.

pub mod cmatrix;
pub mod complex;
pub mod dmd;
pub mod eig_general;
pub mod fft;
pub mod hessenberg;
pub mod pinv;
pub mod schur;
pub mod spod;

pub use dmd::{dmd, Dmd};
pub use pinv::{lstsq, pseudoinverse};
pub use spod::{spod, Spod, SpodConfig};
