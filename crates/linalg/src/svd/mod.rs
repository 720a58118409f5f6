//! Singular value decomposition drivers.
//!
//! Two dense kernels are provided — [`jacobi::jacobi_svd`] (one-sided
//! Hestenes Jacobi, the high-accuracy reference) and
//! [`golub_kahan::golub_kahan_svd`] (bidiagonalization + implicit-shift QR,
//! the fast default) — behind a single [`svd`] entry point that also handles
//! wide matrices (via transposition) and very tall matrices (via a QR
//! preprocessing step, exactly the `O(MN²) → O(MN·K)`-flavored reduction the
//! paper leans on).
//!
//! The expensive pieces — the tall-QR preprocessing and the `U = Q·Ũ`
//! lift — run on the threaded kernels in [`crate::gemm`] and [`crate::qr`]
//! once the problem is large enough; the small dense iterations stay
//! serial, so factorizations are bitwise reproducible at any thread
//! count.

pub mod golub_kahan;
pub mod jacobi;

use crate::gemm::matmul;
use crate::matrix::Matrix;
use crate::qr::thin_qr;
use crate::scalar::Scalar;

pub mod convergence_stats {
    //! Process-wide iterative-solver convergence counters.
    //!
    //! The iterative SVD kernels are backstopped by iteration limits that
    //! should never trigger; when one does, the kernel still returns its
    //! best factorization, but silently. Mirroring
    //! [`crate::matrix::alloc_stats`], every such bailout bumps a global
    //! counter here, so callers that use the plain [`super::svd`]-style
    //! entry points (no [`SvdInfo`](super::SvdInfo) in the signature) can
    //! still detect a degraded solve by diffing [`failures`] around the
    //! call. The `*_with_info` entry points report the same outcome
    //! per-call.

    use std::sync::atomic::{AtomicU64, Ordering};

    static FAILURES: AtomicU64 = AtomicU64::new(0);

    /// Record one solver bailout (iteration limit hit before convergence).
    #[inline]
    pub(crate) fn record_failure() {
        FAILURES.fetch_add(1, Ordering::Relaxed);
    }

    /// Bailouts since process start or the last [`reset`].
    pub fn failures() -> u64 {
        FAILURES.load(Ordering::Relaxed)
    }

    /// Zero the counter.
    pub fn reset() {
        FAILURES.store(0, Ordering::Relaxed);
    }
}

/// Convergence report for an iterative SVD kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SvdInfo {
    /// Iterations (QR steps / deflation chases, or Jacobi sweeps) spent.
    pub iterations: usize,
    /// Whether the kernel converged within its iteration budget. A
    /// `false` here also bumps [`convergence_stats::failures`].
    pub converged: bool,
}

/// A (thin) singular value decomposition `A = U diag(s) Vᵀ`.
///
/// For an `m x n` input with `p = min(m, n)`: `u` is `m x p`, `s` has length
/// `p` (non-negative, descending), and `vt` is `p x n`.
#[derive(Clone, Debug)]
pub struct Svd<T: Scalar = f64> {
    /// Left singular vectors (columns).
    pub u: Matrix<T>,
    /// Singular values, descending and non-negative.
    pub s: Vec<T>,
    /// Right singular vectors, transposed (rows).
    pub vt: Matrix<T>,
}

impl<T: Scalar> Svd<T> {
    /// Keep only the leading `k` singular triplets.
    pub fn truncated(&self, k: usize) -> Svd<T> {
        let k = k.min(self.s.len());
        Svd { u: self.u.first_columns(k), s: self.s[..k].to_vec(), vt: self.vt.row_block(0, k) }
    }

    /// Reconstruct `U diag(s) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix<T> {
        matmul(&self.u.mul_diag(&self.s), &self.vt)
    }

    /// Relative Frobenius reconstruction error against `a`.
    pub fn reconstruction_error(&self, a: &Matrix<T>) -> f64 {
        (a - &self.reconstruct()).frobenius_norm().to_f64() / a.frobenius_norm().to_f64().max(1.0)
    }

    /// Numerical rank at relative threshold `rtol` (relative to `s[0]`).
    pub fn rank(&self, rtol: f64) -> usize {
        let smax = self.s.first().copied().unwrap_or(T::ZERO).to_f64();
        self.s.iter().filter(|&&x| x.to_f64() > rtol * smax).count()
    }

    /// The right singular vectors as columns (`n x p`).
    pub fn v(&self) -> Matrix<T> {
        self.vt.transpose()
    }
}

/// Which dense kernel factorizes the (preprocessed) core matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SvdMethod {
    /// Golub–Kahan bidiagonalization + implicit-shift QR (fast default).
    #[default]
    GolubKahan,
    /// One-sided Jacobi (slow, high relative accuracy).
    Jacobi,
}

/// Aspect ratio beyond which a tall matrix is QR-preprocessed before the
/// dense kernel runs on the small triangular factor.
const QR_PREPROCESS_RATIO: usize = 2;

/// Thin SVD with the default kernel.
pub fn svd<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    svd_with(a, SvdMethod::default())
}

/// Thin SVD with an explicit kernel choice.
///
/// Wide matrices are handled by factorizing the transpose and swapping
/// factors; very tall matrices are first reduced by a thin QR.
pub fn svd_with<T: Scalar>(a: &Matrix<T>, method: SvdMethod) -> Svd<T> {
    let (m, n) = a.shape();
    if m < n {
        let f = svd_with(&a.transpose(), method);
        return Svd { u: f.vt.transpose(), s: f.s, vt: f.u.transpose() };
    }
    if n > 0 && m >= QR_PREPROCESS_RATIO * n && m > 32 {
        // A = Q R; SVD(R) = Ur S Vᵀ; A = (Q Ur) S Vᵀ.
        let qr = thin_qr(a);
        let core = dense_kernel(&qr.r, method);
        return Svd { u: matmul(&qr.q, &core.u), s: core.s, vt: core.vt };
    }
    dense_kernel(a, method)
}

fn dense_kernel<T: Scalar>(a: &Matrix<T>, method: SvdMethod) -> Svd<T> {
    match method {
        SvdMethod::GolubKahan => golub_kahan::golub_kahan_svd(a),
        SvdMethod::Jacobi => jacobi::jacobi_svd(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::orthogonality_error;

    fn wavy(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 13) as f64 * 0.13).sin() + 0.02 * (i as f64))
    }

    #[test]
    fn dispatcher_tall_uses_qr_path() {
        let a = wavy(200, 10);
        let f = svd(&a);
        assert_eq!(f.u.shape(), (200, 10));
        assert!(f.reconstruction_error(&a) < 1e-11);
        assert!(orthogonality_error(&f.u) < 1e-10);
    }

    #[test]
    fn dispatcher_wide_transposes() {
        let a = wavy(8, 40);
        let f = svd(&a);
        assert_eq!(f.u.shape(), (8, 8));
        assert_eq!(f.vt.shape(), (8, 40));
        assert!(f.reconstruction_error(&a) < 1e-11);
        assert!(orthogonality_error(&f.vt.transpose()) < 1e-10);
    }

    #[test]
    fn both_methods_agree() {
        let a = wavy(30, 12);
        let gk = svd_with(&a, SvdMethod::GolubKahan);
        let jc = svd_with(&a, SvdMethod::Jacobi);
        for (x, y) in gk.s.iter().zip(&jc.s) {
            assert!((x - y).abs() < 1e-9 * jc.s[0], "{x} vs {y}");
        }
    }

    #[test]
    fn truncation_is_best_low_rank() {
        // Eckart–Young sanity: truncated reconstruction error equals the
        // tail singular values' energy.
        let a = wavy(40, 15);
        let full = svd(&a);
        let k = 5;
        let trunc = full.truncated(k);
        let err = (&a - &trunc.reconstruct()).frobenius_norm();
        let tail: f64 = full.s[k..].iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((err - tail).abs() < 1e-9 * full.s[0], "err {err} vs tail {tail}");
    }

    #[test]
    fn rank_detection() {
        let c: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let a = Matrix::from_fn(20, 6, |i, j| c[i] * (j + 1) as f64);
        let f = svd(&a);
        assert_eq!(f.rank(1e-10), 1);
    }

    #[test]
    fn v_accessor_transposes() {
        let a = wavy(10, 4);
        let f = svd(&a);
        assert_eq!(f.v().shape(), (4, 4));
        assert_eq!(f.v()[(1, 2)], f.vt[(2, 1)]);
    }

    #[test]
    fn svd_tiny_shapes() {
        // 1x1
        let f = svd(&Matrix::from_vec(1, 1, vec![-3.0]));
        assert!((f.s[0] - 3.0).abs() < 1e-15);
        // 1xN
        let f = svd(&Matrix::from_vec(1, 4, vec![1.0, 2.0, 2.0, 0.0]));
        assert!((f.s[0] - 3.0).abs() < 1e-14);
        // Nx1
        let f = svd(&Matrix::from_vec(4, 1, vec![1.0, 2.0, 2.0, 0.0]));
        assert!((f.s[0] - 3.0).abs() < 1e-14);
        // empty columns
        let f = svd(&Matrix::<f64>::zeros(3, 0));
        assert!(f.s.is_empty());
    }
}
