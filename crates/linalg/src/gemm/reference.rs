//! Serial reference kernels: the plainly-auditable implementations the
//! packed engine is validated against. Inner loops are branch-free —
//! no data-dependent zero tests — so they autovectorize cleanly and
//! their flop sequence per output element is obvious from the source.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::MatView;

/// Cache block edge for the blocked kernels.
const BLOCK: usize = 64;

/// `C += op(A) * op(B)` over strided views, blocked i-k-j, written to
/// `c` with row stride `ldc` (`ldc = n` for a dense output; larger for
/// a trailing-matrix block of a wider buffer). Per output element the
/// flops are the ascending-`k` sequence of [`matmul`] / [`matmul_tn`]
/// / [`matmul_nt`] (which all accumulate each `C` element in ascending
/// `k` from zero), so this single kernel is bitwise identical to every
/// one of them — strides decide only where operands are *read* and
/// *written*, never the op order.
pub(crate) fn gemm_view<T: Scalar>(a: MatView<'_, T>, b: MatView<'_, T>, c: &mut [T], ldc: usize) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(k, b.rows());
    debug_assert!(ldc >= n);
    debug_assert!(m == 0 || n == 0 || c.len() >= (m - 1) * ldc + n);
    for ib in (0..m).step_by(BLOCK) {
        for kb in (0..k).step_by(BLOCK) {
            for jb in (0..n).step_by(BLOCK) {
                let imax = (ib + BLOCK).min(m);
                let kmax = (kb + BLOCK).min(k);
                let jmax = (jb + BLOCK).min(n);
                for i in ib..imax {
                    for kk in kb..kmax {
                        let aik = a.at(i, kk);
                        let crow = &mut c[i * ldc + jb..i * ldc + jmax];
                        if b.cs == 1 {
                            let off = kk * b.rs;
                            let brow = &b.data[off + jb..off + jmax];
                            for (cv, bv) in crow.iter_mut().zip(brow) {
                                *cv += aik * *bv;
                            }
                        } else {
                            for (cv, j) in crow.iter_mut().zip(jb..jmax) {
                                *cv += aik * b.at(kk, j);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `C = A * B`.
pub fn matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions mismatch {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    // i-k-j loop order: the innermost loop streams rows of B and C,
    // the cache-friendly order for row-major data.
    let cd = c.as_mut_slice();
    let ad = a.as_slice();
    let bd = b.as_slice();
    for ib in (0..m).step_by(BLOCK) {
        for kb in (0..k).step_by(BLOCK) {
            for jb in (0..n).step_by(BLOCK) {
                let imax = (ib + BLOCK).min(m);
                let kmax = (kb + BLOCK).min(k);
                let jmax = (jb + BLOCK).min(n);
                for i in ib..imax {
                    for kk in kb..kmax {
                        let aik = ad[i * k + kk];
                        let brow = &bd[kk * n + jb..kk * n + jmax];
                        let crow = &mut cd[i * n + jb..i * n + jmax];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aik * *bv;
                        }
                    }
                }
            }
        }
    }
    c
}

/// `C = Aᵀ * B` without materializing `Aᵀ`.
pub fn matmul_tn<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: row counts must match");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let cd = c.as_mut_slice();
    let ad = a.as_slice();
    let bd = b.as_slice();
    for kk in 0..k {
        let arow = &ad[kk * m..(kk + 1) * m];
        let brow = &bd[kk * n..(kk + 1) * n];
        for (i, &aki) in arow.iter().enumerate() {
            let crow = &mut cd[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aki * *bv;
            }
        }
    }
    c
}

/// `C = A * Bᵀ` without materializing `Bᵀ`.
pub fn matmul_nt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: column counts must match");
    let (m, n) = (a.rows(), b.rows());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let brow = b.row(j);
            let mut s = T::ZERO;
            for (av, bv) in arow.iter().zip(brow) {
                s += *av * *bv;
            }
            c[(i, j)] = s;
        }
    }
    c
}

/// `y = A * x`.
pub fn matvec<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
    (0..a.rows()).map(|i| a.row(i).iter().zip(x).map(|(av, xv)| *av * *xv).sum()).collect()
}

/// `y = Aᵀ * x`.
pub fn matvec_t<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.rows(), x.len(), "matvec_t: dimension mismatch");
    let mut y = vec![T::ZERO; a.cols()];
    for (i, &xi) in x.iter().enumerate() {
        for (yv, av) in y.iter_mut().zip(a.row(i)) {
            *yv += *av * xi;
        }
    }
    y
}
