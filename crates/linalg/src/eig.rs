//! Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//!
//! Used by the method-of-snapshots path of APMOS: the right singular vectors
//! of a tall local block `A` are the eigenvectors of the (small) Gram matrix
//! `AᵀA`, and the singular values are the square roots of its eigenvalues.
//! Jacobi is slow asymptotically but extremely robust and accurate on the
//! small (`N x N`, `N` = snapshot count) matrices that appear here.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Eigendecomposition of a symmetric matrix: `a = V diag(λ) Vᵀ`,
/// eigenvalues sorted in descending order.
#[derive(Clone, Debug)]
pub struct SymEig<T: Scalar = f64> {
    /// Eigenvalues, descending.
    pub values: Vec<T>,
    /// Eigenvectors as columns, in the same order as `values`.
    pub vectors: Matrix<T>,
}

/// Maximum number of full Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 64;

/// Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// The input must be symmetric; only its upper triangle is trusted (the
/// matrix is symmetrized internally to guard against round-off asymmetry
/// from Gram-matrix accumulation). Panics if `a` is not square.
pub fn sym_eig<T: Scalar>(a: &Matrix<T>) -> SymEig<T> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "sym_eig: matrix must be square");
    if n == 0 {
        return SymEig { values: Vec::new(), vectors: Matrix::zeros(0, 0) };
    }

    // Work on a symmetrized copy.
    let half = T::from_f64(0.5);
    let mut m = Matrix::from_fn(n, n, |i, j| half * (a[(i, j)] + a[(j, i)]));
    let mut v = Matrix::identity(n);

    // Convergence threshold, relative to the largest entry.
    let scale = m.max_abs().max(T::from_f64(1e-300));
    let tol = T::from_f64(1e-15) * scale;

    for _sweep in 0..MAX_SWEEPS {
        let mut off: T = T::ZERO;
        for i in 0..n {
            for j in i + 1..n {
                off = off.max(m[(i, j)].abs());
            }
        }
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol * T::from_f64(1e-2) {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Classic Jacobi rotation: choose t = tan(theta) stably.
                let theta = (aqq - app) / (T::from_f64(2.0) * apq);
                let t = if theta >= T::ZERO {
                    T::ONE / (theta + (T::ONE + theta * theta).sqrt())
                } else {
                    T::ONE / (theta - (T::ONE + theta * theta).sqrt())
                };
                let c = T::ONE / (T::ONE + t * t).sqrt();
                let s = t * c;

                // Update M = Jᵀ M J on rows/cols p and q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors V = V J.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Extract, sort descending, and canonicalize vector signs (largest-|entry|
    // component positive) so results are deterministic.
    let mut pairs: Vec<(T, Vec<T>)> = (0..n).map(|i| (m[(i, i)], v.col(i))).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN eigenvalue"));
    let values: Vec<T> = pairs.iter().map(|p| p.0).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (j, (_, col)) in pairs.iter().enumerate() {
        let mut col = col.clone();
        let pivot = col
            .iter()
            .cloned()
            .fold(
                (T::ZERO, T::ZERO),
                |(mx, val), x| if x.abs() > mx { (x.abs(), x) } else { (mx, val) },
            )
            .1;
        if pivot < T::ZERO {
            for x in &mut col {
                *x = -*x;
            }
        }
        vectors.set_col(j, &col);
    }
    SymEig { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};
    use crate::norms::orthogonality_error;

    #[test]
    fn eig_of_diagonal() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = sym_eig(&a);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eig_reconstructs() {
        let n = 12;
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64).sin());
        let a = Matrix::from_fn(n, n, |i, j| 0.5 * (b[(i, j)] + b[(j, i)]));
        let e = sym_eig(&a);
        let lam = Matrix::from_diag(&e.values);
        let rec = matmul(&matmul(&e.vectors, &lam), &e.vectors.transpose());
        assert!((&rec - &a).max_abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let n = 15;
        let a = Matrix::from_fn(40, n, |i, j| ((i + j * j) as f64 * 0.1).cos());
        let g = matmul_tn(&a, &a);
        let e = sym_eig(&g);
        assert!(orthogonality_error(&e.vectors) < 1e-11);
    }

    #[test]
    fn eigenvalues_descending_and_gram_nonnegative() {
        let a = Matrix::from_fn(30, 8, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
        let g = matmul_tn(&a, &a);
        let e = sym_eig(&g);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        for &v in &e.values {
            assert!(v >= -1e-10, "Gram eigenvalue should be nonnegative, got {v}");
        }
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = sym_eig(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-13);
        assert!((e.values[1] - 1.0).abs() < 1e-13);
        // Leading eigenvector proportional to [1, 1]/sqrt(2).
        let x = e.vectors.col(0);
        assert!((x[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((x[0] - x[1]).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let e = sym_eig(&Matrix::<f64>::zeros(0, 0));
        assert!(e.values.is_empty());
        let e1 = sym_eig(&Matrix::from_diag(&[7.0]));
        assert_eq!(e1.values, vec![7.0]);
        assert_eq!(e1.vectors[(0, 0)], 1.0);
    }

    #[test]
    fn repeated_eigenvalues() {
        let a = Matrix::identity(6).scaled(4.0);
        let e = sym_eig(&a);
        for &v in &e.values {
            assert!((v - 4.0).abs() < 1e-13);
        }
        assert!(orthogonality_error(&e.vectors) < 1e-12);
    }
}
