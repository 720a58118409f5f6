//! Method of snapshots: right singular vectors from the Gram matrix.
//!
//! For a tall snapshot matrix `A` (`M x N`, `M >> N`) the right singular
//! vectors are the eigenvectors of `AᵀA` and the singular values are the
//! square roots of its eigenvalues. For the symmetric positive
//! semi-definite `AᵀA` the SVD is that eigendecomposition, so the library's
//! one small SVD serves. This is the per-rank local stage of APMOS
//! (Algorithm 2, step 1): each rank computes `(Ṽⁱ, Σ̃ⁱ)` from its own row
//! block without ever forming global objects.

use crate::gemm::matmul_tn;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::svd::svd;

/// Right singular vectors and singular values of `a` via the method of
/// snapshots: returns `(V_k, s_k)` with `V_k ∈ R^{N x k}` and `s_k`
/// descending, where `k = min(k_request, N)`: the leading left singular
/// vectors of `AᵀA` and the square roots of its singular values.
pub fn generate_right_vectors<T: Scalar>(a: &Matrix<T>, k: usize) -> (Matrix<T>, Vec<T>) {
    let k = k.min(a.cols());
    let f = svd(&matmul_tn(a, a));
    let s = f.s[..k].iter().map(|&l| l.sqrt()).collect();
    (f.u.first_columns(k), s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::orthogonality_error;
    use crate::random::{matrix_with_spectrum, seeded_rng};

    #[test]
    fn matches_svd_right_vectors() {
        let mut rng = seeded_rng(31);
        let a = matrix_with_spectrum(60, 8, &[5.0, 3.0, 1.0, 0.5, 0.2], &mut rng);
        let (v, s) = generate_right_vectors(&a, 5);
        let f = svd(&a);
        for (got, want) in s.iter().zip(&f.s) {
            assert!((got - want).abs() < 1e-8, "sigma {got} vs {want}");
        }
        // Columns agree up to sign.
        for j in 0..5 {
            if f.s[j] < 1e-8 {
                continue;
            }
            let dot: f64 = (0..8).map(|i| v[(i, j)] * f.vt[(j, i)]).sum();
            assert!((dot.abs() - 1.0).abs() < 1e-6, "mode {j} misaligned: |dot| = {}", dot.abs());
        }
    }

    #[test]
    fn vectors_are_orthonormal() {
        let mut rng = seeded_rng(4);
        let a = matrix_with_spectrum(50, 10, &[4.0, 2.0, 1.0, 0.7, 0.3], &mut rng);
        let (v, _) = generate_right_vectors(&a, 5);
        assert!(orthogonality_error(&v) < 1e-9);
    }

    #[test]
    fn k_clamped_to_width() {
        let mut rng = seeded_rng(6);
        let a = matrix_with_spectrum(30, 4, &[1.0], &mut rng);
        let (v, s) = generate_right_vectors(&a, 100);
        assert_eq!(v.cols(), 4);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn singular_values_nonnegative_descending() {
        let mut rng = seeded_rng(12);
        let a = matrix_with_spectrum(25, 7, &[2.0, 2.0, 1.0], &mut rng);
        let (_, s) = generate_right_vectors(&a, 7);
        for w in s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        for &x in &s {
            assert!(x >= 0.0);
        }
    }
}
