//! Validation utilities for comparing SVD factorizations.
//!
//! Singular vectors are unique only up to sign (and, for clustered singular
//! values, up to rotation within the cluster), so naive elementwise
//! comparisons of serial vs. parallel results are meaningless. These helpers
//! implement the comparisons the paper's Figure 1(a,b) relies on: per-mode
//! sign-aligned error and subspace angles.

use crate::gemm::matmul_tn;
use crate::matrix::Matrix;
use crate::svd::svd;

/// Pointwise absolute error of mode `j` after sign alignment — the exact
/// series plotted in Figure 1(a,b) of the paper. Column `j` of `b` is
/// flipped when its inner product with column `j` of `a` is negative; `b`
/// is never copied, and either side may hold more modes than the other.
pub fn pointwise_mode_error(a: &Matrix, b: &Matrix, j: usize) -> Vec<f64> {
    assert_eq!(a.rows(), b.rows(), "pointwise_mode_error: row count mismatch");
    let dot: f64 = a.col_iter(j).zip(b.col_iter(j)).map(|(x, y)| x * y).sum();
    let s = if dot < 0.0 { -1.0 } else { 1.0 };
    a.col_iter(j).zip(b.col_iter(j)).map(|(x, y)| (x - s * y).abs()).collect()
}

/// Principal angles (radians, ascending) between the column spaces of two
/// orthonormal bases, via the SVD of `QₐᵀQ_b`: `θ_i = acos(σ_i)`.
pub fn principal_angles(qa: &Matrix, qb: &Matrix) -> Vec<f64> {
    assert_eq!(qa.rows(), qb.rows(), "principal_angles: row count mismatch");
    let c = matmul_tn(qa, qb);
    let f = svd(&c);
    f.s.iter().map(|&x| x.clamp(-1.0, 1.0).acos()).collect()
}

/// The largest principal angle — zero iff the subspaces coincide.
pub fn max_principal_angle(qa: &Matrix, qb: &Matrix) -> f64 {
    principal_angles(qa, qb).into_iter().fold(0.0, f64::max)
}

/// Relative error between two singular-value spectra, `max_i |a_i − b_i| / a_0`.
pub fn spectrum_error(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let scale = a.first().copied().unwrap_or(1.0).max(f64::MIN_POSITIVE);
    (0..n).map(|i| (a[i] - b[i]).abs()).fold(0.0, f64::max) / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::thin_qr;
    use crate::random::{gaussian_matrix, seeded_rng};

    #[test]
    fn sign_alignment_fixes_flips() {
        let a = Matrix::from_columns(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = Matrix::from_columns(&[vec![-1.0, 0.0], vec![0.0, 1.0]]);
        for j in 0..2 {
            assert_eq!(pointwise_mode_error(&a, &b, j), [0.0, 0.0]);
        }
    }

    #[test]
    fn pointwise_error_locates_discrepancy() {
        let a = Matrix::from_columns(&[vec![1.0, 0.0, 0.0]]);
        let b = Matrix::from_columns(&[vec![1.0, 0.1, 0.0]]);
        let err = pointwise_mode_error(&a, &b, 0);
        assert!(err[0] < 1e-15);
        assert!((err[1] - 0.1).abs() < 1e-15);
        assert!(err[2] < 1e-15);
        // Five modes against three (a driver that returned fewer): every
        // mode both hold compares, in either order, flipped or not.
        let five = Matrix::from_fn(4, 5, |i, j| if i == j % 4 { 1.0 } else { 0.1 * j as f64 });
        let mut three = five.submatrix(0, 4, 0, 3);
        three.scale_col_mut(1, -1.0);
        three[(3, 2)] += 0.25;
        for j in 0..3 {
            let want = if j == 2 { [0.0, 0.0, 0.0, 0.25] } else { [0.0; 4] };
            assert_eq!(pointwise_mode_error(&five, &three, j), want, "mode {j}");
            assert_eq!(pointwise_mode_error(&three, &five, j), want, "mode {j}, swapped");
        }
    }

    #[test]
    fn identical_subspaces_zero_angle() {
        let mut rng = seeded_rng(5);
        let q = thin_qr(&gaussian_matrix(30, 5, &mut rng)).q;
        // Rotate the basis within its span: same subspace, different vectors.
        let r = thin_qr(&gaussian_matrix(5, 5, &mut rng)).q;
        let q2 = crate::gemm::matmul(&q, &r);
        assert!(max_principal_angle(&q, &q2) < 1e-7);
    }

    #[test]
    fn orthogonal_subspaces_right_angle() {
        let qa = Matrix::from_columns(&[vec![1.0, 0.0, 0.0, 0.0]]);
        let qb = Matrix::from_columns(&[vec![0.0, 1.0, 0.0, 0.0]]);
        let angle = max_principal_angle(&qa, &qb);
        assert!((angle - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn spectrum_error_scale_invariant_numerator() {
        assert_eq!(spectrum_error(&[10.0, 5.0], &[10.0, 5.0]), 0.0);
        let e = spectrum_error(&[10.0, 5.0], &[10.0, 4.0]);
        assert!((e - 0.1).abs() < 1e-14);
    }
}
