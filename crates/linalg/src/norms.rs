//! Norms and orthogonality diagnostics.

use crate::gemm::matmul_tn;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// `‖QᵀQ − I‖_max`: how far the columns of `q` are from orthonormal.
pub fn orthogonality_error<T: Scalar>(q: &Matrix<T>) -> f64 {
    let g = matmul_tn(q, q);
    let mut err: f64 = 0.0;
    for i in 0..g.rows() {
        for j in 0..g.cols() {
            let target = if i == j { T::ONE } else { T::ZERO };
            err = err.max((g[(i, j)] - target).abs().to_f64());
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonality_of_identity() {
        assert_eq!(orthogonality_error(&Matrix::<f64>::identity(5)), 0.0);
    }

    #[test]
    fn orthogonality_detects_skew() {
        let m = Matrix::from_columns(&[vec![1.0, 0.0], vec![1.0, 1.0]]);
        assert!(orthogonality_error(&m) > 0.5);
    }
}
