//! Pseudoinverse and least squares via the SVD.
//!
//! Section 2 of the paper motivates the SVD through exactly these
//! applications: `A⁺ = V Σ⁺ Uᵀ` (reciprocating the nonzero singular values)
//! and the minimum-norm least-squares solution `x = A⁺ b`. Both use the
//! thin SVD of [`mod@crate::svd`] with a relative rank cutoff.

use crate::gemm::{matmul, matvec, matvec_t};
use crate::matrix::Matrix;
use crate::svd::{svd, Svd};

/// Default relative cutoff: singular values below `rcond * s_max` are
/// treated as zero (NumPy's `pinv` uses a similar machine-epsilon-scaled
/// default).
pub fn default_rcond(rows: usize, cols: usize) -> f64 {
    rows.max(cols) as f64 * f64::EPSILON
}

/// Moore–Penrose pseudoinverse with relative cutoff `rcond`.
pub fn pseudoinverse_with(a: &Matrix, rcond: f64) -> Matrix {
    let f = svd(a);
    pseudoinverse_from_svd(&f, rcond, a.shape())
}

/// Moore–Penrose pseudoinverse with the default cutoff.
pub fn pseudoinverse(a: &Matrix) -> Matrix {
    pseudoinverse_with(a, default_rcond(a.rows(), a.cols()))
}

fn pseudoinverse_from_svd(f: &Svd, rcond: f64, shape: (usize, usize)) -> Matrix {
    let (_m, _n) = shape;
    let smax = f.s.first().copied().unwrap_or(0.0);
    let cutoff = rcond * smax;
    let inv_s: Vec<f64> = f.s.iter().map(|&x| if x > cutoff { 1.0 / x } else { 0.0 }).collect();
    // A+ = V Σ⁺ Uᵀ = (Vᵀ)ᵀ diag(inv_s) Uᵀ.
    matmul(&f.vt.transpose().mul_diag(&inv_s), &f.u.transpose())
}

/// Minimum-norm least-squares solution of `A x ≈ b` and its residual norm.
pub struct LstsqSolution {
    /// The minimum-norm minimizer.
    pub x: Vec<f64>,
    /// `‖A x − b‖₂`.
    pub residual_norm: f64,
    /// Effective rank used (singular values above the cutoff).
    pub rank: usize,
}

/// Solve `min ‖A x − b‖₂` (minimum-norm solution for rank-deficient `A`).
pub fn lstsq(a: &Matrix, b: &[f64]) -> LstsqSolution {
    lstsq_with(a, b, default_rcond(a.rows(), a.cols()))
}

/// As [`lstsq`] with an explicit relative cutoff.
pub fn lstsq_with(a: &Matrix, b: &[f64], rcond: f64) -> LstsqSolution {
    assert_eq!(a.rows(), b.len(), "lstsq: rhs length must match rows");
    let f = svd(a);
    let smax = f.s.first().copied().unwrap_or(0.0);
    let cutoff = rcond * smax;
    // x = V Σ⁺ Uᵀ b, built vector-wise to avoid forming A⁺.
    let utb = matvec_t(&f.u, b);
    let mut rank = 0;
    let scaled: Vec<f64> =
        f.s.iter()
            .zip(&utb)
            .map(|(&s, &c)| {
                if s > cutoff {
                    rank += 1;
                    c / s
                } else {
                    0.0
                }
            })
            .collect();
    let x = matvec_t(&f.vt, &scaled);
    let ax = matvec(a, &x);
    let residual_norm = ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
    LstsqSolution { x, residual_norm, rank }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gaussian_matrix, matrix_with_spectrum, seeded_rng};

    fn penrose_conditions(a: &Matrix, p: &Matrix, tol: f64) {
        // The four Moore–Penrose conditions.
        let apa = matmul(&matmul(a, p), a);
        assert!((&apa - a).max_abs() < tol, "A A+ A = A violated");
        let pap = matmul(&matmul(p, a), p);
        assert!((&pap - p).max_abs() < tol, "A+ A A+ = A+ violated");
        let ap = matmul(a, p);
        assert!((&ap - &ap.transpose()).max_abs() < tol, "(A A+)ᵀ = A A+ violated");
        let pa = matmul(p, a);
        assert!((&pa - &pa.transpose()).max_abs() < tol, "(A+ A)ᵀ = A+ A violated");
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let mut rng = seeded_rng(1);
        let a = gaussian_matrix(6, 6, &mut rng);
        let p = pseudoinverse(&a);
        let eye = matmul(&a, &p);
        assert!((&eye - &Matrix::identity(6)).max_abs() < 1e-9);
    }

    #[test]
    fn penrose_conditions_tall() {
        let mut rng = seeded_rng(2);
        let a = gaussian_matrix(15, 6, &mut rng);
        penrose_conditions(&a, &pseudoinverse(&a), 1e-9);
    }

    #[test]
    fn penrose_conditions_wide() {
        let mut rng = seeded_rng(3);
        let a = gaussian_matrix(5, 12, &mut rng);
        penrose_conditions(&a, &pseudoinverse(&a), 1e-9);
    }

    #[test]
    fn penrose_conditions_rank_deficient() {
        let mut rng = seeded_rng(4);
        let a = matrix_with_spectrum(12, 8, &[3.0, 1.0], &mut rng); // rank 2
        penrose_conditions(&a, &pseudoinverse(&a), 1e-9);
    }

    #[test]
    fn pinv_of_diag() {
        let a = Matrix::from_diag_rect(3, 2, &[2.0, 0.0]);
        let p = pseudoinverse(&a);
        assert_eq!(p.shape(), (2, 3));
        assert!((p[(0, 0)] - 0.5).abs() < 1e-14);
        assert!(p[(1, 1)].abs() < 1e-14, "zero singular value must not be reciprocated");
    }

    #[test]
    fn lstsq_overdetermined_matches_normal_equations() {
        let mut rng = seeded_rng(5);
        let a = gaussian_matrix(20, 4, &mut rng);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).sin()).collect();
        let sol = lstsq(&a, &b);
        assert_eq!(sol.rank, 4);
        // Residual must be orthogonal to the column space: Aᵀ(Ax - b) = 0.
        let ax = matvec(&a, &sol.x);
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let atr = matvec_t(&a, &r);
        for v in atr {
            assert!(v.abs() < 1e-10, "normal equations violated: {v}");
        }
    }

    #[test]
    fn lstsq_exact_system() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![0.0, 0.0]]);
        let b = vec![3.0, 4.0, 0.0];
        let sol = lstsq(&a, &b);
        assert!((sol.x[0] - 3.0).abs() < 1e-12);
        assert!((sol.x[1] - 2.0).abs() < 1e-12);
        assert!(sol.residual_norm < 1e-12);
    }

    #[test]
    fn lstsq_minimum_norm_for_underdetermined() {
        // x + y = 2 has many solutions; minimum-norm is (1, 1).
        let a = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let sol = lstsq(&a, &[2.0]);
        assert!((sol.x[0] - 1.0).abs() < 1e-12);
        assert!((sol.x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_reports_rank() {
        let mut rng = seeded_rng(6);
        let a = matrix_with_spectrum(10, 5, &[4.0, 2.0, 1.0], &mut rng);
        let b = vec![1.0; 10];
        let sol = lstsq(&a, &b);
        assert_eq!(sol.rank, 3);
    }

    #[test]
    fn pinv_zero_matrix() {
        let p = pseudoinverse(&Matrix::zeros(4, 3));
        assert_eq!(p.shape(), (3, 4));
        assert_eq!(p.max_abs(), 0.0);
    }
}
