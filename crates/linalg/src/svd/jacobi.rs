//! One-sided (Hestenes) Jacobi SVD.
//!
//! Orthogonalizes the columns of a working copy of `A` by plane rotations,
//! accumulating the rotations into `V`. On convergence the column norms are
//! the singular values and the normalized columns form `U`. One-sided Jacobi
//! attains high relative accuracy even for small singular values, which makes
//! it the reference kernel that all other SVD paths in this workspace are
//! tested against.
//!
//! Each pair `(p, q)` reads its column moments straight from `U` and
//! rotates the full `m`-row columns in place — level-1 and memory-bound, but
//! with the high-relative-accuracy property intact (a per-sweep Gram matrix
//! would give it up to the usual `κ²` effect).
//!
//! Expects `m >= n`; the dispatcher in [`crate::svd()`] transposes wider
//! matrices before calling in.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::svd::{convergence_stats, Svd, SvdInfo};

/// Maximum number of sweeps over all column pairs.
const MAX_SWEEPS: usize = 60;

/// One-sided Jacobi SVD of a tall (or square) matrix. Panics if `m < n`.
pub fn jacobi_svd<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    jacobi_svd_with_info(a).0
}

/// [`jacobi_svd`] plus its convergence report (`iterations` = sweeps).
pub fn jacobi_svd_with_info<T: Scalar>(a: &Matrix<T>) -> (Svd<T>, SvdInfo) {
    let (m, n) = a.shape();
    assert!(m >= n, "jacobi_svd requires m >= n (got {m}x{n}); use svd() for wide input");
    if n == 0 {
        let f = Svd { u: Matrix::zeros(m, 0), s: Vec::new(), vt: Matrix::zeros(0, 0) };
        return (f, SvdInfo { iterations: 0, converged: true });
    }
    let mut u = a.clone();
    let mut v = Matrix::identity(n);
    let eps = T::EPSILON;

    let mut sweeps = 0;
    let mut converged = false;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut off_diagonal = false;
        for p in 0..n {
            for q in p + 1..n {
                // Column moments.
                let mut alpha = T::ZERO;
                let mut beta = T::ZERO;
                let mut gamma = T::ZERO;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                let Some((c, s)) = pair_rotation(alpha, beta, gamma, eps) else {
                    continue;
                };
                off_diagonal = true;
                for i in 0..m {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if !off_diagonal {
            converged = true;
            break;
        }
    }
    if !converged {
        convergence_stats::record_failure();
    }
    (extract(&u, &v), SvdInfo { iterations: sweeps, converged })
}

/// Jacobi rotation for the pair `(p, q)` with moments `alpha = ‖u_p‖²`,
/// `beta = ‖u_q‖²`, `gamma = u_p·u_q`: returns `(c, s)` zeroing the
/// inner product, or `None` when the pair is already orthogonal (or
/// degenerate) at tolerance `eps`.
#[inline]
fn pair_rotation<T: Scalar>(alpha: T, beta: T, gamma: T, eps: T) -> Option<(T, T)> {
    if alpha == T::ZERO || beta == T::ZERO {
        return None;
    }
    if gamma.abs() <= eps * (alpha * beta).sqrt() {
        return None;
    }
    let zeta = (beta - alpha) / (T::from_f64(2.0) * gamma);
    let t = zeta.signum() / (zeta.abs() + (T::ONE + zeta * zeta).sqrt());
    let c = T::ONE / (T::ONE + t * t).sqrt();
    Some((c, c * t))
}

/// Extract singular values (column norms of `u`, descending), normalized
/// `U`, and `Vᵀ`.
fn extract<T: Scalar>(u: &Matrix<T>, v: &Matrix<T>) -> Svd<T> {
    let (m, n) = u.shape();
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<T> = (0..n).map(|j| u.col_norm(j)).collect();
    order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).expect("NaN singular value"));

    let mut s = Vec::with_capacity(n);
    let mut u_sorted = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    for (jj, &j) in order.iter().enumerate() {
        let sigma = norms[j];
        s.push(sigma);
        if sigma > T::ZERO {
            for i in 0..m {
                u_sorted[(i, jj)] = u[(i, j)] / sigma;
            }
        }
        for i in 0..n {
            v_sorted[(i, jj)] = v[(i, j)];
        }
    }
    // Zero singular values leave zero columns in U; replace with canonical
    // unit vectors orthogonal to the rest is unnecessary for our use (the
    // drivers always truncate past the numerical rank), so we keep zeros.

    Svd { u: u_sorted, s, vt: v_sorted.transpose() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::norms::orthogonality_error;

    fn check_reconstruction(a: &Matrix, tol: f64) {
        let f = jacobi_svd(a);
        let rec = matmul(&f.u.mul_diag(&f.s), &f.vt);
        let err = (a - &rec).frobenius_norm() / a.frobenius_norm().max(1.0);
        assert!(err < tol, "reconstruction error {err}");
        assert!(orthogonality_error(&f.u.first_columns(rank_of(&f.s))) < 1e-10);
        assert!(orthogonality_error(&f.vt.transpose()) < 1e-10);
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1], "singular values not descending: {:?}", f.s);
        }
        for &sv in &f.s {
            assert!(sv >= 0.0);
        }
    }

    fn rank_of(s: &[f64]) -> usize {
        let smax = s.first().copied().unwrap_or(0.0);
        s.iter().filter(|&&x| x > 1e-12 * smax.max(1.0)).count()
    }

    #[test]
    fn svd_of_diagonal() {
        let a = Matrix::from_diag(&[4.0, 1.0, 9.0]);
        let f = jacobi_svd(&a);
        assert!((f.s[0] - 9.0).abs() < 1e-12);
        assert!((f.s[1] - 4.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_reconstructs_tall() {
        let a = Matrix::from_fn(40, 10, |i, j| ((i * 13 + j * 7) as f64 * 0.31).sin());
        check_reconstruction(&a, 1e-12);
    }

    #[test]
    fn svd_reconstructs_square() {
        let a = Matrix::from_fn(25, 25, |i, j| ((i + j * j) as f64 * 0.11).cos());
        check_reconstruction(&a, 1e-12);
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-2 matrix from an outer product sum.
        let u1: Vec<f64> = (0..30).map(|i| (i as f64 * 0.2).sin()).collect();
        let u2: Vec<f64> = (0..30).map(|i| (i as f64 * 0.5).cos()).collect();
        let a = Matrix::from_fn(30, 8, |i, j| {
            u1[i] * (j as f64 + 1.0) + u2[i] * ((j * j) as f64 * 0.1)
        });
        let f = jacobi_svd(&a);
        assert!(f.s[2] < 1e-10 * f.s[0], "rank should be 2, got s = {:?}", f.s);
        check_reconstruction(&a, 1e-11);
    }

    #[test]
    fn svd_of_zero() {
        let a = Matrix::<f64>::zeros(10, 4);
        let f = jacobi_svd(&a);
        assert!(f.s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn svd_known_2x2() {
        // A = [[3, 0], [4, 5]] has singular values sqrt(45) and sqrt(5).
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![4.0, 5.0]]);
        let f = jacobi_svd(&a);
        assert!((f.s[0] - 45f64.sqrt()).abs() < 1e-12);
        assert!((f.s[1] - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn small_singular_values_accurate() {
        // Graded matrix: Jacobi should capture sigma ~ 1e-8 accurately.
        let d = [1.0, 1e-4, 1e-8];
        let a = Matrix::from_diag(&d);
        // Mix with an orthogonal-ish transform to make it non-diagonal.
        let q =
            crate::qr::thin_qr(&Matrix::from_fn(3, 3, |i, j| ((i * 2 + j) as f64).sin() + 0.2)).q;
        let mixed = matmul(&q, &a);
        let f = jacobi_svd(&mixed);
        for (got, want) in f.s.iter().zip(&d) {
            assert!((got - want).abs() / want < 1e-9, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn convergence_info_reports_success() {
        let a = Matrix::from_fn(20, 6, |i, j| ((i + 2 * j) as f64 * 0.29).sin());
        let (_, info) = jacobi_svd_with_info(&a);
        assert!(info.converged);
        assert!(info.iterations >= 1 && info.iterations <= MAX_SWEEPS);
    }

    #[test]
    #[should_panic(expected = "requires m >= n")]
    fn wide_input_panics() {
        jacobi_svd(&Matrix::<f64>::zeros(2, 5));
    }
}
