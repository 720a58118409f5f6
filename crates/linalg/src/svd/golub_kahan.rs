//! Golub–Kahan–Reinsch SVD: Householder bidiagonalization followed by
//! implicit-shift QR iteration on the bidiagonal with accumulated Givens
//! rotations (Golub & Van Loan, Algorithms 5.4.2 / 8.6.1 / 8.6.2).
//!
//! This is the fast default for the small square matrices (`R`, `W`) that
//! the streaming and APMOS drivers factorize at every step. Its output is
//! property-tested against the one-sided Jacobi kernel.

use crate::gemm::matmul_into;
use crate::matrix::Matrix;
use crate::qr::{apply_reflector, apply_reflector_right, qr_block, qr_thin_into};
use crate::scalar::Scalar;
use crate::svd::{convergence_stats, Svd, SvdInfo};
use crate::workspace::Workspace;
use crate::wy;

/// Givens pair `(c, s, r)` with `c*f + s*g = r`, `-s*f + c*g = 0`,
/// `r = hypot(f, g)`.
#[inline]
fn givens<T: Scalar>(f: T, g: T) -> (T, T, T) {
    if g == T::ZERO {
        (T::ONE, T::ZERO, f)
    } else if f == T::ZERO {
        (T::ZERO, T::ONE, g)
    } else {
        let r = f.hypot(g);
        (f / r, g / r, r)
    }
}

/// Householder bidiagonalization of a tall matrix (`m >= n`):
/// `A = U B Vᵀ` with `B` upper bidiagonal. Returns `(U, d, e, V)` where
/// `d` is the diagonal (length `n`) and `e` the superdiagonal (length
/// `n.saturating_sub(1)`).
///
/// Strongly tall inputs go through a thin QR first (`A = Q R`, bidiagonalize
/// the `n x n` core, then `U = Q U_R` in one GEMM): the reflector-at-a-time
/// reduction below is level-2, so on an `m >> n` matrix it would dominate
/// the whole SVD, while the QR route keeps every `O(m n^2)` term on the
/// blocked compact-WY / packed-GEMM engine.
#[allow(clippy::type_complexity)]
pub fn bidiagonalize<T: Scalar>(a: &Matrix<T>) -> (Matrix<T>, Vec<T>, Vec<T>, Matrix<T>) {
    let (m, n) = a.shape();
    assert!(m >= n, "bidiagonalize requires m >= n");
    if m >= 2 * n && n >= 8 {
        let mut ws = Workspace::new();
        let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
        let (ur, d, e, v) = bidiagonalize_dense(&r);
        let mut u = Matrix::zeros(0, 0);
        matmul_into(q.view(), ur.view(), &mut u);
        return (u, d, e, v);
    }
    bidiagonalize_dense(a)
}

/// The direct reflector-at-a-time reduction (no QR preprocessing).
#[allow(clippy::type_complexity)]
fn bidiagonalize_dense<T: Scalar>(a: &Matrix<T>) -> (Matrix<T>, Vec<T>, Vec<T>, Matrix<T>) {
    let (m, n) = a.shape();
    let mut ws = Workspace::new();
    let mut b = a.clone();
    // Left reflectors annihilate below-diagonal entries of column k; right
    // reflectors annihilate row entries right of the superdiagonal. Both
    // sets use the row layout of the QR kernels: row k of the store holds
    // the unnormalized vector, the norm array holds ‖v‖² with 0.0 marking
    // an identity reflector — which is exactly what the compact-WY
    // accumulation below consumes.
    let rcount = n.saturating_sub(2);
    let mut lvs = ws.take(n, m);
    let mut lvn = vec![T::ZERO; n];
    let mut rvs = ws.take(rcount, n.saturating_sub(1));
    let mut rvn = vec![T::ZERO; rcount];

    for k in 0..n {
        // Left Householder on b[k.., k].
        let vlen = m - k;
        {
            let vrow = &mut lvs.row_mut(k)[..vlen];
            for (idx, vv) in vrow.iter_mut().enumerate() {
                *vv = b[(k + idx, k)];
            }
        }
        let norm = lvs.row(k)[..vlen].iter().map(|x| *x * *x).sum::<T>().sqrt();
        if norm > T::ZERO {
            let alpha = if lvs[(k, 0)] >= T::ZERO { -norm } else { norm };
            lvs[(k, 0)] -= alpha;
            let vn2: T = lvs.row(k)[..vlen].iter().map(|x| *x * *x).sum();
            if vn2 > T::ZERO {
                lvn[k] = vn2;
                apply_reflector(b.as_mut_slice(), n, k, k, n, &lvs.row(k)[..vlen], vn2, None);
                b[(k, k)] = alpha;
                for i in k + 1..m {
                    b[(i, k)] = T::ZERO;
                }
            }
        }

        // Right Householder on b[k, k+2..].
        if k + 2 < n {
            let wlen = n - k - 1;
            {
                let wrow = &mut rvs.row_mut(k)[..wlen];
                for (idx, wv) in wrow.iter_mut().enumerate() {
                    *wv = b[(k, k + 1 + idx)];
                }
            }
            let norm = rvs.row(k)[..wlen].iter().map(|x| *x * *x).sum::<T>().sqrt();
            if norm > T::ZERO {
                let alpha = if rvs[(k, 0)] >= T::ZERO { -norm } else { norm };
                rvs[(k, 0)] -= alpha;
                let wn2: T = rvs.row(k)[..wlen].iter().map(|x| *x * *x).sum();
                if wn2 > T::ZERO {
                    rvn[k] = wn2;
                    apply_reflector_right(
                        b.as_mut_slice(),
                        n,
                        k,
                        m,
                        k + 1,
                        &rvs.row(k)[..wlen],
                        wn2,
                    );
                    b[(k, k + 1)] = alpha;
                    for j in k + 2..n {
                        b[(k, j)] = T::ZERO;
                    }
                }
            }
        }
    }

    // Form thin U (m x n): backward accumulation of the left reflectors,
    // in compact-WY panels when the problem is big enough to feed the
    // packed GEMM engine.
    let mut u = Matrix::zeros(m, n);
    for i in 0..n {
        u[(i, i)] = T::ONE;
    }
    let nb_u = qr_block(m, n);
    if nb_u <= 1 {
        wy::accumulate_reverse_unblocked(&lvs, &lvn, n, 0, &mut u);
    } else {
        wy::accumulate_reverse(&lvs, &lvn, n, 0, nb_u, &mut u, &mut ws);
    }

    // Form V (n x n): right reflector k acts on rows k+1.. (offset 1).
    let mut v = Matrix::identity(n);
    let nb_v = qr_block(n.saturating_sub(1), rcount);
    if nb_v <= 1 {
        wy::accumulate_reverse_unblocked(&rvs, &rvn, rcount, 1, &mut v);
    } else {
        wy::accumulate_reverse(&rvs, &rvn, rcount, 1, nb_v, &mut v, &mut ws);
    }

    let d: Vec<T> = (0..n).map(|i| b[(i, i)]).collect();
    let e: Vec<T> = (0..n.saturating_sub(1)).map(|i| b[(i, i + 1)]).collect();
    (u, d, e, v)
}

/// Rotate columns `j` and `k` of `m`: `col_j ← c*col_j + s*col_k`,
/// `col_k ← -s*col_j + c*col_k`. Applied one rotation at a time: `svd_with`
/// QR-preprocesses every `m >= 2n` input, so through `svd()` the factors
/// rotated here are `n x n`, where batching rotations into a window costs
/// the same `O(n)` per rotation plus a flush (measured in DESIGN.md, "Why
/// the kernel rotates directly").
#[inline]
fn rotate_cols<T: Scalar>(m: &mut Matrix<T>, j: usize, k: usize, c: T, s: T) {
    for i in 0..m.rows() {
        let a = m[(i, j)];
        let b = m[(i, k)];
        m[(i, j)] = c * a + s * b;
        m[(i, k)] = -s * a + c * b;
    }
}

/// One implicit-shift Golub–Kahan SVD step on the block `d[p..=q]`,
/// `e[p..q]`, with the rotations applied to `u` and `v`.
fn gk_step<T: Scalar>(
    d: &mut [T],
    e: &mut [T],
    p: usize,
    q: usize,
    u: &mut Matrix<T>,
    v: &mut Matrix<T>,
) {
    // Wilkinson shift from the trailing 2x2 of Bᵀ B.
    let eq2 = if q >= 2 && q - 1 > p { e[q - 2] } else { T::ZERO };
    let t11 = d[q - 1] * d[q - 1] + eq2 * eq2;
    let t12 = d[q - 1] * e[q - 1];
    let t22 = d[q] * d[q] + e[q - 1] * e[q - 1];
    let diff = T::from_f64(0.5) * (t11 - t22);
    let mu = if t12 == T::ZERO {
        t22
    } else {
        let denom = diff + diff.signum() * diff.hypot(t12);
        if denom == T::ZERO {
            t22
        } else {
            t22 - t12 * t12 / denom
        }
    };

    let mut y = d[p] * d[p] - mu;
    let mut z = d[p] * e[p];

    for k in p..q {
        // Right rotation on columns (k, k+1): annihilates the bulge in row
        // k-1 (or realizes the shift when k == p).
        let (c, s, r) = givens(y, z);
        if k > p {
            e[k - 1] = r;
        }
        let f = c * d[k] + s * e[k];
        let ek = -s * d[k] + c * e[k];
        let g = s * d[k + 1]; // bulge at (k+1, k)
        let dk1 = c * d[k + 1];
        d[k] = f;
        e[k] = ek;
        d[k + 1] = dk1;
        rotate_cols(v, k, k + 1, c, s);

        // Left rotation on rows (k, k+1): annihilates the bulge at (k+1, k).
        let (c2, s2, r2) = givens(d[k], g);
        d[k] = r2;
        let f2 = c2 * e[k] + s2 * d[k + 1];
        let dk1b = -s2 * e[k] + c2 * d[k + 1];
        e[k] = f2;
        d[k + 1] = dk1b;
        if k + 1 < q {
            let g2 = s2 * e[k + 1]; // bulge at (k, k+2)
            e[k + 1] *= c2;
            y = e[k];
            z = g2;
        }
        rotate_cols(u, k, k + 1, c2, s2);
    }
}

/// When `d[k]` is negligible (k < q), chase `e[k]` away with left rotations
/// against the rows below, zeroing row `k`'s coupling.
fn zero_diag_row_chase<T: Scalar>(d: &mut [T], e: &mut [T], k: usize, q: usize, u: &mut Matrix<T>) {
    let mut f = e[k];
    e[k] = T::ZERO;
    for j in k + 1..=q {
        let (c, s, r) = givens(d[j], f);
        d[j] = r;
        if j < q {
            f = -s * e[j];
            e[j] *= c;
        }
        // U ← U Lᵀ with L mixing rows (j, k).
        rotate_cols(u, j, k, c, s);
    }
}

/// When `d[q]` is negligible, chase `e[q-1]` away with right rotations
/// against the columns to the left.
fn zero_diag_col_chase<T: Scalar>(d: &mut [T], e: &mut [T], p: usize, q: usize, v: &mut Matrix<T>) {
    let mut f = e[q - 1];
    e[q - 1] = T::ZERO;
    for j in (p..q).rev() {
        let (c, s, r) = givens(d[j], f);
        d[j] = r;
        if j > p {
            f = -s * e[j - 1];
            e[j - 1] *= c;
        }
        rotate_cols(v, j, q, c, s);
    }
}

/// SVD of an upper-bidiagonal matrix given by diagonal `d` and superdiagonal
/// `e`, with the rotations accumulated into the preexisting factors `u`, `v`,
/// plus its convergence report. A non-converged solve
/// (iteration limit hit — should never happen) still returns the best
/// factorization found, and bumps
/// [`convergence_stats::failures`](crate::svd::convergence_stats).
pub fn bidiagonal_svd_with_info<T: Scalar>(
    d: Vec<T>,
    e: Vec<T>,
    u: Matrix<T>,
    v: Matrix<T>,
) -> (Svd<T>, SvdInfo) {
    let n = d.len();
    bidiagonal_svd_budgeted(d, e, u, v, 60 * n * n + 100)
}

/// [`bidiagonal_svd_with_info`] under an explicit QR-sweep budget instead
/// of the default `60 n² + 100` cap. A solve that exhausts the budget
/// returns the best factorization found with `converged = false` and bumps
/// [`convergence_stats::failures`](crate::svd::convergence_stats) exactly
/// once — the hook tests use to exercise the non-convergence path, since a
/// well-posed spectrum never trips the default cap.
pub fn bidiagonal_svd_budgeted<T: Scalar>(
    mut d: Vec<T>,
    mut e: Vec<T>,
    mut u: Matrix<T>,
    mut v: Matrix<T>,
    max_iter: usize,
) -> (Svd<T>, SvdInfo) {
    let n = d.len();
    if n == 0 {
        return (Svd { u, s: d, vt: v.transpose() }, SvdInfo { iterations: 0, converged: true });
    }
    let eps = T::EPSILON;
    let bnorm =
        d.iter().chain(e.iter()).fold(T::ZERO, |acc, x| acc.max(x.abs())).max(T::MIN_POSITIVE);

    let mut iter = 0;
    let mut converged = true;
    loop {
        // Deflate negligible superdiagonals.
        for k in 0..n.saturating_sub(1) {
            if e[k].abs() <= eps * (d[k].abs() + d[k + 1].abs()) + eps * bnorm * T::from_f64(1e-2) {
                e[k] = T::ZERO;
            }
        }
        // Largest unreduced block end.
        let q = match (0..n.saturating_sub(1)).rev().find(|&k| e[k] != T::ZERO) {
            Some(k) => k + 1,
            None => break,
        };
        // Block start.
        let mut p = q - 1;
        while p > 0 && e[p - 1] != T::ZERO {
            p -= 1;
        }

        iter += 1;
        if iter > max_iter {
            // Bail out with whatever has converged so the caller still
            // gets a usable (if less accurate) result — and say so.
            converged = false;
            convergence_stats::record_failure();
            break;
        }

        // Zero diagonals force deflation chases.
        if d[q].abs() <= eps * bnorm {
            d[q] = T::ZERO;
            zero_diag_col_chase(&mut d, &mut e, p, q, &mut v);
            continue;
        }
        if let Some(k) = (p..q).find(|&k| d[k].abs() <= eps * bnorm) {
            d[k] = T::ZERO;
            zero_diag_row_chase(&mut d, &mut e, k, q, &mut u);
            continue;
        }

        gk_step(&mut d, &mut e, p, q, &mut u, &mut v);
    }

    // Make singular values non-negative (flip U columns).
    for k in 0..n {
        if d[k] < T::ZERO {
            d[k] = -d[k];
            for i in 0..u.rows() {
                u[(i, k)] = -u[(i, k)];
            }
        }
    }

    // Sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[b].partial_cmp(&d[a]).expect("NaN singular value"));
    let s: Vec<T> = order.iter().map(|&i| d[i]).collect();
    let u_sorted = u.select_columns(&order);
    let v_sorted = v.select_columns(&order);

    (Svd { u: u_sorted, s, vt: v_sorted.transpose() }, SvdInfo { iterations: iter, converged })
}

/// Full Golub–Kahan SVD of a tall (or square) matrix. Panics if `m < n`.
pub fn golub_kahan_svd<T: Scalar>(a: &Matrix<T>) -> Svd<T> {
    golub_kahan_svd_with_info(a).0
}

/// [`golub_kahan_svd`] plus the QR iteration's convergence report.
pub fn golub_kahan_svd_with_info<T: Scalar>(a: &Matrix<T>) -> (Svd<T>, SvdInfo) {
    let (m, n) = a.shape();
    assert!(m >= n, "golub_kahan_svd requires m >= n (got {m}x{n}); use svd() for wide input");
    if n == 0 {
        let f = Svd { u: Matrix::zeros(m, 0), s: Vec::new(), vt: Matrix::zeros(0, 0) };
        return (f, SvdInfo { iterations: 0, converged: true });
    }
    let (u, d, e, v) = bidiagonalize(a);
    bidiagonal_svd_with_info(d, e, u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::norms::orthogonality_error;
    use crate::svd::jacobi::jacobi_svd;

    fn check(a: &Matrix, tol: f64) {
        let f = golub_kahan_svd(a);
        let rec = matmul(&f.u.mul_diag(&f.s), &f.vt);
        let err = (a - &rec).frobenius_norm() / a.frobenius_norm().max(1.0);
        assert!(err < tol, "reconstruction error {err} for {:?}", a.shape());
        assert!(orthogonality_error(&f.u) < 1e-10, "U not orthonormal");
        assert!(orthogonality_error(&f.vt.transpose()) < 1e-10, "V not orthonormal");
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "not descending: {:?}", f.s);
        }
        for &sv in &f.s {
            assert!(sv >= 0.0);
        }
    }

    #[test]
    fn bidiagonalization_reconstructs() {
        let a = Matrix::from_fn(20, 8, |i, j| ((i * 5 + j * 3) as f64 * 0.17).sin());
        let (u, d, e, v) = bidiagonalize(&a);
        let n = 8;
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            b[(i, i)] = d[i];
            if i + 1 < n {
                b[(i, i + 1)] = e[i];
            }
        }
        let rec = matmul(&matmul(&u, &b), &v.transpose());
        assert!((&rec - &a).max_abs() < 1e-12);
        assert!(orthogonality_error(&u) < 1e-13);
        assert!(orthogonality_error(&v) < 1e-13);
    }

    #[test]
    fn gk_matches_diagonal() {
        let a = Matrix::from_diag(&[2.0, 7.0, 0.5, 3.0]);
        let f = golub_kahan_svd(&a);
        let want = [7.0, 3.0, 2.0, 0.5];
        for (got, want) in f.s.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12, "{:?}", f.s);
        }
    }

    #[test]
    fn gk_reconstructs_tall() {
        check(&Matrix::from_fn(50, 12, |i, j| ((i * 13 + j * 7) as f64 * 0.31).sin()), 1e-11);
    }

    #[test]
    fn gk_reconstructs_square() {
        check(&Matrix::from_fn(30, 30, |i, j| ((i + 2 * j) as f64 * 0.23).cos()), 1e-11);
    }

    #[test]
    fn gk_rank_deficient() {
        let u1: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).sin()).collect();
        let a = Matrix::from_fn(40, 10, |i, j| u1[i] * ((j + 1) as f64));
        let f = golub_kahan_svd(&a);
        assert!(f.s[1] < 1e-10 * f.s[0], "rank-1 matrix, got {:?}", &f.s[..3]);
        check(&a, 1e-11);
    }

    #[test]
    fn gk_zero_matrix() {
        let f = golub_kahan_svd(&Matrix::<f64>::zeros(6, 4));
        assert!(f.s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gk_matches_jacobi_singular_values() {
        let a = Matrix::from_fn(35, 14, |i, j| ((i * 3 + j * j) as f64 * 0.19).sin() + 0.05);
        let gk = golub_kahan_svd(&a);
        let jac = jacobi_svd(&a);
        for (x, y) in gk.s.iter().zip(&jac.s) {
            assert!((x - y).abs() < 1e-10 * jac.s[0].max(1.0), "GK {x} vs Jacobi {y}");
        }
    }

    #[test]
    fn gk_graded_spectrum() {
        // Geometric decay over 8 orders of magnitude.
        let n = 10;
        let diag: Vec<f64> = (0..n).map(|i| 10f64.powi(-(i as i32))).collect();
        let q1 =
            crate::qr::thin_qr(&Matrix::from_fn(25, n, |i, j| ((i + 3 * j) as f64).sin() + 0.1)).q;
        let q2 =
            crate::qr::thin_qr(&Matrix::from_fn(n, n, |i, j| ((2 * i + j) as f64).cos() + 0.1)).q;
        let a = matmul(&q1.mul_diag(&diag), &q2.transpose());
        let f = golub_kahan_svd(&a);
        for (got, want) in f.s.iter().zip(&diag) {
            assert!(
                (got - want).abs() < 1e-8 * want.max(1e-10),
                "sigma {got} vs {want}: spectrum {:?}",
                f.s
            );
        }
    }

    #[test]
    fn gk_single_column() {
        let a = Matrix::from_columns(&[vec![3.0, 4.0, 0.0]]);
        let f = golub_kahan_svd(&a);
        assert!((f.s[0] - 5.0).abs() < 1e-13);
    }

    #[test]
    fn convergence_info_reports_success() {
        let a = Matrix::from_fn(30, 10, |i, j| ((i * 3 + j * 5) as f64 * 0.21).cos());
        let (f, info) = golub_kahan_svd_with_info(&a);
        assert!(info.converged, "well-posed solve must converge");
        assert!(info.iterations >= 1, "non-diagonal input needs at least one step");
        assert!(f.reconstruction_error(&a) < 1e-11);
        // Diagonal input converges without a single QR step.
        let (_, info0) = golub_kahan_svd_with_info(&Matrix::from_diag(&[3.0, 1.0, 2.0]));
        assert!(info0.converged);
        assert_eq!(info0.iterations, 0);
    }

    #[test]
    fn givens_contract() {
        let (c, s, r) = givens(3.0, 4.0);
        assert!((c * 3.0 + s * 4.0 - r).abs() < 1e-14);
        assert!((-s * 3.0 + c * 4.0).abs() < 1e-14);
        assert!((r - 5.0).abs() < 1e-14);
        assert_eq!(givens(2.0, 0.0), (1.0, 0.0, 2.0));
        assert_eq!(givens(0.0, 2.0), (0.0, 1.0, 2.0));
    }

    #[test]
    fn exhausted_budget_reports_non_convergence_exactly_once() {
        // A strongly coupled bidiagonal needs several QR sweeps; a budget of
        // one sweep cannot finish, so the solve must come back with
        // `converged = false` and bump the process-wide failure counter by
        // exactly one. Diff the counter rather than asserting its absolute
        // value so concurrent tests can't interfere.
        let d = vec![4.0, 3.0, 2.0, 1.0];
        let e = vec![1.0, 1.0, 1.0];
        let before = convergence_stats::failures();
        let (f, info) = bidiagonal_svd_budgeted(
            d.clone(),
            e.clone(),
            Matrix::identity(4),
            Matrix::identity(4),
            1,
        );
        assert!(!info.converged, "a one-sweep budget must not converge this spectrum");
        assert!(info.iterations >= 1);
        assert_eq!(
            convergence_stats::failures() - before,
            1,
            "non-convergence must be recorded exactly once"
        );
        // The bail-out still hands back a usable factorization: orthonormal
        // factors (rotations only) of the right shape, sigmas non-negative.
        assert_eq!(f.u.shape(), (4, 4));
        assert_eq!(f.vt.shape(), (4, 4));
        assert!(orthogonality_error(&f.u) < 1e-12);
        assert!(orthogonality_error(&f.vt.transpose()) < 1e-12);
        assert!(f.s.iter().all(|&s| s >= 0.0));

        // The same spectrum under an ample budget converges cleanly and
        // leaves the failure counter alone.
        let before = convergence_stats::failures();
        let (_, ok) = bidiagonal_svd_budgeted(d, e, Matrix::identity(4), Matrix::identity(4), 1000);
        assert!(ok.converged);
        assert_eq!(convergence_stats::failures() - before, 0);
    }
}
