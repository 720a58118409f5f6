//! Property tests for `bidiagonal_svd` on adversarial spectra (clustered,
//! graded over 300 orders of magnitude, zero diagonals) against the Jacobi
//! reference, plus the Golub–Kahan kernel's convergence report and its
//! bitwise independence from the thread count.

use pyparsvd::linalg::norms::orthogonality_error;
use pyparsvd::linalg::par;
use pyparsvd::linalg::random::{gaussian_matrix, seeded_rng};
use pyparsvd::linalg::svd::golub_kahan::{bidiagonal_svd_with_info, golub_kahan_svd_with_info};
use pyparsvd::linalg::svd::jacobi::jacobi_svd;
use pyparsvd::linalg::{Matrix, Svd};

/// Run `bidiagonal_svd` on `(d, e)` seeded with identity factors and
/// assert the full outcome contract: convergence reported, singular
/// values non-negative + descending + finite, factors orthonormal.
fn assert_bidiagonal_contract(d: Vec<f64>, e: Vec<f64>) -> Svd {
    let n = d.len();
    let (f, info) = bidiagonal_svd_with_info(d, e, Matrix::identity(n), Matrix::identity(n));
    assert!(info.converged, "adversarial spectrum must still converge");
    for w in f.s.windows(2) {
        assert!(w[0] >= w[1], "not descending: {:?}", f.s);
    }
    for &sv in &f.s {
        assert!(sv >= 0.0 && sv.is_finite(), "bad singular value {sv}");
    }
    assert!(orthogonality_error(&f.u) < 1e-10, "U lost orthogonality");
    assert!(orthogonality_error(&f.vt.transpose()) < 1e-10, "V lost orthogonality");
    f
}

/// Dense bidiagonal matrix from `(d, e)` for cross-checks.
fn bidiagonal_matrix(d: &[f64], e: &[f64]) -> Matrix {
    let n = d.len();
    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        b[(i, i)] = d[i];
        if i + 1 < n {
            b[(i, i + 1)] = e[i];
        }
    }
    b
}

#[test]
fn clustered_singular_values() {
    // Three tight clusters: QR iteration deflation must split them
    // without stalling, and the high-accuracy Jacobi reference must agree.
    let d = vec![5.0, 5.0 + 1e-13, 5.0 - 1e-13, 1.0, 1.0, 1.0 + 1e-12, 1e-3, 1e-3];
    let e = vec![1e-7, 2e-7, 1e-9, 3e-8, 1e-7, 2e-9, 1e-8];
    let f = assert_bidiagonal_contract(d.clone(), e.clone());
    let jac = jacobi_svd(&bidiagonal_matrix(&d, &e));
    for (x, y) in f.s.iter().zip(&jac.s) {
        assert!((x - y).abs() < 1e-10 * jac.s[0], "GK {x} vs Jacobi {y}");
    }
}

#[test]
fn graded_extreme_scales_stay_finite_and_converge() {
    // 1e+150 down to 1e-150: shift computation squares the diagonal, so
    // this walks the edge of overflow; the solve must stay finite,
    // ordered and orthogonal, and pin the dominant value normwise.
    let d: Vec<f64> = (0..11).map(|i| 10f64.powi(150 - 30 * i)).collect();
    let e: Vec<f64> = (0..10).map(|i| 10f64.powi(140 - 30 * i)).collect();
    let f = assert_bidiagonal_contract(d, e);
    assert!((f.s[0] - 1e150).abs() < 1e-10 * 1e150, "dominant sigma {:.3e}", f.s[0]);

    // The mirrored all-tiny spectrum must not be flushed to zero.
    let d: Vec<f64> = (0..8).map(|i| 10f64.powi(-143 - i)).collect();
    let e: Vec<f64> = (0..7).map(|i| 10f64.powi(-146 - i)).collect();
    let f = assert_bidiagonal_contract(d, e);
    assert!(f.s[0] > 1e-144 && f.s[0] < 1e-142, "tiny spectrum collapsed: {:?}", f.s);
}

#[test]
fn zero_diagonal_and_superdiagonal_entries() {
    // Interior and trailing zero diagonals exercise both deflation chases;
    // zero superdiagonals split the problem into independent blocks.
    let d = vec![3.0, 0.0, 2.0, 5.0, 0.0, 1.5];
    let e = vec![1.0, 1.25, 0.0, 0.75, 0.5];
    let f = assert_bidiagonal_contract(d.clone(), e.clone());
    let jac = jacobi_svd(&bidiagonal_matrix(&d, &e));
    for (x, y) in f.s.iter().zip(&jac.s) {
        assert!((x - y).abs() < 1e-12 * jac.s[0], "GK {x} vs Jacobi {y}");
    }
    // An exactly-zero singular value must come out exactly last.
    let d = vec![2.0, 4.0, 0.0];
    let e = vec![0.0, 0.0];
    let f = assert_bidiagonal_contract(d, e);
    assert_eq!(f.s[2], 0.0);
}

#[test]
fn graded_moderate_scales_match_jacobi() {
    // Eight orders of magnitude — inside the normwise regime, so the
    // values themselves must agree with the high-accuracy reference.
    let d: Vec<f64> = (0..9).map(|i| 10f64.powi(-i)).collect();
    let e: Vec<f64> = (0..8).map(|i| 0.3 * 10f64.powi(-i)).collect();
    let f = assert_bidiagonal_contract(d.clone(), e.clone());
    let jac = jacobi_svd(&bidiagonal_matrix(&d, &e));
    for (x, y) in f.s.iter().zip(&jac.s) {
        assert!((x - y).abs() < 1e-12 * jac.s[0], "GK {x} vs Jacobi {y}");
    }
}

#[test]
fn bitwise_identical_across_thread_counts() {
    // Tall enough that the QR preprocessing and the `U = Q·U_R` lift cross
    // the packed engine's parallel threshold, so the row partition
    // genuinely splits; the QR iteration itself is serial.
    let a = gaussian_matrix(600, 96, &mut seeded_rng(5));
    par::set_num_threads(1);
    let (base, _) = golub_kahan_svd_with_info(&a);
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        let (f, _) = golub_kahan_svd_with_info(&a);
        assert_eq!(f.s, base.s, "sigma bits changed at {threads} threads");
        assert_eq!(f.u, base.u, "U bits changed at {threads} threads");
        assert_eq!(f.vt, base.vt, "V bits changed at {threads} threads");
    }
    par::set_num_threads(0);
}

#[test]
fn successful_solves_report_convergence() {
    // Asserts on the `SvdInfo` this solve returns: the process-wide
    // `convergence_stats` counter is shared with sibling tests that bail
    // out on purpose (its "exactly once per bailout" contract is pinned
    // in golub_kahan.rs, the only bailout-triggering test in its binary).
    let a = gaussian_matrix(90, 30, &mut seeded_rng(23));
    let (f, info) = golub_kahan_svd_with_info(&a);
    assert!(info.converged, "a Gaussian 90x30 solve must converge: {info:?}");
    assert!(f.s.iter().all(|s| s.is_finite()));
}
