//! Contract tests for the level-3 Givens rotation accumulation in the
//! bidiagonal QR iteration, and property tests for `bidiagonal_svd` on
//! adversarial spectra.
//!
//! The rotation window capacity (`set_rot_block` / `PSVD_ROT_BLOCK`) —
//! unlike the thread count — changes rounding in the factors, so every
//! test that pins it holds a process lock and restores automatic
//! resolution on drop. Within a fixed capacity the results must be
//! bitwise identical across thread counts; across capacities the
//! singular values are bitwise identical (the rotation parameters derive
//! only from the bidiagonal, which accumulation never touches) and the
//! factors agree to the ≤1e-12 contract.

use pyparsvd::linalg::norms::orthogonality_error;
use pyparsvd::linalg::par;
use pyparsvd::linalg::random::{gaussian_matrix, seeded_rng};
use pyparsvd::linalg::rot::{rot_block, set_rot_block};
use pyparsvd::linalg::svd::golub_kahan::{bidiagonal_svd_with_info, golub_kahan_svd_with_info};
use pyparsvd::linalg::svd::jacobi::jacobi_svd;
use pyparsvd::linalg::{Matrix, Svd};
use std::sync::{Mutex, MutexGuard};

/// `set_rot_block` is process-global state; serialize every test that
/// touches it (poisoning from an asserting test must not cascade).
static ROT_KNOB: Mutex<()> = Mutex::new(());

struct KnobGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_rot_block(0);
        par::set_num_threads(0);
    }
}

fn lock_knob() -> KnobGuard {
    KnobGuard(ROT_KNOB.lock().unwrap_or_else(|e| e.into_inner()))
}

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
fn accumulated_matches_direct_reference() {
    let _g = lock_knob();
    let a = gaussian_matrix(300, 48, &mut seeded_rng(42));
    set_rot_block(1);
    let (direct, di) = golub_kahan_svd_with_info(&a);
    assert!(di.converged);
    for nb in [8, 48] {
        set_rot_block(nb);
        let (acc, ai) = golub_kahan_svd_with_info(&a);
        assert!(ai.converged);
        assert_eq!(ai.iterations, di.iterations, "iteration path must not depend on nb");
        // The QR iteration reads only the bidiagonal, which accumulation
        // never touches — the singular values are bitwise identical.
        assert_eq!(direct.s, acc.s, "sigma diverged at nb={nb}");
        assert!((&acc.u - &direct.u).max_abs() < 1e-12, "U contract broken at nb={nb}");
        assert!((&acc.vt - &direct.vt).max_abs() < 1e-12, "V contract broken at nb={nb}");
        assert!(orthogonality_error(&acc.u) < 1e-10);
    }
}

#[test]
fn jacobi_accumulated_matches_direct_reference() {
    let _g = lock_knob();
    let a = gaussian_matrix(200, 12, &mut seeded_rng(17));
    set_rot_block(1);
    let direct = jacobi_svd(&a);
    set_rot_block(12);
    let acc = jacobi_svd(&a);
    for (x, y) in direct.s.iter().zip(&acc.s) {
        assert!((x - y).abs() <= 1e-12 * direct.s[0], "sigma diverged: {x} vs {y}");
    }
    assert!(acc.reconstruction_error(&a) < 1e-12);
    assert!(orthogonality_error(&acc.u) < 1e-10);
}

#[test]
fn fixed_block_bitwise_identical_across_thread_counts() {
    let _g = lock_knob();
    // Big enough that the window flush GEMM crosses the packed engine's
    // parallel threshold, so the row partition genuinely splits.
    let a = gaussian_matrix(600, 96, &mut seeded_rng(5));
    set_rot_block(96);
    par::set_num_threads(1);
    let (base, _) = golub_kahan_svd_with_info(&a);
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        let (f, _) = golub_kahan_svd_with_info(&a);
        assert_eq!(f.s, base.s, "sigma bits changed at {threads} threads");
        assert_eq!(f.u, base.u, "U bits changed at {threads} threads");
        assert_eq!(f.vt, base.vt, "V bits changed at {threads} threads");
    }
}

#[test]
fn auto_heuristic_override_and_clamping() {
    let _g = lock_knob();
    set_rot_block(0);
    // Pure function of shape: short factors stay direct, tall factors take
    // the (cache-capped) full width, and the window never exceeds the
    // column count.
    assert_eq!(rot_block(64, 256), 1);
    assert_eq!(rot_block(127, 256), 1);
    assert_eq!(rot_block(8192, 256), 256);
    assert_eq!(rot_block(8192, 2048), 512);
    assert_eq!(rot_block(8192, 4), 1);
    set_rot_block(40);
    assert_eq!(rot_block(64, 256), 40, "override beats the heuristic");
    assert_eq!(rot_block(8192, 16), 16, "override clamps to the column count");
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
