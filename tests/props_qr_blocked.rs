//! Contract tests for the blocked compact-WY QR path.
//!
//! The panel width (`set_qr_block` / `PSVD_QR_BLOCK`) — unlike the thread
//! count — changes rounding, so every test that pins it holds a process
//! lock and restores automatic resolution on drop. Within a fixed width
//! the results must be bitwise identical across thread counts; across
//! widths they must agree to factorization tolerances (orthogonality,
//! reconstruction, canonical non-negative R diagonal).

use pyparsvd::linalg::norms::orthogonality_error;
use pyparsvd::linalg::par;
use pyparsvd::linalg::qr::{qr_block, qr_thin_into, reconstruction_error, set_qr_block, QrFactors};
use pyparsvd::linalg::random::{gaussian_matrix, matrix_with_spectrum, seeded_rng};
use pyparsvd::linalg::validate::spectrum_error;
use pyparsvd::linalg::{Matrix, Workspace};
use pyparsvd::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// `set_qr_block` is process-global state; serialize every test that
/// touches it (poisoning from an asserting test must not cascade).
static QR_KNOB: Mutex<()> = Mutex::new(());

struct KnobGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for KnobGuard {
    fn drop(&mut self) {
        set_qr_block(0);
        par::set_num_threads(0);
    }
}

fn lock_knob() -> KnobGuard {
    KnobGuard(QR_KNOB.lock().unwrap_or_else(|e| e.into_inner()))
}

fn qr_with_block(a: &Matrix, nb: usize) -> QrFactors {
    set_qr_block(nb);
    let mut ws = Workspace::new();
    let mut q = Matrix::zeros(0, 0);
    let mut r = Matrix::zeros(0, 0);
    qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
    QrFactors { q, r }
}

fn assert_contract(a: &Matrix, f: &QrFactors) {
    assert!(reconstruction_error(a, f) < 1e-12, "A != QR for {:?}", a.shape());
    assert!(orthogonality_error(&f.q) < 1e-12, "Q not orthonormal for {:?}", a.shape());
    let p = f.r.rows();
    for i in 0..p.min(f.r.cols()) {
        assert!(f.r[(i, i)] >= 0.0, "negative R diagonal at {i}");
        for j in 0..i {
            assert_eq!(f.r[(i, j)], 0.0, "R not upper triangular at ({i},{j})");
        }
    }
}

#[test]
fn blocked_matches_unblocked_reference() {
    let _g = lock_knob();
    let shapes = [(200, 64), (96, 96), (64, 150)]; // tall, square, wide
    for (idx, &(m, n)) in shapes.iter().enumerate() {
        let a = gaussian_matrix(m, n, &mut seeded_rng(1000 + idx as u64));
        let base = qr_with_block(&a, 1);
        assert_contract(&a, &base);
        for nb in [4, 8, 16, 32, 64] {
            let f = qr_with_block(&a, nb);
            assert_contract(&a, &f);
            assert!(
                (&f.q - &base.q).max_abs() < 1e-12,
                "Q diverged from unblocked at nb={nb}, shape {m}x{n}"
            );
            assert!(
                (&f.r - &base.r).max_abs() < 1e-12,
                "R diverged from unblocked at nb={nb}, shape {m}x{n}"
            );
        }
    }
}

#[test]
fn strided_view_factors_like_materialized_copy() {
    let _g = lock_knob();
    set_qr_block(16);
    let a = gaussian_matrix(220, 80, &mut seeded_rng(7));
    let blk = a.block(3, 200, 5, 70);
    let cpy = a.submatrix(3, 200, 5, 70);
    let mut ws = Workspace::new();
    let (mut q1, mut r1) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut q2, mut r2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    qr_thin_into(blk, &mut q1, &mut r1, &mut ws);
    qr_thin_into(cpy.view(), &mut q2, &mut r2, &mut ws);
    // The working copy normalizes strides up front, so a view input is
    // bitwise indistinguishable from its materialized copy.
    assert_eq!(q1, q2);
    assert_eq!(r1, r2);
    assert_contract(&cpy, &QrFactors { q: q1, r: r1 });
}

#[test]
fn rank_deficient_and_zero_inputs() {
    let _g = lock_knob();
    // Rank-deficient: trailing Q columns are non-unique, so compare the
    // factorization contract rather than entries.
    let mut a = gaussian_matrix(120, 30, &mut seeded_rng(21));
    let dup = a.col(0);
    for j in 30 - 8..30 {
        a.set_col(j, &dup); // rank <= 23
    }
    // Widen past the blocking threshold by stacking the columns twice.
    let wide = a.hstack(&a);
    for nb in [1, 8, 32] {
        let f = qr_with_block(&wide, nb);
        assert!(reconstruction_error(&wide, &f) < 1e-12);
        assert!(orthogonality_error(&f.q) < 1e-12);
        for i in 0..f.r.rows() {
            assert!(f.r[(i, i)] >= 0.0);
        }
    }
    // Zero matrix: R must be exactly zero at any width.
    let z = Matrix::zeros(80, 60);
    for nb in [1, 16] {
        let f = qr_with_block(&z, nb);
        assert_eq!(f.r, Matrix::zeros(60, 60), "nb={nb}");
        assert!(orthogonality_error(&f.q) < 1e-14);
    }
}

#[test]
fn blocked_bitwise_identical_across_thread_counts() {
    let _g = lock_knob();
    // Big enough that the WY trailing updates cross the packed-GEMM
    // parallel threshold, so the row partition genuinely splits.
    let a = gaussian_matrix(600, 128, &mut seeded_rng(3));
    set_qr_block(32);
    par::set_num_threads(1);
    let base = qr_with_block(&a, 32);
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        let f = qr_with_block(&a, 32);
        assert_eq!(f.q, base.q, "Q bits changed at {threads} threads");
        assert_eq!(f.r, base.r, "R bits changed at {threads} threads");
    }
}

#[test]
fn unblocked_bitwise_identical_across_thread_counts() {
    let _g = lock_knob();
    // The early reflectors sweep 32+ columns of 4000 rows, past the serial
    // cutoff, so the grain-16 column partition genuinely splits.
    let a = gaussian_matrix(4000, 40, &mut seeded_rng(5));
    par::set_num_threads(1);
    let base = qr_with_block(&a, 1);
    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        let f = qr_with_block(&a, 1);
        assert_eq!(f.q, base.q, "Q bits changed at {threads} threads");
        assert_eq!(f.r, base.r, "R bits changed at {threads} threads");
    }
}

#[test]
fn blocked_path_reuses_workspace() {
    let _g = lock_knob();
    set_qr_block(16);
    let a = gaussian_matrix(120, 64, &mut seeded_rng(11));
    let mut ws = Workspace::new();
    let mut q = Matrix::zeros(0, 0);
    let mut r = Matrix::zeros(0, 0);
    qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
    ws.reset_stats();
    for _ in 0..5 {
        qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
    }
    let s = ws.stats();
    assert_eq!(s.misses, 0, "warm workspace must serve every blocked-path take");
    assert_eq!(s.fresh_bytes, 0);
    assert!(s.takes > 0);
}

#[test]
fn parallel_streaming_matches_unblocked_seed() {
    let _g = lock_knob();
    // A full distributed run whose local and root TSQR stages both cross
    // the blocking threshold (80x48 local, 96x48 stacked at the root).
    let spec: Vec<f64> = (0..48).map(|i| 5.0 * 0.85f64.powi(i)).collect();
    let a = matrix_with_spectrum(160, 48, &spec, &mut seeded_rng(99));
    let run = |nb: usize| {
        set_qr_block(nb);
        let blocks = pyparsvd::data::partition::split_rows(&a, 2);
        let cfg = SvdConfig::new(8).with_r1(48).with_r2(48);
        let world = World::new(2);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&blocks[comm.rank()], 48);
            d.singular_values().to_vec()
        });
        assert_eq!(out[0], out[1], "ranks disagree at nb={nb}");
        out[0].clone()
    };
    let reference = run(1); // the unblocked seed path
    let blocked = run(8);
    assert!(
        spectrum_error(&reference, &blocked) < 1e-9,
        "blocked spectrum {blocked:?} vs seed {reference:?}"
    );
}

#[test]
fn auto_heuristic_and_clamping() {
    let _g = lock_knob();
    set_qr_block(0);
    // Pure function of shape: small problems stay unblocked, large ones
    // get cache-sized panels, and the width never exceeds min(m, n).
    assert_eq!(qr_block(45, 13), 1);
    assert_eq!(qr_block(30, 6), 1);
    assert_eq!(qr_block(200, 64), 16);
    assert_eq!(qr_block(16384, 128), 32);
    set_qr_block(64);
    assert_eq!(qr_block(100, 8), 8, "explicit width must clamp to min(m, n)");
    assert_eq!(qr_block(4096, 256), 64);
}
