//! Property tests for the packed parallel GEMM engine: agreement with the
//! serial reference kernels on arbitrary rectangular shapes (including
//! degenerate and tile-boundary-straddling ones), the micro-kernel matrix
//! (every available kernel against the scalar oracle), and bitwise
//! determinism across kernel thread counts per fixed kernel.

use proptest::prelude::*;
use psvd_linalg::gemm::{self, kernels, packed, reference, Blocking};
use psvd_linalg::par;
use psvd_linalg::random::{gaussian_matrix, seeded_rng};
use psvd_linalg::{MatView, Matrix};

/// Absolute tolerance for packed-vs-reference comparisons: the two tiers
/// sum in different orders, so they differ by rounding only. Gaussian
/// entries are O(1) and inner dimensions stay < 512 here, so accumulated
/// error is far below this.
const TOL: f64 = 1e-10;

fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    gaussian_matrix(rows, cols, &mut seeded_rng(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_matmul_matches_reference(
        m in 1usize..48,
        k in 0usize..70,
        n in 1usize..48,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, k, seed);
        let b = rand_mat(k, n, seed.wrapping_add(1));
        let diff = (&packed::matmul(&a, &b) - &reference::matmul(&a, &b)).max_abs();
        prop_assert!(diff < TOL, "({m},{k},{n}) diverged by {diff}");
    }

    #[test]
    fn packed_tn_matches_reference(
        k in 1usize..60,
        m in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(k, m, seed);
        let b = rand_mat(k, n, seed.wrapping_add(2));
        let diff = (&packed::matmul_tn(&a, &b) - &reference::matmul_tn(&a, &b)).max_abs();
        prop_assert!(diff < TOL, "({k},{m},{n}) diverged by {diff}");
    }

    #[test]
    fn packed_nt_matches_reference(
        m in 1usize..40,
        k in 1usize..60,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, k, seed);
        let b = rand_mat(n, k, seed.wrapping_add(3));
        let diff = (&packed::matmul_nt(&a, &b) - &reference::matmul_nt(&a, &b)).max_abs();
        prop_assert!(diff < TOL, "({m},{k},{n}) diverged by {diff}");
    }

    /// `AᵀA` is `matmul_tn(a, a)`: every kernel's engine result is exactly
    /// symmetric, the same bits at 1 and 4 threads, and within rounding of
    /// the reference loops. Rows under 256 take the full blocked path,
    /// longer ones the K-panel path; the public entry adds the reference
    /// tier under `2^20` flops.
    #[test]
    fn packed_gram_matches_reference_and_is_exactly_symmetric(
        rows in 1usize..700,
        n in 1usize..64,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(rows, n, seed);
        let want = reference::matmul_tn(&a, &a);
        prop_assert!(want == want.transpose(), "reference ({rows},{n}) not exactly symmetric");
        let mut g = Matrix::zeros(0, 0);
        gemm::matmul_tn_into(a.view(), a.view(), &mut g);
        prop_assert!(g == g.transpose(), "matmul_tn_into ({rows},{n}) not exactly symmetric");
        for &kern in kernels::available::<f64>() {
            par::set_num_threads(1);
            let g = packed::matmul_tn_with(kern, &a, &a);
            par::set_num_threads(4);
            let g4 = packed::matmul_tn_with(kern, &a, &a);
            par::set_num_threads(0);
            prop_assert!(g4 == g, "{} ({rows},{n}) changed bits at 4 threads", kern.name());
            let diff = (&g - &want).max_abs();
            prop_assert!(diff < TOL, "{} ({rows},{n}) diverged by {diff}", kern.name());
            prop_assert!(g == g.transpose(), "{} ({rows},{n}) not exactly symmetric", kern.name());
        }
    }

    #[test]
    fn packed_matvecs_bitwise_match_reference(
        m in 1usize..80,
        n in 1usize..80,
        seed in 0u64..1_000,
    ) {
        // matvec/matvec_t preserve the reference accumulation order per
        // output element, so equality here is exact, not approximate.
        let a = rand_mat(m, n, seed);
        let x: Vec<f64> = rand_mat(n, 1, seed.wrapping_add(4)).as_slice().to_vec();
        prop_assert_eq!(packed::matvec(&a, &x), reference::matvec(&a, &x));
        let xt: Vec<f64> = rand_mat(m, 1, seed.wrapping_add(5)).as_slice().to_vec();
        prop_assert_eq!(packed::matvec_t(&a, &xt), reference::matvec_t(&a, &xt));
    }
}

/// Shapes chosen to land exactly on, one under, and one over the engine's
/// tile edges (MR = 4, NR = 8, MC = 128, KC = 256).
#[test]
fn packed_tile_boundary_shapes_match_reference() {
    let dims = [1usize, 3, 4, 5, 7, 8, 9, 127, 128, 129];
    let deep = [255usize, 256, 257];
    for (di, &m) in dims.iter().enumerate() {
        let n = dims[(di + 3) % dims.len()];
        let k = deep[di % deep.len()];
        let a = rand_mat(m, k, di as u64);
        let b = rand_mat(k, n, di as u64 + 100);
        let diff = (&packed::matmul(&a, &b) - &reference::matmul(&a, &b)).max_abs();
        assert!(diff < TOL, "({m},{k},{n}) diverged by {diff}");
    }
}

/// Degenerate shapes: empty inner dimension, single row, single column.
#[test]
fn packed_degenerate_shapes() {
    assert_eq!(
        packed::matmul(&Matrix::<f64>::zeros(5, 0), &Matrix::zeros(0, 7)),
        Matrix::zeros(5, 7)
    );
    let row = rand_mat(1, 50, 7);
    let col = rand_mat(50, 1, 8);
    assert!((&packed::matmul(&row, &col) - &reference::matmul(&row, &col)).max_abs() < TOL);
    assert!((&packed::matmul(&col, &row) - &reference::matmul(&col, &row)).max_abs() < TOL);
}

/// The headline guarantee: every public entry point returns bit-for-bit
/// identical results for any thread count. Runs serially over the thread
/// counts inside one test function because `set_num_threads` is
/// process-global.
#[test]
fn results_bitwise_identical_across_thread_counts() {
    // Big enough that the adaptive entry points take the packed path
    // (2 m n k >= 2^20) and that the row partition actually splits.
    let a = rand_mat(90, 97, 11);
    let b = rand_mat(97, 93, 12);
    let c = rand_mat(90, 93, 14); // same row count as a, for AᵀC
    let tall = rand_mat(1024, 32, 16); // AᵀA on the K-panel path, a's on the full blocked
    let d = rand_mat(93, 97, 15); // same col count as a, for ADᵀ
    let x: Vec<f64> = rand_mat(97, 1, 13).as_slice().to_vec();

    par::set_num_threads(1);
    let base_mm = gemm::matmul(&a, &b);
    let base_tn = gemm::matmul_tn(&a, &c);
    let base_nt = gemm::matmul_nt(&a, &d);
    let ata = |x: &Matrix| {
        let mut g = Matrix::zeros(0, 0);
        gemm::matmul_tn_into(x.view(), x.view(), &mut g);
        g
    };
    let base_ata = [ata(&a), ata(&tall)];
    assert!(base_ata.iter().all(|g| *g == g.transpose()), "AᵀA not exactly symmetric");
    let base_mv = gemm::matvec(&a, &x);
    let base_qr = psvd_linalg::thin_qr(&a);

    for threads in [2usize, 4, 8] {
        par::set_num_threads(threads);
        assert_eq!(gemm::matmul(&a, &b), base_mm, "matmul bits changed at {threads} threads");
        assert_eq!(gemm::matmul_tn(&a, &c), base_tn, "tn bits changed at {threads}");
        assert_eq!(gemm::matmul_nt(&a, &d), base_nt, "nt bits changed at {threads}");
        assert_eq!([ata(&a), ata(&tall)], base_ata, "AᵀA bits changed at {threads} threads");
        assert_eq!(gemm::matvec(&a, &x), base_mv, "matvec bits changed at {threads} threads");
        let f = psvd_linalg::thin_qr(&a);
        assert_eq!(f.q, base_qr.q, "QR Q bits changed at {threads} threads");
        assert_eq!(f.r, base_qr.r, "QR R bits changed at {threads} threads");
    }
    par::set_num_threads(0);
}

/// The adaptive dispatch is a pure size test, so small problems stay on
/// the reference path and match it exactly.
#[test]
fn small_problems_take_reference_path_exactly() {
    let a = rand_mat(12, 9, 21);
    let b = rand_mat(9, 10, 22);
    assert_eq!(gemm::matmul(&a, &b), reference::matmul(&a, &b));
}

// --- Micro-kernel matrix ----------------------------------------------
//
// Every kernel the host can run ({scalar, fma} on an x86_64 host with
// AVX2 and FMA, {scalar} elsewhere), against the scalar determinism
// oracle. A non-fused kernel must match the oracle bit for bit; the fused
// (FMA) kernel rounds once per multiply-add and gets a rounding tolerance
// instead — but both classes must be bitwise self-consistent across
// thread counts.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_matrix_matches_scalar_oracle(
        m in 1usize..60,
        k in 1usize..80,
        n in 1usize..60,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, k, seed);
        let b = rand_mat(k, n, seed.wrapping_add(6));
        let scalar = kernels::by_name::<f64>("scalar").expect("scalar kernel always present");
        let oracle = packed::matmul_with(scalar, &a, &b);
        for &kern in kernels::available::<f64>() {
            let c = packed::matmul_with(kern, &a, &b);
            if kern.fused() {
                let diff = (&c - &oracle).max_abs();
                prop_assert!(diff < TOL, "{} ({m},{k},{n}) diverged by {diff}", kern.name());
            } else {
                prop_assert_eq!(
                    &c, &oracle,
                    "{} ({},{},{}) must be bitwise equal to the scalar oracle",
                    kern.name(), m, k, n
                );
            }
        }
    }
}

/// Per-kernel boundary shapes: exactly on, one under, and one over each
/// kernel's own MR/NR tile edges and the KC/MC block edges of its default
/// blocking — where packing zero-pads and writeback clips.
#[test]
fn kernel_matrix_boundary_shapes() {
    let scalar = kernels::by_name::<f64>("scalar").expect("scalar kernel always present");
    for &kern in kernels::available::<f64>() {
        let blk = Blocking::default_for(kern);
        let (mr, nr) = (kern.mr(), kern.nr());
        let ms = [mr - 1, mr, mr + 1, blk.mc - 1, blk.mc, blk.mc + 1];
        let ns = [nr.max(2) - 1, nr, nr + 1];
        let ks = [blk.kc - 1, blk.kc, blk.kc + 1];
        for (i, &m) in ms.iter().enumerate() {
            let m = m.max(1);
            let n = ns[i % ns.len()];
            let k = ks[i % ks.len()];
            let a = rand_mat(m, k, 31 + i as u64);
            let b = rand_mat(k, n, 131 + i as u64);
            let oracle = packed::matmul_with(scalar, &a, &b);
            let c = packed::matmul_with(kern, &a, &b);
            if kern.fused() {
                let diff = (&c - &oracle).max_abs();
                assert!(diff < TOL, "{} ({m},{k},{n}) diverged by {diff}", kern.name());
            } else {
                assert_eq!(c, oracle, "{} ({m},{k},{n}) moved bits", kern.name());
            }
            // Transposed entries run the same kernel through packing.
            let at = a.transpose();
            let c_tn = packed::matmul_tn_with(kern, &at, &b);
            if kern.fused() {
                assert!((&c_tn - &oracle).max_abs() < TOL, "{} tn", kern.name());
            } else {
                assert_eq!(c_tn, oracle, "{} tn ({m},{k},{n}) moved bits", kern.name());
            }
        }
    }
}

/// Bitwise determinism across thread counts, per fixed kernel,
/// on both a square-ish shape (full blocked path) and a tall-skinny shape
/// (the streaming path with a partial bottom strip).
#[test]
fn every_kernel_is_thread_count_invariant() {
    for &(m, k, n) in &[(137usize, 95usize, 71usize), (2048, 48, 32), (2043, 64, 24)] {
        let a = rand_mat(m, k, 41);
        let b = rand_mat(k, n, 42);
        for &kern in kernels::available::<f64>() {
            par::set_num_threads(1);
            let baseline = packed::matmul_with(kern, &a, &b);
            for threads in [2usize, 3, 4, 8] {
                par::set_num_threads(threads);
                let c = packed::matmul_with(kern, &a, &b);
                assert!(
                    c == baseline,
                    "{} ({m},{k},{n}) x {threads} threads changed bits",
                    kern.name()
                );
            }
            par::set_num_threads(0);
        }
    }
}

/// The tall-skinny dispatch shape (the streaming-SVD regime that used to
/// regress below the reference kernels) agrees with the reference result
/// through the public adaptive entry point.
#[test]
fn tall_skinny_dispatch_matches_reference() {
    let a = rand_mat(8192, 64, 51);
    let b = rand_mat(64, 64, 52);
    let diff = (&gemm::matmul(&a, &b) - &reference::matmul(&a, &b)).max_abs();
    assert!(diff < TOL, "tall-skinny dispatch diverged by {diff}");
}

// --- Column-block inner products ---------------------------------------

/// `start + [X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]`, one public `matmul_acc_into`
/// per block pair.
fn per_pair_acc(xs: &[Matrix], ys: &[Matrix], start: &Matrix) -> Matrix {
    let mut c = start.clone();
    let mut i0 = 0;
    for x in xs {
        let mut j0 = 0;
        for y in ys {
            let mut blk = c.block_mut(i0, i0 + x.cols(), j0, j0 + y.cols());
            gemm::matmul_acc_into(x.view().transposed(), y.view(), &mut blk);
            j0 += y.cols();
        }
        i0 += x.cols();
    }
    c
}

fn views(ms: &[Matrix]) -> Vec<MatView<'_>> {
    ms.iter().map(|m| m.view()).collect()
}

/// `matmul_tn_cat_into` on `start` at 1, 2 and 4 threads, each asserted
/// bitwise equal to [`per_pair_acc`].
fn assert_cat_matches_per_pair(xs: &[Matrix], ys: &[Matrix], start: &Matrix) {
    let want = per_pair_acc(xs, ys, start);
    for threads in [1, 2, 4] {
        par::set_num_threads(threads);
        let mut got = start.clone();
        gemm::matmul_tn_cat_into(&views(xs), &views(ys), &mut got.view_mut());
        assert!(got == want, "k = {}, {threads} threads: bits moved", xs[0].rows());
    }
    par::set_num_threads(0);
}

/// The streaming update's shapes, the blocks straddling `mr`/`nr` strips:
/// `Uᵀ[U | A]` and `[U | H]ᵀH` at `K = 10, B = 100` and `K = 7, B = 13`,
/// with every pair over `2^20` flops (one K-panel pass) and with pairs
/// under it (`serve_mixed`'s 2048 rows: one call per pair, as before).
#[test]
fn column_block_product_bitwise_matches_per_pair_calls_at_update_shapes() {
    for &(m, k0, b) in
        &[(8192, 10, 100), (12_000, 7, 13), (8192, 7, 13), (2048, 8, 8), (777, 24, 8)]
    {
        let u = rand_mat(m, k0, 61);
        let a = rand_mat(m, b, 62);
        let meas = [u.clone(), a.clone()];
        assert_cat_matches_per_pair(std::slice::from_ref(&u), &meas, &rand_mat(k0, k0 + b, 63));
        assert_cat_matches_per_pair(&meas, std::slice::from_ref(&a), &rand_mat(k0 + b, b, 64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn column_block_product_bitwise_matches_per_pair_calls(
        k in 1usize..6000,
        wx in proptest::collection::vec(1usize..24, 1..4),
        wy in proptest::collection::vec(1usize..40, 1..4),
        seed in 0u64..1_000,
    ) {
        let mats = |ws: &[usize], s: u64| -> Vec<Matrix> {
            ws.iter().enumerate().map(|(i, &w)| rand_mat(k, w, s + i as u64)).collect()
        };
        let (xs, ys) = (mats(&wx, seed), mats(&wy, seed + 100));
        let start = rand_mat(wx.iter().sum(), wy.iter().sum(), seed + 200);
        assert_cat_matches_per_pair(&xs, &ys, &start);
    }

    /// Every kernel, whatever the size: the kernel-pinned entry against
    /// one kernel-pinned `matmul_tn_with` per pair.
    #[test]
    fn column_block_kernel_matrix_matches_per_pair_products(
        k in 1usize..3000,
        wx in proptest::collection::vec(1usize..30, 1..3),
        wy in proptest::collection::vec(1usize..30, 1..3),
        seed in 0u64..1_000,
    ) {
        let mats = |ws: &[usize], s: u64| -> Vec<Matrix> {
            ws.iter().enumerate().map(|(i, &w)| rand_mat(k, w, s + i as u64)).collect()
        };
        let (xs, ys) = (mats(&wx, seed), mats(&wy, seed + 100));
        let (xv, yv) = (views(&xs), views(&ys));
        for &kern in kernels::available::<f64>() {
            let mut got = Matrix::zeros(wx.iter().sum(), wy.iter().sum());
            packed::matmul_tn_cat_with(kern, &xv, &yv, &mut got.view_mut());
            let (mut i0, mut want) = (0, Matrix::zeros(got.rows(), got.cols()));
            for x in &xs {
                let mut j0 = 0;
                for y in &ys {
                    let pair = packed::matmul_tn_with(kern, x, y);
                    want.block_mut(i0, i0 + x.cols(), j0, j0 + y.cols()).copy_from(pair.view());
                    j0 += y.cols();
                }
                i0 += x.cols();
            }
            prop_assert!(got == want, "{} k = {k} {wx:?} x {wy:?}: bits moved", kern.name());
        }
    }
}
