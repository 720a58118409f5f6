//! Matrix multiplication kernels.
//!
//! Four tiers share one public API, and the product functions choose
//! among them in one place (`product`), from the problem shape only:
//!
//! * [`mod@reference`] — simple cache-blocked serial loops, taken below
//!   `2mkn = 2^20` flops. These are the semantic ground truth: easy to
//!   audit, tested directly against naive triple loops, and used verbatim
//!   for problems too small to amortize packing and thread dispatch.
//! * [`packed`] full blocked — a BLIS-style packed-panel engine whose
//!   inner `MR x NR` register tile is a [`kernels::MicroKernel`] selected
//!   once per process by runtime CPU-feature detection (the FMA
//!   `std::arch` kernel on x86_64 hosts with AVX2 and FMA, the portable
//!   scalar oracle everywhere else; override with `PSVD_GEMM_KERNEL`),
//!   parallelized over row blocks of `C` by the persistent worker pool in
//!   [`crate::par`]. Cache blocking (`MC`/`KC`/`NC`) is derived from the
//!   kernel on every call.
//! * the packed engine's tall-skinny path — shapes with `m >> n, k` (the
//!   `Q·U'` of `tall_stream`, `era5_ooc` and `burgers_dist`) skip
//!   A-packing entirely and stream `op(A)` through the same kernel,
//!   bitwise identical to the full blocked path.
//! * the packed engine's K-panel path — inner products with a small `C`
//!   and a long `k` (the streaming update's `Uᵀ[U | A]` and `[U | H]ᵀH`, a
//!   WY trailing update's `Yᵀ·C`) walk the `KC`-deep panels once, the
//!   kernel reading whole strips of the row-major operands in place,
//!   instead of packing all of `op(B)` first; again bitwise identical to
//!   the full blocked path. [`matmul_tn_cat_into`] runs it over column
//!   blocks, `[X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]` in one pass.
//!
//! DESIGN.md "SIMD micro-kernels" names the workload shapes that take
//! each tier and kernel, with the timings that keep them.
//!
//! Because the tier is a pure function of the *problem size* — never of
//! the thread count — a given problem always takes the same code path
//! and, because the engine partitions output elements (no split-K
//! reductions), produces bitwise-identical results for every value of
//! `PSVD_NUM_THREADS`, including 1. The full determinism contract is per
//! (kernel, thread-count): with the kernel fixed — and it is immutable
//! once resolved for a process — any thread count gives the same bits,
//! and `PSVD_GEMM_KERNEL=scalar` reproduces the pre-SIMD engine
//! bit-for-bit.
//!
//! Transpose-aware variants avoid materializing explicit transposes for
//! the `AᵀB` / `ABᵀ` patterns the SVD drivers hit constantly (Gram
//! matrices, projections); the packed engine absorbs transposition into
//! its panel packing, so both layouts run the same micro-kernel.

pub(crate) mod blocking;
mod inner;
pub(crate) mod kernel;
mod pack;
mod tall_skinny;
#[cfg(target_arch = "x86_64")]
mod x86;

pub mod packed;
pub mod reference;

pub use blocking::Blocking;

/// Micro-kernel introspection: the [`MicroKernel`](kernels::MicroKernel)
/// trait, the host's available kernel list, name lookup, and the
/// process-wide selection. Tests drive specific kernels through
/// [`packed::matmul_with`] and friends; nothing here is mutable.
pub mod kernels {
    pub use super::kernel::{available, by_name, selected, MicroKernel};
}

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};

/// Flop count (`2mnk`) above which matrix-matrix products use the packed
/// parallel engine. Below it, packing overhead dominates and the serial
/// reference loops win.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Flop count (`2mn`) above which matrix-vector products are threaded.
const PAR_MIN_MV_FLOPS: usize = 1 << 18;

/// `C += op(A) * op(B)` into `c` at row stride `ldc`: the one tier
/// decision every matrix product takes — a pure function of the problem
/// *shape*, never of strides or thread count.
fn product<T: Scalar>(a: MatView<'_, T>, b: MatView<'_, T>, c: &mut [T], ldc: usize) {
    if 2 * a.rows() * a.cols() * b.cols() >= PAR_MIN_FLOPS {
        packed::gemm(a, b, c, ldc);
    } else {
        reference::gemm_view(a, b, c, ldc);
    }
}

/// `C = A * B`.
pub fn matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::zeros(0, 0);
    matmul_into(a.view(), b.view(), &mut c);
    c
}

/// `C = Aᵀ * B` without materializing `Aᵀ`.
pub fn matmul_tn<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::zeros(0, 0);
    matmul_tn_into(a.view(), b.view(), &mut c);
    c
}

/// `C = A * Bᵀ` without materializing `Bᵀ`.
pub fn matmul_nt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    let mut c = Matrix::zeros(0, 0);
    matmul_nt_into(a.view(), b.view(), &mut c);
    c
}

/// `y = A * x`.
pub fn matvec<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
    if 2 * a.rows() * a.cols() >= PAR_MIN_MV_FLOPS {
        packed::matvec(a, x)
    } else {
        reference::matvec(a, x)
    }
}

/// `y = Aᵀ * x`.
pub fn matvec_t<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.rows(), x.len(), "matvec_t: dimension mismatch");
    if 2 * a.rows() * a.cols() >= PAR_MIN_MV_FLOPS {
        packed::matvec_t(a, x)
    } else {
        reference::matvec_t(a, x)
    }
}

// --- View-consuming `_into` entry points ---------------------------------
//
// The allocating products above are these on a fresh matrix. Outputs are
// reshaped in place: when the destination buffer already has enough
// capacity, the call performs zero heap allocation. Input views borrow
// their matrices immutably while `c` is borrowed mutably, so input/output
// aliasing is rejected at compile time.

/// `C = A * B` written into `c`. Bitwise identical to [`matmul`].
pub fn matmul_into<T: Scalar>(a: MatView<'_, T>, b: MatView<'_, T>, c: &mut Matrix<T>) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions mismatch {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    c.reshape_zeroed(a.rows(), b.cols());
    product(a, b, c.as_mut_slice(), b.cols());
}

/// `C = Aᵀ * B` written into `c` without materializing `Aᵀ`. Bitwise
/// identical to [`matmul_tn`].
pub fn matmul_tn_into<T: Scalar>(a: MatView<'_, T>, b: MatView<'_, T>, c: &mut Matrix<T>) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: row counts must match");
    c.reshape_zeroed(a.cols(), b.cols());
    product(a.transposed(), b, c.as_mut_slice(), b.cols());
}

/// `C = A * Bᵀ` written into `c` without materializing `Bᵀ`. Bitwise
/// identical to [`matmul_nt`].
pub fn matmul_nt_into<T: Scalar>(a: MatView<'_, T>, b: MatView<'_, T>, c: &mut Matrix<T>) {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: column counts must match");
    c.reshape_zeroed(a.rows(), b.rows());
    product(a, b.transposed(), c.as_mut_slice(), b.rows());
}

/// `C += A * B` accumulated into a mutable strided view with unit column
/// stride (e.g. a [`Matrix::block_mut`] trailing-matrix region). This is
/// the update primitive of the blocked compact-WY factorizations: both
/// tiers accumulate per output element in ascending `k`, so the tier
/// dispatch keeps results bitwise deterministic across thread counts,
/// exactly like [`matmul_into`].
pub fn matmul_acc_into<T: Scalar>(a: MatView<'_, T>, b: MatView<'_, T>, c: &mut MatViewMut<'_, T>) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_acc_into: inner dimensions mismatch {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols()),
        "matmul_acc_into: output shape mismatch"
    );
    assert_eq!(c.cs, 1, "matmul_acc_into: output must have unit column stride");
    product(a, b, c.data, c.rs);
}

/// `C += [X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]`: every product `X_iᵀ·Y_j` of the
/// column blocks, accumulated into its block of `c` (rows at `X_i`'s
/// offset among the `X`s, columns at `Y_j`'s among the `Y`s), which must
/// have unit column stride. Every block has the same row count `k`.
///
/// Bitwise identical to one [`matmul_acc_into`]`(X_iᵀ, Y_j)` per block
/// pair, at any thread count. When every pair is at least `2^20` flops and
/// the stacked shape suits the engine's K-panel path (a small `C`, a long
/// `k`), that path computes all of them in one pass over the `k` rows, so
/// a block shared by several pairs — the `U` of the streaming update's
/// `Uᵀ[U | A]` — is read once. Otherwise the pairs run one by one, each
/// taking its own tier.
pub fn matmul_tn_cat_into<T: Scalar>(
    xs: &[MatView<'_, T>],
    ys: &[MatView<'_, T>],
    c: &mut MatViewMut<'_, T>,
) {
    check_cat(xs, ys, c);
    let k = xs.first().map_or(0, |x| x.rows());
    let small = xs.iter().any(|x| ys.iter().any(|y| 2 * k * x.cols() * y.cols() < PAR_MIN_FLOPS));
    if small {
        let ldc = c.rs;
        each_pair(xs, ys, c.data, ldc, |x, y, c| product(x.transposed(), y, c, ldc));
    } else {
        packed::matmul_tn_cat_with(kernels::selected(), xs, ys, c);
    }
}

/// The shape checks of a column-block product: equal row counts, and `c`
/// as tall as the `X`s are wide and as wide as the `Y`s, unit column
/// stride.
fn check_cat<T: Scalar>(xs: &[MatView<'_, T>], ys: &[MatView<'_, T>], c: &MatViewMut<'_, T>) {
    let k = xs.first().map_or(0, |x| x.rows());
    assert!(
        xs.iter().chain(ys).all(|v| v.rows() == k),
        "matmul_tn_cat_into: every block must have {k} rows"
    );
    let m: usize = xs.iter().map(|x| x.cols()).sum();
    let n: usize = ys.iter().map(|y| y.cols()).sum();
    assert_eq!((c.rows(), c.cols()), (m, n), "matmul_tn_cat_into: output shape mismatch");
    assert_eq!(c.cs, 1, "matmul_tn_cat_into: output must have unit column stride");
}

/// Run `f(X_i, Y_j, C_ij)` for every non-empty block pair, `C_ij` the
/// tail of `c` (row stride `ldc`) from the pair's top-left element.
fn each_pair<T: Scalar>(
    xs: &[MatView<'_, T>],
    ys: &[MatView<'_, T>],
    c: &mut [T],
    ldc: usize,
    mut f: impl FnMut(MatView<'_, T>, MatView<'_, T>, &mut [T]),
) {
    let mut i0 = 0;
    for x in xs.iter().filter(|x| x.cols() > 0) {
        let mut j0 = 0;
        for y in ys.iter().filter(|y| y.cols() > 0) {
            f(*x, *y, &mut c[i0 * ldc + j0..]);
            j0 += y.cols();
        }
        i0 += x.cols();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn test_mat(r: usize, c: usize, seed: f64) -> Matrix {
        Matrix::from_fn(r, c, |i, j| ((i * 31 + j * 17) as f64 * seed).sin())
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_matches_naive_rectangular() {
        let a = test_mat(37, 53, 0.7);
        let b = test_mat(53, 29, 1.3);
        let c = matmul(&a, &b);
        let d = naive(&a, &b);
        assert!((&c - &d).max_abs() < 1e-12);
    }

    #[test]
    fn matmul_crosses_block_boundaries() {
        let a = test_mat(130, 70, 0.3);
        let b = test_mat(70, 65, 0.9);
        assert!((&matmul(&a, &b) - &naive(&a, &b)).max_abs() < 1e-11);
    }

    #[test]
    fn matmul_identity() {
        let a = test_mat(20, 20, 0.5);
        let i = Matrix::identity(20);
        assert!((&matmul(&a, &i) - &a).max_abs() < 1e-15);
        assert!((&matmul(&i, &a) - &a).max_abs() < 1e-15);
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = test_mat(40, 13, 0.2);
        let b = test_mat(40, 21, 0.4);
        let c = matmul_tn(&a, &b);
        let d = matmul(&a.transpose(), &b);
        assert!((&c - &d).max_abs() < 1e-12);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = test_mat(23, 40, 0.2);
        let b = test_mat(31, 40, 0.4);
        let c = matmul_nt(&a, &b);
        let d = matmul(&a, &b.transpose());
        assert!((&c - &d).max_abs() < 1e-12);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = test_mat(17, 9, 0.8);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).cos()).collect();
        let y = matvec(&a, &x);
        let xm = Matrix::from_columns(std::slice::from_ref(&x));
        let ym = matmul(&a, &xm);
        for i in 0..17 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-13);
        }
    }

    #[test]
    fn matvec_t_matches() {
        let a = test_mat(17, 9, 0.8);
        let x: Vec<f64> = (0..17).map(|i| (i as f64).cos()).collect();
        let y = matvec_t(&a, &x);
        let expected = matvec(&a.transpose(), &x);
        for (yv, ev) in y.iter().zip(&expected) {
            assert!((yv - ev).abs() < 1e-13);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        matmul(&a, &b);
    }

    // --- Packed engine vs reference ---------------------------------

    #[test]
    fn packed_matmul_matches_reference_odd_shapes() {
        // Shapes chosen to straddle MR/NR/KC/MC tile boundaries.
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 17), (129, 257, 65), (130, 300, 33)]
        {
            let a = test_mat(m, k, 0.37);
            let b = test_mat(k, n, 0.73);
            let diff = (&packed::matmul(&a, &b) - &reference::matmul(&a, &b)).max_abs();
            assert!(diff < 1e-11, "({m},{k},{n}) diverged by {diff}");
        }
    }

    #[test]
    fn packed_handles_degenerate_shapes() {
        // k = 0: the product is defined and identically zero.
        let a = Matrix::<f64>::zeros(4, 0);
        let b = Matrix::zeros(0, 6);
        assert_eq!(packed::matmul(&a, &b), Matrix::zeros(4, 6));
        // Single row / single column operands.
        let r = test_mat(1, 40, 0.5);
        let c = test_mat(40, 1, 0.9);
        assert!((&packed::matmul(&r, &c) - &reference::matmul(&r, &c)).max_abs() < 1e-12);
        assert!((&packed::matmul(&c, &r) - &reference::matmul(&c, &r)).max_abs() < 1e-12);
    }

    #[test]
    fn packed_tn_nt_match_reference() {
        let a = test_mat(70, 37, 0.21);
        let b = test_mat(70, 51, 0.43);
        assert!((&packed::matmul_tn(&a, &b) - &reference::matmul_tn(&a, &b)).max_abs() < 1e-11);
        let a = test_mat(37, 70, 0.21);
        let b = test_mat(51, 70, 0.43);
        assert!((&packed::matmul_nt(&a, &b) - &reference::matmul_nt(&a, &b)).max_abs() < 1e-11);
    }

    #[test]
    fn packed_matvecs_bitwise_match_reference() {
        let a = test_mat(67, 45, 0.83);
        let x: Vec<f64> = (0..45).map(|i| (i as f64 * 0.17).cos()).collect();
        assert_eq!(packed::matvec(&a, &x), reference::matvec(&a, &x));
        let xt: Vec<f64> = (0..67).map(|i| (i as f64 * 0.11).sin()).collect();
        assert_eq!(packed::matvec_t(&a, &xt), reference::matvec_t(&a, &xt));
    }

    #[test]
    fn packed_matvec_t_tiles_bitwise_match_reference() {
        // Widths either side of the 64-column tile, and one (200) that
        // splits across threads and into several tiles per thread.
        let x: Vec<f64> = (0..301).map(|i| (i as f64 * 0.13).sin()).collect();
        for n in [1, 8, 10, 16, 24, 33, 64, 65, 200] {
            let a = test_mat(301, n, 0.37);
            let want = reference::matvec_t(&a, &x);
            for threads in [1, 4] {
                par::set_num_threads(threads);
                assert_eq!(packed::matvec_t(&a, &x), want, "{n} columns, {threads} threads");
            }
            par::set_num_threads(0);
        }
    }

    #[test]
    fn into_kernels_bitwise_match_allocating() {
        // Straddle the dispatch threshold: 90*97*93*2 < 2^20 < 137*95*171*2.
        for &(m, k, n) in &[(12, 9, 10), (90, 97, 93), (137, 95, 171)] {
            let a = test_mat(m, k, 0.37);
            let b = test_mat(k, n, 0.73);
            let bt = b.transpose();
            let mut c = Matrix::zeros(1, 1);
            matmul_into(a.view(), b.view(), &mut c);
            assert_eq!(c, matmul(&a, &b), "matmul_into ({m},{k},{n})");
            let mut ctn = Matrix::zeros(0, 0);
            let atall = test_mat(k, m, 0.51);
            matmul_tn_into(atall.view(), b.view(), &mut ctn);
            assert_eq!(ctn, matmul_tn(&atall, &b), "matmul_tn_into ({k},{m},{n})");
            let mut cnt = Matrix::zeros(0, 0);
            matmul_nt_into(a.view(), bt.view(), &mut cnt);
            assert_eq!(cnt, matmul_nt(&a, &bt), "matmul_nt_into ({m},{k},{n})");
        }
    }

    #[test]
    fn into_kernels_accept_strided_views() {
        let big = test_mat(60, 50, 0.41);
        // A strided interior block vs its materialized copy.
        let blk = big.block(7, 43, 5, 29);
        let cpy = big.submatrix(7, 43, 5, 29);
        let rhs = test_mat(24, 11, 0.77);
        let mut c_view = Matrix::zeros(0, 0);
        let mut c_copy = Matrix::zeros(0, 0);
        matmul_into(blk, rhs.view(), &mut c_view);
        matmul_into(cpy.view(), rhs.view(), &mut c_copy);
        assert_eq!(c_view, c_copy, "strided A block must not change bits");
        // Transposed view on the left of a plain product == matmul_tn.
        let mut c_t = Matrix::zeros(0, 0);
        matmul_into(big.view().transposed(), big.view(), &mut c_t);
        assert_eq!(c_t, matmul_tn(&big, &big));
    }

    #[test]
    #[should_panic(expected = "inner dimensions mismatch")]
    fn matmul_into_dim_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        matmul_into(a.view(), b.view(), &mut Matrix::zeros(0, 0));
    }

    #[test]
    fn packed_bitwise_identical_across_thread_counts() {
        let a = test_mat(137, 95, 0.29);
        let b = test_mat(95, 71, 0.53);
        let baseline = {
            par::set_num_threads(1);
            packed::matmul(&a, &b)
        };
        for threads in [2, 3, 4, 8] {
            par::set_num_threads(threads);
            let c = packed::matmul(&a, &b);
            assert_eq!(c, baseline, "thread count {threads} changed bits");
        }
        par::set_num_threads(0);
    }

    // --- Kernel family invariants ------------------------------------

    /// The per-element op-order oracle of the packed engine: each `C`
    /// element is a sum over ascending `KC`-deep K-panels, every panel's
    /// partial accumulated from zero in ascending `k` with separate
    /// mul/add roundings, then added to `C` once. This is the pre-SIMD
    /// engine's exact flop sequence, written independently of the tile
    /// machinery — if a kernel, a path, or a refactor moves one bit,
    /// comparison with this oracle catches it.
    fn panel_oracle(a: &Matrix, b: &Matrix, kc: usize) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut tot = 0.0f64;
                let mut kb = 0;
                while kb < k {
                    let kmax = (kb + kc).min(k);
                    let mut p = 0.0f64;
                    for kk in kb..kmax {
                        p += a[(i, kk)] * b[(kk, j)];
                    }
                    tot += p;
                    kb = kmax;
                }
                c[(i, j)] = tot;
            }
        }
        c
    }

    #[test]
    fn non_fused_kernels_bitwise_match_panel_oracle() {
        // Shapes straddling MR/NR strips and the KC panel boundary.
        for &(m, k, n) in &[(13, 300, 21), (64, 256, 64), (65, 257, 9)] {
            let a = test_mat(m, k, 0.33);
            let b = test_mat(k, n, 0.71);
            let want = panel_oracle(&a, &b, blocking::DEFAULT_KC);
            for kern in kernels::available::<f64>().iter().filter(|kern| !kern.fused()) {
                let got = packed::matmul_with(*kern, &a, &b);
                assert_eq!(got, want, "{} ({m},{k},{n}) moved bits off the oracle", kern.name());
            }
        }
    }

    #[test]
    fn fused_kernels_stay_within_tolerance_of_oracle() {
        let (m, k, n) = (65, 300, 33);
        let a = test_mat(m, k, 0.27);
        let b = test_mat(k, n, 0.81);
        let want = panel_oracle(&a, &b, blocking::DEFAULT_KC);
        for kern in kernels::available::<f64>().iter().filter(|kern| kern.fused()) {
            let got = packed::matmul_with(*kern, &a, &b);
            let diff = (&got - &want).max_abs();
            assert!(diff < 1e-12, "{} diverged by {diff}", kern.name());
        }
    }

    #[test]
    fn tall_skinny_path_bitwise_matches_full_blocked() {
        // A shape the heuristic routes to the streaming path, plus edge
        // rows (2043 % mr != 0 for every kernel) and a strided operand.
        let a = test_mat(2043, 48, 0.19);
        let b = test_mat(48, 32, 0.57);
        for kern in kernels::available::<f64>() {
            let blk = Blocking::default_for(*kern);
            assert!(tall_skinny::applies(*kern, a.rows(), a.cols(), b.cols()));
            let mut c_ts = Matrix::zeros(a.rows(), b.cols());
            let ldc = c_ts.cols();
            tall_skinny::gemm(*kern, blk.kc, a.view(), b.view(), c_ts.as_mut_slice(), ldc);
            let mut c_full = Matrix::zeros(a.rows(), b.cols());
            packed::full_blocked(*kern, blk, a.view(), b.view(), c_full.as_mut_slice(), ldc);
            assert_eq!(c_ts, c_full, "{}: paths disagree", kern.name());
            // Strided A (transposed view of a wide matrix) takes the
            // packing fallback per strip; still identical.
            let wide = test_mat(48, 2043, 0.23);
            let mut c_str = Matrix::zeros(a.rows(), b.cols());
            tall_skinny::gemm(
                *kern,
                blk.kc,
                wide.view().transposed(),
                b.view(),
                c_str.as_mut_slice(),
                ldc,
            );
            let mut c_str_full = Matrix::zeros(a.rows(), b.cols());
            packed::full_blocked(
                *kern,
                blk,
                wide.view().transposed(),
                b.view(),
                c_str_full.as_mut_slice(),
                ldc,
            );
            assert_eq!(c_str, c_str_full, "{}: strided paths disagree", kern.name());
        }
    }

    #[test]
    fn tall_skinny_heuristic_catches_tsqr_shapes_only() {
        for kern in kernels::available::<f64>() {
            // The regression shape from the bench suite.
            assert!(tall_skinny::applies(*kern, 65536, 64, 64));
            // TSQR panel products.
            assert!(tall_skinny::applies(*kern, 16384, 32, 32));
            // Square and near-square stay on the full blocked path.
            assert!(!tall_skinny::applies(*kern, 1024, 1024, 1024));
            assert!(!tall_skinny::applies(*kern, 512, 96, 512));
        }
    }

    #[test]
    fn k_panel_heuristic_catches_the_update_inner_products() {
        // (k, widths of the X blocks, widths of the Y blocks, taken).
        let cases: [(usize, &[usize], &[usize], bool); 9] = [
            // tall_stream's Uᵀ[U | A], as one product and as blocks.
            (60000, &[24], &[32], true),
            (60000, &[24], &[24, 8], true),
            // era5_ooc's, and burgers_dist's [U | H]ᵀH.
            (65160, &[16], &[16, 8], true),
            (8192, &[110], &[100], true),
            (8192, &[10, 100], &[100], true),
            // A WY trailing update's Yᵀ·C.
            (8192, &[16], &[110], true),
            // Short k, and C too wide or too tall.
            (64, &[64], &[64], false),
            (8192, &[24], &[200], false),
            (8192, &[200], &[24], false),
        ];
        for (k, wx, wy, taken) in cases {
            let mats = |ws: &[usize]| ws.iter().map(|&w| Matrix::zeros(k, w)).collect::<Vec<_>>();
            let (xm, ym) = (mats(wx), mats(wy));
            let (xs, ys) = (views(&xm), views(&ym));
            for kern in kernels::available::<f64>() {
                assert_eq!(inner::applies(*kern, &xs, &ys), taken, "{k} {wx:?} {wy:?}");
            }
        }
        // Transposed blocks (a matmul_nt's operands) and tall-skinny
        // products stay on the packing paths.
        let (x, y) = (Matrix::<f64>::zeros(24, 60000), Matrix::zeros(32, 60000));
        let (tall, small) = (Matrix::<f64>::zeros(65536, 64), Matrix::zeros(64, 64));
        for kern in kernels::available::<f64>() {
            let (xt, yt) = (x.view().transposed(), y.view().transposed());
            assert!(!inner::applies(*kern, &[xt], &[yt]));
            assert!(!inner::applies(*kern, &[tall.view().transposed()], &[small.view()]));
        }
    }

    fn views(ms: &[Matrix]) -> Vec<MatView<'_>> {
        ms.iter().map(|m| m.view()).collect()
    }

    /// `C += [X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]` as one full blocked product per
    /// block pair: what the K-panel path must reproduce bit for bit.
    fn full_blocked_per_pair(
        kern: &dyn kernels::MicroKernel<f64>,
        xs: &[MatView<'_>],
        ys: &[MatView<'_>],
        c: &mut Matrix,
    ) {
        let ldc = c.cols();
        let blk = Blocking::default_for(kern);
        each_pair(xs, ys, c.as_mut_slice(), ldc, |x, y, c| {
            packed::full_blocked(kern, blk, x.transposed(), y, c, ldc)
        });
    }

    #[test]
    fn k_panel_path_bitwise_matches_full_blocked_per_pair() {
        // Block widths straddle the mr and nr strips (K = 10, B = 100;
        // K = 7, B = 13), k is no multiple of KC, and C starts nonzero.
        let cases: [(usize, &[usize], &[usize]); 6] = [
            (1000, &[10], &[10, 100]),
            // Too tall a C for the K-panel path: the pairs run one by one.
            (600, &[100, 100], &[8]),
            (700, &[10, 100], &[100]),
            (300, &[7], &[7, 13]),
            (513, &[7, 13], &[13]),
            (257, &[24], &[24, 8]),
        ];
        for (k, wx, wy) in cases {
            let mats = |ws: &[usize], seed: f64| -> Vec<Matrix> {
                ws.iter().enumerate().map(|(i, &w)| test_mat(k, w, seed + i as f64)).collect()
            };
            let (xm, ym) = (mats(wx, 0.31), mats(wy, 0.57));
            // Strided views of the same values: X₁ and Y₁ as blocks of
            // NaN-padded wider matrices (the K-panel path reads only the
            // block), and as transposed views of their transposes (the
            // pairs run one by one).
            let padded = |a: &Matrix| {
                Matrix::from_fn(k + 3, a.cols() + 5, |i, j| {
                    let inside = (2..k + 2).contains(&i) && (1..a.cols() + 1).contains(&j);
                    if inside {
                        a[(i - 2, j - 1)]
                    } else {
                        f64::NAN
                    }
                })
            };
            let (xpad, ypad) = (padded(&xm[0]), padded(&ym[0]));
            let (xt, yt) = (xm[0].transpose(), ym[0].transpose());
            let (xs, ys) = (views(&xm), views(&ym));
            let (mut xs_blk, mut ys_blk) = (xs.clone(), ys.clone());
            xs_blk[0] = xpad.view().block(2, k + 2, 1, wx[0] + 1);
            ys_blk[0] = ypad.view().block(2, k + 2, 1, wy[0] + 1);
            let (mut xs_t, mut ys_t) = (xs.clone(), ys.clone());
            xs_t[0] = xt.view().transposed();
            ys_t[0] = yt.view().transposed();
            let (m, n) = (wx.iter().sum::<usize>(), wy.iter().sum::<usize>());
            let start = test_mat(m, n, 0.93);
            for kern in kernels::available::<f64>() {
                let mut want = start.clone();
                full_blocked_per_pair(*kern, &xs, &ys, &mut want);
                for threads in [1, 2, 4] {
                    par::set_num_threads(threads);
                    let case =
                        format!("{} k = {k} {wx:?} x {wy:?}, {threads} threads", kern.name());
                    for (xv, yv) in [(&xs, &ys), (&xs_blk, &ys_blk)] {
                        let mut got = start.clone();
                        inner::gemm(*kern, blocking::DEFAULT_KC, xv, yv, got.as_mut_slice(), n);
                        assert_eq!(got, want, "{case}");
                    }
                    for (xv, yv) in [(&xs, &ys), (&xs_blk, &ys_blk), (&xs_t, &ys_t)] {
                        let mut cat = start.clone();
                        packed::matmul_tn_cat_with(*kern, xv, yv, &mut cat.view_mut());
                        assert_eq!(cat, want, "cat {case}");
                    }
                }
                par::set_num_threads(0);
            }
        }
    }

    #[test]
    fn per_kernel_results_are_thread_count_invariant() {
        // A tall-skinny shape so the streaming path's partition is also
        // exercised, for every kernel on the host.
        let a = test_mat(2048, 48, 0.29);
        let b = test_mat(48, 32, 0.53);
        for kern in kernels::available::<f64>() {
            par::set_num_threads(1);
            let baseline = packed::matmul_with(*kern, &a, &b);
            for threads in [2, 3, 8] {
                par::set_num_threads(threads);
                let c = packed::matmul_with(*kern, &a, &b);
                assert_eq!(c, baseline, "{} x {threads} threads changed bits", kern.name());
            }
            par::set_num_threads(0);
        }
    }
}
