//! Packed-panel GEMM engine.
//!
//! The classic (BLIS-style) decomposition: columns of `C` are walked in
//! `NC`-wide chunks; per chunk the matching columns of `op(B)` are packed
//! once into NR-wide strips (all K-panels), and each thread packs its own
//! `MC x KC` blocks of `op(A)` into MR-tall row strips. The innermost
//! computation is an `MR x NR` register-tile [`MicroKernel`] selected at
//! process startup by CPU-feature detection (see `super::kernel`): the
//! FMA tile on x86_64 hosts with AVX2 and FMA, the portable scalar tile
//! (the determinism oracle) everywhere else. `MC`/`KC`/`NC` are
//! [`Blocking::default_for`] that kernel.
//!
//! Two shape classes skip the full blocked path, where packing costs
//! more than it saves. `m >> n, k` — the tall-skinny products TSQR and
//! the randomized range finder feed this engine — goes to
//! `super::tall_skinny`, which packs the (tiny) `op(B)` once and streams
//! `op(A)` row-panels straight through the kernel. A small `C` with a
//! long `k` — the streaming update's inner products — goes to
//! `super::inner`, which walks the `KC`-deep panels once, reading whole
//! strips of the row-major operands in place and gathering the rest into
//! buffers that do not grow with `k`; it also serves the column-block
//! products of [`super::matmul_tn_cat_into`]. The three paths are
//! bitwise identical per (kernel, `KC`), so the dispatch heuristics are
//! pure speed decisions.
//!
//! ## Parallel decomposition and determinism
//!
//! Threads own disjoint row ranges of `C` aligned to the selected
//! kernel's `mr` ([`par::strip_partition`]); nothing else is shared
//! mutably. Every `C` element accumulates its K-panel partial sums in
//! ascending panel order on whichever single thread owns it, so the
//! floating-point op sequence per element is a function of (kernel,
//! problem shape) only — results are bitwise identical for any thread
//! count. The K dimension is never split across threads.
//!
//! Transposition is free here: `op(A)`/`op(B)` are strided views
//! resolved during packing, after which N/T/NT all run the same kernel.

use super::blocking::Blocking;
use super::kernel::{self, MicroKernel, MAX_MR, MAX_NR};
use super::pack::{pack_a_strip, pack_b_strip};
use super::{inner, tall_skinny};
use crate::matrix::Matrix;
use crate::par::{self, SendPtr};
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};

/// `C += op(A) * op(B)` through the engine with the process-selected
/// kernel (any size), written to `c` with row stride `ldc` (`ldc = n`
/// for a dense output). `op(X)` is any strided [`MatView`] — normal,
/// transposed or a sub-block; packing resolves the strides, after which
/// every layout runs the same micro-kernel.
pub(crate) fn gemm<T: Scalar>(a: MatView<'_, T>, b: MatView<'_, T>, c: &mut [T], ldc: usize) {
    gemm_with(kernel::selected::<T>(), a, b, c, ldc)
}

/// [`gemm`] with the kernel pinned explicitly — the entry the
/// kernel-matrix tests drive every available kernel through.
pub(crate) fn gemm_with<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    c: &mut [T],
    ldc: usize,
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(k, b.rows);
    debug_assert!(ldc >= n);
    debug_assert!(m == 0 || n == 0 || c.len() >= (m - 1) * ldc + n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let blk = Blocking::default_for(kern);
    let (xs, ys) = ([a.transposed()], [b]);
    if inner::applies(kern, &xs, &ys) {
        inner::gemm(kern, blk.kc, &xs, &ys, c, ldc);
    } else if tall_skinny::applies(kern, m, k, n) {
        tall_skinny::gemm(kern, blk.kc, a, b, c, ldc);
    } else {
        full_blocked(kern, blk, a, b, c, ldc);
    }
}

/// The full `MC`/`KC`/`NC` blocked path (bitwise identical to the
/// tall-skinny and K-panel paths at the same kernel and `KC`; exposed
/// separately so tests can pin the paths against each other on one
/// shape).
pub(crate) fn full_blocked<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    blk: Blocking,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    c: &mut [T],
    ldc: usize,
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let (mr, nr) = (kern.mr(), kern.nr());
    // Row strips assume they never straddle an MC block edge, and packed-B
    // chunks that NC is strip-aligned; a kernel tile the default blocking
    // does not fit would silently double-count rows.
    assert_eq!(blk.mc % mr, 0, "MC = {} not aligned to kernel {:?} mr = {mr}", blk.mc, kern.name());
    assert_eq!(blk.nc % nr, 0, "NC = {} not aligned to kernel {:?} nr = {nr}", blk.nc, kern.name());
    let mut jc = 0;
    while jc < n {
        let ncw = blk.nc.min(n - jc);
        // --- Pack op(B) columns [jc, jc + ncw), panel-major then
        // NR-strip-major. The strip for K-panel [kb, kb + kc) and column
        // panel jp starts at kb * npj * nr + jp * kc * nr and holds kc
        // steps of nr values, zero-padded past column n. Strips are
        // disjoint per jp, so the packing parallelizes over column
        // panels.
        let npj = ncw.div_ceil(nr);
        let mut bpack = vec![T::ZERO; k * npj * nr];
        {
            let bptr = SendPtr(bpack.as_mut_ptr());
            par::parallel_for(npj, 8, |jp0, jp1| {
                for jp in jp0..jp1 {
                    let mut kb = 0;
                    while kb < k {
                        let kc = blk.kc.min(k - kb);
                        let base = kb * npj * nr + jp * kc * nr;
                        // SAFETY: jp strips are disjoint and this thread
                        // owns [jp0, jp1).
                        let dst = unsafe {
                            std::slice::from_raw_parts_mut(bptr.get().add(base), kc * nr)
                        };
                        pack_b_strip(b, kb, kc, jc + jp * nr, nr, dst);
                        kb += kc;
                    }
                }
            });
        }

        // --- Partition rows of C into mr-aligned contiguous ranges, one
        // per thread. The partition decides only *who* computes each
        // element, never the order of its flops.
        let (used, per) = par::strip_partition(m.div_ceil(mr));
        let cptr = SendPtr(c.as_mut_ptr());
        let bp = &bpack[..];
        par::run(used, &|tid: usize| {
            let r0 = tid * per * mr;
            let r1 = (r0 + per * mr).min(m);
            if r0 >= r1 {
                return;
            }
            thread_body(kern, blk, a, bp, cptr, jc, ncw, ldc, npj, r0, r1);
        });
        jc += ncw;
    }
}

/// One thread's share of a column chunk: rows `[r0, r1)` of `C` (`r0`
/// mr-aligned), columns `[jc, jc + ncw)`.
#[allow(clippy::too_many_arguments)]
fn thread_body<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    blk: Blocking,
    a: MatView<'_, T>,
    bpack: &[T],
    cptr: SendPtr<T>,
    jc: usize,
    ncw: usize,
    ldc: usize,
    npj: usize,
    r0: usize,
    r1: usize,
) {
    let (mr, nr) = (kern.mr(), kern.nr());
    let k = a.cols;
    let mut apack = vec![T::ZERO; blk.mc * blk.kc];
    let mut acc_buf = [T::ZERO; MAX_MR * MAX_NR];
    let acc = &mut acc_buf[..mr * nr];
    let mut kb = 0;
    // K-panels ascending: this ordering is what fixes each C element's
    // accumulation sequence independent of the partition.
    while kb < k {
        let kc = blk.kc.min(k - kb);
        let panel_base = kb * npj * nr;
        let mut mb = r0;
        while mb < r1 {
            let mc = blk.mc.min(r1 - mb);
            let mstrips = mc.div_ceil(mr);
            // Pack this MC x kc block of op(A) into mr-tall strips,
            // zero-padding rows past r1 (only possible at the bottom edge
            // of the matrix, since r1 is mr-aligned elsewhere).
            for ip in 0..mstrips {
                let i0 = mb + ip * mr;
                let rows_here = mr.min(r1 - i0);
                pack_a_strip(
                    a,
                    i0,
                    rows_here,
                    kb,
                    kc,
                    mr,
                    &mut apack[ip * kc * mr..(ip + 1) * kc * mr],
                );
            }
            for jp in 0..npj {
                let bstrip = &bpack[panel_base + jp * kc * nr..panel_base + (jp + 1) * kc * nr];
                let jcount = nr.min(ncw - jp * nr);
                for ip in 0..mstrips {
                    let i0 = mb + ip * mr;
                    acc.fill(T::ZERO);
                    kern.run(&apack[ip * kc * mr..(ip + 1) * kc * mr], bstrip, acc);
                    let rows_here = mr.min(r1 - i0);
                    // SAFETY: rows [r0, r1) belong to this thread's
                    // disjoint range.
                    unsafe { writeback(cptr, acc, nr, i0, rows_here, jc + jp * nr, jcount, ldc) };
                }
            }
            mb += mc;
        }
        kb += kc;
    }
}

/// Scatter one accumulator tile into `C`: rows `[i0, i0 + rows)`, columns
/// `[j0, j0 + jcount)`, accumulating (`+=`).
///
/// # Safety
///
/// The caller must own rows `[i0, i0 + rows)` of the `C` buffer behind
/// `cptr` exclusively (the engines partition rows disjointly across
/// threads) and `acc` must hold at least `rows * nr` elements.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) unsafe fn writeback<T: Scalar>(
    cptr: SendPtr<T>,
    acc: &[T],
    nr: usize,
    i0: usize,
    rows: usize,
    j0: usize,
    jcount: usize,
    ldc: usize,
) {
    for ir in 0..rows {
        let src = &acc[ir * nr..ir * nr + jcount];
        let dst = cptr.get().add((i0 + ir) * ldc + j0);
        for (jr, &v) in src.iter().enumerate() {
            *dst.add(jr) += v;
        }
    }
}

/// `C = A * B` through the packed engine regardless of size.
pub fn matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    matmul_with(kernel::selected::<T>(), a, b)
}

/// `C = Aᵀ * B` through the packed engine regardless of size.
pub fn matmul_tn<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    matmul_tn_with(kernel::selected::<T>(), a, b)
}

/// `C = A * Bᵀ` through the packed engine regardless of size.
pub fn matmul_nt<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    matmul_nt_with(kernel::selected::<T>(), a, b)
}

/// [`matmul`] with the micro-kernel pinned explicitly. This is the
/// kernel-matrix entry for tests: no global state is touched, so
/// different kernels can be compared concurrently.
pub fn matmul_with<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions mismatch {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut c = Matrix::zeros(a.rows(), b.cols());
    let ldc = c.cols();
    gemm_with(kern, a.view(), b.view(), c.as_mut_slice(), ldc);
    c
}

/// [`matmul_tn`] with the micro-kernel pinned explicitly.
pub fn matmul_tn_with<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: row counts must match");
    let mut c = Matrix::zeros(a.cols(), b.cols());
    let ldc = c.cols();
    gemm_with(kern, a.view().transposed(), b.view(), c.as_mut_slice(), ldc);
    c
}

/// [`matmul_nt`] with the micro-kernel pinned explicitly.
pub fn matmul_nt_with<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: column counts must match");
    let mut c = Matrix::zeros(a.rows(), b.rows());
    let ldc = c.cols();
    gemm_with(kern, a.view(), b.view().transposed(), c.as_mut_slice(), ldc);
    c
}

/// `C += [X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]` through the packed engine with the
/// micro-kernel pinned, whatever the size: one pass of the K-panel path
/// when the stacked shape takes it, else one product per block pair.
/// Either way each `C` element gets the bits its own pair's product
/// gives. The kernel-matrix entry of [`super::matmul_tn_cat_into`].
pub fn matmul_tn_cat_with<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    xs: &[MatView<'_, T>],
    ys: &[MatView<'_, T>],
    c: &mut MatViewMut<'_, T>,
) {
    super::check_cat(xs, ys, c);
    let (m, k, n) = inner::shape(xs, ys);
    let ldc = c.rs;
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if inner::applies(kern, xs, ys) {
        inner::gemm(kern, Blocking::default_for(kern).kc, xs, ys, c.data, ldc);
    } else {
        super::each_pair(xs, ys, c.data, ldc, |x, y, c| gemm_with(kern, x.transposed(), y, c, ldc));
    }
}

/// `y = A * x`, rows partitioned across threads. Each `y[i]` is one
/// serial dot product, so the result is identical to the reference
/// kernel at any thread count.
pub fn matvec<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
    let m = a.rows();
    let mut y = vec![T::ZERO; m];
    let yptr = SendPtr(y.as_mut_ptr());
    par::parallel_for(m, 64, |i0, i1| {
        for i in i0..i1 {
            let s: T = a.row(i).iter().zip(x).map(|(av, xv)| *av * *xv).sum();
            // SAFETY: rows [i0, i1) are this thread's disjoint range.
            unsafe { *yptr.get().add(i) = s };
        }
    });
    y
}

/// Columns of `y = Aᵀx` summed in one stack accumulator.
const MATVEC_T_TILE: usize = 64;

/// `y = Aᵀ * x`, output *columns* partitioned across threads; every
/// thread sweeps all rows of its column slice in ascending row order —
/// the exact accumulation order of the reference kernel — so no
/// reduction is split and results match bitwise at any thread count.
/// A thread sweeps its slice one 64-column tile at a time
/// (one tile for every query shape the workloads run), the tile's sums
/// in a fixed-size local array.
pub fn matvec_t<T: Scalar>(a: &Matrix<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.rows(), x.len(), "matvec_t: dimension mismatch");
    let n = a.cols();
    let mut y = vec![T::ZERO; n];
    let yptr = SendPtr(y.as_mut_ptr());
    par::parallel_for(n, MATVEC_T_TILE, |j0, j1| {
        // SAFETY: columns [j0, j1) are this thread's disjoint range,
        // so these &mut subslices of y never overlap.
        let ys = unsafe { std::slice::from_raw_parts_mut(yptr.get().add(j0), j1 - j0) };
        for (t, yt) in ys.chunks_mut(MATVEC_T_TILE).enumerate() {
            let c0 = j0 + t * MATVEC_T_TILE;
            let mut acc = [T::ZERO; MATVEC_T_TILE];
            let acc = &mut acc[..yt.len()];
            for (i, &xi) in x.iter().enumerate() {
                let arow = &a.row(i)[c0..c0 + acc.len()];
                for (s, av) in acc.iter_mut().zip(arow) {
                    *s += *av * xi;
                }
            }
            yt.copy_from_slice(acc);
        }
    });
    y
}
