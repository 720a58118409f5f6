//! Householder QR decomposition.
//!
//! The thin QR (`A = Q R`, `Q ∈ R^{m×p}`, `R ∈ R^{p×n}`, `p = min(m, n)`) is
//! the backbone of both the Levy–Lindenbaum streaming update (step 1 of
//! Algorithm 1 in the paper) and the TSQR tall-skinny factorization used by
//! the parallel driver.
//!
//! Factors are canonicalized to a non-negative `R` diagonal, which makes the
//! decomposition unique for full-rank input. The paper's Listing 4 flips the
//! sign of `qglobal`/`rfinal` ("trick for consistency"); canonicalization is
//! the principled version of that trick and is what keeps local and global
//! TSQR stages consistent across ranks.

use crate::gemm::{gram_into, matmul};
use crate::matrix::Matrix;
use crate::par;
use crate::scalar::Scalar;
use crate::view::MatView;
use crate::workspace::Workspace;
use crate::wy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Below this many flops (`4 · v.len() · columns`) a reflector sweep runs
/// on the calling thread: the p×p root factorization of TSQR and the short
/// panel columns of the blocked path would otherwise spend more time in
/// thread-pool handoff than in arithmetic. The serial path executes the
/// identical per-column instruction sequence, so the cutoff never changes
/// bits — only where they are computed.
const REFLECTOR_PAR_MIN_FLOPS: usize = 1 << 15;

/// Apply `H = I - 2 v vᵀ / vnorm2` to rows `[k, k + v.len())` of columns
/// `[j0, j1)` of the row-major buffer `data` (row stride `ld`).
///
/// Columns are independent, so the sweep is partitioned across the kernel
/// thread pool; each column's dot/update runs the exact serial instruction
/// sequence, keeping the factorization bitwise identical at any thread
/// count. Small sweeps (see [`REFLECTOR_PAR_MIN_FLOPS`]) skip the pool
/// entirely.
pub(crate) fn apply_reflector<T: Scalar>(
    data: &mut [T],
    ld: usize,
    k: usize,
    j0: usize,
    j1: usize,
    v: &[T],
    vnorm2: T,
) {
    let cols = j1 - j0;
    let two = T::from_f64(2.0);
    let ptr = par::SendPtr(data.as_mut_ptr());
    let body = |c0: usize, c1: usize| {
        for j in j0 + c0..j0 + c1 {
            let mut dot = T::ZERO;
            for (idx, vi) in v.iter().enumerate() {
                // SAFETY: each column j belongs to exactly one chunk.
                dot += *vi * unsafe { *ptr.get().add((k + idx) * ld + j) };
            }
            let s = two * dot / vnorm2;
            for (idx, vi) in v.iter().enumerate() {
                // SAFETY: as above; writes stay within this chunk's columns.
                unsafe { *ptr.get().add((k + idx) * ld + j) -= s * *vi };
            }
        }
    };
    if 4 * v.len() * cols < REFLECTOR_PAR_MIN_FLOPS {
        body(0, cols);
    } else {
        par::parallel_for(cols, 16, body);
    }
}

/// Apply `H = I - 2 w wᵀ / wnorm2` from the right to rows `[r0, r1)` of
/// the row-major buffer `data` (row stride `ld`), acting on the column
/// window `[c0, c0 + w.len())`. Rows are independent, so the sweep is
/// partitioned across rows — each row touches a contiguous slice, and the
/// per-row op sequence is fixed, keeping results bitwise identical at any
/// thread count. Used by the Golub–Kahan bidiagonalization's right
/// reflectors.
pub(crate) fn apply_reflector_right<T: Scalar>(
    data: &mut [T],
    ld: usize,
    r0: usize,
    r1: usize,
    c0: usize,
    w: &[T],
    wnorm2: T,
) {
    let rows = r1 - r0;
    let two = T::from_f64(2.0);
    let ptr = par::SendPtr(data.as_mut_ptr());
    let body = |i0: usize, i1: usize| {
        for i in r0 + i0..r0 + i1 {
            // SAFETY: each row i belongs to exactly one chunk; the window
            // [i*ld + c0, i*ld + c0 + w.len()) stays within that row.
            let row =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(i * ld + c0), w.len()) };
            let mut dot = T::ZERO;
            for (wi, ri) in w.iter().zip(row.iter()) {
                dot += *wi * *ri;
            }
            let s = two * dot / wnorm2;
            for (wi, ri) in w.iter().zip(row.iter_mut()) {
                *ri -= s * *wi;
            }
        }
    };
    if 4 * w.len() * rows < REFLECTOR_PAR_MIN_FLOPS {
        body(0, rows);
    } else {
        par::parallel_for(rows, 16, body);
    }
}

/// Process-wide programmatic override of the QR/bidiagonalization panel
/// width (`0` = resolve from the `PSVD_QR_BLOCK` env var, then the shape
/// heuristic). Takes precedence over the environment so tests and benches
/// can switch block sizes without re-execing.
static QR_BLOCK: AtomicUsize = AtomicUsize::new(0);

/// Set the compact-WY panel width for all subsequent factorizations.
/// `nb = 1` forces the unblocked reference path; `0` restores automatic
/// resolution (env var, then shape heuristic). The effective width is
/// always clamped to `min(m, n)` per call.
///
/// Note that unlike the thread count, the panel width changes the
/// floating-point result (within contract tolerances): callers comparing
/// runs bitwise must pin `nb`.
pub fn set_qr_block(nb: usize) {
    QR_BLOCK.store(nb, Ordering::Relaxed);
}

/// `PSVD_QR_BLOCK`, read once per process (consistent with how the kernel
/// thread count is resolved in [`crate::par`]).
fn env_qr_block() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PSVD_QR_BLOCK").ok().and_then(|s| s.trim().parse().ok()).filter(|&n| n > 0)
    })
}

/// Shape-based default panel width. Small factorizations stay on the
/// unblocked path (panel assembly + T recurrence overhead beats the GEMM
/// gain below ~48 columns); medium and large ones use panels sized so the
/// `(Y, T)` pair stays cache-resident while the trailing GEMM runs at full
/// packed-kernel throughput. A pure function of shape, so the dispatch
/// decision — like everything downstream of it — is independent of the
/// thread count.
fn auto_qr_block(p: usize) -> usize {
    if p < 48 {
        1
    } else if p < 128 {
        16
    } else {
        32
    }
}

/// The panel width an `m x n` factorization will actually use, after the
/// programmatic override, `PSVD_QR_BLOCK`, the shape heuristic, and the
/// `min(m, n)` clamp. Exposed so benches and tests can report / pin it.
pub fn qr_block(m: usize, n: usize) -> usize {
    let p = m.min(n).max(1);
    let cfg = QR_BLOCK.load(Ordering::Relaxed);
    let nb = if cfg > 0 { cfg } else { env_qr_block().unwrap_or_else(|| auto_qr_block(p)) };
    nb.min(p)
}

/// The result of a QR factorization: `a = q * r`.
#[derive(Clone, Debug)]
pub struct QrFactors<T: Scalar = f64> {
    /// Orthonormal factor, `m x p` with `p = min(m, n)`.
    pub q: Matrix<T>,
    /// Upper-triangular (trapezoidal if `m < n`) factor, `p x n`.
    pub r: Matrix<T>,
}

/// Thin Householder QR with canonical (non-negative) `R` diagonal.
pub fn thin_qr<T: Scalar>(a: &Matrix<T>) -> QrFactors<T> {
    let mut ws = Workspace::new();
    let mut q = Matrix::zeros(0, 0);
    let mut r = Matrix::zeros(0, 0);
    qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
    QrFactors { q, r }
}

/// Thin Householder QR of a view with canonical (non-negative) `R`
/// diagonal, writing the factors into `q` / `r` and drawing every
/// temporary from `ws`. With warm buffers the call performs zero heap
/// allocation. Bitwise identical to [`thin_qr`].
pub fn qr_thin_into<T: Scalar>(
    a: MatView<'_, T>,
    q: &mut Matrix<T>,
    r: &mut Matrix<T>,
    ws: &mut Workspace,
) {
    let (m, n) = a.shape();
    let nb = qr_block(m, n);
    if nb <= 1 {
        householder_into(a, q, r, ws);
    } else {
        householder_blocked_into(a, q, r, nb, ws);
    }
    canonicalize_qr(q, r);
}

/// The factorization core: identical arithmetic (hence identical bits) to
/// the historical allocating implementation, but every temporary — the
/// working copy of `A`, the Householder vectors, and their stored norms —
/// comes from `ws`, and the factors land in caller-owned buffers.
fn householder_into<T: Scalar>(
    a: MatView<'_, T>,
    q: &mut Matrix<T>,
    r_out: &mut Matrix<T>,
    ws: &mut Workspace,
) {
    let (m, n) = a.shape();
    let p = m.min(n);
    let mut work = ws.take(m, n);
    for i in 0..m {
        let row = work.row_mut(i);
        if a.cs == 1 {
            row.copy_from_slice(&a.data[i * a.rs..i * a.rs + n]);
        } else {
            for (j, x) in row.iter_mut().enumerate() {
                *x = a.at(i, j);
            }
        }
    }
    // Householder vectors: row k of `vs` holds v_k in its first m - k
    // entries; `vn` holds each ‖v_k‖² (0.0 marks an identity reflector).
    let mut vs = ws.take(p, m);
    let mut vn = ws.take(1, p);

    for k in 0..p {
        // Build the reflector annihilating R[k+1.., k].
        let vlen = m - k;
        {
            let vrow = &mut vs.row_mut(k)[..vlen];
            for (idx, vv) in vrow.iter_mut().enumerate() {
                *vv = work[(k + idx, k)];
            }
        }
        let alpha = {
            let v = &vs.row(k)[..vlen];
            let norm = v.iter().map(|x| *x * *x).sum::<T>().sqrt();
            if v[0] >= T::ZERO {
                -norm
            } else {
                norm
            }
        };
        if alpha == T::ZERO {
            // Column already zero below (and at) the diagonal: identity reflector.
            continue;
        }
        vs[(k, 0)] -= alpha;
        let vnorm2: T = vs.row(k)[..vlen].iter().map(|x| *x * *x).sum();
        if vnorm2 == T::ZERO {
            continue;
        }
        vn[(0, k)] = vnorm2;
        // Apply H = I - 2 v vᵀ / (vᵀv) to R[k.., k..], columns in parallel.
        apply_reflector(work.as_mut_slice(), n, k, k, n, &vs.row(k)[..vlen], vnorm2);
        // Clean the annihilated entries exactly.
        work[(k, k)] = alpha;
        for i in k + 1..m {
            work[(i, k)] = T::ZERO;
        }
    }

    // Form thin Q by applying the reflectors (in reverse) to the first p
    // columns of the identity.
    q.reshape_zeroed(m, p);
    for i in 0..p {
        q[(i, i)] = T::ONE;
    }
    for k in (0..p).rev() {
        let vnorm2 = vn[(0, k)];
        if vnorm2 == T::ZERO {
            continue;
        }
        apply_reflector(q.as_mut_slice(), p, k, 0, p, &vs.row(k)[..m - k], vnorm2);
    }

    r_out.reshape_for_overwrite(p, n);
    for i in 0..p {
        r_out.row_mut(i).copy_from_slice(work.row(i));
    }
    ws.give(work);
    ws.give(vs);
    ws.give(vn);
}

/// The blocked compact-WY factorization core: panels of `nb` columns are
/// reduced with the scalar reflector kernel (level 2, but only `nb`
/// columns wide), then the panel's reflectors are accumulated into
/// `(Y, T)` form and the entire trailing matrix is updated with
/// `C ← (I − Y Tᵀ Yᵀ) C` — two packed-GEMM calls instead of `nb`
/// full-width rank-1 sweeps. Thin Q forms the same way in reverse panel
/// order via [`wy::accumulate_reverse`].
///
/// Reflector construction is column-for-column identical to
/// [`householder_into`]; only the order in which trailing columns absorb
/// the reflectors differs, so the factors agree with the unblocked
/// reference to rounding (≪ 1e-12 relative) and are bitwise reproducible
/// across thread counts at a fixed `nb`.
fn householder_blocked_into<T: Scalar>(
    a: MatView<'_, T>,
    q: &mut Matrix<T>,
    r_out: &mut Matrix<T>,
    nb: usize,
    ws: &mut Workspace,
) {
    let (m, n) = a.shape();
    let p = m.min(n);
    debug_assert!(nb >= 2, "nb <= 1 routes to householder_into");
    let mut work = ws.take(m, n);
    for i in 0..m {
        let row = work.row_mut(i);
        if a.cs == 1 {
            row.copy_from_slice(&a.data[i * a.rs..i * a.rs + n]);
        } else {
            for (j, x) in row.iter_mut().enumerate() {
                *x = a.at(i, j);
            }
        }
    }
    // Same reflector layout as the unblocked path: row k of `vs` holds v_k
    // in its first m - k entries, `vn` each ‖v_k‖² (0.0 = identity).
    let mut vs = ws.take(p, m);
    let mut vn = ws.take(1, p);

    let mut y = ws.take(m, nb);
    let mut s = ws.take(nb, nb);
    let mut t = ws.take(nb, nb);
    let mut taus = ws.take(1, nb);

    let mut k0 = 0;
    while k0 < p {
        let nbk = nb.min(p - k0);
        // Panel reduction: reflectors k0 .. k0+nbk, applied only within
        // the panel's columns.
        for j in 0..nbk {
            let k = k0 + j;
            let vlen = m - k;
            {
                let vrow = &mut vs.row_mut(k)[..vlen];
                for (idx, vv) in vrow.iter_mut().enumerate() {
                    *vv = work[(k + idx, k)];
                }
            }
            let alpha = {
                let v = &vs.row(k)[..vlen];
                let norm = v.iter().map(|x| *x * *x).sum::<T>().sqrt();
                if v[0] >= T::ZERO {
                    -norm
                } else {
                    norm
                }
            };
            if alpha == T::ZERO {
                continue;
            }
            vs[(k, 0)] -= alpha;
            let vnorm2: T = vs.row(k)[..vlen].iter().map(|x| *x * *x).sum();
            if vnorm2 == T::ZERO {
                continue;
            }
            vn[(0, k)] = vnorm2;
            apply_reflector(work.as_mut_slice(), n, k, k, k0 + nbk, &vs.row(k)[..vlen], vnorm2);
            work[(k, k)] = alpha;
            for i in k + 1..m {
                work[(i, k)] = T::ZERO;
            }
        }
        // Trailing update through the packed GEMM engine.
        if k0 + nbk < n {
            wy::panel_y(&vs, vn.row(0), k0, nbk, m - k0, &mut y, &mut taus.row_mut(0)[..nbk]);
            gram_into(y.view(), &mut s);
            wy::build_t(&s, &taus.row(0)[..nbk], &mut t);
            t.scale_mut(-T::ONE);
            wy::apply_block_left(&y, &t, true, work.block_mut(k0, m, k0 + nbk, n), ws);
        }
        k0 += nbk;
    }
    ws.give(y);
    ws.give(s);
    ws.give(t);
    ws.give(taus);

    // Thin Q: reverse compact-WY accumulation over the same reflectors.
    q.reshape_zeroed(m, p);
    for i in 0..p {
        q[(i, i)] = T::ONE;
    }
    wy::accumulate_reverse(&vs, vn.row(0), p, 0, nb, q, ws);

    r_out.reshape_for_overwrite(p, n);
    for i in 0..p {
        r_out.row_mut(i).copy_from_slice(work.row(i));
    }
    ws.give(work);
    ws.give(vs);
    ws.give(vn);
}

/// Flip signs so that `diag(R) >= 0`, adjusting `Q` columns to keep `QR`
/// unchanged.
pub fn canonicalize<T: Scalar>(f: &mut QrFactors<T>) {
    canonicalize_qr(&mut f.q, &mut f.r);
}

/// [`canonicalize`] on loose factors (the `_into` pipelines keep `q` and
/// `r` in separate caller-owned buffers).
pub fn canonicalize_qr<T: Scalar>(q: &mut Matrix<T>, r: &mut Matrix<T>) {
    let p = r.rows();
    for k in 0..p.min(r.cols()) {
        if r[(k, k)] < T::ZERO {
            for j in 0..r.cols() {
                r[(k, j)] = -r[(k, j)];
            }
            for i in 0..q.rows() {
                q[(i, k)] = -q[(i, k)];
            }
        }
    }
}

/// Gram–Schmidt QR with re-orthogonalization (MGS2). Slightly different
/// rounding behaviour than Householder, which makes it a useful independent
/// cross-check in tests; the double pass keeps `Q` orthonormal to machine
/// precision ("twice is enough").
pub fn mgs_qr<T: Scalar>(a: &Matrix<T>) -> QrFactors<T> {
    let mut ws = Workspace::new();
    mgs_qr_with(a, &mut ws)
}

/// [`mgs_qr`] drawing its wide-matrix tail temporary from a caller-owned
/// workspace, so repeated factorizations of same-shaped inputs allocate
/// only the returned factors.
pub fn mgs_qr_with<T: Scalar>(a: &Matrix<T>, ws: &mut Workspace) -> QrFactors<T> {
    let (m, n) = a.shape();
    let p = m.min(n);
    let mut q = Matrix::zeros(m, p);
    let mut r = Matrix::zeros(p, n);
    // One reusable column buffer for all p iterations (col_iter avoids
    // the per-column Vec that Matrix::col would allocate).
    let mut v: Vec<T> = Vec::with_capacity(m);
    for j in 0..p {
        v.clear();
        v.extend(a.col_iter(j));
        for _pass in 0..2 {
            for i in 0..j {
                let mut h = T::ZERO;
                for (row, vv) in v.iter().enumerate() {
                    h += q[(row, i)] * *vv;
                }
                r[(i, j)] += h;
                for (row, vv) in v.iter_mut().enumerate() {
                    *vv -= h * q[(row, i)];
                }
            }
        }
        let norm = v.iter().map(|x| *x * *x).sum::<T>().sqrt();
        r[(j, j)] = norm;
        if norm > T::ZERO {
            for vv in &mut v {
                *vv /= norm;
            }
        }
        q.set_col(j, &v);
    }
    if n > p {
        // For wide matrices (m < n) the trailing block of R is QᵀA; exact
        // because the square orthonormal Q spans all of R^m. The tail is a
        // zero-copy view and the product lands in a workspace buffer.
        let mut qt_tail = ws.take(p, n - p);
        crate::gemm::matmul_tn_into(q.view(), a.block(0, m, p, n), &mut qt_tail);
        for i in 0..p {
            for j in 0..n - p {
                r[(i, p + j)] = qt_tail[(i, j)];
            }
        }
        ws.give(qt_tail);
    }
    let mut f = QrFactors { q, r };
    canonicalize(&mut f);
    f
}

/// Reconstruction error `‖A − QR‖_F / max(1, ‖A‖_F)`.
pub fn reconstruction_error<T: Scalar>(a: &Matrix<T>, f: &QrFactors<T>) -> f64 {
    let qr = matmul(&f.q, &f.r);
    (a - &qr).frobenius_norm().to_f64() / a.frobenius_norm().to_f64().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::orthogonality_error;

    fn test_mat(r: usize, c: usize, seed: f64) -> Matrix {
        Matrix::from_fn(r, c, |i, j| ((i * 37 + j * 11) as f64 * seed).sin() + 0.1)
    }

    #[test]
    fn qr_reconstructs_tall() {
        let a = test_mat(60, 12, 0.7);
        let f = thin_qr(&a);
        assert_eq!(f.q.shape(), (60, 12));
        assert_eq!(f.r.shape(), (12, 12));
        assert!(reconstruction_error(&a, &f) < 1e-13);
    }

    #[test]
    fn qr_reconstructs_square() {
        let a = test_mat(20, 20, 0.3);
        let f = thin_qr(&a);
        assert!(reconstruction_error(&a, &f) < 1e-13);
    }

    #[test]
    fn qr_reconstructs_wide() {
        let a = test_mat(8, 25, 0.5);
        let f = thin_qr(&a);
        assert_eq!(f.q.shape(), (8, 8));
        assert_eq!(f.r.shape(), (8, 25));
        assert!(reconstruction_error(&a, &f) < 1e-13);
    }

    #[test]
    fn q_is_orthonormal() {
        let a = test_mat(100, 15, 0.9);
        let f = thin_qr(&a);
        assert!(orthogonality_error(&f.q) < 1e-13);
    }

    #[test]
    fn r_is_upper_triangular_with_nonneg_diag() {
        let a = test_mat(40, 10, 1.1);
        let f = thin_qr(&a);
        for i in 0..10 {
            assert!(f.r[(i, i)] >= 0.0, "negative diagonal at {i}");
            for j in 0..i {
                assert_eq!(f.r[(i, j)], 0.0, "nonzero below diagonal at ({i},{j})");
            }
        }
    }

    #[test]
    fn canonical_qr_is_unique() {
        // Two different algorithms computing QR of the same well-conditioned
        // matrix should agree after canonicalization: Householder vs MGS.
        // (A Gaussian matrix is full-rank and well-conditioned w.h.p.;
        // structured sin-grids can be numerically rank-deficient, which makes
        // trailing Q columns non-unique.)
        let a = crate::random::gaussian_matrix(30, 8, &mut crate::random::seeded_rng(99));
        let f1 = thin_qr(&a);
        let f2 = mgs_qr(&a);
        assert!((&f1.r - &f2.r).max_abs() < 1e-10);
        assert!((&f1.q - &f2.q).max_abs() < 1e-10);
    }

    #[test]
    fn mgs_reconstructs_wide() {
        let a = test_mat(6, 14, 0.8);
        let f = mgs_qr(&a);
        assert!(reconstruction_error(&a, &f) < 1e-12);
    }

    #[test]
    fn qr_handles_rank_deficient() {
        // Two identical columns: rank < n. QR must still reconstruct.
        let c: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let a = Matrix::from_columns(&[c.clone(), c.clone(), (0..30).map(|i| i as f64).collect()]);
        let f = thin_qr(&a);
        assert!(reconstruction_error(&a, &f) < 1e-12);
    }

    #[test]
    fn qr_of_zero_matrix() {
        let a = Matrix::<f64>::zeros(10, 3);
        let f = thin_qr(&a);
        assert!(reconstruction_error(&a, &f) < 1e-15);
        assert_eq!(f.r, Matrix::zeros(3, 3));
    }

    #[test]
    fn qr_thin_into_bitwise_matches_thin_qr() {
        let a = test_mat(45, 13, 0.37);
        let f = thin_qr(&a);
        let mut ws = Workspace::new();
        let mut q = Matrix::zeros(0, 0);
        let mut r = Matrix::zeros(0, 0);
        qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
        assert_eq!(q, f.q);
        assert_eq!(r, f.r);
        // A strided block view factors exactly like its materialized copy.
        let blk = a.block(3, 40, 2, 11);
        let cpy = a.submatrix(3, 40, 2, 11);
        qr_thin_into(blk, &mut q, &mut r, &mut ws);
        let fb = thin_qr(&cpy);
        assert_eq!(q, fb.q);
        assert_eq!(r, fb.r);
    }

    #[test]
    fn qr_thin_into_reuses_workspace() {
        let a = test_mat(30, 6, 0.9);
        let mut ws = Workspace::new();
        let mut q = Matrix::zeros(0, 0);
        let mut r = Matrix::zeros(0, 0);
        qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
        ws.reset_stats();
        for _ in 0..5 {
            qr_thin_into(a.view(), &mut q, &mut r, &mut ws);
        }
        let s = ws.stats();
        assert_eq!(s.misses, 0, "warm workspace must serve every take");
        assert_eq!(s.fresh_bytes, 0);
        assert!(s.takes > 0);
    }

    #[test]
    fn qr_single_column() {
        let a = Matrix::from_columns(&[vec![3.0, 4.0]]);
        let f = thin_qr(&a);
        assert!((f.r[(0, 0)] - 5.0).abs() < 1e-14);
        assert!((f.q[(0, 0)] - 0.6).abs() < 1e-14);
        assert!((f.q[(1, 0)] - 0.8).abs() < 1e-14);
    }
}
