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

use crate::gemm::{matmul, matmul_tn_into};
use crate::matrix::Matrix;
use crate::par;
use crate::scalar::Scalar;
use crate::view::MatView;
use crate::workspace::Workspace;
use crate::wy;

/// Below this many flops (`4 · v.len() · columns`) a reflector sweep runs
/// on the calling thread: the p×p root factorization of TSQR and the short
/// panel columns of the blocked path would otherwise spend more time in
/// thread-pool handoff than in arithmetic. Above it the sweep's columns are
/// split into one contiguous chunk per thread (grain 16). Every column gets
/// the identical op sequence either way, so the cutoff never changes bits —
/// only where they are computed.
const REFLECTOR_PAR_MIN_FLOPS: usize = 1 << 15;

/// Columns per tile of a reflector sweep. A tile's dot products live in a
/// stack array, so the sweep allocates nothing, and each row's share of a
/// tile is one contiguous run of the row-major buffer.
const SWEEP_TILE: usize = 64;

/// Apply `H = I - 2 v vᵀ / vnorm2` to rows `[k, k + v.len())` of columns
/// `[j0, j1)` of the row-major buffer `data` (row stride `ld`).
///
/// The sweep walks memory in row order. Each thread owns a contiguous
/// chunk of columns and takes it [`SWEEP_TILE`] columns at a time: one pass
/// over the rows accumulates `w[j] += v[i]·a[i][j]`, then
/// `s[j] = 2·w[j] / vnorm2`, then a second pass applies
/// `a[i][j] -= s[j]·v[i]`. Every column sees the adds of a column-by-column
/// dot/update in the same order, so the result is bitwise independent of
/// the tile width and of the thread count. Small sweeps (see
/// [`REFLECTOR_PAR_MIN_FLOPS`]) skip the pool entirely.
///
/// `next` (length `v.len() - 1`), when given, receives rows `k + 1 ..` of
/// column `j0` as they leave the second pass: the factorization loops read
/// the next Householder vector from there instead of walking a column of
/// the row-major buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_reflector<T: Scalar>(
    data: &mut [T],
    ld: usize,
    k: usize,
    j0: usize,
    j1: usize,
    v: &[T],
    vnorm2: T,
    next: Option<&mut [T]>,
) {
    // The raw-pointer rows below stay inside `data` and `next`.
    assert!(j0 <= j1 && j1 <= ld && (v.is_empty() || (k + v.len() - 1) * ld + j1 <= data.len()));
    let cols = j1 - j0;
    let next = next.map(|n| {
        assert_eq!(n.len() + 1, v.len());
        par::SendPtr(n.as_mut_ptr())
    });
    let two = T::from_f64(2.0);
    let ptr = par::SendPtr(data.as_mut_ptr());
    let body = |c0: usize, c1: usize| {
        let mut t0 = c0;
        while t0 < c1 {
            let tw = SWEEP_TILE.min(c1 - t0);
            let at = |i: usize| (k + i) * ld + j0 + t0;
            let mut w = [T::ZERO; SWEEP_TILE];
            for (i, vi) in v.iter().enumerate() {
                // SAFETY: the assert above keeps the run inside `data`, and
                // columns [t0, t0 + tw) belong to this chunk alone.
                let row = unsafe { std::slice::from_raw_parts(ptr.get().add(at(i)), tw) };
                for (wj, x) in w.iter_mut().zip(row) {
                    *wj += *vi * *x;
                }
            }
            for wj in &mut w[..tw] {
                *wj = two * *wj / vnorm2;
            }
            // Column j0 opens the first tile of the first chunk.
            let capture = if t0 == 0 { next } else { None };
            for (i, vi) in v.iter().enumerate() {
                // SAFETY: as above; writes stay within this chunk's columns.
                let row = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(at(i)), tw) };
                for (x, sj) in row.iter_mut().zip(&w) {
                    *x -= *sj * *vi;
                }
                if let (Some(n), true) = (capture, i > 0) {
                    // SAFETY: only the chunk owning column j0 writes `next`,
                    // and `i - 1 < v.len() - 1 = next.len()`.
                    unsafe { *n.get().add(i - 1) = row[0] };
                }
            }
            t0 += tw;
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

/// The compact-WY panel width of an `m x n` factorization, a pure function
/// of shape: `p = min(m, n)` below 48 stays on the unblocked path (panel
/// assembly and the `T` recurrence cost more than the GEMM saves), below
/// 128 takes panels of 16, and larger shapes panels of 32, sized so the
/// `(Y, T)` pair stays cache-resident while the trailing GEMM runs at full
/// packed-kernel throughput. The width changes rounding (unlike the thread
/// count), so it depends on nothing but the shape.
pub(crate) fn qr_block(m: usize, n: usize) -> usize {
    match m.min(n) {
        0..48 => 1,
        48..128 => 16,
        _ => 32,
    }
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

    let mut have_v = false;
    for k in 0..p {
        have_v = reduce_column(&mut work, &mut vs, vn.row_mut(0), k, n, have_v);
    }

    // Form thin Q by applying the reflectors (in reverse) to the first p
    // columns of the identity. Reflector k acts on columns [k, p) only:
    // columns [0, k) are still e_0 .. e_{k-1}, supported above its rows, so
    // for finite input their dots are exactly +0 and would change no bit.
    q.reshape_zeroed(m, p);
    for i in 0..p {
        q[(i, i)] = T::ONE;
    }
    for k in (0..p).rev() {
        let vnorm2 = vn[(0, k)];
        if vnorm2 == T::ZERO {
            continue;
        }
        apply_reflector(q.as_mut_slice(), p, k, k, p, &vs.row(k)[..m - k], vnorm2, None);
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
        // the panel's columns. The panel's first vector is gathered: the
        // trailing update below has rewritten its column since any sweep.
        let mut have_v = false;
        for k in k0..k0 + nbk {
            have_v = reduce_column(&mut work, &mut vs, vn.row_mut(0), k, k0 + nbk, have_v);
        }
        // Trailing update through the packed GEMM engine.
        if k0 + nbk < n {
            wy::panel_y(&vs, vn.row(0), k0, nbk, m - k0, &mut y, &mut taus.row_mut(0)[..nbk]);
            matmul_tn_into(y.view(), y.view(), &mut s);
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

/// Reduce column `k` of the row-major working copy `work` (`m x n`): build
/// the Householder vector `v_k` in row `k` of `vs` (`p x m`) and its `‖v‖²`
/// in `vn[k]`, apply the reflector to columns `(k, j1)`, then put `alpha`
/// on the diagonal and exact zeros on rows `k + 1 .. p` of column `k`.
///
/// Column `k` is left out of the sweep because its result is overwritten,
/// and its rows `p ..` are never read again. `have_v` says reflector
/// `k - 1`'s sweep already left `v_k` in `vs`; otherwise column `k` is
/// gathered. Returns whether this sweep captured `v_{k+1}`, which it does
/// whenever column `k + 1` is swept and reflector `k + 1` exists. An
/// identity reflector (`‖v‖² = 0`) sweeps nothing and captures nothing.
fn reduce_column<T: Scalar>(
    work: &mut Matrix<T>,
    vs: &mut Matrix<T>,
    vn: &mut [T],
    k: usize,
    j1: usize,
    have_v: bool,
) -> bool {
    let (m, n) = work.shape();
    let p = vs.rows();
    let vlen = m - k;
    if !have_v {
        for (idx, vv) in vs.row_mut(k)[..vlen].iter_mut().enumerate() {
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
        return false;
    }
    vs[(k, 0)] -= alpha;
    let vnorm2: T = vs.row(k)[..vlen].iter().map(|x| *x * *x).sum();
    if vnorm2 == T::ZERO {
        return false;
    }
    vn[k] = vnorm2;
    let capture = k + 1 < j1.min(p);
    if k + 1 < j1 {
        // Row k of `vs` is v_k; row k + 1 receives v_{k+1}.
        let (done, rest) = vs.as_mut_slice().split_at_mut((k + 1) * m);
        let next = if capture { Some(&mut rest[..vlen - 1]) } else { None };
        apply_reflector(work.as_mut_slice(), n, k, k + 1, j1, &done[k * m..][..vlen], vnorm2, next);
    }
    work[(k, k)] = alpha;
    for i in k + 1..p {
        work[(i, k)] = T::ZERO;
    }
    capture
}

/// Flip signs so that `diag(R) >= 0`, adjusting `Q` columns to keep `QR`
/// unchanged.
pub fn canonicalize<T: Scalar>(f: &mut QrFactors<T>) {
    canonicalize_qr(&mut f.q, &mut f.r);
}

/// [`canonicalize`] on loose factors (the `_into` pipelines keep `q` and
/// `r` in separate caller-owned buffers).
///
/// `Q`'s flagged columns are negated in row order, 64 columns per pass
/// over the rows, rather than one strided walk per column.
pub fn canonicalize_qr<T: Scalar>(q: &mut Matrix<T>, r: &mut Matrix<T>) {
    let p = r.rows().min(r.cols());
    for t0 in (0..p).step_by(SWEEP_TILE) {
        let tw = SWEEP_TILE.min(p - t0);
        let mut flip = [false; SWEEP_TILE];
        for (j, f) in flip[..tw].iter_mut().enumerate() {
            *f = r[(t0 + j, t0 + j)] < T::ZERO;
        }
        if flip.iter().any(|&f| f) {
            for i in 0..q.rows() {
                for (x, &f) in q.row_mut(i)[t0..t0 + tw].iter_mut().zip(&flip) {
                    if f {
                        *x = -*x;
                    }
                }
            }
        }
    }
    for k in 0..p {
        if r[(k, k)] < T::ZERO {
            for x in r.row_mut(k) {
                *x = -*x;
            }
        }
    }
}

/// Gram–Schmidt QR with re-orthogonalization (MGS2). Slightly different
/// rounding behaviour than Householder, which makes it a useful independent
/// cross-check in tests; the double pass keeps `Q` orthonormal to machine
/// precision ("twice is enough").
pub fn mgs_qr<T: Scalar>(a: &Matrix<T>) -> QrFactors<T> {
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
        // zero-copy view.
        let mut qt_tail = Matrix::zeros(p, n - p);
        crate::gemm::matmul_tn_into(q.view(), a.block(0, m, p, n), &mut qt_tail);
        for i in 0..p {
            for j in 0..n - p {
                r[(i, p + j)] = qt_tail[(i, j)];
            }
        }
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

    /// The column-walk reflector sweep the row sweep replaced, frozen as
    /// its bitwise oracle: one column at a time, dot then update.
    fn oracle_apply_reflector<T: Scalar>(
        data: &mut [T],
        ld: usize,
        k: usize,
        j0: usize,
        j1: usize,
        v: &[T],
        vnorm2: T,
    ) {
        let two = T::from_f64(2.0);
        for j in j0..j1 {
            let mut dot = T::ZERO;
            for (idx, vi) in v.iter().enumerate() {
                dot += *vi * data[(k + idx) * ld + j];
            }
            let s = two * dot / vnorm2;
            for (idx, vi) in v.iter().enumerate() {
                data[(k + idx) * ld + j] -= s * *vi;
            }
        }
    }

    /// The column-walk unblocked factorization and canonicalization, frozen
    /// as the oracle: gathers every `v_k`, sweeps the full trailing matrix
    /// and every column of `Q`, and zeroes all of column `k` below the
    /// diagonal.
    fn oracle_unblocked_qr<T: Scalar>(a: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
        let (m, n) = a.shape();
        let p = m.min(n);
        let mut work = a.clone();
        let mut vs = Matrix::zeros(p, m);
        let mut vn = vec![T::ZERO; p];
        for k in 0..p {
            let vlen = m - k;
            for idx in 0..vlen {
                vs[(k, idx)] = work[(k + idx, k)];
            }
            let norm = vs.row(k)[..vlen].iter().map(|x| *x * *x).sum::<T>().sqrt();
            let alpha = if vs[(k, 0)] >= T::ZERO { -norm } else { norm };
            if alpha == T::ZERO {
                continue;
            }
            vs[(k, 0)] -= alpha;
            let vnorm2: T = vs.row(k)[..vlen].iter().map(|x| *x * *x).sum();
            if vnorm2 == T::ZERO {
                continue;
            }
            vn[k] = vnorm2;
            oracle_apply_reflector(work.as_mut_slice(), n, k, k, n, &vs.row(k)[..vlen], vnorm2);
            work[(k, k)] = alpha;
            for i in k + 1..m {
                work[(i, k)] = T::ZERO;
            }
        }
        let mut q = Matrix::zeros(m, p);
        for i in 0..p {
            q[(i, i)] = T::ONE;
        }
        for k in (0..p).rev() {
            if vn[k] != T::ZERO {
                oracle_apply_reflector(q.as_mut_slice(), p, k, 0, p, &vs.row(k)[..m - k], vn[k]);
            }
        }
        let mut r = work.submatrix(0, p, 0, n);
        for k in 0..p {
            if r[(k, k)] < T::ZERO {
                for j in 0..n {
                    r[(k, j)] = -r[(k, j)];
                }
                for i in 0..m {
                    q[(i, k)] = -q[(i, k)];
                }
            }
        }
        (q, r)
    }

    /// QR at an explicit panel width (`1` = the unblocked core), clamped
    /// to `min(m, n)` as `qr_thin_into` would, then canonicalized.
    fn qr_at<T: Scalar>(a: &Matrix<T>, nb: usize) -> QrFactors<T> {
        let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let mut ws = Workspace::new();
        match nb.min(a.rows().min(a.cols())) {
            0 | 1 => householder_into(a.view(), &mut q, &mut r, &mut ws),
            nb => householder_blocked_into(a.view(), &mut q, &mut r, nb, &mut ws),
        }
        canonicalize_qr(&mut q, &mut r);
        QrFactors { q, r }
    }

    fn bits<T: Scalar>(xs: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        for x in xs {
            x.put_le_bytes(&mut out);
        }
        out
    }

    fn mat<T: Scalar>(r: usize, c: usize, seed: f64) -> Matrix<T> {
        Matrix::from_fn(r, c, |i, j| T::from_f64(((i * 37 + j * 11) as f64 * seed).sin() + 0.1))
    }

    fn sweep_matches_column_walk<T: Scalar>() {
        let (m, k, j0) = (80, 5, 3);
        let v: Vec<T> = (0..m - k)
            .map(|i| T::from_f64((i as f64 * 0.61).cos() + if i == 0 { 1.5 } else { 0.0 }))
            .collect();
        let vnorm2: T = v.iter().map(|x| *x * *x).sum();
        // 130 columns cross the parallel cutoff (4 · 75 · 130 > 2^15).
        for w in [1, 15, 16, 17, 63, 64, 65, 130] {
            let ld = j0 + w + 4;
            let a: Matrix<T> = mat(m, ld, 0.37);
            let mut want = a.clone();
            oracle_apply_reflector(want.as_mut_slice(), ld, k, j0, j0 + w, &v, vnorm2);
            let mut got = a.clone();
            apply_reflector(got.as_mut_slice(), ld, k, j0, j0 + w, &v, vnorm2, None);
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{} width {w}", T::NAME);
            // The capturing sweep writes the same bits and hands back rows
            // k + 1 .. of column j0.
            let mut next = vec![T::ZERO; m - k - 1];
            let mut got = a.clone();
            apply_reflector(got.as_mut_slice(), ld, k, j0, j0 + w, &v, vnorm2, Some(&mut next));
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{} width {w}", T::NAME);
            let col: Vec<T> = want.col_iter(j0).skip(k + 1).collect();
            assert_eq!(bits(&next), bits(&col), "{} capture, width {w}", T::NAME);
        }
    }

    #[test]
    fn row_sweep_is_bitwise_the_column_walk() {
        sweep_matches_column_walk::<f64>();
    }

    fn unblocked_matches_column_walk<T: Scalar>() {
        let zero = T::ZERO;
        let signed_zeros =
            Matrix::from_fn(40, 12, |i, j| if (i + j) % 3 == 0 { -zero } else { zero });
        let mut zero_col: Matrix<T> = mat(60, 10, 0.9);
        zero_col.set_col(3, &[zero; 60]);
        // Columns 0..3 are (3, 4, 0, …): reflector 0 maps columns 1 and 2
        // to exactly (−5, 0, …), so reflectors 1 and 2 are identities and
        // the vector after each must be gathered, not captured.
        let mut dup: Matrix<T> = mat(30, 8, 0.53);
        let mut c = [zero; 30];
        c[0] = T::from_f64(3.0);
        c[1] = T::from_f64(4.0);
        for j in 0..3 {
            dup.set_col(j, &c);
        }
        let cases = [
            ("3000x32", mat(3000, 32, 0.7)),
            ("signed zeros", signed_zeros),
            ("zero column", zero_col),
            ("duplicated columns", dup.clone()),
            ("wide 8x25", mat(8, 25, 0.5)),
            ("45x13", mat(45, 13, 0.37)),
        ];
        for (name, a) in &cases {
            let QrFactors { q, r } = qr_at(a, 1);
            let (oq, or) = oracle_unblocked_qr(a);
            assert_eq!((q.shape(), r.shape()), (oq.shape(), or.shape()), "{} {name}", T::NAME);
            assert_eq!(bits(q.as_slice()), bits(oq.as_slice()), "{} {name}: Q", T::NAME);
            assert_eq!(bits(r.as_slice()), bits(or.as_slice()), "{} {name}: R", T::NAME);
        }
        let r = qr_at(&dup, 1).r;
        assert!(r[(1, 1)] == zero && r[(2, 2)] == zero, "identity reflectors not hit");
    }

    #[test]
    fn unblocked_qr_is_bitwise_the_column_walk() {
        unblocked_matches_column_walk::<f64>();
    }

    fn assert_contract(a: &Matrix, f: &QrFactors) {
        assert!(reconstruction_error(a, f) < 1e-12, "A != QR for {:?}", a.shape());
        assert!(orthogonality_error(&f.q) < 1e-12, "Q not orthonormal for {:?}", a.shape());
        for i in 0..f.r.rows().min(f.r.cols()) {
            assert!(f.r[(i, i)] >= 0.0, "negative R diagonal at {i}");
            for j in 0..i {
                assert_eq!(f.r[(i, j)], 0.0, "R not upper triangular at ({i},{j})");
            }
        }
    }

    fn gaussian(m: usize, n: usize, seed: u64) -> Matrix {
        crate::random::gaussian_matrix(m, n, &mut crate::random::seeded_rng(seed))
    }

    #[test]
    fn blocked_matches_unblocked_reference() {
        for (idx, (m, n)) in [(200, 64), (96, 96), (64, 150)].into_iter().enumerate() {
            let a = gaussian(m, n, 1000 + idx as u64); // tall, square, wide
            let base = qr_at(&a, 1);
            assert_contract(&a, &base);
            for nb in [4, 8, 16, 32, 64] {
                let f = qr_at(&a, nb);
                assert_contract(&a, &f);
                assert!((&f.q - &base.q).max_abs() < 1e-12, "Q diverged at nb={nb}, {m}x{n}");
                assert!((&f.r - &base.r).max_abs() < 1e-12, "R diverged at nb={nb}, {m}x{n}");
            }
        }
    }

    #[test]
    fn strided_view_factors_like_materialized_copy() {
        // 197 x 65 takes panels of 16. The working copy normalizes strides
        // up front, so a view is bitwise indistinguishable from its copy.
        assert_eq!(qr_block(197, 65), 16);
        let a = gaussian(220, 80, 7);
        let blk = a.block(3, 200, 5, 70);
        let cpy = a.submatrix(3, 200, 5, 70);
        let mut ws = Workspace::new();
        let (mut q1, mut r1) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let (mut q2, mut r2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        qr_thin_into(blk, &mut q1, &mut r1, &mut ws);
        qr_thin_into(cpy.view(), &mut q2, &mut r2, &mut ws);
        assert_eq!(q1, q2);
        assert_eq!(r1, r2);
        assert_contract(&cpy, &QrFactors { q: q1, r: r1 });
    }

    #[test]
    fn rank_deficient_and_zero_inputs() {
        // Rank-deficient: trailing Q columns are non-unique, so compare the
        // factorization contract rather than entries.
        let mut a = gaussian(120, 30, 21);
        let dup = a.col(0);
        for j in 30 - 8..30 {
            a.set_col(j, &dup); // rank <= 23
        }
        let wide = a.hstack(&a);
        for nb in [1, 8, 32] {
            let f = qr_at(&wide, nb);
            assert!(reconstruction_error(&wide, &f) < 1e-12);
            assert!(orthogonality_error(&f.q) < 1e-12);
            for i in 0..f.r.rows() {
                assert!(f.r[(i, i)] >= 0.0);
            }
        }
        // Zero matrix: R must be exactly zero at any width.
        let z = Matrix::<f64>::zeros(80, 60);
        for nb in [1, 16] {
            let f = qr_at(&z, nb);
            assert_eq!(f.r, Matrix::zeros(60, 60), "nb={nb}");
            assert!(orthogonality_error(&f.q) < 1e-14);
        }
    }

    /// Factor `a` at width `nb` on 1 thread, then on 2, 4 and 8: the bits
    /// must not move.
    fn assert_thread_invariant(a: &Matrix, nb: usize) {
        par::set_num_threads(1);
        let base = qr_at(a, nb);
        for threads in [2usize, 4, 8] {
            par::set_num_threads(threads);
            let f = qr_at(a, nb);
            assert_eq!(f.q, base.q, "Q bits changed at {threads} threads, nb={nb}");
            assert_eq!(f.r, base.r, "R bits changed at {threads} threads, nb={nb}");
        }
        par::set_num_threads(0);
    }

    #[test]
    fn blocked_bitwise_identical_across_thread_counts() {
        // Big enough that the WY trailing updates cross the packed-GEMM
        // parallel threshold, so the row partition genuinely splits.
        assert_thread_invariant(&gaussian(600, 128, 3), 32);
    }

    #[test]
    fn unblocked_bitwise_identical_across_thread_counts() {
        // The early reflectors sweep 32+ columns of 4000 rows, past the
        // serial cutoff, so the grain-16 column partition genuinely splits.
        assert_thread_invariant(&gaussian(4000, 40, 5), 1);
    }

    #[test]
    fn blocked_path_reuses_workspace() {
        let a = gaussian(120, 64, 11);
        assert_eq!(qr_block(120, 64), 16);
        let mut ws = Workspace::new();
        let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
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
    fn panel_width_is_a_function_of_shape() {
        // Small problems stay unblocked, large ones get cache-sized panels;
        // only min(m, n) decides.
        let cases = [(45, 13, 1), (30, 6, 1), (47, 900, 1), (200, 64, 16), (127, 127, 16)];
        for (m, n, nb) in cases.into_iter().chain([(16384, 128, 32), (4096, 256, 32)]) {
            assert_eq!(qr_block(m, n), nb, "{m}x{n}");
        }
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
