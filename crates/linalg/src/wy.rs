//! Compact-WY accumulation of Householder reflector panels.
//!
//! A run of reflectors `H_k = I − τ_k v_k v_kᵀ` composes into the blocked
//! form `H_{k0} ⋯ H_{k0+nb−1} = I − Y T Yᵀ` where column `j` of `Y` is the
//! (unnormalized) vector `v_{k0+j}` with zeros above its pivot row and `T`
//! is `nb x nb` upper triangular (Schreiber & Van Loan). Applying the
//! block to a trailing matrix `C` then costs two big GEMMs plus one small
//! one instead of `nb` rank-1 sweeps:
//!
//! ```text
//! (I − Y T Yᵀ) C  =  C − Y · (T · (Yᵀ C))
//! ```
//!
//! which is exactly the transformation that lets the QR factorization and
//! the Golub–Kahan U/V accumulation run on the packed parallel GEMM
//! engine ([`crate::gemm`]) instead of the level-2 reflector sweeps.
//!
//! ## Determinism
//!
//! Everything here is built from kernels that are bitwise deterministic
//! across thread counts (the `matmul*_into` family and the accumulating
//! [`matmul_acc_into`]), plus serial `O(nb³)` recurrences, so a blocked
//! factorization at a fixed panel width `nb` produces identical bits for
//! every value of `PSVD_NUM_THREADS`.

use crate::gemm::{matmul_acc_into, matmul_into, matmul_tn_into};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::view::MatViewMut;
use crate::workspace::Workspace;

/// Build the upper-triangular `T` factor from `S = YᵀY` and the per-column
/// `τ` values via the forward recurrence
///
/// ```text
/// T[j][j]    = τ_j
/// T[0..j, j] = −τ_j · T[0..j, 0..j] · S[0..j, j]
/// ```
///
/// `τ_j = 0` marks an identity reflector; its row and column of `T` stay
/// zero, so the corresponding `Y` column never contributes. `t` is
/// reshaped to `nb x nb` with an exactly-zero strict lower triangle.
pub(crate) fn build_t<T: Scalar>(s: &Matrix<T>, taus: &[T], t: &mut Matrix<T>) {
    let nb = taus.len();
    debug_assert_eq!(s.shape(), (nb, nb));
    t.reshape_zeroed(nb, nb);
    for j in 0..nb {
        let tau = taus[j];
        t[(j, j)] = tau;
        for i in 0..j {
            let mut acc = T::ZERO;
            for l in i..j {
                acc += t[(i, l)] * s[(l, j)];
            }
            t[(i, j)] = -tau * acc;
        }
    }
}

/// Materialize panel `[k0, k0 + nb)` of a reflector set into `y` and
/// `taus`.
///
/// Row `k` of `vs` holds `v_k` in its first `len + k0 - k` entries (the
/// storage layout of the factorization loops); `vn[k]` holds `‖v_k‖²`,
/// with `0.0` marking an identity reflector. `y` is reshaped to
/// `len x nb`: column `j` carries `v_{k0+j}` below its pivot (row `j`),
/// exact zeros above, and is zeroed entirely for identity reflectors.
/// `taus[j]` becomes `2 / ‖v‖²` (the reflector scaling used throughout
/// this crate) or `0.0`.
pub(crate) fn panel_y<T: Scalar>(
    vs: &Matrix<T>,
    vn: &[T],
    k0: usize,
    nb: usize,
    len: usize,
    y: &mut Matrix<T>,
    taus: &mut [T],
) {
    debug_assert_eq!(taus.len(), nb);
    let two = T::from_f64(2.0);
    for (j, tau) in taus.iter_mut().enumerate() {
        let v2 = vn[k0 + j];
        *tau = if v2 > T::ZERO { two / v2 } else { T::ZERO };
    }
    y.reshape_for_overwrite(len, nb);
    for i in 0..len {
        let row = y.row_mut(i);
        for (j, out) in row.iter_mut().enumerate() {
            *out = if i >= j && vn[k0 + j] > T::ZERO { vs[(k0 + j, i - j)] } else { T::ZERO };
        }
    }
}

/// Apply a compact-WY block to `C` in place:
///
/// * `trans_t = false`: `C ← (I − Y T Yᵀ) C` (Q-accumulation direction);
/// * `trans_t = true`:  `C ← (I − Y Tᵀ Yᵀ) C` (trailing-matrix update,
///   i.e. the transposed block `H_last ⋯ H_first`).
///
/// `tneg` must hold `−T` (negated once by the caller), which turns the
/// subtraction into a pure accumulating GEMM: `C += Y · ((−T)·(Yᵀ C))`.
/// All three products draw their temporaries from `ws`; with warm buffers
/// the call allocates nothing.
pub(crate) fn apply_block_left<T: Scalar>(
    y: &Matrix<T>,
    tneg: &Matrix<T>,
    trans_t: bool,
    mut c: MatViewMut<'_, T>,
    ws: &mut Workspace,
) {
    let (rows, cc) = c.shape();
    let nb = y.cols();
    debug_assert_eq!(y.rows(), rows);
    debug_assert_eq!(tneg.shape(), (nb, nb));
    if rows == 0 || cc == 0 || nb == 0 {
        return;
    }
    let mut w = ws.take(nb, cc);
    matmul_tn_into(y.view(), c.as_view(), &mut w);
    let mut w2 = ws.take(nb, cc);
    if trans_t {
        matmul_tn_into(tneg.view(), w.view(), &mut w2);
    } else {
        matmul_into(tneg.view(), w.view(), &mut w2);
    }
    matmul_acc_into(y.view(), w2.view(), &mut c);
    ws.give(w);
    ws.give(w2);
}

/// Backward accumulation `X ← H_0 H_1 ⋯ H_{count−1} X` in compact-WY
/// panels of width `nb`, where reflector `k` acts on rows `off + k ..` of
/// `x` (`off = 0` for QR / left bidiagonalization reflectors, `off = 1`
/// for the right ones). Panels are processed last-to-first; each panel's
/// `T` is rebuilt from `S = YᵀY` (one `matmul_tn_into(Y, Y)`) rather than
/// stored.
///
/// **Contract:** `x` must start as leading identity columns
/// (`x[i][j] = δ_ij`), the orthogonal-factor-formation shape of every call
/// site. Then during backward accumulation column `j < off + k0` of `x` is
/// still the unit vector `e_j`, supported strictly above panel `k0`'s row
/// range, so every application can be restricted to the trailing columns —
/// roughly halving the flops versus a full-width sweep. The unblocked
/// form below makes the same restriction under the same contract.
pub(crate) fn accumulate_reverse<T: Scalar>(
    vs: &Matrix<T>,
    vn: &[T],
    count: usize,
    off: usize,
    nb: usize,
    x: &mut Matrix<T>,
    ws: &mut Workspace,
) {
    if count == 0 {
        return;
    }
    debug_assert!(nb >= 1);
    let (rows, cols) = x.shape();
    let mut y = ws.take(rows - off, nb);
    let mut s = ws.take(nb, nb);
    let mut t = ws.take(nb, nb);
    let mut taubuf = ws.take(1, nb);
    let npanels = count.div_ceil(nb);
    for pi in (0..npanels).rev() {
        let k0 = pi * nb;
        let nbk = nb.min(count - k0);
        let len = rows - off - k0;
        panel_y(vs, vn, k0, nbk, len, &mut y, &mut taubuf.row_mut(0)[..nbk]);
        matmul_tn_into(y.view(), y.view(), &mut s);
        build_t(&s, &taubuf.row(0)[..nbk], &mut t);
        t.scale_mut(-T::ONE);
        let c0 = off + k0;
        if c0 < cols {
            apply_block_left(&y, &t, false, x.block_mut(c0, rows, c0, cols), ws);
        }
    }
    ws.give(y);
    ws.give(s);
    ws.give(t);
    ws.give(taubuf);
}

/// The `nb = 1` reference form of [`accumulate_reverse`]: one reflector at
/// a time, kept for small problems where panel assembly overhead
/// dominates. Same contract: `x` starts as leading identity columns.
/// Reflector `k` is applied to columns `[off + k, cols)` only; the columns
/// before are still unit vectors supported above its rows, which for
/// finite input it would leave bitwise unchanged (the dot is exactly `+0`).
pub(crate) fn accumulate_reverse_unblocked<T: Scalar>(
    vs: &Matrix<T>,
    vn: &[T],
    count: usize,
    off: usize,
    x: &mut Matrix<T>,
) {
    let (rows, cols) = x.shape();
    for k in (0..count).rev() {
        let vnorm2 = vn[k];
        if vnorm2 == T::ZERO || off + k >= cols {
            continue;
        }
        let vlen = rows - off - k;
        crate::qr::apply_reflector(
            x.as_mut_slice(),
            cols,
            off + k,
            off + k,
            cols,
            &vs.row(k)[..vlen],
            vnorm2,
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    /// Apply reflectors one at a time (ground truth) to compare against
    /// the WY-block application.
    fn apply_serial(vs: &Matrix, vn: &[f64], k0: usize, nb: usize, c: &Matrix) -> Matrix {
        let mut out = c.clone();
        for j in 0..nb {
            let k = k0 + j;
            if vn[k] == 0.0 {
                continue;
            }
            let vlen = c.rows() - j;
            let v = &vs.row(k)[..vlen];
            for col in 0..out.cols() {
                let mut dot = 0.0;
                for (idx, vi) in v.iter().enumerate() {
                    dot += vi * out[(j + idx, col)];
                }
                let s = 2.0 * dot / vn[k];
                for (idx, vi) in v.iter().enumerate() {
                    out[(j + idx, col)] -= s * vi;
                }
            }
        }
        out
    }

    fn reflector_set(m: usize, count: usize, seed: f64) -> (Matrix, Vec<f64>) {
        let mut vs = Matrix::zeros(count, m);
        let mut vn = vec![0.0; count];
        for (k, norm2) in vn.iter_mut().enumerate() {
            let vlen = m - k;
            let row = &mut vs.row_mut(k)[..vlen];
            for (i, v) in row.iter_mut().enumerate() {
                *v = ((i * 7 + k * 13) as f64 * seed).sin() + if i == 0 { 1.5 } else { 0.0 };
            }
            *norm2 = row.iter().map(|x| x * x).sum();
        }
        (vs, vn)
    }

    #[test]
    fn wy_block_matches_serial_reflectors() {
        let (m, nb) = (23, 5);
        let (vs, vn) = reflector_set(m, nb, 0.37);
        let c = Matrix::from_fn(m, 9, |i, j| ((i * 3 + j * 5) as f64 * 0.21).cos());
        let want = apply_serial(&vs, &vn, 0, nb, &c);

        let mut ws = Workspace::new();
        let mut y = Matrix::zeros(0, 0);
        let mut taus = vec![0.0; nb];
        panel_y(&vs, &vn, 0, nb, m, &mut y, &mut taus);
        let mut s = Matrix::zeros(0, 0);
        matmul_tn_into(y.view(), y.view(), &mut s);
        let mut t = Matrix::zeros(0, 0);
        build_t(&s, &taus, &mut t);
        t.scale_mut(-1.0);
        let mut got = c.clone();
        let rows = got.rows();
        let cols = got.cols();
        // H_last ⋯ H_first C is the trailing-update direction (Tᵀ).
        apply_block_left(&y, &t, true, got.block_mut(0, rows, 0, cols), &mut ws);
        assert!((&got - &want).max_abs() < 1e-12, "WY trailing update diverged");
    }

    #[test]
    fn wy_block_is_orthogonal() {
        // I − Y T Yᵀ must be orthogonal: apply it to the identity and
        // check QᵀQ = I.
        let (m, nb) = (17, 4);
        let (vs, vn) = reflector_set(m, nb, 0.53);
        let mut ws = Workspace::new();
        let mut q = Matrix::identity(m);
        accumulate_reverse(&vs, &vn, nb, 0, nb, &mut q, &mut ws);
        let qtq = crate::gemm::matmul_tn(&q, &q);
        assert!((&qtq - &Matrix::identity(m)).max_abs() < 1e-12);
    }

    #[test]
    fn accumulate_blocked_matches_unblocked() {
        // x starts as the first columns of the identity — the
        // orthogonal-factor-formation shape required by the blocked path's
        // trailing-column restriction.
        let (m, count) = (31, 12);
        let (vs, vn) = reflector_set(m, count, 0.29);
        let ident = |i: usize, j: usize| if i == j { 1.0 } else { 0.0 };
        let base = {
            let mut x = Matrix::from_fn(m, 7, ident);
            accumulate_reverse_unblocked(&vs, &vn, count, 0, &mut x);
            x
        };
        for nb in [1, 3, 5, 12, 16] {
            let mut ws = Workspace::new();
            let mut x = Matrix::from_fn(m, 7, ident);
            accumulate_reverse(&vs, &vn, count, 0, nb, &mut x, &mut ws);
            assert!((&x - &base).max_abs() < 1e-12, "nb = {nb} diverged");
        }
    }

    #[test]
    fn identity_reflectors_are_skipped() {
        let (m, count) = (14, 6);
        let (vs, mut vn) = reflector_set(m, count, 0.41);
        vn[2] = 0.0; // mark reflector 2 as identity
        vn[5] = 0.0;
        let base = {
            let mut x = Matrix::identity(m);
            accumulate_reverse_unblocked(&vs, &vn, count, 0, &mut x);
            x
        };
        let mut ws = Workspace::new();
        let mut x = Matrix::identity(m);
        accumulate_reverse(&vs, &vn, count, 0, 3, &mut x, &mut ws);
        assert!((&x - &base).max_abs() < 1e-12);
        // Still orthogonal despite the holes.
        let xtx = crate::gemm::matmul_tn(&x, &x);
        assert!((&xtx - &Matrix::identity(m)).max_abs() < 1e-12);
    }

    #[test]
    fn offset_reflectors_match_unblocked() {
        // off = 1: the right-reflector layout of the bidiagonalization.
        let n = 19;
        let count = n - 2;
        let (vs, vn) = reflector_set(n - 1, count, 0.61);
        let base = {
            let mut x = Matrix::identity(n);
            accumulate_reverse_unblocked(&vs, &vn, count, 1, &mut x);
            x
        };
        let mut ws = Workspace::new();
        let mut x = Matrix::identity(n);
        accumulate_reverse(&vs, &vn, count, 1, 4, &mut x, &mut ws);
        assert!((&x - &base).max_abs() < 1e-12);
    }

    #[test]
    fn build_t_two_reflector_closed_form() {
        // For two reflectors, T = [[τ1, −τ1 τ2 v1ᵀv2], [0, τ2]].
        let (vs, vn) = reflector_set(6, 2, 0.9);
        let mut y = Matrix::zeros(0, 0);
        let mut taus = vec![0.0; 2];
        panel_y(&vs, &vn, 0, 2, 6, &mut y, &mut taus);
        let mut s = Matrix::zeros(0, 0);
        matmul_tn_into(y.view(), y.view(), &mut s);
        let mut t = Matrix::zeros(0, 0);
        build_t(&s, &taus, &mut t);
        let v1v2: f64 = (0..6).map(|i| y[(i, 0)] * y[(i, 1)]).sum();
        assert!((t[(0, 0)] - taus[0]).abs() < 1e-15);
        assert!((t[(1, 1)] - taus[1]).abs() < 1e-15);
        assert_eq!(t[(1, 0)], 0.0);
        assert!((t[(0, 1)] + taus[0] * taus[1] * v1v2).abs() < 1e-13);
        // And the expansion I − Y T Yᵀ equals H1 H2.
        let h = |j: usize| {
            let mut m = Matrix::<f64>::identity(6);
            for r in 0..6 {
                for c in 0..6 {
                    m[(r, c)] -= taus[j] * y[(r, j)] * y[(c, j)];
                }
            }
            m
        };
        let prod = matmul(&h(0), &h(1));
        let yt = matmul(&y, &t);
        let mut wy = Matrix::identity(6);
        for r in 0..6 {
            for c in 0..6 {
                let mut acc = 0.0;
                for l in 0..2 {
                    acc += yt[(r, l)] * y[(c, l)];
                }
                wy[(r, c)] -= acc;
            }
        }
        assert!((&prod - &wy).max_abs() < 1e-13);
    }
}
