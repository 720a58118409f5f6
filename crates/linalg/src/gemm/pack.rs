//! Panel-packing routines with always-checked tile-layout invariants.
//!
//! Both engines pack operands into micro-kernel strips: `op(B)` into
//! NR-wide column strips (`(kk, jr)` at `kk * nr + jr`), `op(A)` into
//! MR-tall row strips (`(ir, kk)` at `kk * mr + ir`), zero-padded past
//! the matrix edge so the kernel never branches on partial tiles.
//!
//! The strip-geometry invariant — destination length exactly `depth x
//! tile` — is asserted in release builds too: a strip slice of the wrong
//! length means the blocking (`MC`/`KC`/`NC`) and the kernel tile
//! disagree, and silently reading a stale panel tail would corrupt
//! results far from the cause.

use crate::scalar::Scalar;
use crate::view::MatView;

/// Pack one NR-wide strip of `op(B)`: rows `[kb, kb + kc)`, columns
/// `[j0, j0 + nr)` clipped to the view edge and zero-padded, into `dst`
/// laid out `(kk, jr) -> kk * nr + jr`. `dst.len()` must be exactly
/// `kc * nr` (checked, release builds included).
pub(crate) fn pack_b_strip<T: Scalar>(
    b: MatView<'_, T>,
    kb: usize,
    kc: usize,
    j0: usize,
    nr: usize,
    dst: &mut [T],
) {
    assert_eq!(
        dst.len(),
        kc * nr,
        "packed-buffer tile misalignment: B strip {kc} deep x {nr} wide"
    );
    let jcount = nr.min(b.cols.saturating_sub(j0));
    // Identical strip contents either way; the loop order just keeps
    // source reads on the unit-stride axis of op(B).
    if b.cs == 1 {
        for kk in 0..kc {
            let row = &mut dst[kk * nr..(kk + 1) * nr];
            let src = (kb + kk) * b.rs + j0;
            row[..jcount].copy_from_slice(&b.data[src..src + jcount]);
            row[jcount..].fill(T::ZERO);
        }
    } else {
        for jr in 0..jcount {
            for kk in 0..kc {
                dst[kk * nr + jr] = b.at(kb + kk, j0 + jr);
            }
        }
        for jr in jcount..nr {
            for kk in 0..kc {
                dst[kk * nr + jr] = T::ZERO;
            }
        }
    }
}

/// Pack one MR-tall strip of `op(A)`: rows `[i0, i0 + rows)` (the caller
/// clips `rows <= mr` at partition/matrix edges; missing rows are
/// zero-padded), columns `[kb, kb + kc)`, into `dst` laid out
/// `(ir, kk) -> kk * mr + ir`. `dst.len()` must be exactly `kc * mr`
/// (checked, release builds included).
pub(crate) fn pack_a_strip<T: Scalar>(
    a: MatView<'_, T>,
    i0: usize,
    rows: usize,
    kb: usize,
    kc: usize,
    mr: usize,
    dst: &mut [T],
) {
    assert_eq!(
        dst.len(),
        kc * mr,
        "packed-buffer tile misalignment: A strip {mr} tall x {kc} deep"
    );
    debug_assert!(rows <= mr);
    // Strip contents are order-independent; read along the unit-stride
    // axis of op(A).
    if a.cs == 1 {
        for ir in 0..rows {
            let src = (i0 + ir) * a.rs + kb;
            let row = &a.data[src..src + kc];
            for (kk, &v) in row.iter().enumerate() {
                dst[kk * mr + ir] = v;
            }
        }
        for ir in rows..mr {
            for kk in 0..kc {
                dst[kk * mr + ir] = T::ZERO;
            }
        }
    } else {
        for kk in 0..kc {
            let step = &mut dst[kk * mr..(kk + 1) * mr];
            for (ir, out) in step.iter_mut().take(rows).enumerate() {
                *out = a.at(i0 + ir, kb + kk);
            }
            step[rows..].fill(T::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn sample(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| (i * 100 + j) as f64)
    }

    #[test]
    #[should_panic(expected = "packed-buffer tile misalignment")]
    fn pack_b_strip_panics_on_missized_buffer() {
        let b = sample(8, 8);
        let mut dst = vec![0.0; 4 * 8 - 1];
        pack_b_strip(b.view(), 0, 4, 0, 8, &mut dst);
    }

    #[test]
    #[should_panic(expected = "packed-buffer tile misalignment")]
    fn pack_a_strip_panics_on_missized_buffer() {
        let a = sample(8, 8);
        let mut dst = vec![0.0; 4 * 4 + 4];
        pack_a_strip(a.view(), 0, 4, 0, 4, 4, &mut dst);
    }

    #[test]
    fn pack_b_strip_zero_pads_past_edge() {
        let b = sample(4, 5);
        let mut dst = vec![9.0; 4 * 8];
        pack_b_strip(b.view(), 0, 4, 0, 8, &mut dst);
        for kk in 0..4 {
            for jr in 0..8 {
                let want = if jr < 5 { b[(kk, jr)] } else { 0.0 };
                assert_eq!(dst[kk * 8 + jr], want, "(kk={kk}, jr={jr})");
            }
        }
        // Strided (transposed) views pack the same contents.
        let bt = b.transpose();
        let mut dst_t = vec![9.0; 4 * 8];
        pack_b_strip(bt.view().transposed(), 0, 4, 0, 8, &mut dst_t);
        assert_eq!(dst, dst_t);
    }

    #[test]
    fn pack_a_strip_zero_pads_missing_rows() {
        let a = sample(3, 6);
        let mut dst = vec![9.0; 6 * 4];
        pack_a_strip(a.view(), 0, 3, 0, 6, 4, &mut dst);
        for kk in 0..6 {
            for ir in 0..4 {
                let want = if ir < 3 { a[(ir, kk)] } else { 0.0 };
                assert_eq!(dst[kk * 4 + ir], want, "(ir={ir}, kk={kk})");
            }
        }
        let at = a.transpose();
        let mut dst_t = vec![9.0; 6 * 4];
        pack_a_strip(at.view().transposed(), 0, 3, 0, 6, 4, &mut dst_t);
        assert_eq!(dst, dst_t);
    }
}
