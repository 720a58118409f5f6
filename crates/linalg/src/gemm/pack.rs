//! Panel-packing routines with always-checked tile-layout invariants.
//!
//! Both engines pack operands into micro-kernel strips: `op(B)` into
//! NR-wide column strips (`(kk, jr)` at `kk * nr + jr`), `op(A)` into
//! MR-tall row strips (`(ir, kk)` at `kk * mr + ir`), zero-padded past
//! the matrix edge so the kernel never branches on partial tiles.
//!
//! The strip-geometry invariant — destination length exactly `depth x
//! tile` — is a **checked error** that runs in release builds too
//! ([`super::packed::matmul_with_blocking`] takes caller-chosen
//! blocking): a mis-sized `MC`/`KC` maps to a strip slice of the
//! wrong length, and silently reading a stale panel tail would corrupt
//! results far from the cause. [`strip_layout`] returns the structured
//! error; the packing routines turn it into an immediate panic with the
//! full geometry in the message.

use crate::scalar::Scalar;
use crate::view::MatView;

/// A packed-buffer strip whose length disagrees with its tile geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackLayoutError {
    /// What was being packed (`"A"` or `"B"`).
    pub operand: &'static str,
    /// K-panel depth of the strip.
    pub depth: usize,
    /// Tile edge (`mr` for A strips, `nr` for B strips).
    pub tile: usize,
    /// Actual destination-slice length.
    pub len: usize,
}

impl std::fmt::Display for PackLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "packed-buffer tile misalignment: {} strip of depth {} x tile {} needs exactly {} \
             elements, destination has {} — blocking parameters (MC/KC/NC) are inconsistent \
             with the kernel tile",
            self.operand,
            self.depth,
            self.tile,
            self.depth * self.tile,
            self.len
        )
    }
}

impl std::error::Error for PackLayoutError {}

/// Check that a strip destination of `len` elements exactly holds `depth`
/// steps of a `tile`-wide micro-tile edge.
pub fn strip_layout(
    operand: &'static str,
    depth: usize,
    tile: usize,
    len: usize,
) -> Result<(), PackLayoutError> {
    if len == depth * tile && tile > 0 {
        Ok(())
    } else {
        Err(PackLayoutError { operand, depth, tile, len })
    }
}

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
    strip_layout("B", kc, nr, dst.len()).unwrap_or_else(|e| panic!("{e}"));
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
    strip_layout("A", kc, mr, dst.len()).unwrap_or_else(|e| panic!("{e}"));
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
    fn strip_layout_accepts_exact_and_rejects_everything_else() {
        assert!(strip_layout("A", 16, 4, 64).is_ok());
        let err = strip_layout("A", 16, 4, 60).unwrap_err();
        assert_eq!(err, PackLayoutError { operand: "A", depth: 16, tile: 4, len: 60 });
        assert!(err.to_string().contains("needs exactly 64"));
        // Oversized buffers are just as wrong: a stale tail would be read.
        assert!(strip_layout("B", 16, 8, 136).is_err());
        assert!(strip_layout("B", 16, 0, 0).is_err(), "zero tile is never valid");
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
