//! The one wire rule: whether a matrix travels as `f32`.
//!
//! Under `Precision::Mixed` every `Matrix<T>` crossing the communicator is
//! demoted to `f32` before it enters the exchange and promoted back on
//! receipt; otherwise it travels at its native dtype. Everything that
//! walks the merge-tree plan as a matrix — TSQR's `R` factors and `Q`
//! blocks, the projection's sums (`UᵀA` and the residual's Grams), the
//! mode gathers, the factor broadcast and APMOS's factors — ships as a
//! [`Wire`], so that decision, and the only demotion in the crate, is
//! [`pack`].
//! Whatever rides along (singular values, tree diagnostics, the measured
//! `UᵀU`) keeps full precision: it is `O(K)` or `O(K²)` numbers, and
//! demoting it would cost the σ accuracy contract or, for `UᵀU`, hide the
//! very drift it measures.

use std::ops::Range;

use psvd_comm::{CommError, Communicator, Payload};
use psvd_linalg::{Matrix, Scalar};

use crate::config::{Precision, SvdConfig};
use crate::hierarchical::MergeTreePlan;

/// Whether `cfg` asks for the `f32` wire.
pub(crate) fn mixed(cfg: &SvdConfig) -> bool {
    cfg.precision == Precision::Mixed
}

/// A matrix as it travels: charged, and rounded, at the dtype it holds.
#[derive(Clone)]
pub(crate) enum Wire<T: Scalar> {
    Native(Matrix<T>),
    F32(Matrix<f32>),
}

/// Ready `m` for the wire. Senders pack their own contribution to a
/// collective too, so root and non-root blocks are rounded identically.
pub(crate) fn pack<T: Scalar>(mixed: bool, m: Matrix<T>) -> Wire<T> {
    if mixed {
        Wire::F32(m.cast())
    } else {
        Wire::Native(m)
    }
}

impl<T: Scalar> Wire<T> {
    /// The matrix a receiver holds.
    pub(crate) fn unpack(self) -> Matrix<T> {
        match self {
            Wire::Native(m) => m,
            Wire::F32(m) => m.cast(),
        }
    }

    /// Rows `rows` of the matrix a receiver would hold, copied out.
    pub(crate) fn rows(&self, rows: Range<usize>) -> Matrix<T> {
        match self {
            Wire::Native(m) => m.block(rows.start, rows.end, 0, m.cols()).to_matrix(),
            Wire::F32(m) => m.block(rows.start, rows.end, 0, m.cols()).to_matrix().cast(),
        }
    }
}

/// Received row blocks, promoted and stacked in order (reusing their
/// storage).
pub(crate) fn vstack<T: Scalar>(parts: Vec<Wire<T>>) -> Matrix<T> {
    Matrix::vstack_owned(parts.into_iter().map(Wire::unpack).collect())
}

impl<T: Scalar> Payload for Wire<T> {
    fn byte_len(&self) -> usize {
        match self {
            Wire::Native(m) => m.byte_len(),
            Wire::F32(m) => m.byte_len(),
        }
    }
}

/// Broadcast rank 0's `(factor matrix, singular values, extra)` down the
/// plan in one collective round; `extra` is whatever small payload rides
/// along (the APMOS diagnostics, `()` for TSQR). Every rank, rank 0
/// included, consumes the wire copy, so all ranks hold bit-identical
/// factors; in mixed mode the singular values travel as `f64`.
pub(crate) fn bcast_factors<C: Communicator, T: Scalar + Payload, E: Payload + Clone>(
    comm: &C,
    plan: &MergeTreePlan,
    mixed: bool,
    factors: Option<(Matrix<T>, Vec<T>, E)>,
) -> Result<(Matrix<T>, Vec<T>, E), CommError> {
    let tag = comm.next_collective_tag();
    if mixed {
        let wide = |s: Vec<T>| s.iter().map(|v| v.to_f64()).collect::<Vec<f64>>();
        let sent = factors.map(|(x, s, e)| (pack(mixed, x), wide(s), e));
        let (x, s, e) = plan.try_bcast(comm, tag, sent)?;
        Ok((x.unpack(), s.into_iter().map(T::from_f64).collect(), e))
    } else {
        let sent = factors.map(|(x, s, e)| (pack(mixed, x), s, e));
        let (x, s, e) = plan.try_bcast(comm, tag, sent)?;
        Ok((x.unpack(), s, e))
    }
}
