//! The one wire rule: whether a matrix travels as `f32`.
//!
//! Under `Precision::Mixed` every `Matrix<T>` crossing the communicator is
//! demoted to `f32` before it enters the exchange and promoted back on
//! receipt; otherwise it travels at its native dtype. TSQR's R gather and
//! Q scatter, the projection's `UᵀA` sums, the mode gathers, the factor
//! broadcast and the merge tree's factor sends all ship a [`Wire`], so
//! that decision — and the only demotion in the crate — is [`pack`].
//! Whatever rides along (singular values, tree diagnostics, the measured
//! `UᵀU`) keeps full precision: it is `O(K)` or `O(K²)` numbers, and
//! demoting it would cost the σ accuracy contract or, for `UᵀU`, hide the
//! very drift it measures.

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

/// Broadcast `(factor matrix, singular values, extra)` from `root` over
/// the plan's collective shape; `extra` is whatever small payload rides
/// along (the APMOS diagnostics, `()` for TSQR). Every rank, root
/// included, consumes the wire copy, so all ranks hold bit-identical
/// factors; in mixed mode the singular values travel as `f64`.
pub(crate) fn bcast_factors<C: Communicator, T: Scalar + Payload, E: Payload + Clone>(
    comm: &C,
    plan: &MergeTreePlan,
    mixed: bool,
    factors: Option<(Matrix<T>, Vec<T>, E)>,
    root: usize,
) -> Result<(Matrix<T>, Vec<T>, E), CommError> {
    if mixed {
        let wide = |s: Vec<T>| s.iter().map(|v| v.to_f64()).collect::<Vec<f64>>();
        let sent = factors.map(|(x, s, e)| (pack(mixed, x), wide(s), e));
        let (x, s, e) = plan.try_bcast(comm, sent, root)?;
        Ok((x.unpack(), s.into_iter().map(T::from_f64).collect(), e))
    } else {
        let sent = factors.map(|(x, s, e)| (pack(mixed, x), s, e));
        let (x, s, e) = plan.try_bcast(comm, sent, root)?;
        Ok((x.unpack(), s, e))
    }
}
