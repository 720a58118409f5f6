//! Cache-blocking parameters (`MC` / `KC` / `NC`): a pure function of the
//! micro-kernel.
//!
//! The packed engine walks `C` in `MC x NC` macro-tiles fed by `KC`-deep
//! K-panels. [`Blocking::default_for`] derives the triple from the kernel
//! it will feed — `MC` a multiple of its `mr` and `NC` of its `nr`, so
//! packed strips never straddle a block boundary — every time the engine
//! is entered; nothing is configured or cached. With the scalar kernel
//! forced at f64 this is bit-for-bit the pre-SIMD engine.
//!
//! Only `KC` changes numerical results (each `C` element accumulates one
//! rounded partial sum per K-panel), and it is a constant
//! ([`DEFAULT_KC`]), so the bitwise-determinism contract holds per
//! (kernel, thread-count). `MC` and `NC` only re-tile loops and never
//! affect a single bit.

use crate::scalar::Scalar;

use super::kernel::MicroKernel;

/// Default row-block height (rounded down to the kernel's `mr`).
pub(crate) const DEFAULT_MC: usize = 128;
/// K-panel depth: the pre-SIMD engine's 256 (`KC` is the one parameter
/// that affects rounding, so that value is load-bearing for scalar-kernel
/// bitwise reproduction).
pub(crate) const DEFAULT_KC: usize = 256;
/// Default column-chunk width. Wider than every shape the SVD drivers
/// produce, so the whole of `op(B)` is packed once per call — exactly the
/// pre-SIMD engine's behavior.
pub(crate) const DEFAULT_NC: usize = 4096;

/// An `MC`/`KC`/`NC` cache-blocking triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Row-block height per packed-A block (multiple of the kernel `mr`).
    pub mc: usize,
    /// K-panel depth.
    pub kc: usize,
    /// Column-chunk width per packed-B chunk (multiple of the kernel `nr`).
    pub nc: usize,
}

impl Blocking {
    /// The blocking the engine uses with `kernel`: `MC` is `DEFAULT_MC`
    /// rounded down to the kernel's `mr` (exactly 128 for the scalar
    /// oracle, so the pre-SIMD engine's blocking is reproduced verbatim;
    /// `MC` never affects bits in any case), `KC` and `NC` are the fixed
    /// defaults.
    pub fn default_for<T: Scalar>(kernel: &dyn MicroKernel<T>) -> Self {
        let mc = (DEFAULT_MC / kernel.mr()).max(1) * kernel.mr();
        Blocking { mc, kc: DEFAULT_KC, nc: DEFAULT_NC }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::kernel::{self, ScalarKernel};

    #[test]
    fn defaults_validate_for_every_kernel() {
        for kern in kernel::available::<f64>() {
            let b = Blocking::default_for(*kern);
            assert_eq!(b.mc % kern.mr(), 0, "{}: MC not mr-aligned", kern.name());
            assert_eq!(b.nc % kern.nr(), 0, "{}: NC not nr-aligned", kern.name());
            assert!(b.mc <= DEFAULT_MC && b.mc + kern.mr() > DEFAULT_MC);
            assert_eq!((b.kc, b.nc), (256, DEFAULT_NC));
        }
        // The scalar oracle keeps the pre-SIMD engine's exact MC and KC.
        let b = Blocking::default_for::<f64>(&ScalarKernel);
        assert_eq!((b.mc, b.kc), (DEFAULT_MC, 256));
    }
}
