//! Cache-blocking parameters (`MC` / `KC` / `NC`) and their process-wide
//! resolution.
//!
//! The packed engine walks `C` in `MC x NC` macro-tiles fed by `KC`-deep
//! K-panels. The parameters are validated against the active micro-kernel
//! ([`Blocking::try_new`]) — `MC` must be a multiple of its `mr` and `NC`
//! of its `nr` so packed strips never straddle a block boundary — and
//! resolved exactly once per process *per dtype* (the cells live in
//! [`Scalar::gemm_cells`]) to the static defaults
//! ([`Blocking::default_for`]). With the scalar kernel forced at f64, this
//! is bit-for-bit the pre-SIMD engine.
//!
//! Cache capacities are measured in **bytes**, so the defaults are keyed
//! by element size: `KC` holds a constant K-panel byte footprint
//! ([`DEFAULT_KC_BYTES`]), which lands on the historical 256 at f64 and
//! 512 at f32 — twice the reduction depth in the same L1 working set.
//!
//! Only `KC` changes numerical results (each `C` element accumulates one
//! rounded partial sum per K-panel), and only between processes resolved
//! to different values: within a process the resolved triple is
//! immutable, so the bitwise-determinism contract holds per (kernel,
//! blocking, thread-count, dtype) with blocking fixed at resolution
//! time. `MC` and `NC` only re-tile loops and never affect a single bit.

use crate::scalar::Scalar;

use super::kernel::{self, MicroKernel};

/// Default row-block height (multiple of every kernel's `mr`).
pub(crate) const DEFAULT_MC: usize = 128;
/// Default K-panel byte depth: `KC = DEFAULT_KC_BYTES / size_of::<T>()`.
/// At f64 this is the pre-SIMD engine's 256 (`KC` is the one parameter
/// that affects rounding, so that value is load-bearing for
/// scalar-kernel bitwise reproduction); at f32 it is 512.
pub(crate) const DEFAULT_KC_BYTES: usize = 2048;
/// Default column-chunk width. Wider than every shape the SVD drivers
/// produce, so by default the whole of `op(B)` is packed once per call —
/// exactly the pre-SIMD engine's behavior.
pub(crate) const DEFAULT_NC: usize = 4096;

/// Upper bound on the packed-A bytes per thread (16 MiB). Guards against
/// absurd caller-chosen values; the element cap follows the dtype.
const MAX_PACK_A_BYTES: usize = 1 << 24;

/// The default `KC` for dtype `T` (see [`DEFAULT_KC_BYTES`]).
pub(crate) fn default_kc<T: Scalar>() -> usize {
    DEFAULT_KC_BYTES / std::mem::size_of::<T>()
}

/// Upper bound on `mc * kc` in *elements* of `T`.
pub(crate) fn max_pack_a_elems<T: Scalar>() -> usize {
    MAX_PACK_A_BYTES / std::mem::size_of::<T>()
}

/// A validated `MC`/`KC`/`NC` cache-blocking triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Row-block height per packed-A block (multiple of the kernel `mr`).
    pub mc: usize,
    /// K-panel depth.
    pub kc: usize,
    /// Column-chunk width per packed-B chunk (multiple of the kernel `nr`).
    pub nc: usize,
}

/// Rejected blocking parameters, with the constraint that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockingError {
    /// A parameter was zero.
    Zero(&'static str),
    /// `MC` is not a multiple of the kernel's `mr`.
    McMisaligned { mc: usize, mr: usize, kernel: &'static str },
    /// `NC` is not a multiple of the kernel's `nr`.
    NcMisaligned { nc: usize, nr: usize, kernel: &'static str },
    /// `mc * kc` exceeds the packed-A buffer cap (in elements of the
    /// dtype being validated).
    PackTooLarge { mc: usize, kc: usize, max_elems: usize },
}

impl std::fmt::Display for BlockingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockingError::Zero(which) => write!(f, "blocking parameter {which} must be nonzero"),
            BlockingError::McMisaligned { mc, mr, kernel } => {
                write!(f, "MC = {mc} is not a multiple of kernel {kernel:?} mr = {mr}")
            }
            BlockingError::NcMisaligned { nc, nr, kernel } => {
                write!(f, "NC = {nc} is not a multiple of kernel {kernel:?} nr = {nr}")
            }
            BlockingError::PackTooLarge { mc, kc, max_elems } => {
                write!(f, "MC x KC = {mc} x {kc} exceeds the packed-A cap of {max_elems} elements")
            }
        }
    }
}

impl std::error::Error for BlockingError {}

impl Blocking {
    /// Validate a blocking triple against a micro-kernel's tile shape
    /// (and the dtype's byte-based packed-A cap).
    pub fn try_new<T: Scalar>(
        mc: usize,
        kc: usize,
        nc: usize,
        kernel: &dyn MicroKernel<T>,
    ) -> Result<Self, BlockingError> {
        for (v, name) in [(mc, "MC"), (kc, "KC"), (nc, "NC")] {
            if v == 0 {
                return Err(BlockingError::Zero(name));
            }
        }
        if !mc.is_multiple_of(kernel.mr()) {
            return Err(BlockingError::McMisaligned { mc, mr: kernel.mr(), kernel: kernel.name() });
        }
        if !nc.is_multiple_of(kernel.nr()) {
            return Err(BlockingError::NcMisaligned { nc, nr: kernel.nr(), kernel: kernel.name() });
        }
        let max_elems = max_pack_a_elems::<T>();
        if mc.saturating_mul(kc) > max_elems {
            return Err(BlockingError::PackTooLarge { mc, kc, max_elems });
        }
        Ok(Blocking { mc, kc, nc })
    }

    /// The static defaults for a kernel: `MC` is `DEFAULT_MC` rounded
    /// down to the kernel's `mr` (exactly 128 for the scalar oracle, so
    /// the pre-SIMD engine's blocking is reproduced verbatim; `MC` never
    /// affects bits in any case), `KC` holds a constant byte footprint
    /// (`default_kc`), `NC` is the fixed default.
    pub fn default_for<T: Scalar>(kernel: &dyn MicroKernel<T>) -> Self {
        let mc = (DEFAULT_MC / kernel.mr()).max(1) * kernel.mr();
        Blocking::try_new(mc, default_kc::<T>(), DEFAULT_NC, kernel)
            .expect("static defaults must be valid for every shipped kernel")
    }
}

/// The process-wide blocking for dtype `T`, resolved on first use.
/// Immutable once returned.
pub(crate) fn resolved<T: Scalar>() -> Blocking {
    *T::gemm_cells().blocking.get_or_init(|| Blocking::default_for(kernel::selected::<T>()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::kernel::ScalarKernel;

    #[test]
    fn defaults_validate_for_every_kernel() {
        for kern in kernel::available::<f64>() {
            let b = Blocking::default_for(*kern);
            assert_eq!(b.mc % kern.mr(), 0, "{}: MC not mr-aligned", kern.name());
            assert!(b.mc <= DEFAULT_MC && b.mc + kern.mr() > DEFAULT_MC);
            assert_eq!((b.kc, b.nc), (256, DEFAULT_NC));
        }
        for kern in kernel::available::<f32>() {
            let b = Blocking::default_for(*kern);
            assert_eq!(b.mc % kern.mr(), 0, "{}: MC not mr-aligned", kern.name());
            assert_eq!(
                (b.kc, b.nc),
                (512, DEFAULT_NC),
                "f32 K-panels are twice as deep in the same byte budget"
            );
        }
        // The scalar oracle keeps the pre-SIMD engine's exact MC and KC.
        let b = Blocking::default_for::<f64>(&ScalarKernel);
        assert_eq!((b.mc, b.kc), (DEFAULT_MC, 256));
    }

    #[test]
    fn misaligned_mc_and_nc_are_rejected() {
        let k = ScalarKernel;
        assert_eq!(
            Blocking::try_new::<f64>(130, 256, 4096, &k),
            Err(BlockingError::McMisaligned { mc: 130, mr: 4, kernel: "scalar" })
        );
        assert_eq!(
            Blocking::try_new::<f64>(128, 256, 4100, &k),
            Err(BlockingError::NcMisaligned { nc: 4100, nr: 8, kernel: "scalar" })
        );
        assert_eq!(Blocking::try_new::<f64>(0, 256, 4096, &k), Err(BlockingError::Zero("MC")));
        assert!(matches!(
            Blocking::try_new::<f64>(1 << 12, 1 << 12, 4096, &k),
            Err(BlockingError::PackTooLarge { .. })
        ));
        let err = Blocking::try_new::<f64>(130, 256, 4096, &k).unwrap_err();
        assert!(err.to_string().contains("MC = 130"));
    }

    #[test]
    fn pack_cap_is_byte_based() {
        let k = ScalarKernel;
        // 1<<12 x 1<<10 elements: 32 MiB at f64 (rejected), 16 MiB at
        // f32 (the boundary — accepted).
        assert!(Blocking::try_new::<f64>(1 << 12, 1 << 10, 4096, &k).is_err());
        assert!(Blocking::try_new::<f32>(1 << 12, 1 << 10, 4096, &k).is_ok());
        assert_eq!(max_pack_a_elems::<f32>(), 2 * max_pack_a_elems::<f64>());
    }
}
