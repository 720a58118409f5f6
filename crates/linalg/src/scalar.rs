//! The sealed element-type abstraction behind every dense kernel.
//!
//! [`Scalar`] is implemented for exactly one type, `f64` (DESIGN.md, "One
//! dtype"). The trait is sealed: downstream crates can consume the generic
//! APIs but cannot add element types.
//!
//! The impl carries:
//!
//! - the IEEE constants the factorization stack needs (`EPSILON`,
//!   `MIN_POSITIVE`, ∞),
//! - the process-wide GEMM cells (kernel registry, selected kernel) —
//!   Rust has no generic statics, so the dtype hosts its `OnceLock`s
//!   behind trait hooks, and
//! - the hook to its free-list in the [`crate::workspace::Workspace`]
//!   arena.
//!
//! Every numeric method lowers to the corresponding `std` float
//! intrinsic, so code monomorphized at `f64` executes exactly the
//! instruction stream f64-only code would.

use std::sync::OnceLock;

use crate::gemm::kernel::MicroKernel;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
}

/// The per-dtype process-wide GEMM resolution state (see module docs).
#[doc(hidden)]
pub struct GemmCells<T: Scalar> {
    /// Kernels available on this CPU for this dtype (scalar first).
    pub registry: OnceLock<Vec<&'static dyn MicroKernel<T>>>,
    /// The kernel resolved from `PSVD_GEMM_KERNEL` / CPU detection.
    pub selected: OnceLock<&'static dyn MicroKernel<T>>,
}

impl<T: Scalar> GemmCells<T> {
    pub const fn new() -> Self {
        Self { registry: OnceLock::new(), selected: OnceLock::new() }
    }
}

impl<T: Scalar> Default for GemmCells<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A dense element type: `f64`. Sealed.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Send
    + Sync
    + Default
    + PartialEq
    + PartialOrd
    + std::fmt::Debug
    + std::fmt::Display
    + std::fmt::LowerExp
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + std::ops::DivAssign
    + std::iter::Sum<Self>
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon at this precision.
    const EPSILON: Self;
    /// Smallest positive normal (the safe-min guard in deflation tests).
    const MIN_POSITIVE: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Stable lowercase dtype label for profiles / bench JSON ("f64").
    const NAME: &'static str;

    /// Nearest representable value to `x` (used for tolerances and
    /// config-derived factors).
    fn from_f64(x: f64) -> Self;
    /// Widen to f64.
    fn to_f64(self) -> f64;

    /// Append this value's little-endian byte representation to `out`
    /// (`size_of::<Self>()` bytes — the on-disk element encoding of the
    /// `ncsim` container and any other byte-exact serialization).
    fn put_le_bytes(self, out: &mut Vec<u8>);
    /// Rebuild a value from the first `size_of::<Self>()` bytes of `src`
    /// (little-endian). Exact inverse of [`Scalar::put_le_bytes`] for
    /// every bit pattern, NaNs included.
    fn get_le_bytes(src: &[u8]) -> Self;

    fn abs(self) -> Self;
    fn sqrt(self) -> Self;
    fn hypot(self, other: Self) -> Self;
    fn max(self, other: Self) -> Self;
    fn min(self, other: Self) -> Self;
    fn signum(self) -> Self;
    fn powi(self, n: i32) -> Self;
    fn ln(self) -> Self;
    fn is_finite(self) -> bool;

    /// This dtype's process-wide GEMM resolution cells.
    #[doc(hidden)]
    fn gemm_cells() -> &'static GemmCells<Self>;

    /// The kernels this build/CPU can run at this dtype, scalar oracle
    /// first, preferred last.
    #[doc(hidden)]
    fn detect_kernels() -> Vec<&'static dyn MicroKernel<Self>>;

    /// This dtype's free-list inside the workspace arena.
    #[doc(hidden)]
    fn workspace_pool(ws: &mut crate::workspace::Workspace) -> &mut Vec<Vec<Self>>;
}

macro_rules! scalar_common {
    () => {
        #[inline(always)]
        fn abs(self) -> Self {
            self.abs()
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            self.sqrt()
        }
        #[inline(always)]
        fn hypot(self, other: Self) -> Self {
            self.hypot(other)
        }
        #[inline(always)]
        fn max(self, other: Self) -> Self {
            self.max(other)
        }
        #[inline(always)]
        fn min(self, other: Self) -> Self {
            self.min(other)
        }
        #[inline(always)]
        fn signum(self) -> Self {
            self.signum()
        }
        #[inline(always)]
        fn powi(self, n: i32) -> Self {
            self.powi(n)
        }
        #[inline(always)]
        fn ln(self) -> Self {
            self.ln()
        }
        #[inline(always)]
        fn is_finite(self) -> bool {
            self.is_finite()
        }
    };
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const MIN_POSITIVE: Self = f64::MIN_POSITIVE;
    const INFINITY: Self = f64::INFINITY;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn put_le_bytes(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn get_le_bytes(src: &[u8]) -> Self {
        f64::from_le_bytes(src[..8].try_into().expect("8 bytes for f64"))
    }

    scalar_common!();

    fn gemm_cells() -> &'static GemmCells<Self> {
        static CELLS: GemmCells<f64> = GemmCells::new();
        &CELLS
    }

    fn detect_kernels() -> Vec<&'static dyn MicroKernel<Self>> {
        crate::gemm::kernel::detect_f64()
    }

    fn workspace_pool(ws: &mut crate::workspace::Workspace) -> &mut Vec<Vec<Self>> {
        ws.pool_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_std() {
        assert_eq!(<f64 as Scalar>::EPSILON, f64::EPSILON);
        assert_eq!(<f64 as Scalar>::MIN_POSITIVE, f64::MIN_POSITIVE);
        assert_eq!(<f64 as Scalar>::NAME, "f64");
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(<f64 as Scalar>::from_f64(1.5).to_f64(), 1.5);
    }

    #[test]
    fn le_bytes_round_trip_bit_patterns() {
        fn probe<T: Scalar>(values: &[f64]) {
            for &v in values {
                let x = T::from_f64(v);
                let mut buf = Vec::new();
                x.put_le_bytes(&mut buf);
                assert_eq!(buf.len(), std::mem::size_of::<T>());
                let back = T::get_le_bytes(&buf);
                // Bitwise round trip, including signed zero.
                assert_eq!(back.to_f64().to_bits(), x.to_f64().to_bits());
            }
        }
        let vals = [0.0, -0.0, 1.5, -7.25e-3, 1e300, f64::MIN_POSITIVE];
        probe::<f64>(&vals);
    }

    #[test]
    fn math_lowers_to_std() {
        fn probe<T: Scalar>() {
            let three = T::from_f64(3.0);
            let four = T::from_f64(4.0);
            assert_eq!(three.hypot(four), T::from_f64(5.0));
            assert_eq!((-three).abs(), three);
            assert_eq!(four.sqrt(), T::from_f64(2.0));
            assert_eq!((-four).signum(), -T::ONE);
            assert_eq!(three.max(four), four);
            assert_eq!(three.min(four), three);
            assert!(three.is_finite());
            assert!(!T::INFINITY.is_finite());
        }
        probe::<f64>();
    }
}
