//! Micro-kernel abstraction and runtime CPU dispatch.
//!
//! The packed engine's innermost computation is an `MR x NR` register-tile
//! update. This module defines the [`MicroKernel`] trait that tile lives
//! behind — generic over the sealed [`Scalar`] element type, which is
//! `f64` — the portable `ScalarKernel` (the bitwise determinism oracle —
//! its floating-point op sequence is exactly the pre-SIMD engine's), and
//! the process-wide selection logic.
//! Two kernels exist, and each names where it runs:
//!
//! * `scalar` — every host; the only kernel on non-x86_64 hosts and on
//!   x86_64 hosts without both AVX2 and FMA, the oracle every property
//!   test compares against, and the whole tier-1 suite under the CI leg
//!   `PSVD_GEMM_KERNEL=scalar`.
//! * `fma` (`super::x86`) — x86_64 hosts reporting AVX2 and FMA: every
//!   benchmark workload on such a host.
//!
//! Selection:
//!
//! 1. `PSVD_GEMM_KERNEL=<name>` forces a kernel by name (`scalar`, or
//!    `fma` where the CPU has it); an unknown or unavailable name panics
//!    with the available list, so misconfigured tests fail loudly instead
//!    of silently measuring the wrong kernel.
//! 2. Otherwise `fma` when the CPU reports AVX2 and FMA, else `scalar`,
//!    detected once at first use.
//!
//! Selection happens once per process (the registry lives in
//! [`Scalar::gemm_cells`] — Rust has no generic statics) and is immutable
//! afterwards, which is what keeps the per-(kernel, thread-count) bitwise
//! determinism contract meaningful: within a process, every GEMM sees the
//! same kernel. Tests that want a *different*
//! kernel pass one explicitly via [`crate::gemm::packed::matmul_with`] and
//! friends instead of mutating global state.
//!
//! ## Rounding classes
//!
//! A kernel whose per-element update is round(mul) then round(add) in
//! ascending `k` ([`MicroKernel::fused`] `== false`) is bitwise identical
//! to the scalar oracle. The fused kernel (`fma`) rounds once per
//! multiply-add and therefore differs from the oracle at the last ulp; it
//! is still bitwise deterministic across thread counts and shapes, just a
//! distinct rounding class.

use crate::scalar::Scalar;

/// Hard upper bound on micro-tile rows any kernel may declare. The engine
/// sizes its stack accumulator tile from these, so they are compile-time
/// constants rather than per-kernel queries.
pub(crate) const MAX_MR: usize = 8;
/// Hard upper bound on micro-tile columns any kernel may declare.
pub(crate) const MAX_NR: usize = 8;

/// One register-tile micro-kernel: `acc += A-strip * B-strip` over a
/// single K-panel, at element type `T`.
///
/// `astrip` holds `kc` steps of `mr()` values (packed column-major within
/// the strip: element `(ir, kk)` at `kk * mr + ir`), `bstrip` holds `kc`
/// steps of `nr()` values (`(kk, jr)` at `kk * nr + jr`), and `acc` is the
/// row-major `mr() x nr()` accumulator tile;
/// [`run_rows`](MicroKernel::run_rows) reads the same steps at any stride.
/// Every implementation must
/// accumulate each `acc` element in ascending `kk` — that invariant (plus
/// the engine never splitting K across threads) is what makes results a
/// pure function of (kernel, blocking, shape), independent of thread
/// count.
pub trait MicroKernel<T: Scalar = f64>: Sync {
    /// Stable name used by `PSVD_GEMM_KERNEL`, test matrices and bench
    /// JSON.
    fn name(&self) -> &'static str;

    /// Micro-tile rows (`<= MAX_MR` = 8; the engine's row partition and
    /// `MC` must be multiples of this).
    fn mr(&self) -> usize;

    /// Micro-tile columns (`<= MAX_NR` = 8).
    fn nr(&self) -> usize;

    /// True when the kernel contracts multiply-add into a single rounding
    /// (FMA). Non-fused kernels are bitwise identical to the `scalar`
    /// oracle.
    fn fused(&self) -> bool {
        false
    }

    /// `acc += A-strip * B-strip` over one K-panel of `kc` steps, both
    /// operands read where they lie: element `(ir, kk)` of the A strip is
    /// `*ap.add(kk * ars + ir)` and element `(kk, jr)` of the B strip is
    /// `*bp.add(kk * brs + jr)`. On packed strips (`ars = mr()`,
    /// `brs = nr()`) this is [`run`](MicroKernel::run); the K-panel path
    /// also points both straight into the rows of row-major operands.
    ///
    /// # Safety
    ///
    /// For every `kk < kc`, `ap` must have `mr()` readable elements at
    /// offset `kk * ars` and `bp` `nr()` at offset `kk * brs`, and `acc`
    /// must hold `mr() * nr()` elements.
    unsafe fn run_rows(
        &self,
        kc: usize,
        ap: *const T,
        ars: usize,
        bp: *const T,
        brs: usize,
        acc: &mut [T],
    );

    /// `acc += astrip * bstrip` over one K-panel of packed operands.
    /// `astrip.len() == kc * mr()`, `bstrip.len() == kc * nr()`,
    /// `acc.len() == mr() * nr()` (checked).
    fn run(&self, astrip: &[T], bstrip: &[T], acc: &mut [T]) {
        let (mr, nr) = (self.mr(), self.nr());
        let kc = astrip.len() / mr;
        assert!(
            astrip.len() == kc * mr && bstrip.len() == kc * nr && acc.len() == mr * nr,
            "micro-kernel strips {} and {} do not make {kc} steps of a {mr}x{nr} tile",
            astrip.len(),
            bstrip.len()
        );
        // SAFETY: the lengths just checked hold kc packed steps of both
        // strips and the whole tile.
        unsafe { self.run_rows(kc, astrip.as_ptr(), mr, bstrip.as_ptr(), nr, acc) }
    }

    /// The same flop sequence as [`run`](MicroKernel::run), reading the A
    /// operand in place instead of from a packed strip: element
    /// `(ir, kk)` is `*ap.add(ir * ars + kk)`. This is the tall-skinny
    /// streaming path's entry — it skips A packing entirely for row-major
    /// operands. Must produce bitwise-identical results to `run` on the
    /// equivalent packed strip.
    ///
    /// # Safety
    ///
    /// `ap` must point to `mr()` full rows of at least `kc` readable
    /// elements at row stride `ars` (callers handle partial edge strips
    /// by packing instead).
    unsafe fn run_strided(&self, kc: usize, ap: *const T, ars: usize, bstrip: &[T], acc: &mut [T]);
}

/// The portable reference micro-kernel: a branch-free 4x8 tile whose
/// fixed-trip loops LLVM unrolls and autovectorizes. Its per-element op
/// sequence is exactly the pre-SIMD packed engine's, which makes it the
/// determinism oracle every other kernel is validated against.
pub(crate) struct ScalarKernel;

/// Micro-tile rows of the scalar oracle.
const SCALAR_MR: usize = 4;
/// Micro-tile columns of the scalar oracle.
const SCALAR_NR: usize = 8;

impl<T: Scalar> MicroKernel<T> for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn mr(&self) -> usize {
        SCALAR_MR
    }

    fn nr(&self) -> usize {
        SCALAR_NR
    }

    unsafe fn run_rows(
        &self,
        kc: usize,
        ap: *const T,
        ars: usize,
        bp: *const T,
        brs: usize,
        acc: &mut [T],
    ) {
        // Fixed-size tile on the stack so LLVM keeps the accumulators in
        // vector registers across the K loop (a slice-typed accumulator
        // defeats that). The copies are exact, so the op sequence per
        // element is unchanged.
        let mut tile = [T::ZERO; SCALAR_MR * SCALAR_NR];
        tile.copy_from_slice(&acc[..SCALAR_MR * SCALAR_NR]);
        for kk in 0..kc {
            let (a, b) = (ap.add(kk * ars), bp.add(kk * brs));
            let (a0, a1, a2, a3) = (*a, *a.add(1), *a.add(2), *a.add(3));
            for j in 0..SCALAR_NR {
                let bj = *b.add(j);
                tile[j] += a0 * bj;
                tile[SCALAR_NR + j] += a1 * bj;
                tile[2 * SCALAR_NR + j] += a2 * bj;
                tile[3 * SCALAR_NR + j] += a3 * bj;
            }
        }
        acc[..SCALAR_MR * SCALAR_NR].copy_from_slice(&tile);
    }

    unsafe fn run_strided(&self, kc: usize, ap: *const T, ars: usize, bstrip: &[T], acc: &mut [T]) {
        debug_assert!(bstrip.len() >= kc * SCALAR_NR);
        let mut tile = [T::ZERO; SCALAR_MR * SCALAR_NR];
        tile.copy_from_slice(&acc[..SCALAR_MR * SCALAR_NR]);
        for kk in 0..kc {
            let (a0, a1, a2, a3) =
                (*ap.add(kk), *ap.add(ars + kk), *ap.add(2 * ars + kk), *ap.add(3 * ars + kk));
            let bvals = &bstrip[kk * SCALAR_NR..(kk + 1) * SCALAR_NR];
            for (j, &bj) in bvals.iter().enumerate() {
                tile[j] += a0 * bj;
                tile[SCALAR_NR + j] += a1 * bj;
                tile[2 * SCALAR_NR + j] += a2 * bj;
                tile[3 * SCALAR_NR + j] += a3 * bj;
            }
        }
        acc[..SCALAR_MR * SCALAR_NR].copy_from_slice(&tile);
    }
}

static SCALAR: ScalarKernel = ScalarKernel;

/// Detect the f64 kernels this host can run (scalar first, preferred last).
pub(crate) fn detect_f64() -> Vec<&'static dyn MicroKernel<f64>> {
    #[allow(unused_mut)]
    let mut list: Vec<&'static dyn MicroKernel<f64>> = vec![&SCALAR];
    #[cfg(target_arch = "x86_64")]
    if has_fma() {
        list.push(&super::x86::FMA);
    }
    list
}

/// Whether the CPU can run the `fma` kernel (it uses AVX2 loads and FMA3
/// multiply-adds).
#[cfg(target_arch = "x86_64")]
fn has_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Every micro-kernel this process can run, detection-ordered
/// from portable to preferred (`scalar` first, `fma` last where present).
/// `scalar` is always present.
pub fn available<T: Scalar>() -> &'static [&'static dyn MicroKernel<T>] {
    T::gemm_cells().registry.get_or_init(T::detect_kernels).as_slice()
}

/// Look a kernel up by its stable name, if available on this host.
pub fn by_name<T: Scalar>(name: &str) -> Option<&'static dyn MicroKernel<T>> {
    available::<T>().iter().copied().find(|k| k.name() == name)
}

/// Resolve a kernel from an optional override string (the testable core
/// of [`selected`]): `None` picks the preferred available kernel; `Some`
/// must name an available kernel exactly.
pub(crate) fn choose<T: Scalar>(over: Option<&str>) -> Result<&'static dyn MicroKernel<T>, String> {
    match over {
        None => Ok(*available::<T>().last().expect("scalar kernel always present")),
        Some(name) => {
            let name = name.trim();
            by_name::<T>(name).ok_or_else(|| {
                let names: Vec<&str> = available::<T>().iter().map(|k| k.name()).collect();
                format!(
                    "PSVD_GEMM_KERNEL={name:?} is not available on this host at {}; \
                     available kernels: {names:?}",
                    T::NAME
                )
            })
        }
    }
}

/// The process-wide micro-kernel, resolved once at first
/// use from `PSVD_GEMM_KERNEL` or CPU-feature detection (see module docs).
pub fn selected<T: Scalar>() -> &'static dyn MicroKernel<T> {
    *T::gemm_cells().selected.get_or_init(|| {
        let over = std::env::var("PSVD_GEMM_KERNEL").ok().filter(|v| !v.trim().is_empty());
        choose::<T>(over.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_first() {
        fn probe<T: Scalar>() {
            let list = available::<T>();
            assert!(!list.is_empty());
            assert_eq!(list[0].name(), "scalar");
            assert!(by_name::<T>("scalar").is_some());
        }
        probe::<f64>();
    }

    #[test]
    fn tile_bounds_hold_for_every_kernel() {
        fn probe<T: Scalar>() {
            for k in available::<T>() {
                assert!(k.mr() >= 1 && k.mr() <= MAX_MR, "{} mr out of range", k.name());
                assert!(k.nr() >= 1 && k.nr() <= MAX_NR, "{} nr out of range", k.name());
            }
        }
        probe::<f64>();
    }

    #[test]
    fn choose_rejects_unknown_names() {
        let err = choose::<f64>(Some("no-such-kernel")).err().expect("must be rejected");
        assert!(err.contains("no-such-kernel"), "error should name the bad kernel: {err}");
        assert!(err.contains("scalar"), "error should list available kernels: {err}");
        // The AVX2-only kernel is gone: its name is as unknown as any other.
        let err = choose::<f64>(Some("avx2")).err().expect("avx2 must be rejected");
        assert!(err.contains("not available") && err.contains("available kernels"), "{err}");
    }

    #[test]
    fn choose_default_prefers_widest() {
        #[cfg(target_arch = "x86_64")]
        let want = if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            "fma"
        } else {
            "scalar"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "scalar";
        fn probe<T: Scalar>(want: &str) {
            let k = choose::<T>(None).unwrap();
            assert_eq!(k.name(), want);
            assert_eq!(k.name(), available::<T>().last().unwrap().name());
        }
        probe::<f64>(want);
    }

    #[test]
    fn run_strided_bitwise_matches_run_packed() {
        fn probe<T: Scalar>() {
            for kern in available::<T>() {
                let (mr, nr) = (kern.mr(), kern.nr());
                let kc = 37;
                // A strip laid out as mr rows of a wider row-major buffer.
                let ars = kc + 5;
                let arows: Vec<T> = (0..mr * ars)
                    .map(|i| T::from_f64(((i * 13 % 97) as f64 * 0.31).sin()))
                    .collect();
                let bstrip: Vec<T> =
                    (0..kc * nr).map(|i| T::from_f64(((i * 7 % 89) as f64 * 0.17).cos())).collect();
                // Pack the same A values into the strip layout run() expects.
                let mut astrip = vec![T::ZERO; kc * mr];
                for kk in 0..kc {
                    for ir in 0..mr {
                        astrip[kk * mr + ir] = arows[ir * ars + kk];
                    }
                }
                let mut acc_packed = vec![T::ZERO; mr * nr];
                kern.run(&astrip, &bstrip, &mut acc_packed);
                let mut acc_strided = vec![T::ZERO; mr * nr];
                // SAFETY: arows holds mr rows of ars >= kc elements each.
                unsafe { kern.run_strided(kc, arows.as_ptr(), ars, &bstrip, &mut acc_strided) };
                assert_eq!(
                    acc_packed,
                    acc_strided,
                    "{} ({}): strided A changed bits",
                    kern.name(),
                    T::NAME
                );
                // Both strips read in place from the rows of wider
                // row-major buffers, as the K-panel path reads them.
                let (lda, ldb) = (mr + 3, nr + 5);
                let mut arows_t = vec![T::ZERO; kc * lda];
                let mut brows = vec![T::ZERO; kc * ldb];
                for kk in 0..kc {
                    arows_t[kk * lda..kk * lda + mr].copy_from_slice(&astrip[kk * mr..][..mr]);
                    brows[kk * ldb..kk * ldb + nr].copy_from_slice(&bstrip[kk * nr..][..nr]);
                }
                let mut acc_rows = vec![T::ZERO; mr * nr];
                // SAFETY: both buffers hold kc rows at strides lda >= mr
                // and ldb >= nr.
                unsafe {
                    kern.run_rows(kc, arows_t.as_ptr(), lda, brows.as_ptr(), ldb, &mut acc_rows)
                };
                assert_eq!(acc_packed, acc_rows, "{}: in-place rows changed bits", kern.name());
            }
        }
        probe::<f64>();
    }

    #[test]
    fn non_fused_kernels_bitwise_match_scalar() {
        fn probe<T: Scalar>() {
            let kc = 41;
            for kern in available::<T>().iter().filter(|k| !k.fused()) {
                let (mr, nr) = (kern.mr(), kern.nr());
                let astrip: Vec<T> = (0..kc * mr)
                    .map(|i| T::from_f64(((i * 11 % 83) as f64 * 0.23).sin()))
                    .collect();
                let bstrip: Vec<T> =
                    (0..kc * nr).map(|i| T::from_f64(((i * 5 % 79) as f64 * 0.19).cos())).collect();
                let mut acc = vec![T::ZERO; mr * nr];
                kern.run(&astrip, &bstrip, &mut acc);
                // Re-run element-wise through the scalar oracle's op order:
                // each acc element is an independent ascending-k mul-then-add
                // chain, so tiles of different shapes still compare 1:1.
                let mut want = vec![T::ZERO; mr * nr];
                for kk in 0..kc {
                    for ir in 0..mr {
                        for jr in 0..nr {
                            want[ir * nr + jr] += astrip[kk * mr + ir] * bstrip[kk * nr + jr];
                        }
                    }
                }
                assert_eq!(
                    acc,
                    want,
                    "{} ({}): diverged from the scalar op order",
                    kern.name(),
                    T::NAME
                );
            }
            // And the oracle itself agrees with the element-wise chain.
            let scalar = by_name::<T>("scalar").unwrap();
            let mut acc = vec![T::ZERO; scalar.mr() * scalar.nr()];
            scalar.run(
                &vec![T::from_f64(1.5); kc * SCALAR_MR],
                &vec![T::from_f64(0.25); kc * SCALAR_NR],
                &mut acc,
            );
            assert!(acc.iter().all(|&v| v == T::from_f64(1.5 * 0.25 * kc as f64)));
        }
        probe::<f64>();
    }
}
