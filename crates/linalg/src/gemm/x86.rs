//! The x86_64 FMA micro-kernel (`std::arch` intrinsics).
//!
//! [`FMA`] is a 6x8 tile of `_mm256_fmadd_pd`: 12 ymm accumulators plus
//! the two B vectors and one rotating A broadcast exactly fill the
//! 16-register budget with nothing spilled (the classic Haswell DGEMM
//! shape); the single-rounded fused update doubles peak flops but is a
//! distinct rounding class (`fused() == true`), last-ulp different from
//! the scalar oracle.
//!
//! This is the kernel every benchmark workload runs on an x86_64 host
//! with AVX2 and FMA; a host without both runs the portable `scalar`
//! kernel.
//!
//! The kernel implements the strided-A entry by broadcasting straight
//! from the row-major operand, which is what lets the tall-skinny path
//! skip A packing without changing a bit: broadcast-from-memory reads the
//! same values the packed strip would hold, and the flop order is
//! unchanged. The same holds for `run_rows`, which loads each step of both
//! strips at its own stride: packed strips and the K-panel path's
//! in-place rows run one loop.
//!
//! # Safety
//!
//! The static below is only ever handed out by `kernel::available()`
//! after `is_x86_feature_detected!` confirms AVX2 and FMA, so the
//! `unsafe` trait-method bodies' only obligation is the documented
//! slice/pointer geometry.

use std::arch::x86_64::{
    __m256d, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_storeu_pd,
};

use super::kernel::MicroKernel;

/// The 6x8 FMA f64 kernel (fused rounding class).
pub(crate) static FMA: FmaKernel = FmaKernel;

pub(crate) struct FmaKernel;

const FMA_MR: usize = 6;
const FMA_NR: usize = 8;

impl MicroKernel<f64> for FmaKernel {
    fn name(&self) -> &'static str {
        "fma"
    }

    fn mr(&self) -> usize {
        FMA_MR
    }

    fn nr(&self) -> usize {
        FMA_NR
    }

    fn fused(&self) -> bool {
        true
    }

    unsafe fn run_rows(
        &self,
        kc: usize,
        ap: *const f64,
        ars: usize,
        bp: *const f64,
        brs: usize,
        acc: &mut [f64],
    ) {
        // SAFETY: only reachable once AVX2+FMA detection has passed;
        // pointer geometry is the caller's contract.
        unsafe { fma_6x8(kc, ap, ars, bp, brs, acc) }
    }

    unsafe fn run_strided(
        &self,
        kc: usize,
        ap: *const f64,
        ars: usize,
        bstrip: &[f64],
        acc: &mut [f64],
    ) {
        // SAFETY: feature detection as above; pointer geometry is the
        // caller's contract.
        unsafe { fma_6x8_strided(kc, ap, ars, bstrip, acc) }
    }
}

/// Load / store helpers for an `ROWS x 8` f64 accumulator tile held as
/// `[[__m256d; 2]; ROWS]`.
#[inline]
unsafe fn load_tile<const ROWS: usize>(acc: &[f64]) -> [[__m256d; 2]; ROWS] {
    debug_assert!(acc.len() >= ROWS * 8);
    let mut c = [[_mm256_set1_pd(0.0); 2]; ROWS];
    for (ir, row) in c.iter_mut().enumerate() {
        row[0] = _mm256_loadu_pd(acc.as_ptr().add(ir * 8));
        row[1] = _mm256_loadu_pd(acc.as_ptr().add(ir * 8 + 4));
    }
    c
}

#[inline]
unsafe fn store_tile<const ROWS: usize>(c: &[[__m256d; 2]; ROWS], acc: &mut [f64]) {
    for (ir, row) in c.iter().enumerate() {
        _mm256_storeu_pd(acc.as_mut_ptr().add(ir * 8), row[0]);
        _mm256_storeu_pd(acc.as_mut_ptr().add(ir * 8 + 4), row[1]);
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_6x8(
    kc: usize,
    ap: *const f64,
    ars: usize,
    bp: *const f64,
    brs: usize,
    acc: &mut [f64],
) {
    let mut c = load_tile::<FMA_MR>(acc);
    for kk in 0..kc {
        let (a, b) = (ap.add(kk * ars), bp.add(kk * brs));
        let b0 = _mm256_loadu_pd(b);
        let b1 = _mm256_loadu_pd(b.add(4));
        for (ir, row) in c.iter_mut().enumerate() {
            let ai = _mm256_set1_pd(*a.add(ir));
            row[0] = _mm256_fmadd_pd(ai, b0, row[0]);
            row[1] = _mm256_fmadd_pd(ai, b1, row[1]);
        }
    }
    store_tile(&c, acc);
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_6x8_strided(kc: usize, ap: *const f64, ars: usize, bstrip: &[f64], acc: &mut [f64]) {
    debug_assert!(bstrip.len() >= kc * FMA_NR);
    let mut c = load_tile::<FMA_MR>(acc);
    for kk in 0..kc {
        let b0 = _mm256_loadu_pd(bstrip.as_ptr().add(kk * FMA_NR));
        let b1 = _mm256_loadu_pd(bstrip.as_ptr().add(kk * FMA_NR + 4));
        for (ir, row) in c.iter_mut().enumerate() {
            let ai = _mm256_set1_pd(*ap.add(ir * ars + kk));
            row[0] = _mm256_fmadd_pd(ai, b0, row[0]);
            row[1] = _mm256_fmadd_pd(ai, b1, row[1]);
        }
    }
    store_tile(&c, acc);
}
