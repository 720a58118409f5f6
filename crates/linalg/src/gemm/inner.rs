//! The K-panel path: inner products `C += Xᵀ·Y` whose `C` is small and
//! whose inner dimension `k` is long — the streaming update's `M`-long
//! `Uᵀ[U | A]` and `[U | H]ᵀH`, a WY trailing update's `Yᵀ·C`.
//!
//! The full blocked path packs all of `op(B)`, `k` long, into a fresh
//! buffer before it computes anything, and reads `op(A)` again per row
//! block. Here `C` fits in a few register tiles, so this path instead
//! walks the ascending `KC`-deep K-panels once and runs the micro-kernel
//! on every `mr × nr` tile of each panel. Each operand is read from
//! memory once.
//!
//! Both operands arrive as column blocks: `op(A) = [X₁ | X₂ | …]ᵀ` and
//! `op(B) = [Y₁ | Y₂ | …]`, every block `k` rows tall and row-major. A
//! single product is one block each; the update hands in `[U]` and
//! `[U, A]` (or `[U, H]` and `[H]`) and so reads `U` once per product
//! pair. A strip of `mr` (or `nr`) columns that lies whole inside one
//! block is read by the kernel where it lies ([`MicroKernel::run_rows`],
//! at the block's row stride). A strip that straddles a block edge, or
//! ends short at the last one, is gathered per panel into a strip buffer
//! reused from panel to panel — `O(KC·(m + n))`, independent of `k` —
//! from row slices of its blocks, cut into [`Piece`]s once per call.
//! Reading whole strips in place saves the copy: gathering every strip,
//! `tall_stream`'s `Uᵀ[U | A]` took 4.0–4.5 ms at one thread, against
//! 2.8–3.0 ms.
//!
//! Each tile's accumulator starts from zero per panel and is added to `C`
//! once per panel (`writeback`), panels ascending: the full blocked
//! path's per-element op sequence exactly, so for a fixed (kernel, `KC`)
//! this path, the full blocked path and the tall-skinny path give the
//! same bits, and [`applies`] is a pure speed decision. Threads own
//! disjoint `mr`-aligned row strips of `C`, each walks every panel, and K
//! is never split, so the bits do not depend on the thread count either.

use super::blocking::Blocking;
use super::kernel::{MicroKernel, MAX_MR, MAX_NR};
use super::packed::writeback;
use crate::par::{self, SendPtr};
use crate::scalar::Scalar;
use crate::view::MatView;

/// Should `[X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]` take the K-panel path? True when
/// `C` is at most one `MC` block of rows and 16 `nr` strips wide — so one
/// panel of both operands stays cache-resident — `k` is long enough that
/// the full path's `k`-long `op(B)` pack is the cost that matters, and
/// every block's rows are unit-stride, so the kernel can read a strip in
/// place and the gather copies row slices. (Gathered one element at a
/// time, a transposed block lost to the full path's packing: 10.5 against
/// 8.0–9.8 ms at one thread for a `60000`-long `Xᵀ·Y` of widths 24 and 32
/// given as `matmul_nt` operands.)
pub(crate) fn applies<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    xs: &[MatView<'_, T>],
    ys: &[MatView<'_, T>],
) -> bool {
    let (m, k, n) = shape(xs, ys);
    xs.iter().chain(ys).all(|v| v.cs == 1)
        && m <= Blocking::default_for(kern).mc
        && n <= 16 * kern.nr()
        && k >= 4 * m.max(n).max(64)
}

/// `(m, k, n)` of `[X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]`.
pub(crate) fn shape<T: Scalar>(
    xs: &[MatView<'_, T>],
    ys: &[MatView<'_, T>],
) -> (usize, usize, usize) {
    let k = xs.first().map_or(0, |x| x.rows);
    (xs.iter().map(|x| x.cols).sum(), k, ys.iter().map(|y| y.cols).sum())
}

/// Strip-aligned piece of a panel row, for a strip no block holds whole:
/// columns `[c0, c0 + len)` of block `blk` land at lanes
/// `[lane, lane + len)` of strip `strip`.
struct Piece {
    blk: usize,
    c0: usize,
    len: usize,
    strip: usize,
    lane: usize,
}

/// Cut columns `[lo, hi)` of `[B₁ | B₂ | …]` (`lo` a multiple of `width`)
/// into `strips` strips numbered from `lo`: for each, the `(block, first
/// column)` it lies whole inside, if any, and the pieces of the strips
/// that do not, to be gathered.
fn strips<T: Scalar>(
    blocks: &[MatView<'_, T>],
    lo: usize,
    hi: usize,
    width: usize,
) -> (Vec<Option<(usize, usize)>>, Vec<Piece>) {
    let mut whole = vec![None; (hi - lo).div_ceil(width)];
    let mut pieces = Vec::new();
    let mut off = 0;
    for (blk, x) in blocks.iter().enumerate() {
        let mut g = lo.max(off);
        let end = hi.min(off + x.cols);
        while g < end {
            let (strip, lane) = ((g - lo) / width, (g - lo) % width);
            let len = (width - lane).min(end - g);
            if len == width {
                whole[strip] = Some((blk, g - off));
            } else {
                pieces.push(Piece { blk, c0: g - off, len, strip, lane });
            }
            g += len;
        }
        off += x.cols;
    }
    (whole, pieces)
}

/// Gather rows `[kb, kb + kc)` of the pieces' blocks into `width`-wide
/// strips of `dst` (strip `s`, row `kk`, lane `l` at
/// `s·kc·width + kk·width + l`: the layout of `pack_a_strip` and
/// `pack_b_strip`), one source row at a time. Lanes no piece covers are
/// left as they are.
fn gather<T: Scalar>(
    blocks: &[MatView<'_, T>],
    pieces: &[Piece],
    kb: usize,
    kc: usize,
    width: usize,
    dst: &mut [T],
) {
    for kk in 0..kc {
        for p in pieces {
            let x = blocks[p.blk];
            let src = &x.data[(kb + kk) * x.rs + p.c0..][..p.len];
            let at = p.strip * kc * width + kk * width + p.lane;
            dst[at..at + p.len].copy_from_slice(src);
        }
    }
}

/// Strip `s` of the panel at rows `[kb, kb + kc)`, as the micro-kernel
/// reads it: a slice from its first step and the stride between steps —
/// the block's own rows when the strip lies whole inside one, else its
/// part of the gathered `pack`.
fn strip<'a, T: Scalar>(
    blocks: &[MatView<'a, T>],
    whole: Option<(usize, usize)>,
    pack: &'a [T],
    s: usize,
    kb: usize,
    kc: usize,
    width: usize,
) -> (&'a [T], usize) {
    match whole {
        Some((blk, c0)) => {
            let x = blocks[blk];
            let at = kb * x.rs + c0;
            (&x.data[at..at + (kc - 1) * x.rs + width], x.rs)
        }
        None => (&pack[s * kc * width..(s + 1) * kc * width], width),
    }
}

/// `C += [X₁ | X₂ | …]ᵀ·[Y₁ | Y₂ | …]` into `c` at row stride `ldc`, with
/// the accumulation order of the full blocked path at panel depth
/// `kc_max`. Every block is `k` rows tall, with unit column stride.
pub(crate) fn gemm<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    kc_max: usize,
    xs: &[MatView<'_, T>],
    ys: &[MatView<'_, T>],
    c: &mut [T],
    ldc: usize,
) {
    let (m, k, n) = shape(xs, ys);
    debug_assert!(xs.iter().chain(ys).all(|v| v.rows == k && v.cs == 1));
    let (mr, nr) = (kern.mr(), kern.nr());
    let npj = n.div_ceil(nr);
    let (bwhole, bpieces) = strips(ys, 0, n, nr);
    let (used, per) = par::strip_partition(m.div_ceil(mr));
    let cptr = SendPtr(c.as_mut_ptr());
    par::run(used, &|tid: usize| {
        let r0 = tid * per * mr;
        let r1 = (r0 + per * mr).min(m);
        if r0 >= r1 {
            return;
        }
        let (awhole, apieces) = strips(xs, r0, r1, mr);
        let mstrips = awhole.len();
        let mut apack = vec![T::ZERO; mstrips * kc_max * mr];
        let mut bpack = vec![T::ZERO; npj * kc_max * nr];
        let mut acc_buf = [T::ZERO; MAX_MR * MAX_NR];
        let acc = &mut acc_buf[..mr * nr];
        let mut kb = 0;
        while kb < k {
            let kc = kc_max.min(k - kb);
            // Padding lanes past row r1 or column n keep whatever the
            // buffer held: they reach only accumulator lanes that
            // `writeback` never copies out.
            gather(xs, &apieces, kb, kc, mr, &mut apack);
            gather(ys, &bpieces, kb, kc, nr, &mut bpack);
            for (jp, &bw) in bwhole.iter().enumerate() {
                let (b, brs) = strip(ys, bw, &bpack, jp, kb, kc, nr);
                let jcount = nr.min(n - jp * nr);
                for (ip, &aw) in awhole.iter().enumerate() {
                    let (a, ars) = strip(xs, aw, &apack, ip, kb, kc, mr);
                    let i0 = r0 + ip * mr;
                    acc.fill(T::ZERO);
                    // SAFETY: `strip` slices hold kc steps of mr (nr)
                    // elements at stride ars (brs), and acc is mr x nr.
                    unsafe { kern.run_rows(kc, a.as_ptr(), ars, b.as_ptr(), brs, acc) };
                    // SAFETY: rows [r0, r1) belong to this thread's
                    // disjoint range.
                    unsafe { writeback(cptr, acc, nr, i0, mr.min(r1 - i0), jp * nr, jcount, ldc) };
                }
            }
            kb += kc;
        }
    });
}
