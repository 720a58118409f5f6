//! Reusable scratch buffers for the streaming hot loops.
//!
//! A [`Workspace`] is a small free-list arena of buffers. Kernels that
//! need temporaries [`take`](Workspace::take) a matrix of the shape they
//! want and [`give`](Workspace::give) it back when done; after the first
//! pass through a loop with stable shapes every `take` is served from
//! the pool and performs **zero heap allocation**. The streaming drivers
//! in `psvd-core` hold one workspace per instance, so a steady-state
//! update reuses the same few buffers forever.
//!
//! One workspace serves **both** [`Scalar`] dtypes: it keeps a separate
//! free-list per element type (`f64` and `f32` buffers are never
//! interchangeable — capacities are in elements and the bit patterns
//! differ), dispatched through [`Scalar::workspace_pool`], while the
//! counters are shared and **byte-based**. A session that mixes f32
//! sketch buffers with f64 factor buffers (the mixed-precision pipeline)
//! therefore reports `fresh_bytes` honestly: an f32 miss charges half
//! the bytes of an equally-shaped f64 miss.
//!
//! The per-instance counters ([`Workspace::stats`]) make the reuse
//! observable: `misses` and `fresh_bytes` stop growing once the pool is
//! warm, which is exactly what `tests/props_views.rs` asserts for a
//! 50-batch streaming run, and what `qr.rs`'s `blocked_path_reuses_workspace`
//! asserts for the blocked compact-WY QR, whose panel buffers (`Y`, `S`, `T`,
//! the GEMM temporaries) all cycle through the same pool.

use crate::matrix::{alloc_stats, Matrix};
use crate::scalar::Scalar;

/// Allocation-behavior counters for one [`Workspace`] (shared across
/// both element-type pools; byte counts are dtype-aware).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Total `take` calls (any dtype).
    pub takes: u64,
    /// `take` calls that could not be served from the pool and had to
    /// allocate a fresh buffer.
    pub misses: u64,
    /// Bytes freshly allocated by missing `take`s
    /// (`elements * size_of::<T>()` for the missing dtype).
    pub fresh_bytes: u64,
}

/// A free-list scratch arena handing out [`Matrix`] buffers for reuse,
/// with one pool per [`Scalar`] dtype.
#[derive(Default)]
pub struct Workspace {
    pool_f64: Vec<Vec<f64>>,
    pool_f32: Vec<Vec<f32>>,
    stats: WorkspaceStats,
}

impl Workspace {
    /// An empty workspace (first takes will allocate, later ones reuse).
    pub fn new() -> Self {
        Self::default()
    }

    /// The `f64` free-list (reached generically via
    /// [`Scalar::workspace_pool`]).
    pub(crate) fn pool_f64(&mut self) -> &mut Vec<Vec<f64>> {
        &mut self.pool_f64
    }

    /// The `f32` free-list.
    pub(crate) fn pool_f32(&mut self) -> &mut Vec<Vec<f32>> {
        &mut self.pool_f32
    }

    /// Take a `rows x cols` zeroed matrix of dtype `T` (inferred from
    /// the use site; `f64` everywhere pre-generic code ran), reusing a
    /// pooled buffer of that dtype when one with enough capacity exists
    /// (best fit: the smallest adequate buffer is chosen,
    /// deterministically).
    pub fn take<T: Scalar>(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        self.stats.takes += 1;
        let n = rows * cols;
        let pool = T::workspace_pool(self);
        let best = pool
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= n)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i);
        let reused = best.map(|i| pool.swap_remove(i));
        let mut buf = match reused {
            Some(b) => b,
            None => {
                self.stats.misses += 1;
                self.stats.fresh_bytes += (n * std::mem::size_of::<T>()) as u64;
                alloc_stats::record::<T>(n);
                Vec::with_capacity(n)
            }
        };
        buf.clear();
        buf.resize(n, T::ZERO);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Return a matrix's buffer to its dtype's pool for future `take`s.
    pub fn give<T: Scalar>(&mut self, m: Matrix<T>) {
        let buf = m.into_vec();
        if buf.capacity() > 0 {
            T::workspace_pool(self).push(buf);
        }
    }

    /// Buffers currently sitting in the pools (both dtypes).
    pub fn pooled(&self) -> usize {
        self.pool_f64.len() + self.pool_f32.len()
    }

    /// Allocation counters since construction (or the last
    /// [`reset_stats`](Workspace::reset_stats)).
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Zero the counters, keeping the pooled buffers.
    pub fn reset_stats(&mut self) {
        self.stats = WorkspaceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_take_reuses_buffer() {
        let mut ws = Workspace::new();
        let a = ws.take::<f64>(4, 5);
        assert_eq!(a.shape(), (4, 5));
        ws.give(a);
        let b = ws.take::<f64>(5, 4); // same element count, different shape
        assert_eq!(b.shape(), (5, 4));
        let s = ws.stats();
        assert_eq!(s.takes, 2);
        assert_eq!(s.misses, 1, "second take must reuse the pooled buffer");
        ws.give(b);
    }

    #[test]
    fn taken_matrices_are_zeroed() {
        let mut ws = Workspace::new();
        let mut a = ws.take::<f64>(3, 3);
        a[(1, 1)] = 9.0;
        ws.give(a);
        let b = ws.take::<f64>(3, 3);
        assert_eq!(b, Matrix::zeros(3, 3));
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let mut ws = Workspace::new();
        let big = ws.take::<f64>(10, 10);
        let small = ws.take::<f64>(2, 2);
        ws.give(big);
        ws.give(small);
        let c = ws.take::<f64>(2, 2);
        assert_eq!(ws.pooled(), 1, "small buffer should be picked, big one left");
        let remaining_cap = {
            let d = ws.take::<f64>(10, 10); // must still fit in the big buffer
            let misses = ws.stats().misses;
            ws.give(d);
            misses
        };
        assert_eq!(remaining_cap, 2, "only the two initial takes miss");
        ws.give(c);
    }

    #[test]
    fn steady_state_has_no_misses() {
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let a = ws.take::<f64>(8, 6);
            let b = ws.take::<f64>(6, 6);
            ws.give(a);
            ws.give(b);
        }
        ws.reset_stats();
        for _ in 0..10 {
            let a = ws.take::<f64>(8, 6);
            let b = ws.take::<f64>(6, 6);
            ws.give(a);
            ws.give(b);
        }
        let s = ws.stats();
        assert_eq!(s.takes, 20);
        assert_eq!(s.misses, 0);
        assert_eq!(s.fresh_bytes, 0);
    }

    #[test]
    fn pools_are_segregated_by_dtype() {
        // An f32 buffer must never be handed out to an f64 take (and
        // vice versa), no matter how large its element capacity is.
        let mut ws = Workspace::new();
        let wide = ws.take::<f32>(16, 16);
        ws.give(wide);
        let d = ws.take::<f64>(2, 2);
        assert_eq!(ws.stats().misses, 2, "f64 take must not reuse the f32 buffer");
        ws.give(d);
        let f = ws.take::<f32>(4, 4);
        assert_eq!(ws.stats().misses, 2, "f32 take reuses the f32 buffer");
        ws.give(f);
    }

    #[test]
    fn fresh_bytes_are_dtype_aware() {
        let mut ws = Workspace::new();
        let a = ws.take::<f64>(8, 8);
        let b = ws.take::<f32>(8, 8);
        let s = ws.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.fresh_bytes, 64 * 8 + 64 * 4, "f32 miss charges half the f64 bytes");
        ws.give(a);
        ws.give(b);
    }

    #[test]
    fn mixed_precision_steady_state_has_no_misses() {
        // Satellite: a session mixing f32 sketch buffers with f64
        // factor buffers still reaches a zero-miss steady state.
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let sketch = ws.take::<f32>(32, 8);
            let factor = ws.take::<f64>(32, 8);
            ws.give(sketch);
            ws.give(factor);
        }
        ws.reset_stats();
        for _ in 0..10 {
            let sketch = ws.take::<f32>(32, 8);
            let factor = ws.take::<f64>(32, 8);
            ws.give(sketch);
            ws.give(factor);
        }
        let s = ws.stats();
        assert_eq!(s.takes, 20);
        assert_eq!(s.misses, 0);
        assert_eq!(s.fresh_bytes, 0);
    }
}
