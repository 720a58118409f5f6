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
//! The free-list is reached through [`Scalar::workspace_pool`], and the
//! counters are **byte-based** (`size_of::<T>()` per element).
//!
//! The per-instance counters ([`Workspace::stats`]) make the reuse
//! observable: `misses` and `fresh_bytes` stop growing once the pool is
//! warm, which is exactly what `tests/props_views.rs` asserts for a
//! 50-batch streaming run, and what `qr.rs`'s `blocked_path_reuses_workspace`
//! asserts for the blocked compact-WY QR, whose panel buffers (`Y`, `S`, `T`,
//! the GEMM temporaries) all cycle through the same pool.

use crate::matrix::{alloc_stats, Matrix};
use crate::scalar::Scalar;

/// Allocation-behavior counters for one [`Workspace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Total `take` calls.
    pub takes: u64,
    /// `take` calls that could not be served from the pool and had to
    /// allocate a fresh buffer.
    pub misses: u64,
    /// Bytes freshly allocated by missing `take`s
    /// (`elements * size_of::<T>()`).
    pub fresh_bytes: u64,
}

/// A free-list scratch arena handing out [`Matrix`] buffers for reuse.
#[derive(Default)]
pub struct Workspace {
    pool_f64: Vec<Vec<f64>>,
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

    /// Take a `rows x cols` zeroed matrix, reusing a pooled buffer when
    /// one with enough capacity exists
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

    /// Return a matrix's buffer to the pool for future `take`s.
    pub fn give<T: Scalar>(&mut self, m: Matrix<T>) {
        let buf = m.into_vec();
        if buf.capacity() > 0 {
            T::workspace_pool(self).push(buf);
        }
    }

    /// Buffers currently sitting in the pool.
    pub fn pooled(&self) -> usize {
        self.pool_f64.len()
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
    fn fresh_bytes_are_dtype_aware() {
        let mut ws = Workspace::new();
        let a = ws.take::<f64>(8, 8);
        let s = ws.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.fresh_bytes, 64 * 8, "a miss charges size_of::<f64>() per element");
        ws.give(a);
    }
}
