//! Streaming batch access to snapshot data.
//!
//! The streaming SVD consumes data in column batches (`B` snapshots at a
//! time). These adapters slice an in-core matrix into batches.
//!
//! [`SnapshotSource`] is the pull-based contract uniting the ingestion
//! paths, among them in-core slicing ([`MatrixBatchSource`]) and the
//! out-of-core prefetcher ([`crate::prefetch::SnapshotPrefetcher`]), which streams
//! from disk so the full `M x N` matrix never needs to exist in memory —
//! the whole point of the streaming algorithm. Batches land in a
//! caller-provided [`Matrix`], so the steady-state driver loop keeps its
//! zero transient O(M) allocation guarantee no matter where data comes
//! from.

use std::io;

use psvd_linalg::{Matrix, Scalar};

/// A pull-based producer of column batches.
///
/// Implementations fill the caller's `dst` (reshaping it to
/// `rows x batch_cols`, which reuses its allocation once warmed up) and
/// return `Ok(true)`, or return `Ok(false)` at end of stream leaving
/// `dst` untouched. IO-backed sources report failures as [`io::Error`]s;
/// in-memory sources never fail.
pub trait SnapshotSource<T: Scalar> {
    /// Fill `dst` with the next batch; `Ok(false)` when exhausted.
    fn next_batch_into(&mut self, dst: &mut Matrix<T>) -> io::Result<bool>;

    /// Total number of batches this source will yield, if known.
    fn batches_hint(&self) -> Option<usize> {
        None
    }
}

/// Iterate over column batches of `a`, each `batch` columns wide (the last
/// batch may be narrower). Panics if `batch == 0`.
pub fn column_batches<T: Scalar>(
    a: &Matrix<T>,
    batch: usize,
) -> impl Iterator<Item = Matrix<T>> + '_ {
    assert!(batch > 0, "batch size must be positive");
    let n = a.cols();
    (0..n.div_ceil(batch)).map(move |b| {
        let c0 = b * batch;
        let c1 = (c0 + batch).min(n);
        a.submatrix(0, a.rows(), c0, c1)
    })
}

/// In-core [`SnapshotSource`]: column batches copied out of a borrowed
/// matrix into the caller's buffer (the reference ingestion path the
/// out-of-core runs are checked bitwise against).
pub struct MatrixBatchSource<'a, T: Scalar> {
    a: &'a Matrix<T>,
    batch: usize,
    next_col: usize,
}

impl<'a, T: Scalar> MatrixBatchSource<'a, T> {
    /// Batches of `batch` columns over `a`. Panics if `batch == 0`.
    pub fn new(a: &'a Matrix<T>, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Self { a, batch, next_col: 0 }
    }
}

impl<T: Scalar> SnapshotSource<T> for MatrixBatchSource<'_, T> {
    fn next_batch_into(&mut self, dst: &mut Matrix<T>) -> io::Result<bool> {
        if self.next_col >= self.a.cols() {
            return Ok(false);
        }
        let c0 = self.next_col;
        let c1 = (c0 + self.batch).min(self.a.cols());
        dst.reshape_for_overwrite(self.a.rows(), c1 - c0);
        for i in 0..self.a.rows() {
            dst.row_mut(i).copy_from_slice(&self.a.row(i)[c0..c1]);
        }
        self.next_col = c1;
        Ok(true)
    }

    fn batches_hint(&self) -> Option<usize> {
        Some(self.a.cols().div_ceil(self.batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_matrix() {
        let a = Matrix::from_fn(4, 10, |i, j| (i * 10 + j) as f64);
        let batches: Vec<Matrix> = column_batches(&a, 3).collect();
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[0].cols(), 3);
        assert_eq!(batches[3].cols(), 1);
        assert_eq!(Matrix::hstack_all(&batches), a);
    }

    #[test]
    fn exact_division_has_no_runt() {
        let a = Matrix::from_fn(2, 8, |_, j| j as f64);
        let batches: Vec<Matrix> = column_batches(&a, 4).collect();
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.cols() == 4));
    }

    #[test]
    fn matrix_source_matches_slicing_and_reuses_dst() {
        let a = Matrix::from_fn(6, 9, |i, j| ((i * 9 + j) as f64).cos());
        let expect: Vec<Matrix> = column_batches(&a, 4).collect();
        let mut src = MatrixBatchSource::new(&a, 4);
        assert_eq!(src.batches_hint(), Some(3));
        let mut dst = Matrix::zeros(6, 4); // warmed to the widest batch
        for e in &expect {
            assert!(src.next_batch_into(&mut dst).unwrap());
            assert_eq!(&dst, e);
        }
        assert!(!src.next_batch_into(&mut dst).unwrap());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let a: Matrix<f64> = Matrix::zeros(2, 2);
        let _ = column_batches(&a, 0);
    }
}
