//! Zero-copy strided views of [`Matrix`] data.
//!
//! A [`MatView`] is a borrowed, possibly strided window into a matrix's
//! storage: element `(i, j)` lives at `data[i * rs + j * cs]`. Row-major
//! storage is `(rs, cs) = (ld, 1)`; its transpose is `(1, ld)`; a
//! contiguous block of a larger matrix is `(parent_cols, 1)`. Views are
//! `Copy` and cost nothing to construct, so the hot kernels in
//! [`crate::gemm`] and [`crate::qr`] can consume sub-blocks, columns and
//! transposes without materializing them. Like [`Matrix`], views are
//! generic over the sealed [`Scalar`] element type with `f64` as the
//! default, so pre-generic call sites read unchanged.
//!
//! ## Aliasing contract
//!
//! `_into` kernels take inputs as `MatView` (shared borrows) and outputs
//! as `&mut Matrix`. The borrow checker therefore rejects any call where
//! an input view and the output alias the same matrix — overlap is
//! *statically* impossible from safe code, and no runtime aliasing check
//! is needed. [`MatViewMut`] is likewise an exclusive borrow, so it can
//! never coexist with a view of the same data.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// A borrowed, read-only, strided matrix view. Element `(i, j)` is
/// `data[i * rs + j * cs]`.
pub struct MatView<'a, T: Scalar = f64> {
    pub(crate) data: &'a [T],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) rs: usize,
    pub(crate) cs: usize,
}

// Manual impls: derived Clone/Copy would require `T: Clone`/`T: Copy`
// bounds restated at every use site of the default parameter.
impl<T: Scalar> Clone for MatView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for MatView<'_, T> {}

impl<'a, T: Scalar> MatView<'a, T> {
    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element `(i, j)` (debug-checked bounds via the slice index).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.data[i * self.rs + j * self.cs]
    }

    /// True when the view's rows are unit-stride and adjacent, i.e. the
    /// elements form one contiguous row-major slice.
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.cs == 1 && self.rs == self.cols
    }

    /// The backing slice of a contiguous view. Panics otherwise.
    pub fn contiguous_slice(&self) -> &'a [T] {
        assert!(self.is_contiguous(), "contiguous_slice on a strided view");
        &self.data[..self.rows * self.cols]
    }

    /// The transposed view — free: just swaps the strides.
    #[inline]
    pub fn transposed(self) -> MatView<'a, T> {
        MatView { data: self.data, rows: self.cols, cols: self.rows, rs: self.cs, cs: self.rs }
    }

    /// Sub-block `[r0, r1) x [c0, c1)` of this view (still zero-copy).
    pub fn block(self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatView<'a, T> {
        assert!(r0 <= r1 && r1 <= self.rows, "row range {r0}..{r1} out of 0..{}", self.rows);
        assert!(c0 <= c1 && c1 <= self.cols, "col range {c0}..{c1} out of 0..{}", self.cols);
        MatView {
            data: &self.data[r0 * self.rs + c0 * self.cs..],
            rows: r1 - r0,
            cols: c1 - c0,
            rs: self.rs,
            cs: self.cs,
        }
    }

    /// Column `j` as a `rows x 1` view.
    pub fn col(self, j: usize) -> MatView<'a, T> {
        self.block(0, self.rows, j, j + 1)
    }

    /// Copy the viewed elements into a fresh owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, self.cols);
        copy_view_into(*self, &mut out);
        out
    }
}

/// A borrowed, exclusive, strided matrix view.
pub struct MatViewMut<'a, T: Scalar = f64> {
    pub(crate) data: &'a mut [T],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) rs: usize,
    pub(crate) cs: usize,
}

impl<T: Scalar> MatViewMut<'_, T> {
    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        self.data[i * self.rs + j * self.cs]
    }

    /// Shared re-borrow of this view.
    pub fn as_view(&self) -> MatView<'_, T> {
        MatView { data: self.data, rows: self.rows, cols: self.cols, rs: self.rs, cs: self.cs }
    }

    /// Overwrite every element from `src` (shapes must match).
    pub fn copy_from(&mut self, src: MatView<'_, T>) {
        assert_eq!((self.rows, self.cols), (src.rows, src.cols), "copy_from: shape mismatch");
        for i in 0..self.rows {
            let dst_off = i * self.rs;
            if self.cs == 1 && src.cs == 1 {
                let s = &src.data[i * src.rs..i * src.rs + self.cols];
                self.data[dst_off..dst_off + self.cols].copy_from_slice(s);
            } else {
                for j in 0..self.cols {
                    self.data[dst_off + j * self.cs] = src.at(i, j);
                }
            }
        }
    }

    /// Set every element to `v`.
    pub fn fill(&mut self, v: T) {
        for i in 0..self.rows {
            let off = i * self.rs;
            if self.cs == 1 {
                self.data[off..off + self.cols].fill(v);
            } else {
                for j in 0..self.cols {
                    self.data[off + j * self.cs] = v;
                }
            }
        }
    }
}

/// Copy `src` into `dst`, reshaping `dst` to match (no allocation when
/// `dst`'s buffer is already large enough).
pub(crate) fn copy_view_into<T: Scalar>(src: MatView<'_, T>, dst: &mut Matrix<T>) {
    dst.reshape_for_overwrite(src.rows, src.cols);
    for i in 0..src.rows {
        let row = dst.row_mut(i);
        if src.cs == 1 {
            row.copy_from_slice(&src.data[i * src.rs..i * src.rs + src.cols]);
        } else {
            for (j, out) in row.iter_mut().enumerate() {
                *out = src.at(i, j);
            }
        }
    }
}

impl<T: Scalar> Matrix<T> {
    /// Zero-copy view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatView<'_, T> {
        MatView {
            data: self.as_slice(),
            rows: self.rows(),
            cols: self.cols(),
            rs: self.cols(),
            cs: 1,
        }
    }

    /// Zero-copy exclusive view of the whole matrix.
    pub fn view_mut(&mut self) -> MatViewMut<'_, T> {
        let (rows, cols) = self.shape();
        MatViewMut { data: self.as_mut_slice(), rows, cols, rs: cols, cs: 1 }
    }

    /// Zero-copy view of the sub-block `[r0, r1) x [c0, c1)` — the
    /// non-allocating sibling of [`Matrix::submatrix`].
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatView<'_, T> {
        self.view().block(r0, r1, c0, c1)
    }

    /// Zero-copy exclusive view of the sub-block `[r0, r1) x [c0, c1)`.
    /// The blocked QR/bidiagonalization kernels use this to hand a
    /// trailing-matrix region to the accumulating GEMM entry points.
    pub fn block_mut(&mut self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatViewMut<'_, T> {
        let (rows, cols) = self.shape();
        assert!(r0 <= r1 && r1 <= rows, "row range {r0}..{r1} out of 0..{rows}");
        assert!(c0 <= c1 && c1 <= cols, "col range {c0}..{c1} out of 0..{cols}");
        let data = if r1 > r0 && c1 > c0 {
            &mut self.as_mut_slice()[r0 * cols + c0..]
        } else {
            &mut [][..]
        };
        MatViewMut { data, rows: r1 - r0, cols: c1 - c0, rs: cols, cs: 1 }
    }

    /// Zero-copy `rows x 1` view of column `j` — the non-allocating
    /// sibling of [`Matrix::col`].
    pub fn col_view(&self, j: usize) -> MatView<'_, T> {
        assert!(j < self.cols(), "column index {j} out of bounds for {} cols", self.cols());
        self.view().col(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| (i * 100 + j) as f64)
    }

    #[test]
    fn whole_view_round_trips() {
        let m = sample(4, 7);
        let v = m.view();
        assert!(v.is_contiguous());
        assert_eq!(v.to_matrix(), m);
    }

    #[test]
    fn transposed_view_matches_transpose() {
        let m = sample(5, 3);
        assert_eq!(m.view().transposed().to_matrix(), m.transpose());
    }

    #[test]
    fn block_view_matches_submatrix() {
        let m = sample(6, 8);
        let v = m.block(1, 5, 2, 7);
        assert!(!v.is_contiguous());
        assert_eq!(v.to_matrix(), m.submatrix(1, 5, 2, 7));
        // A block of a block.
        assert_eq!(v.block(1, 3, 0, 2).to_matrix(), m.submatrix(2, 4, 2, 4));
    }

    #[test]
    fn col_view_matches_col() {
        let m = sample(5, 4);
        let v = m.col_view(2);
        assert_eq!(v.shape(), (5, 1));
        for (i, x) in m.col(2).iter().enumerate() {
            assert_eq!(v.at(i, 0), *x);
        }
    }

    #[test]
    fn mut_view_copy_and_fill() {
        let src = sample(3, 3);
        let mut dst = Matrix::zeros(5, 5);
        {
            let w = dst.view_mut();
            // Target the interior 3x3 block.
            let mut blk = MatViewMut { data: &mut w.data[5 + 1..], rows: 3, cols: 3, rs: 5, cs: 1 };
            blk.copy_from(src.view());
        }
        assert_eq!(dst.block(1, 4, 1, 4).to_matrix(), src);
        let mut z = Matrix::zeros(2, 2);
        z.view_mut().fill(7.0);
        assert_eq!(z, Matrix::filled(2, 2, 7.0));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_block_panics() {
        let m = sample(3, 3);
        let _ = m.block(0, 4, 0, 3);
    }
}
