//! Dense complex matrices — the minimum needed by the general eigensolver
//! and DMD: construction from real matrices, products, LU solves, and
//! column utilities.

use crate::complex::Complex;
use psvd_linalg::matrix::Matrix;
use std::ops::{Index, IndexMut};

/// A dense row-major complex matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![Complex::ZERO; rows * cols] }
    }

    /// Identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Promote a real matrix.
    pub fn from_real(a: &Matrix) -> Self {
        Self::from_fn(a.rows(), a.cols(), |i, j| Complex::real(a[(i, j)]))
    }

    /// Build from complex columns.
    pub fn from_columns(cols: &[Vec<Complex>]) -> Self {
        let ncols = cols.len();
        let nrows = cols.first().map_or(0, Vec::len);
        let mut m = Self::zeros(nrows, ncols);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), nrows, "ragged column");
            for (i, &v) in c.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Copy column `j`. Allocates; prefer
    /// [`col_iter`](CMatrix::col_iter) in hot paths.
    pub fn col(&self, j: usize) -> Vec<Complex> {
        self.col_iter(j).collect()
    }

    /// Iterate over column `j` without allocating.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = Complex> + '_ {
        debug_assert!(j < self.cols);
        (0..self.rows).map(move |i| self[(i, j)])
    }

    /// The real parts as a real matrix.
    pub fn real_part(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].re)
    }

    /// The imaginary parts as a real matrix.
    pub fn imag_part(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].im)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Matrix product.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "cmatmul: dimension mismatch");
        let mut c = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == Complex::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = aik * rhs[(k, j)];
                    c[(i, j)] += v;
                }
            }
        }
        c
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(self.cols, x.len(), "cmatvec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = Complex::ZERO;
                for j in 0..self.cols {
                    acc += self[(i, j)] * x[j];
                }
                acc
            })
            .collect()
    }

    /// Scale every entry.
    pub fn scaled(&self, s: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Max entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |a, z| a.max(z.abs()))
    }

    /// Solve `self * x = b` by LU with partial pivoting (square only).
    /// Returns `None` when a pivot is exactly zero (singular to working
    /// precision at that step).
    pub fn lu_solve(&self, b: &[Complex]) -> Option<Vec<Complex>> {
        let n = self.rows;
        assert_eq!(n, self.cols, "lu_solve: matrix must be square");
        assert_eq!(n, b.len(), "lu_solve: rhs length mismatch");
        let mut a = self.clone();
        let mut x = b.to_vec();
        // Elimination with partial pivoting.
        for k in 0..n {
            // Pivot row.
            let mut p = k;
            let mut best = a[(k, k)].abs();
            for i in k + 1..n {
                let mag = a[(i, k)].abs();
                if mag > best {
                    best = mag;
                    p = i;
                }
            }
            if best == 0.0 {
                return None;
            }
            if p != k {
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
                x.swap(k, p);
            }
            let pivot = a[(k, k)];
            for i in k + 1..n {
                let factor = a[(i, k)] / pivot;
                if factor == Complex::ZERO {
                    continue;
                }
                for j in k..n {
                    let v = factor * a[(k, j)];
                    a[(i, j)] -= v;
                }
                let v = factor * x[k];
                x[i] -= v;
            }
        }
        // Back-substitution.
        for k in (0..n).rev() {
            let mut acc = x[k];
            for j in k + 1..n {
                acc -= a[(k, j)] * x[j];
            }
            x[k] = acc / a[(k, k)];
        }
        Some(x)
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Euclidean norm of a complex vector.
pub fn cvec_norm(v: &[Complex]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// Hermitian inner product `⟨a, b⟩ = Σ conj(a_i) b_i`.
pub fn cvec_dot(a: &[Complex], b: &[Complex]) -> Complex {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(Complex::ZERO, |acc, (x, y)| acc + x.conj() * *y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_linalg::random::{gaussian_matrix, seeded_rng};

    fn random_cmatrix(n: usize, seed: u64) -> CMatrix {
        let re = gaussian_matrix(n, n, &mut seeded_rng(seed));
        let im = gaussian_matrix(n, n, &mut seeded_rng(seed + 1000));
        CMatrix::from_fn(n, n, |i, j| Complex::new(re[(i, j)], im[(i, j)]))
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_cmatrix(5, 1);
        let i = CMatrix::identity(5);
        assert!((a.matmul(&i).max_abs() - a.max_abs()).abs() < 1e-14);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn adjoint_involution_and_product_rule() {
        let a = random_cmatrix(4, 2);
        let b = random_cmatrix(4, 3);
        assert_eq!(a.adjoint().adjoint(), a);
        // (AB)* = B* A*.
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        let mut err = 0.0f64;
        for i in 0..4 {
            for j in 0..4 {
                err = err.max((lhs[(i, j)] - rhs[(i, j)]).abs());
            }
        }
        assert!(err < 1e-12);
    }

    #[test]
    fn lu_solve_roundtrip() {
        let a = random_cmatrix(8, 4);
        let x_true: Vec<Complex> =
            (0..8).map(|i| Complex::new((i as f64).sin(), (i as f64).cos())).collect();
        let b = a.matvec(&x_true);
        let x = a.lu_solve(&b).expect("nonsingular");
        for (got, want) in x.iter().zip(&x_true) {
            assert!((*got - *want).abs() < 1e-10, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn lu_detects_singular() {
        let mut a = CMatrix::zeros(3, 3);
        a[(0, 0)] = Complex::ONE;
        a[(1, 1)] = Complex::ONE;
        // Row 2 is zero -> singular.
        assert!(a.lu_solve(&[Complex::ONE; 3]).is_none());
    }

    #[test]
    fn real_promotion_roundtrip() {
        let a = gaussian_matrix(4, 3, &mut seeded_rng(9));
        let c = CMatrix::from_real(&a);
        assert_eq!(c.real_part(), a);
        assert_eq!(c.imag_part().max_abs(), 0.0);
    }

    #[test]
    fn vector_helpers() {
        let a = vec![Complex::new(3.0, 4.0)];
        assert!((cvec_norm(&a) - 5.0).abs() < 1e-14);
        let b = vec![Complex::new(1.0, 0.0)];
        // <a, b> = conj(3+4i) * 1 = 3 - 4i.
        assert!((cvec_dot(&a, &b) - Complex::new(3.0, -4.0)).abs() < 1e-14);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = random_cmatrix(5, 7);
        let x: Vec<Complex> = (0..5).map(|i| Complex::new(i as f64, -1.0)).collect();
        let y = a.matvec(&x);
        let xm = CMatrix::from_columns(&[x]);
        let ym = a.matmul(&xm);
        for i in 0..5 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-13);
        }
    }
}
