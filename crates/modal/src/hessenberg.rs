//! Householder reduction to upper Hessenberg form: `A = Q H Qᵀ`.
//!
//! First stage of the nonsymmetric eigensolver ([`crate::schur`]): the
//! Francis QR iteration requires Hessenberg structure to run in `O(n²)`
//! per step.

use psvd_linalg::matrix::Matrix;

/// Hessenberg factorization `a = q * h * qᵀ` with orthogonal `q` and
/// upper-Hessenberg `h` (zero below the first subdiagonal).
#[derive(Clone, Debug)]
pub struct HessenbergFactors {
    /// Orthogonal similarity transform.
    pub q: Matrix,
    /// Upper Hessenberg matrix.
    pub h: Matrix,
}

/// Reduce a square matrix to upper Hessenberg form.
pub fn hessenberg(a: &Matrix) -> HessenbergFactors {
    let n = a.rows();
    assert_eq!(n, a.cols(), "hessenberg: matrix must be square");
    let mut h = a.clone();
    let mut vs: Vec<Vec<f64>> = Vec::new();

    for k in 0..n.saturating_sub(2) {
        // Householder annihilating h[k+2.., k].
        let mut v: Vec<f64> = (k + 1..n).map(|i| h[(i, k)]).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            vs.push(Vec::new());
            continue;
        }
        let alpha = if v[0] >= 0.0 { -norm } else { norm };
        v[0] -= alpha;
        let vn2: f64 = v.iter().map(|x| x * x).sum();
        if vn2 == 0.0 {
            vs.push(Vec::new());
            continue;
        }
        // H ← P H (rows k+1..n), all columns.
        for j in 0..n {
            let mut dot = 0.0;
            for (idx, vi) in v.iter().enumerate() {
                dot += vi * h[(k + 1 + idx, j)];
            }
            let s = 2.0 * dot / vn2;
            for (idx, vi) in v.iter().enumerate() {
                h[(k + 1 + idx, j)] -= s * vi;
            }
        }
        // H ← H P (columns k+1..n), all rows.
        for i in 0..n {
            let mut dot = 0.0;
            for (idx, vi) in v.iter().enumerate() {
                dot += vi * h[(i, k + 1 + idx)];
            }
            let s = 2.0 * dot / vn2;
            for (idx, vi) in v.iter().enumerate() {
                h[(i, k + 1 + idx)] -= s * vi;
            }
        }
        // Clean the annihilated entries.
        h[(k + 1, k)] = alpha;
        for i in k + 2..n {
            h[(i, k)] = 0.0;
        }
        vs.push(v);
    }

    // Accumulate Q by applying the reflectors (in reverse) to the identity.
    let mut q = Matrix::identity(n);
    for k in (0..vs.len()).rev() {
        let v = &vs[k];
        if v.is_empty() {
            continue;
        }
        let vn2: f64 = v.iter().map(|x| x * x).sum();
        for j in 0..n {
            let mut dot = 0.0;
            for (idx, vi) in v.iter().enumerate() {
                dot += vi * q[(k + 1 + idx, j)];
            }
            let s = 2.0 * dot / vn2;
            for (idx, vi) in v.iter().enumerate() {
                q[(k + 1 + idx, j)] -= s * vi;
            }
        }
    }

    HessenbergFactors { q, h }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_linalg::gemm::matmul;
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::random::{gaussian_matrix, seeded_rng};

    #[test]
    fn reconstructs_and_q_orthogonal() {
        let a = gaussian_matrix(12, 12, &mut seeded_rng(1));
        let f = hessenberg(&a);
        assert!(orthogonality_error(&f.q) < 1e-12);
        let rec = matmul(&matmul(&f.q, &f.h), &f.q.transpose());
        assert!((&rec - &a).max_abs() < 1e-11);
    }

    #[test]
    fn h_is_hessenberg() {
        let a = gaussian_matrix(10, 10, &mut seeded_rng(2));
        let f = hessenberg(&a);
        for i in 2..10 {
            for j in 0..i - 1 {
                assert_eq!(f.h[(i, j)], 0.0, "nonzero below subdiagonal at ({i},{j})");
            }
        }
    }

    #[test]
    fn already_hessenberg_unchanged_in_structure() {
        let mut a = gaussian_matrix(6, 6, &mut seeded_rng(3));
        for i in 2..6 {
            for j in 0..i - 1 {
                a[(i, j)] = 0.0;
            }
        }
        let f = hessenberg(&a);
        let rec = matmul(&matmul(&f.q, &f.h), &f.q.transpose());
        assert!((&rec - &a).max_abs() < 1e-12);
    }

    #[test]
    fn small_sizes() {
        for n in [1usize, 2, 3] {
            let a = gaussian_matrix(n, n, &mut seeded_rng(n as u64));
            let f = hessenberg(&a);
            let rec = matmul(&matmul(&f.q, &f.h), &f.q.transpose());
            assert!((&rec - &a).max_abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn preserves_eigen_trace() {
        // Similarity preserves the trace.
        let a = gaussian_matrix(9, 9, &mut seeded_rng(5));
        let f = hessenberg(&a);
        let tr_a: f64 = (0..9).map(|i| a[(i, i)]).sum();
        let tr_h: f64 = (0..9).map(|i| f.h[(i, i)]).sum();
        assert!((tr_a - tr_h).abs() < 1e-11);
    }
}
