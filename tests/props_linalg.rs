//! Property-based tests of the dense kernels' contracts.
//!
//! Strategies draw random shapes and entries; the properties are the
//! algebraic identities every caller of this workspace relies on.

use proptest::prelude::*;
use pyparsvd::linalg::gemm::{matmul, matmul_tn};
use pyparsvd::linalg::norms::orthogonality_error;
use pyparsvd::linalg::qr::{reconstruction_error, thin_qr};
use pyparsvd::linalg::snapshots::generate_right_vectors;
use pyparsvd::linalg::svd::{svd, svd_with, SvdMethod};
use pyparsvd::linalg::Matrix;

/// A random matrix with entries in [-1, 1] and shape within bounds.
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1.0f64..1.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// A random tall matrix (rows >= cols).
fn tall_matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(max_rows, max_cols).prop_map(|m| {
        if m.rows() >= m.cols() {
            m
        } else {
            m.transpose()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qr_reconstructs_and_q_orthonormal(a in matrix_strategy(24, 24)) {
        let f = thin_qr(&a);
        prop_assert!(reconstruction_error(&a, &f) < 1e-10);
        prop_assert!(orthogonality_error(&f.q) < 1e-10);
        // R upper-triangular with non-negative diagonal.
        for i in 0..f.r.rows() {
            prop_assert!(f.r[(i, i)] >= 0.0);
            for j in 0..i.min(f.r.cols()) {
                prop_assert!(f.r[(i, j)] == 0.0);
            }
        }
    }

    #[test]
    fn svd_contract_holds(a in matrix_strategy(20, 20)) {
        let f = svd(&a);
        prop_assert!(f.reconstruction_error(&a) < 1e-9);
        prop_assert!(orthogonality_error(&f.u) < 1e-9);
        prop_assert!(orthogonality_error(&f.vt.transpose()) < 1e-9);
        for w in f.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        for &x in &f.s {
            prop_assert!(x >= 0.0);
        }
    }

    #[test]
    fn svd_kernels_agree(a in tall_matrix_strategy(18, 10)) {
        let gk = svd_with(&a, SvdMethod::GolubKahan);
        let jc = svd_with(&a, SvdMethod::Jacobi);
        let scale = jc.s.first().copied().unwrap_or(0.0).max(1e-12);
        for (x, y) in gk.s.iter().zip(&jc.s) {
            prop_assert!((x - y).abs() / scale < 1e-8, "GK {} vs Jacobi {}", x, y);
        }
    }

    #[test]
    fn spectral_norm_bounded_by_frobenius(a in matrix_strategy(16, 16)) {
        let f = svd(&a);
        let fro = a.frobenius_norm();
        if let Some(&s0) = f.s.first() {
            prop_assert!(s0 <= fro + 1e-9, "sigma_0 {} > ||A||_F {}", s0, fro);
            // And Frobenius equals the l2 norm of the spectrum.
            let spec_fro: f64 = f.s.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((spec_fro - fro).abs() < 1e-8 * fro.max(1.0));
        }
    }

    #[test]
    fn truncation_error_is_tail_energy(a in matrix_strategy(16, 12)) {
        let f = svd(&a);
        let k = f.s.len() / 2;
        let trunc = f.truncated(k);
        let err = (&a - &trunc.reconstruct()).frobenius_norm();
        let tail: f64 = f.s[k..].iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((err - tail).abs() < 1e-8 * (1.0 + a.frobenius_norm()));
    }

    #[test]
    fn ata_is_psd_and_symmetric(a in matrix_strategy(20, 10)) {
        let g = matmul_tn(&a, &a);
        prop_assert!((&g - &g.transpose()).max_abs() == 0.0);
    }

    #[test]
    fn method_of_snapshots_matches_svd(a in tall_matrix_strategy(24, 8)) {
        let (_, s_mos) = generate_right_vectors(&a, a.cols());
        let f = svd(&a);
        let scale = f.s.first().copied().unwrap_or(0.0).max(1e-12);
        for (x, y) in s_mos.iter().zip(&f.s) {
            // Gram squaring costs accuracy on tiny values; compare
            // relative to the leading singular value.
            prop_assert!((x - y).abs() / scale < 1e-6, "MOS {} vs SVD {}", x, y);
        }
    }

    #[test]
    fn transpose_product_identities(a in matrix_strategy(12, 10), b_cols in 1usize..8) {
        // (AᵀB) computed fused equals the explicit transpose product.
        let b = Matrix::from_fn(a.rows(), b_cols, |i, j| ((i * 3 + j * 7) as f64 * 0.1).sin());
        let fused = matmul_tn(&a, &b);
        let explicit = matmul(&a.transpose(), &b);
        prop_assert!((&fused - &explicit).max_abs() < 1e-11);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(10, 8),
        seed in 0u64..1000,
    ) {
        let b = Matrix::from_fn(a.cols(), 6, |i, j| (((i + j) as u64 + seed) as f64 * 0.01).cos());
        let c = Matrix::from_fn(a.cols(), 6, |i, j| (((i * j) as u64 + seed) as f64 * 0.02).sin());
        let lhs = matmul(&a, &(&b + &c));
        let rhs = &matmul(&a, &b) + &matmul(&a, &c);
        prop_assert!((&lhs - &rhs).max_abs() < 1e-11);
    }
}
