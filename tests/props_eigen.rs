//! Property-based tests of the eigen/FFT/pinv extension stack.

use proptest::prelude::*;
use pyparsvd::linalg::gemm::matmul;
use pyparsvd::linalg::random::seeded_rng;
use pyparsvd::linalg::Matrix;
use pyparsvd::modal::cmatrix::cvec_norm;
use pyparsvd::modal::complex::Complex;
use pyparsvd::modal::eig_general::general_eig;
use pyparsvd::modal::fft::{fft, rfft};
use pyparsvd::modal::pinv::{lstsq, pseudoinverse};
use pyparsvd::modal::schur::{real_schur, schur_eigenvalues};

fn square_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-2.0f64..2.0, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn schur_similarity_and_trace(a in square_matrix(10)) {
        let f = real_schur(&a);
        let rec = matmul(&matmul(&f.q, &f.t), &f.q.transpose());
        prop_assert!((&rec - &a).max_abs() < 1e-8 * a.max_abs().max(1.0));
        // Eigenvalue sum equals the trace; imaginary parts cancel.
        let ev = schur_eigenvalues(&f.t);
        let tr: f64 = (0..a.rows()).map(|i| a[(i, i)]).sum();
        let sum_re: f64 = ev.iter().map(|z| z.re).sum();
        let sum_im: f64 = ev.iter().map(|z| z.im).sum();
        prop_assert!((sum_re - tr).abs() < 1e-8 * (1.0 + tr.abs()));
        prop_assert!(sum_im.abs() < 1e-8);
        // Complex eigenvalues come in conjugate pairs.
        let mut ims: Vec<f64> = ev.iter().map(|z| z.im).filter(|i| i.abs() > 1e-12).collect();
        ims.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(ims.len() % 2, 0);
        for i in 0..ims.len() / 2 {
            prop_assert!((ims[i] + ims[ims.len() - 1 - i]).abs() < 1e-9);
        }
    }

    #[test]
    fn general_eig_residuals_small(a in square_matrix(8)) {
        let e = general_eig(&a);
        let scale = a.max_abs().max(1.0);
        for (j, &r) in e.residuals.iter().enumerate() {
            // Defective or tightly clustered spectra can legitimately have
            // larger eigenvector residuals; random continuous matrices are
            // simple with probability 1, so a loose bound still catches
            // real implementation bugs.
            prop_assert!(r < 1e-5 * scale, "residual {} at eigenvalue {:?}", r, e.values[j]);
            let v = e.vectors.col(j);
            prop_assert!((cvec_norm(&v) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_linearity_and_parseval(
        n in 2usize..40,
        seed in 0u64..500,
    ) {
        use pyparsvd::linalg::random::gaussian_matrix;
        let g = gaussian_matrix(2, n, &mut seeded_rng(seed));
        let x: Vec<Complex> = (0..n).map(|j| Complex::new(g[(0, j)], g[(1, j)])).collect();
        let y: Vec<Complex> = (0..n).map(|j| Complex::new(g[(1, j)], -g[(0, j)])).collect();
        // Linearity.
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        for i in 0..n {
            prop_assert!((fsum[i] - (fx[i] + fy[i])).abs() < 1e-9);
        }
        // Parseval.
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = fx.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((te - fe).abs() < 1e-8 * (1.0 + te));
    }

    #[test]
    fn rfft_hermitian_symmetry(n in 2usize..32, seed in 0u64..500) {
        use pyparsvd::linalg::random::gaussian_matrix;
        let g = gaussian_matrix(1, n, &mut seeded_rng(seed));
        let x: Vec<f64> = (0..n).map(|j| g[(0, j)]).collect();
        let f = rfft(&x);
        // Real input: F[k] = conj(F[n-k]).
        for k in 1..n {
            prop_assert!((f[k] - f[n - k].conj()).abs() < 1e-9);
        }
        prop_assert!(f[0].im.abs() < 1e-9);
    }

    #[test]
    fn pinv_penrose_conditions(
        rows in 2usize..10,
        cols in 2usize..10,
        seed in 0u64..500,
    ) {
        use pyparsvd::linalg::random::gaussian_matrix;
        let a = gaussian_matrix(rows, cols, &mut seeded_rng(seed));
        let p = pseudoinverse(&a);
        let apa = matmul(&matmul(&a, &p), &a);
        prop_assert!((&apa - &a).max_abs() < 1e-8);
        let pap = matmul(&matmul(&p, &a), &p);
        prop_assert!((&pap - &p).max_abs() < 1e-8 * (1.0 + p.max_abs()));
    }

    #[test]
    fn lstsq_residual_orthogonal_to_range(
        rows in 4usize..16,
        cols in 2usize..4,
        seed in 0u64..500,
    ) {
        use pyparsvd::linalg::gemm::{matvec, matvec_t};
        use pyparsvd::linalg::random::gaussian_matrix;
        let a = gaussian_matrix(rows, cols, &mut seeded_rng(seed));
        let b: Vec<f64> = (0..rows).map(|i| ((i * 7 + 1) as f64 * 0.3).sin()).collect();
        let sol = lstsq(&a, &b);
        let r: Vec<f64> = matvec(&a, &sol.x).iter().zip(&b).map(|(p, q)| p - q).collect();
        for v in matvec_t(&a, &r) {
            prop_assert!(v.abs() < 1e-8, "normal equations violated: {}", v);
        }
    }
}
