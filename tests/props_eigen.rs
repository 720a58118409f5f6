//! Property-based tests of the SVD-based pseudoinverse and least squares.

use proptest::prelude::*;
use pyparsvd::linalg::gemm::matmul;
use pyparsvd::linalg::pinv::{lstsq, pseudoinverse};
use pyparsvd::linalg::random::seeded_rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
