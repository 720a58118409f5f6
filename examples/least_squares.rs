//! Least-squares fitting via the SVD pseudoinverse — the "matrix
//! computation platform" applications of the paper's Section 2.
//!
//! Fits a polynomial + sinusoid model to noisy samples three ways and shows
//! they agree; then demonstrates the minimum-norm property on a
//! rank-deficient design matrix, where naive normal equations fail.
//!
//! ```text
//! cargo run --release --example least_squares
//! ```

use pyparsvd::linalg::gemm::matvec;
use pyparsvd::linalg::random::{seeded_rng, StandardNormal};
use pyparsvd::modal::pinv::{lstsq, pseudoinverse};
use pyparsvd::prelude::*;
use rand::distributions::Distribution;

fn main() {
    let n_samples = 200;
    let mut rng = seeded_rng(4);
    let normal = StandardNormal;

    // Ground truth: y = 2 + 0.5 t - 0.1 t² + 1.5 sin(t).
    let true_coeffs = [2.0, 0.5, -0.1, 1.5];
    let t: Vec<f64> = (0..n_samples).map(|i| i as f64 * 10.0 / n_samples as f64).collect();
    let design = Matrix::from_fn(n_samples, 4, |i, j| match j {
        0 => 1.0,
        1 => t[i],
        2 => t[i] * t[i],
        _ => t[i].sin(),
    });
    let y: Vec<f64> = (0..n_samples)
        .map(|i| {
            let clean: f64 = (0..4).map(|j| true_coeffs[j] * design[(i, j)]).sum();
            clean + 0.05 * normal.sample(&mut rng)
        })
        .collect();

    // Route 1: dedicated least-squares solver (SVD-based, minimum norm).
    let sol = lstsq(&design, &y);
    println!("lstsq coefficients  : {:?}", round4(&sol.x));
    println!("residual norm       : {:.4}", sol.residual_norm);
    println!("effective rank      : {}", sol.rank);

    // Route 2: explicit pseudoinverse A⁺ y.
    let pinv = pseudoinverse(&design);
    let x2 = matvec(&pinv, &y);
    println!("pseudoinverse route : {:?}", round4(&x2));

    for (a, b) in sol.x.iter().zip(&x2) {
        assert!((a - b).abs() < 1e-9, "both routes must agree");
    }
    for (got, want) in sol.x.iter().zip(&true_coeffs) {
        assert!((got - want).abs() < 0.05, "coefficient {got} vs truth {want}");
    }
    println!("-> recovered the generating coefficients {true_coeffs:?}\n");

    // Rank-deficient design: duplicate predictor columns. The SVD solution
    // splits the weight evenly (minimum norm); normal equations would hit a
    // singular matrix.
    let deficient = Matrix::from_fn(n_samples, 3, |i, j| match j {
        0 => 1.0,
        _ => t[i], // columns 1 and 2 identical
    });
    let y2: Vec<f64> = (0..n_samples).map(|i| 1.0 + 3.0 * t[i]).collect();
    let sol2 = lstsq(&deficient, &y2);
    println!("rank-deficient design (duplicate predictors):");
    println!("  coefficients : {:?}", round4(&sol2.x));
    println!("  rank         : {} of 3 columns", sol2.rank);
    assert_eq!(sol2.rank, 2);
    assert!((sol2.x[1] - 1.5).abs() < 1e-8, "weight split evenly: {:?}", sol2.x);
    assert!((sol2.x[2] - 1.5).abs() < 1e-8);
    assert!(sol2.residual_norm < 1e-8);
    println!("  -> minimum-norm solution splits the duplicated weight 1.5/1.5, residual ~ 0");
}

fn round4(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}
