//! General (nonsymmetric) eigendecomposition.
//!
//! Eigenvalues come from the real Schur form ([`crate::schur`]);
//! eigenvectors from one step of inverse iteration with a complex LU solve
//! on a slightly shifted matrix — the textbook-robust route for the small
//! matrices DMD factorizes (the shift perturbation makes `A − λ̃I`
//! invertible while keeping the dominant solution direction aligned with
//! the true eigenvector).

use crate::cmatrix::{cvec_norm, CMatrix};
use crate::complex::Complex;
use crate::schur::{real_schur, schur_eigenvalues};
use psvd_linalg::matrix::Matrix;

/// A general eigendecomposition: `values[i]`, `vectors` column `i` with
/// `A v_i ≈ λ_i v_i`. Complex conjugate pairs appear adjacently.
#[derive(Clone, Debug)]
pub struct GeneralEig {
    /// Eigenvalues.
    pub values: Vec<Complex>,
    /// Unit eigenvectors as columns.
    pub vectors: CMatrix,
    /// Residuals `‖A v_i − λ_i v_i‖₂` (diagnostic; tiny for non-defective
    /// well-separated spectra).
    pub residuals: Vec<f64>,
}

/// Number of inverse-iteration refinement steps.
const REFINE_STEPS: usize = 3;

/// Eigendecomposition of a square real matrix.
pub fn general_eig(a: &Matrix) -> GeneralEig {
    let n = a.rows();
    assert_eq!(n, a.cols(), "general_eig: matrix must be square");
    let schur = real_schur(a);
    let values = schur_eigenvalues(&schur.t);
    let ac = CMatrix::from_real(a);
    let scale = a.max_abs().max(f64::MIN_POSITIVE);

    let mut vectors = CMatrix::zeros(n, n);
    let mut residuals = Vec::with_capacity(n);
    for (j, &lambda) in values.iter().enumerate() {
        let v = inverse_iteration(&ac, lambda, scale, j);
        let av = ac.matvec(&v);
        let mut resid = 0.0f64;
        for i in 0..n {
            resid += (av[i] - lambda * v[i]).norm_sqr();
        }
        residuals.push(resid.sqrt());
        for i in 0..n {
            vectors[(i, j)] = v[i];
        }
    }
    GeneralEig { values, vectors, residuals }
}

fn inverse_iteration(ac: &CMatrix, lambda: Complex, scale: f64, seed: usize) -> Vec<Complex> {
    let n = ac.rows();
    // Deterministic pseudo-random start, different per eigenvalue index so
    // degenerate pairs don't collapse to the same vector.
    let mut v: Vec<Complex> = (0..n)
        .map(|i| {
            let t = (i * 37 + seed * 101 + 13) as f64;
            Complex::new((t * 0.734).sin() + 0.1, (t * 0.421).cos())
        })
        .collect();
    normalize(&mut v);

    // Shift slightly off the eigenvalue so the solve is well-posed; the
    // smaller the shift, the faster the convergence toward v(lambda).
    let mut eps = 1e-10 * scale;
    for _attempt in 0..6 {
        let shifted = shift(ac, lambda + Complex::real(eps));
        let mut ok = true;
        let mut w = v.clone();
        for _ in 0..REFINE_STEPS {
            match shifted.lu_solve(&w) {
                Some(next) => {
                    w = next;
                    normalize(&mut w);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            // Canonical phase: largest-magnitude entry made real-positive,
            // so conjugate-pair vectors come out as conjugates.
            canonical_phase(&mut w);
            return w;
        }
        eps *= 100.0;
    }
    // Singular at every shift (pathological); return the start vector.
    v
}

fn shift(ac: &CMatrix, lambda: Complex) -> CMatrix {
    let n = ac.rows();
    let mut s = ac.clone();
    for i in 0..n {
        s[(i, i)] -= lambda;
    }
    s
}

fn normalize(v: &mut [Complex]) {
    let norm = cvec_norm(v);
    if norm > 0.0 {
        for z in v.iter_mut() {
            *z = z.scale(1.0 / norm);
        }
    }
}

fn canonical_phase(v: &mut [Complex]) {
    let mut best = 0usize;
    let mut mag = 0.0f64;
    for (i, z) in v.iter().enumerate() {
        if z.abs() > mag {
            mag = z.abs();
            best = i;
        }
    }
    if mag > 0.0 {
        let phase = v[best].scale(1.0 / mag); // unit modulus
        let correction = phase.conj();
        for z in v.iter_mut() {
            *z *= correction;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_linalg::random::{gaussian_matrix, seeded_rng};

    fn check(a: &Matrix, tol: f64) -> GeneralEig {
        let e = general_eig(a);
        for (j, &r) in e.residuals.iter().enumerate() {
            assert!(
                r < tol * a.max_abs().max(1.0),
                "residual {r} for eigenvalue {:?}",
                e.values[j]
            );
        }
        e
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, -1.0, 0.5]);
        let e = check(&a, 1e-10);
        let mut re: Vec<f64> = e.values.iter().map(|z| z.re).collect();
        re.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((re[0] - -1.0).abs() < 1e-12);
        assert!((re[1] - 0.5).abs() < 1e-12);
        assert!((re[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_scaling_matrix() {
        // r*R(theta): eigenvalues r e^{±i theta}.
        let (r, th) = (0.9f64, 0.6f64);
        let a = Matrix::from_rows(&[
            vec![r * th.cos(), -r * th.sin()],
            vec![r * th.sin(), r * th.cos()],
        ]);
        let e = check(&a, 1e-9);
        for z in &e.values {
            assert!((z.abs() - r).abs() < 1e-10);
            assert!((z.arg().abs() - th).abs() < 1e-10);
        }
        // Eigenvectors of the conjugate pair are conjugates of each other
        // (up to phase; canonical phase makes it exact).
        let v0 = e.vectors.col(0);
        let v1 = e.vectors.col(1);
        for (a, b) in v0.iter().zip(&v1) {
            assert!((*a - b.conj()).abs() < 1e-8, "{a:?} vs conj {b:?}");
        }
    }

    #[test]
    fn random_matrices_small_residuals() {
        for seed in 0..5 {
            let a = gaussian_matrix(9, 9, &mut seeded_rng(seed));
            check(&a, 1e-7);
        }
    }

    #[test]
    fn eigenvectors_unit_norm() {
        let a = gaussian_matrix(6, 6, &mut seeded_rng(42));
        let e = general_eig(&a);
        for j in 0..6 {
            let v = e.vectors.col(j);
            assert!((cvec_norm(&v) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn known_nonsymmetric_system() {
        // [[0, 1], [-2, -3]] has eigenvalues -1 and -2.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![-2.0, -3.0]]);
        let e = check(&a, 1e-10);
        let mut re: Vec<f64> = e.values.iter().map(|z| z.re).collect();
        re.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((re[0] - -2.0).abs() < 1e-10);
        assert!((re[1] - -1.0).abs() < 1e-10);
    }

    #[test]
    fn oscillator_eigenvalues_on_unit_circle() {
        // Companion-form one-step map of an undamped oscillator.
        let dt = 0.1f64;
        let w = 2.0f64; // natural frequency
                        // Exact discrete map for x'' = -w² x: [cos, sin/w; -w sin, cos].
        let a = Matrix::from_rows(&[
            vec![(w * dt).cos(), (w * dt).sin() / w],
            vec![-w * (w * dt).sin(), (w * dt).cos()],
        ]);
        let e = check(&a, 1e-9);
        for z in &e.values {
            assert!((z.abs() - 1.0).abs() < 1e-10, "|lambda| = {}", z.abs());
            // Discrete-time frequency: arg(lambda)/dt = ±w.
            assert!((z.arg().abs() / dt - w).abs() < 1e-9);
        }
    }
}
