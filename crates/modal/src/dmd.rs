//! Dynamic mode decomposition (exact DMD, Tu et al. / Schmid).
//!
//! Section 2 of the paper lists DMD among the SVD-based data-driven methods
//! the library is meant to serve. This module implements it on top of the
//! workspace's own SVD and nonsymmetric eigensolver: given snapshots of a
//! (near-)linear process `x_{k+1} ≈ A x_k`, DMD finds the dominant
//! eigenvalues and spatial modes of `A` without ever forming it:
//!
//! ```text
//! X = [x_0 .. x_{N-2}],  Y = [x_1 .. x_{N-1}]
//! X = U Σ Vᵀ             (rank-r truncated SVD)
//! Ã = Uᵀ Y V Σ⁻¹         (r x r compression of A)
//! Ã W = W Λ              (general eigendecomposition)
//! Φ = Y V Σ⁻¹ W Λ⁻¹      (exact DMD modes)
//! ```

use crate::cmatrix::CMatrix;
use crate::complex::Complex;
use crate::eig_general::general_eig;
use psvd_linalg::gemm::{matmul, matmul_tn};
use psvd_linalg::Matrix;

/// The result of a DMD analysis.
pub struct Dmd {
    /// Discrete-time eigenvalues `λ_i` (one step of `dt`).
    pub eigenvalues: Vec<Complex>,
    /// DMD modes as columns (complex, unit norm).
    pub modes: CMatrix,
    /// Mode amplitudes from projecting the first snapshot.
    pub amplitudes: Vec<Complex>,
    /// Sampling interval.
    pub dt: f64,
    /// Truncation rank used.
    pub rank: usize,
}

impl Dmd {
    /// Continuous-time eigenvalues `ω_i = ln(λ_i) / dt`.
    pub fn continuous_eigenvalues(&self) -> Vec<Complex> {
        self.eigenvalues.iter().map(|&l| l.ln().scale(1.0 / self.dt)).collect()
    }

    /// Oscillation frequencies in cycles per unit time (`Im ω / 2π`).
    pub fn frequencies(&self) -> Vec<f64> {
        self.continuous_eigenvalues().iter().map(|w| w.im / (2.0 * std::f64::consts::PI)).collect()
    }

    /// Exponential growth rates (`Re ω`).
    pub fn growth_rates(&self) -> Vec<f64> {
        self.continuous_eigenvalues().iter().map(|w| w.re).collect()
    }

    /// Reconstruct snapshot `k` (real part of `Φ diag(b) λ^k`).
    pub fn reconstruct_snapshot(&self, k: usize) -> Vec<f64> {
        let m = self.modes.rows();
        let mut out = vec![0.0; m];
        for (j, (&lambda, &b)) in self.eigenvalues.iter().zip(&self.amplitudes).enumerate() {
            // λ^k via polar form (stable for large k).
            let lk = Complex::from_polar(lambda.abs().powi(k as i32), lambda.arg() * k as f64);
            let coeff = b * lk;
            for (i, o) in out.iter_mut().enumerate() {
                *o += (self.modes[(i, j)] * coeff).re;
            }
        }
        out
    }

    /// Relative Frobenius error of reconstructing all `n` snapshots.
    pub fn reconstruction_error(&self, data: &Matrix) -> f64 {
        let mut err2 = 0.0;
        for k in 0..data.cols() {
            let rec = self.reconstruct_snapshot(k);
            for i in 0..data.rows() {
                let d = rec[i] - data[(i, k)];
                err2 += d * d;
            }
        }
        err2.sqrt() / data.frobenius_norm().max(f64::MIN_POSITIVE)
    }
}

/// Exact DMD of a snapshot sequence sampled every `dt`, truncated to rank
/// `r` (clamped to the data's numerical rank).
pub fn dmd(data: &Matrix, r: usize, dt: f64) -> Dmd {
    assert!(data.cols() >= 2, "DMD needs at least two snapshots");
    assert!(r >= 1, "rank must be positive");
    let n = data.cols();
    let x = data.submatrix(0, data.rows(), 0, n - 1);
    let y = data.submatrix(0, data.rows(), 1, n);

    // Rank-r SVD of X; clamp r to the numerical rank so sigma-inversion
    // stays stable.
    let f = psvd_linalg::svd(&x);
    let num_rank = f.rank(1e-12).max(1);
    let r = r.min(num_rank);
    let u = f.u.first_columns(r);
    let s = &f.s[..r];
    let v = f.vt.row_block(0, r).transpose(); // (N-1) x r

    // Ã = Uᵀ Y V Σ⁻¹.
    let yv = matmul(&y, &v); // M x r
    let inv_s: Vec<f64> = s.iter().map(|&x| 1.0 / x).collect();
    let yvs = yv.mul_diag(&inv_s);
    let a_tilde = matmul_tn(&u, &yvs); // r x r

    let eig = general_eig(&a_tilde);

    // Exact modes: Φ = (Y V Σ⁻¹) W Λ⁻¹, normalized per column.
    let yvs_c = CMatrix::from_real(&yvs);
    let mut phi = yvs_c.matmul(&eig.vectors);
    for (j, &lambda) in eig.values.iter().enumerate() {
        // Divide by λ (projected-mode fallback when λ ≈ 0).
        if lambda.abs() > 1e-12 {
            let inv = lambda.recip();
            for i in 0..phi.rows() {
                phi[(i, j)] *= inv;
            }
        }
        let norm = phi.col_iter(j).map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm > 0.0 {
            for i in 0..phi.rows() {
                phi[(i, j)] = phi[(i, j)].scale(1.0 / norm);
            }
        }
    }

    // Amplitudes: least squares Φ b = x_0 via the normal equations
    // (Φ*Φ) b = Φ* x_0 — Φ has few columns, so this is safe.
    let x0: Vec<Complex> = (0..data.rows()).map(|i| Complex::real(data[(i, 0)])).collect();
    let phistar = phi.adjoint();
    let gram = phistar.matmul(&phi);
    let rhs = phistar.matvec(&x0);
    let amplitudes = gram.lu_solve(&rhs).unwrap_or_else(|| vec![Complex::ZERO; r]);

    Dmd { eigenvalues: eig.values, modes: phi, amplitudes, dt, rank: r }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Snapshots of x(t) = Σ_j e^{sigma_j t} (v_j cos(omega_j t) +
    /// w_j sin(omega_j t)): each oscillating component spans a genuine 2-D
    /// invariant subspace (two distinct spatial patterns), as required for
    /// a linear map to produce it with a complex eigenvalue pair.
    fn oscillating_data(
        m: usize,
        n: usize,
        dt: f64,
        params: &[(f64, f64)], // (growth sigma, angular frequency omega)
    ) -> Matrix {
        let pattern =
            |j: usize, i: usize| ((i as f64 * (j + 1) as f64 * 0.07) + 0.3 * j as f64).sin();
        Matrix::from_fn(m, n, |i, k| {
            let t = k as f64 * dt;
            params
                .iter()
                .enumerate()
                .map(|(j, &(sig, om))| {
                    let v = pattern(2 * j, i);
                    let w = pattern(2 * j + 1, i);
                    (sig * t).exp() * (v * (om * t).cos() + w * (om * t).sin())
                })
                .sum()
        })
    }

    #[test]
    fn recovers_oscillation_frequencies() {
        let dt = 0.05;
        let data = oscillating_data(120, 100, dt, &[(0.0, 3.0), (0.0, 7.0)]);
        let d = dmd(&data, 4, dt);
        let mut freqs: Vec<f64> = d.continuous_eigenvalues().iter().map(|w| w.im.abs()).collect();
        freqs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        freqs.dedup_by(|a, b| (*a - *b).abs() < 0.1);
        assert!(freqs.iter().any(|&f| (f - 3.0).abs() < 0.05), "omega = 3 missing: {freqs:?}");
        assert!(freqs.iter().any(|&f| (f - 7.0).abs() < 0.05), "omega = 7 missing: {freqs:?}");
    }

    #[test]
    fn recovers_growth_and_decay() {
        let dt = 0.02;
        let data = oscillating_data(80, 120, dt, &[(-0.5, 4.0), (0.3, 9.0)]);
        let d = dmd(&data, 4, dt);
        let rates: Vec<(f64, f64)> =
            d.continuous_eigenvalues().iter().map(|w| (w.re, w.im.abs())).collect();
        // Find the mode near omega = 4: must decay at ~-0.5.
        let decay = rates.iter().find(|(_, om)| (om - 4.0).abs() < 0.2).expect("omega 4 found");
        assert!((decay.0 - -0.5).abs() < 0.05, "decay rate {} vs -0.5", decay.0);
        let growth = rates.iter().find(|(_, om)| (om - 9.0).abs() < 0.2).expect("omega 9 found");
        assert!((growth.0 - 0.3).abs() < 0.05, "growth rate {} vs 0.3", growth.0);
    }

    #[test]
    fn eigenvalues_on_unit_circle_for_undamped() {
        let dt = 0.1;
        let data = oscillating_data(60, 80, dt, &[(0.0, 2.0)]);
        let d = dmd(&data, 2, dt);
        for z in &d.eigenvalues {
            assert!((z.abs() - 1.0).abs() < 1e-6, "|lambda| = {}", z.abs());
        }
    }

    #[test]
    fn reconstruction_is_accurate() {
        let dt = 0.05;
        let data = oscillating_data(60, 60, dt, &[(0.0, 3.0), (-0.2, 6.0)]);
        let d = dmd(&data, 4, dt);
        let err = d.reconstruction_error(&data);
        assert!(err < 1e-6, "reconstruction error {err}");
    }

    #[test]
    fn rank_clamped_to_numerical_rank() {
        // Pure single-frequency signal: rank 2 (conjugate pair).
        let dt = 0.05;
        let data = oscillating_data(40, 50, dt, &[(0.0, 5.0)]);
        let d = dmd(&data, 10, dt);
        assert!(d.rank <= 3, "numerical rank should clamp the request: {}", d.rank);
    }

    #[test]
    fn frequencies_accessor_in_cycles() {
        let dt = 0.05;
        let om = 2.0 * std::f64::consts::PI; // 1 cycle per unit time
        let data = oscillating_data(50, 80, dt, &[(0.0, om)]);
        let d = dmd(&data, 2, dt);
        let has_unit = d.frequencies().iter().any(|&f| (f.abs() - 1.0).abs() < 0.01);
        assert!(has_unit, "frequencies: {:?}", d.frequencies());
    }

    #[test]
    #[should_panic(expected = "at least two snapshots")]
    fn too_few_snapshots_panics() {
        let _ = dmd(&Matrix::zeros(5, 1), 2, 0.1);
    }
}
