//! Synthetic global surface-pressure fields standing in for ERA5.
//!
//! The paper's science demonstration (Figure 2) extracts the two leading
//! coherent structures from eight years of 6-hourly ERA5 surface pressure.
//! That dataset is not redistributable here, so this module generates a
//! spatiotemporal field with the same character — and, crucially, with
//! *known planted modes*, which upgrades the paper's qualitative eyeball
//! check into a quantitative subspace-recovery test:
//!
//! - planted spatial patterns: zonal-wavenumber structures modulated by
//!   latitudinal envelopes (wavenumber-1 "seasonal see-saw", wavenumber-2
//!   standing wave, a polar-annular-mode-like pattern, ...);
//! - temporal coefficients: sinusoids at separated frequencies (annual,
//!   semi-annual, ...) so they are nearly orthogonal over the record;
//! - AR(1) red noise on top, with configurable amplitude.
//!
//! Amplitudes are well separated, so the leading POD/SVD modes of the data
//! must align with the planted patterns up to sign.

use psvd_linalg::qr::thin_qr;
use psvd_linalg::random::{seeded_rng, StandardNormal};
use psvd_linalg::Matrix;
use rand::distributions::Distribution;

/// Configuration of the synthetic ERA5-like dataset.
#[derive(Clone, Copy, Debug)]
pub struct Era5Config {
    /// Longitudes (grid columns).
    pub nlon: usize,
    /// Latitudes (grid rows).
    pub nlat: usize,
    /// Number of snapshots (6-hourly samples in the paper).
    pub snapshots: usize,
    /// Number of planted coherent modes.
    pub n_modes: usize,
    /// Std-dev of the AR(1) noise relative to the weakest planted mode.
    pub noise_level: f64,
    /// AR(1) autocorrelation of the noise.
    pub noise_ar: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Era5Config {
    /// A laptop-scale default: 144 x 96 grid (2.5 degree), 2048 snapshots.
    fn default() -> Self {
        Self {
            nlon: 144,
            nlat: 96,
            snapshots: 2048,
            n_modes: 4,
            noise_level: 0.1,
            noise_ar: 0.8,
            seed: 2013,
        }
    }
}

impl Era5Config {
    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self { nlon: 24, nlat: 16, snapshots: 128, ..Self::default() }
    }

    /// Spatial degrees of freedom `M = nlat * nlon`.
    pub fn dof(&self) -> usize {
        self.nlat * self.nlon
    }
}

/// The generated dataset: snapshots plus the planted ground truth.
pub struct Era5Data {
    /// `M x N` anomaly snapshot matrix (mean already zero by construction).
    pub snapshots: Matrix,
    /// `M x n_modes` orthonormal planted spatial modes, strongest first.
    pub true_modes: Matrix,
    /// Mode amplitudes (descending), the planted "singular values" up to
    /// the temporal normalization.
    pub amplitudes: Vec<f64>,
    /// Configuration used.
    pub config: Era5Config,
}

/// Planted spatial pattern `k` evaluated at `(lat_idx, lon_idx)`.
///
/// Wavenumber `k+1` in longitude, with alternating symmetric/antisymmetric
/// latitudinal envelopes — crude caricatures of the annular modes and
/// stationary waves that dominate real surface-pressure variability.
fn spatial_pattern(k: usize, nlat: usize, nlon: usize, i: usize, j: usize) -> f64 {
    let lat = std::f64::consts::PI * (i as f64 / (nlat - 1) as f64 - 0.5); // -pi/2 .. pi/2
    let lon = 2.0 * std::f64::consts::PI * j as f64 / nlon as f64;
    let wavenumber = (k + 1) as f64;
    let zonal = (wavenumber * lon).cos();
    let envelope = if k.is_multiple_of(2) {
        lat.cos() // symmetric about the equator
    } else {
        (2.0 * lat).sin() // antisymmetric (hemispheric see-saw)
    };
    zonal * envelope
}

/// Temporal coefficient of mode `k` at snapshot `t` out of `n`:
/// separated harmonics over the record, normalized to unit RMS.
fn temporal_coefficient(k: usize, t: usize, n: usize) -> f64 {
    let cycles = 2.0 + 3.0 * k as f64; // 2, 5, 8, ... cycles over the record
    let phase = 2.0 * std::f64::consts::PI * cycles * t as f64 / n as f64;
    std::f64::consts::SQRT_2 * (phase + 0.3 * k as f64).sin()
}

/// Generate the dataset.
pub fn generate(cfg: &Era5Config) -> Era5Data {
    assert!(cfg.n_modes >= 1, "need at least one planted mode");
    let m = cfg.dof();
    let n = cfg.snapshots;

    // Raw planted patterns as columns, then orthonormalized so that
    // "recover the planted subspace" is exactly testable.
    let raw = Matrix::from_fn(m, cfg.n_modes, |idx, k| {
        let i = idx / cfg.nlon;
        let j = idx % cfg.nlon;
        spatial_pattern(k, cfg.nlat, cfg.nlon, i, j)
    });
    let true_modes = thin_qr(&raw).q;

    // Amplitudes decay geometrically: sigma_k = 10 * 2^{-k} (hPa-ish scale).
    let amplitudes: Vec<f64> = (0..cfg.n_modes).map(|k| 10.0 * 0.5f64.powi(k as i32)).collect();

    let mut snapshots = Matrix::zeros(m, n);
    for t in 0..n {
        for k in 0..cfg.n_modes {
            let a = amplitudes[k] * temporal_coefficient(k, t, n);
            for idx in 0..m {
                snapshots[(idx, t)] += a * true_modes[(idx, k)];
            }
        }
    }

    // AR(1) red noise, independent per grid point.
    if cfg.noise_level > 0.0 {
        let mut rng = seeded_rng(cfg.seed);
        let sigma_noise = cfg.noise_level * amplitudes[cfg.n_modes - 1];
        let innovation = sigma_noise * (1.0 - cfg.noise_ar * cfg.noise_ar).sqrt();
        let normal = StandardNormal;
        for idx in 0..m {
            let mut state = sigma_noise * normal.sample(&mut rng);
            for t in 0..n {
                snapshots[(idx, t)] += state;
                state = cfg.noise_ar * state + innovation * normal.sample(&mut rng);
            }
        }
    }

    Era5Data { snapshots, true_modes, amplitudes, config: *cfg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::validate::max_principal_angle;

    #[test]
    fn planted_modes_orthonormal() {
        let d = generate(&Era5Config::tiny());
        assert!(orthogonality_error(&d.true_modes) < 1e-12);
    }

    #[test]
    fn svd_recovers_planted_subspace() {
        let cfg = Era5Config { noise_level: 0.02, ..Era5Config::tiny() };
        let d = generate(&cfg);
        let f = psvd_linalg::svd(&d.snapshots);
        let leading = f.u.first_columns(cfg.n_modes);
        let angle = max_principal_angle(&leading, &d.true_modes);
        assert!(angle < 0.1, "planted subspace should be recovered, angle = {angle}");
    }

    #[test]
    fn amplitudes_order_singular_values() {
        let cfg = Era5Config { noise_level: 0.0, ..Era5Config::tiny() };
        let d = generate(&cfg);
        let f = psvd_linalg::svd(&d.snapshots);
        // With unit-RMS temporal coefficients, sigma_k ~ amplitude_k * sqrt(N).
        let scale = (cfg.snapshots as f64).sqrt();
        for k in 0..cfg.n_modes {
            let expected = d.amplitudes[k] * scale;
            let got = f.s[k];
            assert!(
                (got - expected).abs() / expected < 0.2,
                "sigma_{k}: got {got}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn noiseless_rank_equals_n_modes() {
        let cfg = Era5Config { noise_level: 0.0, ..Era5Config::tiny() };
        let d = generate(&cfg);
        let f = psvd_linalg::svd(&d.snapshots);
        assert!(f.s[cfg.n_modes] < 1e-9 * f.s[0], "tail should vanish: {:?}", &f.s[..6]);
    }

    #[test]
    fn generation_is_reproducible() {
        let cfg = Era5Config::tiny();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.snapshots, b.snapshots);
    }

    #[test]
    fn noise_level_scales_residual() {
        let quiet = generate(&Era5Config { noise_level: 0.01, ..Era5Config::tiny() });
        let loud = generate(&Era5Config { noise_level: 0.5, ..Era5Config::tiny() });
        // Project out planted modes; the residual should grow with noise.
        let resid = |d: &Era5Data| {
            let proj = psvd_linalg::gemm::matmul(
                &d.true_modes,
                &psvd_linalg::gemm::matmul_tn(&d.true_modes, &d.snapshots),
            );
            (&d.snapshots - &proj).frobenius_norm()
        };
        assert!(resid(&loud) > 5.0 * resid(&quiet));
    }
}
