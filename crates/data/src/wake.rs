//! Synthetic cylinder-wake dataset — the canonical DMD benchmark flow.
//!
//! A von Kármán vortex street behind a bluff body is *the* standard test
//! for modal decompositions (Schmid's original DMD paper uses one). This
//! generator produces a 2-D vorticity-like field with the wake's defining
//! features, all with known ground truth:
//!
//! - a steady base flow (recirculation bubble behind the body);
//! - a fundamental shedding mode: counter-rotating vortices advecting
//!   downstream at a set frequency `f_s` (a traveling wave in `x`,
//!   enveloped in `y`);
//! - its first harmonic at `2 f_s` with half the wavelength, as in real
//!   wakes;
//! - optional transient growth `e^{sigma t}` to emulate the instability's
//!   saturation phase.

use psvd_linalg::Matrix;

/// Configuration of the synthetic wake.
#[derive(Clone, Copy, Debug)]
pub struct WakeConfig {
    /// Streamwise grid points.
    pub nx: usize,
    /// Cross-stream grid points.
    pub ny: usize,
    /// Snapshots.
    pub snapshots: usize,
    /// Sampling interval.
    pub dt: f64,
    /// Fundamental shedding frequency (cycles per unit time).
    pub shedding_frequency: f64,
    /// Amplitude of the fundamental relative to the base flow.
    pub fundamental_amplitude: f64,
    /// Amplitude of the first harmonic.
    pub harmonic_amplitude: f64,
    /// Exponential growth rate of the oscillatory part (0 = saturated).
    pub growth_rate: f64,
}

impl Default for WakeConfig {
    fn default() -> Self {
        Self {
            nx: 96,
            ny: 48,
            snapshots: 256,
            dt: 0.05,
            shedding_frequency: 1.1,
            fundamental_amplitude: 1.0,
            harmonic_amplitude: 0.35,
            growth_rate: 0.0,
        }
    }
}

impl WakeConfig {
    /// Spatial degrees of freedom.
    pub fn dof(&self) -> usize {
        self.nx * self.ny
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self { nx: 32, ny: 16, snapshots: 128, ..Self::default() }
    }
}

/// Evaluate the base flow at normalized coordinates.
fn base_flow(xn: f64, yn: f64) -> f64 {
    // Recirculation bubble: negative vorticity lobe decaying downstream.
    let lobe = (-((xn - 0.15) * 6.0).powi(2)).exp();
    lobe * (-(yn * 3.0).powi(2)).exp() * yn.signum() * -2.0
}

/// Shedding-mode envelope: grows from the body, decays cross-stream.
fn envelope(xn: f64, yn: f64, tightness: f64) -> f64 {
    let stream = (1.0 - (-xn * 4.0).exp()).max(0.0);
    stream * (-(yn * tightness).powi(2)).exp()
}

/// Generate the `(dof x snapshots)` wake snapshot matrix. Row index maps to
/// `(iy * nx + ix)`.
pub fn generate(cfg: &WakeConfig) -> Matrix {
    let tau = 2.0 * std::f64::consts::PI;
    let omega = tau * cfg.shedding_frequency;
    let k1 = tau * 1.5; // fundamental streamwise wavenumber
    let k2 = 2.0 * k1; // harmonic: half wavelength
    Matrix::from_fn(cfg.dof(), cfg.snapshots, |idx, t| {
        let iy = idx / cfg.nx;
        let ix = idx % cfg.nx;
        let xn = ix as f64 / cfg.nx as f64; // 0..1 downstream
        let yn = iy as f64 / cfg.ny as f64 * 2.0 - 1.0; // -1..1 cross-stream
        let time = t as f64 * cfg.dt;
        let growth = (cfg.growth_rate * time).exp();

        let fundamental = cfg.fundamental_amplitude
            * envelope(xn, yn, 2.0)
            * (k1 * xn - omega * time).sin()
            * growth;
        // Harmonic rides the centerline (symmetric), frequency doubled.
        let harmonic = cfg.harmonic_amplitude
            * envelope(xn, yn, 3.5)
            * (k2 * xn - 2.0 * omega * time).cos()
            * growth;
        base_flow(xn, yn) + fundamental + harmonic
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_finiteness() {
        let cfg = WakeConfig::tiny();
        let d = generate(&cfg);
        assert_eq!(d.shape(), (cfg.dof(), cfg.snapshots));
        assert!(d.all_finite());
    }

    #[test]
    fn mean_field_is_the_base_flow() {
        // Oscillatory parts average out over full periods.
        let cfg = WakeConfig { snapshots: 400, ..WakeConfig::tiny() };
        let d = generate(&cfg);
        // Compare temporal mean against t-averaged truth at a probe point.
        let idx = (cfg.ny / 4) * cfg.nx + cfg.nx / 4;
        let mean: f64 = d.row(idx).iter().sum::<f64>() / cfg.snapshots as f64;
        let xn = (cfg.nx / 4) as f64 / cfg.nx as f64;
        let yn = (cfg.ny / 4) as f64 / cfg.ny as f64 * 2.0 - 1.0;
        let expected = base_flow(xn, yn);
        assert!((mean - expected).abs() < 0.05, "mean {mean} vs base {expected}");
    }

    #[test]
    fn spectrum_shows_two_oscillatory_pairs() {
        // Mean + fundamental pair + harmonic pair = 5-ish dominant modes.
        let cfg = WakeConfig::tiny();
        let d = generate(&cfg);
        let f = psvd_linalg::svd(&d);
        assert!(f.s[4] > 1e3 * f.s[5].max(1e-300), "rank ~5 expected: {:?}", &f.s[..7]);
    }

    #[test]
    fn growth_rate_inflates_late_snapshots() {
        let grown = generate(&WakeConfig { growth_rate: 0.2, ..WakeConfig::tiny() });
        let flat = generate(&WakeConfig { growth_rate: 0.0, ..WakeConfig::tiny() });
        let last = grown.col(127);
        let last_flat = flat.col(127);
        let e_grown: f64 = last.iter().map(|x| x * x).sum();
        let e_flat: f64 = last_flat.iter().map(|x| x * x).sum();
        assert!(e_grown > 2.0 * e_flat);
    }

    #[test]
    fn dmd_recovers_shedding_frequency_and_harmonic() {
        // The end-to-end property this generator exists to certify.
        let cfg = WakeConfig::tiny();
        let d = generate(&cfg);
        let result = psvd_modal::dmd::dmd(&d, 5, cfg.dt);
        let freqs: Vec<f64> = result.frequencies().iter().map(|f| f.abs()).collect();
        let f_s = cfg.shedding_frequency;
        assert!(
            freqs.iter().any(|&f| (f - f_s).abs() < 0.02),
            "fundamental {f_s} not found in {freqs:?}"
        );
        assert!(
            freqs.iter().any(|&f| (f - 2.0 * f_s).abs() < 0.04),
            "harmonic {} not found in {freqs:?}",
            2.0 * f_s
        );
        assert!(
            freqs.iter().any(|&f| f.abs() < 1e-6),
            "steady base-flow mode (f = 0) not found in {freqs:?}"
        );
    }

    #[test]
    fn dmd_measures_planted_growth_rate() {
        let cfg = WakeConfig { growth_rate: 0.15, ..WakeConfig::tiny() };
        let d = generate(&cfg);
        let result = psvd_modal::dmd::dmd(&d, 5, cfg.dt);
        // The fundamental's continuous eigenvalue must carry Re ~ 0.15.
        let target = result
            .continuous_eigenvalues()
            .iter()
            .find(|w| {
                (w.im.abs() / (2.0 * std::f64::consts::PI) - cfg.shedding_frequency).abs() < 0.05
            })
            .copied()
            .expect("fundamental found");
        assert!((target.re - 0.15).abs() < 0.01, "growth {} vs planted 0.15", target.re);
    }
}
