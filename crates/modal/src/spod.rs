//! Spectral proper orthogonal decomposition (SPOD; Towne, Schmidt &
//! Colonius 2018), the frequency-resolved POD variant the paper's authors
//! ship in the companion PySPOD package and cite throughout.
//!
//! Welch-style estimation: the snapshot record is split into overlapping,
//! windowed segments; each grid point's segment is FFT'd in time; at every
//! frequency the segment realizations form a small snapshot matrix whose
//! SVD yields the SPOD modes and the modal energy spectrum.

use crate::cmatrix::CMatrix;
use crate::complex::Complex;
use crate::fft::{fft, fft_frequencies};
use psvd_linalg::Matrix;

/// SPOD estimation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SpodConfig {
    /// Snapshots per segment (FFT length).
    pub segment_length: usize,
    /// Overlap between consecutive segments, in snapshots.
    pub overlap: usize,
    /// Sampling interval of the snapshots.
    pub dt: f64,
    /// Number of SPOD modes retained per frequency.
    pub n_modes: usize,
}

impl SpodConfig {
    /// Standard Welch setup: 50% overlap, Hamming window.
    pub fn new(segment_length: usize, dt: f64) -> Self {
        Self { segment_length, overlap: segment_length / 2, dt, n_modes: 3 }
    }

    /// Builder: modes per frequency.
    pub fn with_n_modes(mut self, k: usize) -> Self {
        self.n_modes = k;
        self
    }

    /// Builder: segment overlap.
    pub fn with_overlap(mut self, overlap: usize) -> Self {
        self.overlap = overlap;
        self
    }

    /// Number of segments available from `n` snapshots.
    pub fn segment_count(&self, n: usize) -> usize {
        if n < self.segment_length {
            return 0;
        }
        let hop = self.segment_length - self.overlap;
        (n - self.segment_length) / hop + 1
    }
}

/// Per-frequency SPOD output.
pub struct SpodFrequency {
    /// Physical frequency (cycles per unit time, non-negative).
    pub frequency: f64,
    /// Modal energies (descending).
    pub energies: Vec<f64>,
    /// SPOD modes as columns (complex, orthonormal).
    pub modes: CMatrix,
}

/// Full SPOD result: one entry per non-negative frequency bin.
pub struct Spod {
    /// Per-frequency decompositions, ascending frequency.
    pub frequencies: Vec<SpodFrequency>,
    /// Number of Welch segments used.
    pub n_segments: usize,
}

impl Spod {
    /// Total energy at each frequency (sum of modal energies) — the SPOD
    /// spectrum one plots to find peaks.
    pub fn spectrum(&self) -> Vec<(f64, f64)> {
        self.frequencies.iter().map(|f| (f.frequency, f.energies.iter().sum())).collect()
    }

    /// The frequency bin with the most energy.
    pub fn peak_frequency(&self) -> f64 {
        self.spectrum()
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energies"))
            .map(|(f, _)| f)
            .unwrap_or(0.0)
    }
}

/// Hamming window of length `n`, normalized to unit mean square.
fn hamming(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n)
        .map(|i| 0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64).cos())
        .collect();
    let ms = raw.iter().map(|w| w * w).sum::<f64>() / n as f64;
    let scale = 1.0 / ms.sqrt();
    raw.into_iter().map(|w| w * scale).collect()
}

/// Compute the SPOD of a snapshot matrix (`M x N`, columns = time).
pub fn spod(data: &Matrix, cfg: &SpodConfig) -> Spod {
    let (m, n) = data.shape();
    let nfft = cfg.segment_length;
    assert!(nfft >= 4, "segment length too short");
    assert!(cfg.overlap < nfft, "overlap must be smaller than the segment");
    let n_seg = cfg.segment_count(n);
    assert!(n_seg >= 1, "record too short for even one segment ({n} < {nfft})");
    let hop = nfft - cfg.overlap;
    let window = hamming(nfft);

    // Q[freq][dof][segment]: build per-frequency realization matrices by
    // FFT-ing each grid point's windowed segment.
    let n_freq = nfft / 2 + 1; // one-sided
    let mut qf: Vec<CMatrix> = (0..n_freq).map(|_| CMatrix::zeros(m, n_seg)).collect();
    let mut series: Vec<Complex> = vec![Complex::ZERO; nfft];
    for seg in 0..n_seg {
        let start = seg * hop;
        for dof in 0..m {
            for t in 0..nfft {
                series[t] = Complex::real(data[(dof, start + t)] * window[t]);
            }
            let spec = fft(&series);
            for (f, q) in qf.iter_mut().enumerate() {
                q[(dof, seg)] = spec[f].scale(1.0 / nfft as f64);
            }
        }
    }

    // Per frequency: SVD of Q_f / sqrt(n_seg) via the Hermitian method of
    // snapshots on the small n_seg x n_seg cross-spectral density matrix.
    let freqs = fft_frequencies(nfft, cfg.dt);
    let frequencies = qf
        .into_iter()
        .enumerate()
        .map(|(fi, q)| {
            let (energies, modes) = hermitian_snapshot_svd(&q, cfg.n_modes, n_seg);
            SpodFrequency { frequency: freqs[fi].abs(), energies, modes }
        })
        .collect();
    Spod { frequencies, n_segments: n_seg }
}

/// Leading singular pairs of a complex tall matrix `Q` (`M x S`, `M >> S`)
/// via the eigendecomposition of the small Hermitian `Q*Q`.
fn hermitian_snapshot_svd(q: &CMatrix, k: usize, n_seg: usize) -> (Vec<f64>, CMatrix) {
    let s = q.cols();
    let k = k.min(s);
    // Small Hermitian cross-spectral matrix C = Q* Q / n_seg.
    let c = q.adjoint().matmul(q).scaled(Complex::real(1.0 / n_seg as f64));
    // Hermitian eigen via the real embedding [[Re, -Im], [Im, Re]]: its
    // eigenvalues are those of C doubled in multiplicity.
    let re = c.real_part();
    let im = c.imag_part();
    let mut embed = Matrix::zeros(2 * s, 2 * s);
    for i in 0..s {
        for j in 0..s {
            embed[(i, j)] = re[(i, j)];
            embed[(i, j + s)] = -im[(i, j)];
            embed[(i + s, j)] = im[(i, j)];
            embed[(i + s, j + s)] = re[(i, j)];
        }
    }
    let eig = psvd_linalg::eig::sym_eig(&embed);
    // Take every second eigenvalue (doubled multiplicities) and rebuild the
    // complex eigenvectors from the embedding halves.
    let mut energies = Vec::with_capacity(k);
    let mut theta = CMatrix::zeros(s, k);
    let mut out_col = 0;
    let mut idx = 0;
    while out_col < k && idx < 2 * s {
        let lam = eig.values[idx].max(0.0);
        let v = eig.vectors.col(idx);
        energies.push(lam);
        for i in 0..s {
            theta[(i, out_col)] = Complex::new(v[i], v[i + s]);
        }
        // Normalize the complex vector (the embedding halves give norm 1
        // already, but guard round-off).
        let norm = (0..s).map(|i| theta[(i, out_col)].norm_sqr()).sum::<f64>().sqrt();
        if norm > 0.0 {
            for i in 0..s {
                theta[(i, out_col)] = theta[(i, out_col)].scale(1.0 / norm);
            }
        }
        out_col += 1;
        idx += 2; // skip the duplicate
    }
    energies.truncate(out_col);

    // Lift to spatial modes: Φ = Q Θ Λ^{-1/2} / sqrt(n_seg).
    let mut phi = q.matmul(&theta);
    for (j, &lam) in energies.iter().enumerate() {
        let scale = if lam > 1e-300 { 1.0 / (lam * n_seg as f64).sqrt() } else { 0.0 };
        for i in 0..phi.rows() {
            phi[(i, j)] = phi[(i, j)].scale(scale);
        }
    }
    (energies, phi)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traveling wave u(x, t) = a cos(kx - omega t) + noise-free.
    fn traveling_wave(m: usize, n: usize, dt: f64, omega: f64, amp: f64) -> Matrix {
        Matrix::from_fn(m, n, |i, t| {
            let x = i as f64 / m as f64 * 2.0 * std::f64::consts::PI;
            amp * (3.0 * x - omega * t as f64 * dt).cos()
        })
    }

    #[test]
    fn peak_at_planted_frequency() {
        let dt = 0.1;
        let omega = 2.0 * std::f64::consts::PI * 1.25; // 1.25 cycles/unit
        let data = traveling_wave(64, 512, dt, omega, 2.0);
        let s = spod(&data, &SpodConfig::new(64, dt));
        let peak = s.peak_frequency();
        // Bin resolution df = 1/(64*0.1) = 0.15625.
        assert!((peak - 1.25).abs() < 0.16, "peak at {peak}, expected 1.25");
    }

    #[test]
    fn spectrum_energy_concentrated() {
        let dt = 0.1;
        let omega = 2.0 * std::f64::consts::PI * 1.25;
        let data = traveling_wave(48, 512, dt, omega, 1.0);
        let s = spod(&data, &SpodConfig::new(64, dt));
        let spec = s.spectrum();
        let total: f64 = spec.iter().map(|(_, e)| e).sum();
        let peak_e =
            spec.iter().filter(|(f, _)| (f - 1.25).abs() < 0.32).map(|(_, e)| e).sum::<f64>();
        assert!(peak_e > 0.8 * total, "energy near peak {peak_e} of {total}");
    }

    #[test]
    fn traveling_wave_needs_one_complex_mode() {
        // A traveling wave is a SINGLE complex SPOD mode (unlike real POD,
        // which needs two): the first modal energy dominates the second.
        let dt = 0.1;
        let omega = 2.0 * std::f64::consts::PI * 1.25;
        let data = traveling_wave(48, 768, dt, omega, 1.0);
        let s = spod(&data, &SpodConfig::new(64, dt).with_n_modes(2));
        let peak_bin = s
            .frequencies
            .iter()
            .max_by(|a, b| {
                a.energies.iter().sum::<f64>().partial_cmp(&b.energies.iter().sum::<f64>()).unwrap()
            })
            .unwrap();
        assert!(
            peak_bin.energies[0] > 10.0 * peak_bin.energies[1].max(1e-12),
            "first mode should dominate: {:?}",
            peak_bin.energies
        );
    }

    #[test]
    fn segment_counting() {
        let cfg = SpodConfig { segment_length: 64, overlap: 32, dt: 1.0, n_modes: 1 };
        assert_eq!(cfg.segment_count(64), 1);
        assert_eq!(cfg.segment_count(96), 2);
        assert_eq!(cfg.segment_count(128), 3);
        assert_eq!(cfg.segment_count(63), 0);
    }

    #[test]
    fn energies_descending_nonnegative() {
        let dt = 0.05;
        let data = Matrix::from_fn(32, 300, |i, t| {
            ((i + t) as f64 * 0.17).sin() + 0.5 * ((i * 2 + 3 * t) as f64 * 0.31).cos()
        });
        let s = spod(&data, &SpodConfig::new(32, dt).with_n_modes(3));
        for f in &s.frequencies {
            for w in f.energies.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
            for &e in &f.energies {
                assert!(e >= 0.0);
            }
        }
    }

    #[test]
    fn modes_orthonormal_at_peak() {
        let dt = 0.1;
        let data = Matrix::from_fn(40, 400, |i, t| {
            let x = i as f64 * 0.2;
            (2.0 * x - 0.9 * t as f64 * dt).cos() + 0.3 * (x + 2.2 * t as f64 * dt).sin()
        });
        let s = spod(&data, &SpodConfig::new(64, dt).with_n_modes(2));
        let peak = &s.frequencies[3];
        // Hermitian orthonormality of mode columns where energy is nonzero.
        let phi = &peak.modes;
        for a in 0..phi.cols() {
            if peak.energies[a] < 1e-10 {
                continue;
            }
            for b in 0..phi.cols() {
                if peak.energies[b] < 1e-10 {
                    continue;
                }
                let dot = crate::cmatrix::cvec_dot(&phi.col(a), &phi.col(b));
                let target = if a == b { 1.0 } else { 0.0 };
                assert!((dot.abs() - target).abs() < 1e-6, "<phi_{a}, phi_{b}> = {dot:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "record too short")]
    fn short_record_panics() {
        let data = Matrix::zeros(8, 16);
        let _ = spod(&data, &SpodConfig::new(64, 0.1));
    }
}
