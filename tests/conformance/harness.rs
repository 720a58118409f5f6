//! Shared machinery for the conformance suite: synthetic spectra, the
//! serial oracle, and the paper-contract assertions.

use psvd_comm::Communicator;
use psvd_core::{batch_truncated_svd, ParallelStreamingSvd, SerialStreamingSvd, SvdConfig};
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
use psvd_linalg::Matrix;

/// Spectrum shapes the differential tests sweep: each stresses a different
/// regime of the truncation/streaming error analysis.
#[derive(Clone, Copy, Debug)]
pub enum Spectrum {
    /// Geometric decay — the paper's well-separated POD case.
    Geometric,
    /// Two tight clusters — near-degenerate values, sign/order stress.
    Clustered,
    /// Flat head then geometric tail — truncation right at a plateau.
    Step,
    /// Slow linear decay — worst case for low-rank truncation.
    Linear,
}

pub const ALL_SPECTRA: [Spectrum; 4] =
    [Spectrum::Geometric, Spectrum::Clustered, Spectrum::Step, Spectrum::Linear];

/// The singular values for `n` columns of the given shape.
pub fn spectrum_values(kind: Spectrum, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match kind {
            Spectrum::Geometric => 10.0 * 0.65f64.powi(i as i32),
            Spectrum::Clustered => {
                if i < n / 2 {
                    8.0 - 1e-3 * i as f64
                } else {
                    2.0 - 1e-3 * i as f64
                }
            }
            Spectrum::Step => {
                if i < 4 {
                    6.0
                } else {
                    6.0 * 0.5f64.powi(i as i32 - 3)
                }
            }
            Spectrum::Linear => 5.0 - 4.0 * i as f64 / n as f64,
        })
        .collect()
}

/// A seeded `m x n` snapshot matrix with the given spectrum shape.
pub fn data_matrix(kind: Spectrum, m: usize, n: usize, seed: u64) -> Matrix {
    let spec = spectrum_values(kind, n.min(m));
    matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
}

/// Paper contract: singular values come out in non-increasing order and
/// strictly positive.
pub fn assert_descending(s: &[f64]) {
    assert!(!s.is_empty(), "no singular values returned");
    for w in s.windows(2) {
        assert!(w[0] >= w[1], "singular values not descending: {:?}", s);
    }
    assert!(*s.last().unwrap() > 0.0, "non-positive singular value: {:?}", s);
}

/// Paper contract: the mode matrix has orthonormal columns.
pub fn assert_orthonormal(q: &Matrix, tol: f64) {
    let err = orthogonality_error(q);
    assert!(err < tol, "orthogonality error {err} exceeds {tol}");
}

/// A tracker fed `batch`-column batches is whole when its modes, σ and
/// both counters belong to one streaming step — what every rank must hold
/// after an `Err`, whether the error came before the commit or after it.
pub fn assert_whole<C: Communicator>(d: &ParallelStreamingSvd<'_, C>, batch: usize) {
    assert_eq!(d.local_modes().cols(), d.singular_values().len(), "modes and σ from one step");
    let seen = if d.is_initialized() { batch * (d.iteration() + 1) } else { 0 };
    assert_eq!(d.snapshots_seen(), seen, "counters from one step");
}

/// The serial streaming oracle: final `(modes, singular values)` of the
/// Levy–Lindenbaum loop over the full matrix.
pub fn serial_oracle(cfg: SvdConfig, a: &Matrix, batch: usize) -> (Matrix, Vec<f64>) {
    let mut s = SerialStreamingSvd::new(cfg);
    s.fit_batched(a, batch);
    let sv = s.singular_values().to_vec();
    (s.modes().clone(), sv)
}

/// The batch (non-streaming) oracle.
pub fn batch_oracle(a: &Matrix, k: usize) -> (Matrix, Vec<f64>) {
    batch_truncated_svd(a, k)
}

/// A full-rank (no information discarded) streaming configuration, so the
/// serial and distributed paths agree to round-off rather than to
/// truncation error.
pub fn exact_config(k: usize, n: usize) -> SvdConfig {
    SvdConfig::new(k).with_forget_factor(1.0).with_r1(n).with_r2(n)
}
