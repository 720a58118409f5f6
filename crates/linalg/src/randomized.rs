//! Randomized linear algebra (Section 3.3 of the paper).
//!
//! The randomized range finder draws a Gaussian test matrix `Ω`, forms the
//! sketch `Y = AΩ`, optionally runs re-orthogonalized power iterations, and
//! QR-factorizes the sketch into an approximate range basis `Q` with
//! `A ≈ Q Qᵀ A`. The randomized SVD then factorizes the small projected
//! matrix `Ã = Qᵀ A` and lifts its left factor: `U = Q Ũ` (Eqs. 7–11).
//!
//! The sketch `AΩ`, the power-iteration products and the projection `QᵀA`
//! are exactly the tall-times-skinny GEMMs the packed parallel engine in
//! [`crate::gemm`] is blocked for; they thread automatically above the
//! size threshold with bitwise-deterministic output.

use crate::gemm::{matmul, matmul_into, matmul_tn, matmul_tn_into};
use crate::matrix::Matrix;
use crate::qr::qr_thin_into;
use crate::random::fill_gaussian;
use crate::scalar::Scalar;
use crate::svd::{svd, Svd};
use crate::workspace::Workspace;

/// Parameters for the randomized range finder.
#[derive(Clone, Copy, Debug)]
pub struct RandomizedConfig {
    /// Target rank `r`.
    pub rank: usize,
    /// Oversampling `p` (extra sketch columns beyond `rank`).
    pub oversampling: usize,
    /// Number of power iterations `q` (each re-orthogonalized).
    pub power_iterations: usize,
}

impl RandomizedConfig {
    /// A sensible default matching the paper's usage: the paper samples a
    /// fresh Gaussian `Q` per call with no explicit oversampling discussion;
    /// we default to the standard `p = 10`, `q = 1`.
    pub fn new(rank: usize) -> Self {
        Self { rank, oversampling: 10, power_iterations: 1 }
    }

    /// Builder: set the oversampling.
    pub fn with_oversampling(mut self, p: usize) -> Self {
        self.oversampling = p;
        self
    }

    /// Builder: set the power-iteration count.
    pub fn with_power_iterations(mut self, q: usize) -> Self {
        self.power_iterations = q;
        self
    }

    /// Sketch width `rank + oversampling`, clamped to the matrix's width.
    pub fn sketch_width(&self, ncols: usize) -> usize {
        (self.rank + self.oversampling).min(ncols)
    }
}

/// Compute an orthonormal approximate range basis `Q` (`m x l`) such that
/// `A ≈ Q Qᵀ A`, where `l = min(rank + oversampling, n)`.
pub fn randomized_range_finder<T: Scalar, R: rand::Rng>(
    a: &Matrix<T>,
    cfg: &RandomizedConfig,
    rng: &mut R,
) -> Matrix<T> {
    let mut ws = Workspace::new();
    let mut q = Matrix::zeros(0, 0);
    randomized_range_finder_into(a, cfg, rng, &mut q, &mut ws);
    q
}

/// Workspace-fed form of [`randomized_range_finder`]: the Gaussian
/// sketch, its products and the QR scratch all come from `ws`, and the
/// basis lands in `q`. With warm buffers a call allocates nothing.
/// Bitwise identical to the allocating version for the same RNG state —
/// the sketch is drawn in the identical row-major order.
pub fn randomized_range_finder_into<T: Scalar, R: rand::Rng>(
    a: &Matrix<T>,
    cfg: &RandomizedConfig,
    rng: &mut R,
    q: &mut Matrix<T>,
    ws: &mut Workspace,
) {
    let (m, n) = a.shape();
    let l = cfg.sketch_width(n);
    if l == 0 {
        q.reshape_zeroed(m, 0);
        return;
    }
    let mut omega = ws.take(n, l);
    fill_gaussian(&mut omega, rng);
    let mut y = ws.take(m, l);
    let mut rwork = ws.take(l, l);
    matmul_into(a.view(), omega.view(), &mut y);
    // Tall sketches ride the blocked compact-WY QR (see DESIGN.md), so
    // range finding is packed-GEMM work end to end.
    qr_thin_into(y.view(), q, &mut rwork, ws);
    if cfg.power_iterations > 0 {
        let mut z = ws.take(n, l);
        for _ in 0..cfg.power_iterations {
            // Re-orthogonalize between the two halves of each power step to
            // avoid losing the small-singular-value directions to round-off.
            matmul_tn_into(a.view(), q.view(), &mut y);
            qr_thin_into(y.view(), &mut z, &mut rwork, ws);
            matmul_into(a.view(), z.view(), &mut y);
            qr_thin_into(y.view(), q, &mut rwork, ws);
        }
        ws.give(z);
    }
    ws.give(omega);
    ws.give(y);
    ws.give(rwork);
}

/// Randomized truncated SVD of `a`, keeping `cfg.rank` triplets: the
/// range basis `Q`, then (Eqs. 9–11) the SVD of the small projection
/// `Ã = QᵀA`, its left factor lifted to `U = Q Ũ`.
pub fn randomized_svd<T: Scalar, R: rand::Rng>(
    a: &Matrix<T>,
    cfg: &RandomizedConfig,
    rng: &mut R,
) -> Svd<T> {
    let q = randomized_range_finder(a, cfg, rng);
    let small = matmul_tn(&q, a); // l x n
    let f = svd(&small);
    let u = matmul(&q, &f.u);
    Svd { u, s: f.s, vt: f.vt }.truncated(cfg.rank)
}

/// The paper's `low_rank_svd(A, K)` helper: returns `(U_K, s_K)` only — the
/// parallel driver never needs the right factor of the randomized path.
pub fn low_rank_svd<T: Scalar, R: rand::Rng>(
    a: &Matrix<T>,
    k: usize,
    rng: &mut R,
) -> (Matrix<T>, Vec<T>) {
    let f = randomized_svd(a, &RandomizedConfig::new(k), rng);
    (f.u, f.s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::orthogonality_error;
    use crate::random::{matrix_with_spectrum, seeded_rng};

    #[test]
    fn range_finder_captures_range() {
        let mut rng = seeded_rng(11);
        let spec = [10.0, 5.0, 2.0, 1.0, 0.5];
        let a = matrix_with_spectrum(60, 20, &spec, &mut rng);
        let q = randomized_range_finder(&a, &RandomizedConfig::new(5), &mut rng);
        assert!(orthogonality_error(&q) < 1e-12);
        // A ≈ Q Qᵀ A since A is exactly rank 5 and l = 15 ≥ 5.
        let proj = matmul(&q, &matmul_tn(&q, &a));
        assert!((&a - &proj).frobenius_norm() / a.frobenius_norm() < 1e-10);
    }

    #[test]
    fn randomized_svd_exact_on_low_rank() {
        let mut rng = seeded_rng(5);
        let spec = [8.0, 4.0, 2.0];
        let a = matrix_with_spectrum(80, 30, &spec, &mut rng);
        let f = randomized_svd(&a, &RandomizedConfig::new(3), &mut rng);
        assert_eq!(f.s.len(), 3);
        for (got, want) in f.s.iter().zip(&spec) {
            assert!((got - want).abs() < 1e-9, "sigma {got} vs {want}");
        }
        assert!(f.reconstruction_error(&a) < 1e-9);
    }

    #[test]
    fn randomized_svd_decaying_spectrum_close() {
        let mut rng = seeded_rng(17);
        let spec: Vec<f64> = (0..20).map(|i| 0.5f64.powi(i)).collect();
        let a = matrix_with_spectrum(100, 40, &spec, &mut rng);
        let k = 5;
        let f = randomized_svd(&a, &RandomizedConfig::new(k).with_power_iterations(2), &mut rng);
        for (got, want) in f.s.iter().zip(&spec[..k]) {
            assert!((got - want).abs() / want < 1e-3, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn power_iterations_improve_flat_spectrum() {
        let mut rng = seeded_rng(23);
        let spec: Vec<f64> = (0..30).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let a = matrix_with_spectrum(120, 30, &spec, &mut rng);
        let k = 5;
        let err = |q: usize, rng: &mut rand::rngs::StdRng| {
            let cfg = RandomizedConfig::new(k).with_oversampling(2).with_power_iterations(q);
            let f = randomized_svd(&a, &cfg, rng);
            (&a - &f.reconstruct()).frobenius_norm()
        };
        let e0 = err(0, &mut seeded_rng(1));
        let e3 = err(3, &mut seeded_rng(1));
        let best = {
            let f = svd(&a).truncated(k);
            (&a - &f.reconstruct()).frobenius_norm()
        };
        assert!(e3 <= e0 + 1e-12, "power iterations should not hurt: {e0} -> {e3}");
        assert!(e3 < 1.05 * best, "q=3 should be near-optimal: {e3} vs {best}");
    }

    #[test]
    fn range_finder_into_bitwise_matches_allocating() {
        let mut rng = seeded_rng(31);
        let a = matrix_with_spectrum(50, 18, &[6.0, 3.0, 1.0, 0.2], &mut rng);
        let cfg = RandomizedConfig::new(4).with_power_iterations(2);
        let base = randomized_range_finder(&a, &cfg, &mut seeded_rng(7));
        let mut ws = crate::workspace::Workspace::new();
        let mut q = Matrix::zeros(0, 0);
        randomized_range_finder_into(&a, &cfg, &mut seeded_rng(7), &mut q, &mut ws);
        assert_eq!(q, base, "workspace-fed range finder changed bits");
        // Warm repeat: same result, zero workspace misses.
        ws.reset_stats();
        randomized_range_finder_into(&a, &cfg, &mut seeded_rng(7), &mut q, &mut ws);
        assert_eq!(q, base);
        assert_eq!(ws.stats().misses, 0);
    }

    #[test]
    fn sketch_width_clamps_to_matrix() {
        let cfg = RandomizedConfig::new(50).with_oversampling(10);
        assert_eq!(cfg.sketch_width(20), 20);
        assert_eq!(cfg.sketch_width(100), 60);
    }

    #[test]
    fn low_rank_svd_shapes() {
        let mut rng = seeded_rng(2);
        let a = matrix_with_spectrum(40, 15, &[3.0, 1.0], &mut rng);
        let (u, s) = low_rank_svd(&a, 4, &mut rng);
        assert_eq!(u.shape(), (40, 4));
        assert_eq!(s.len(), 4);
        assert!(orthogonality_error(&u.first_columns(2)) < 1e-10);
    }

    #[test]
    fn zero_rank_request() {
        let mut rng = seeded_rng(9);
        let a = matrix_with_spectrum(10, 5, &[1.0], &mut rng);
        let cfg = RandomizedConfig { rank: 0, oversampling: 0, power_iterations: 0 };
        let f = randomized_svd(&a, &cfg, &mut rng);
        assert!(f.s.is_empty());
        assert_eq!(f.u.shape(), (10, 0));
    }
}
