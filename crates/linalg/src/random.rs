//! Random matrix generation (Gaussian test matrices for the randomized
//! range finder, plus reproducible test fixtures).

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A standard-normal sampler without external statistics crates:
/// Marsaglia polar method over `rand`'s uniform source.
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

/// An `rows x cols` matrix with iid standard Gaussian entries from `rng`.
pub fn gaussian_matrix<R: rand::Rng>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    let dist = StandardNormal;
    Matrix::from_fn(rows, cols, |_, _| dist.sample(rng))
}

/// Overwrite `m` with iid standard Gaussians, drawing in the same
/// row-major order as [`gaussian_matrix`] — so, given the same RNG state
/// and shape, the result is bitwise identical, just without the fresh
/// allocation. This is what lets the workspace-fed randomized range
/// finder reuse its sketch buffer without changing any output bit.
pub fn fill_gaussian<T: Scalar, R: rand::Rng>(m: &mut Matrix<T>, rng: &mut R) {
    let dist = StandardNormal;
    for x in m.as_mut_slice() {
        *x = T::from_f64(dist.sample(rng));
    }
}

/// A seeded RNG for reproducible randomized algorithms.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A random matrix with prescribed singular values: `A = U diag(s) Vᵀ` with
/// Haar-ish orthogonal factors obtained by QR of Gaussian matrices. Used by
/// tests and benchmarks to control spectra exactly.
pub fn matrix_with_spectrum<R: rand::Rng>(
    rows: usize,
    cols: usize,
    spectrum: &[f64],
    rng: &mut R,
) -> Matrix {
    let p = rows.min(cols);
    assert!(spectrum.len() <= p, "spectrum longer than min dimension");
    let mut s = vec![0.0; p];
    s[..spectrum.len()].copy_from_slice(spectrum);
    let u = crate::qr::thin_qr(&gaussian_matrix(rows, p, rng)).q;
    let v = crate::qr::thin_qr(&gaussian_matrix(cols, p, rng)).q;
    crate::gemm::matmul(&u.mul_diag(&s), &v.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_moments() {
        let mut rng = seeded_rng(7);
        let m = gaussian_matrix(200, 50, &mut rng);
        let n = (m.rows() * m.cols()) as f64;
        let mean: f64 = m.as_slice().iter().sum::<f64>() / n;
        let var: f64 = m.as_slice().iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn seeded_is_reproducible() {
        let a = gaussian_matrix(5, 5, &mut seeded_rng(42));
        let b = gaussian_matrix(5, 5, &mut seeded_rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = gaussian_matrix(5, 5, &mut seeded_rng(1));
        let b = gaussian_matrix(5, 5, &mut seeded_rng(2));
        assert_ne!(a, b);
    }

    #[test]
    fn spectrum_is_realized() {
        let mut rng = seeded_rng(3);
        let spec = [5.0, 2.0, 1.0, 0.1];
        let a = matrix_with_spectrum(40, 12, &spec, &mut rng);
        let f = crate::svd::svd(&a);
        for (got, want) in f.s.iter().zip(&spec) {
            assert!((got - want).abs() < 1e-10, "sigma {got} vs {want}");
        }
        assert!(f.s[4] < 1e-10);
    }
}
