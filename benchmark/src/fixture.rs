//! Seeded input synthesis. Everything the program sees is generated here
//! from `--seed`; the same seed gives the same bytes.
//!
//! The record is `A = P · diag(a) · C + noise`: `P` are planted
//! orthonormal spatial modes, `C` unit-RMS sinusoids with seeded phases,
//! `a` geometrically decaying amplitudes. Because `P` is known, the
//! leading singular values have a cheap oracle — the singular values of
//! the (forget-weighted) `PᵀA`, accumulated as a small Gram matrix — that
//! is accurate to second order in the noise (see [`GramOracle`]).

use psvd_linalg::gemm::matmul_tn;
use psvd_linalg::qr::thin_qr;
use psvd_linalg::Matrix;

/// xoshiro256** seeded through splitmix64.
pub struct Rng {
    s: [u64; 4],
    spare: Option<f64>,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Self { s: [next(), next(), next(), next()], spare: None }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller, both variates used).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let r = (-2.0 * (1.0 - self.uniform()).ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * self.uniform()).sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }
}

/// A planted-mode snapshot record, generated batch by batch.
pub struct Planted {
    /// `M x r` orthonormal spatial modes, strongest first.
    pub modes: Matrix,
    amplitudes: Vec<f64>,
    cycles: Vec<f64>,
    phases: Vec<f64>,
    noise: f64,
    /// Columns in one period of the temporal coefficients.
    period: usize,
}

impl Planted {
    /// `r` smooth modes over `m` points: sinusoids of increasing
    /// wavenumber under a seeded random perturbation, orthonormalized.
    pub fn new(m: usize, r: usize, period: usize, noise: f64, rng: &mut Rng) -> Self {
        let jitter: Vec<f64> = (0..r).map(|_| rng.uniform()).collect();
        let raw = Matrix::from_fn(m, r, |i, k| {
            let x = (i as f64 + 0.5) / m as f64;
            let wave = std::f64::consts::PI * (k + 1) as f64;
            (wave * x + jitter[k]).sin() + 0.3 * (2.7 * wave * x * (1.0 + jitter[k])).cos()
        });
        Self {
            modes: thin_qr(&raw).q,
            amplitudes: (0..r).map(|k| 10.0 * 0.8f64.powi(k as i32)).collect(),
            cycles: (0..r).map(|k| 1.0 + 2.0 * k as f64).collect(),
            phases: (0..r).map(|_| std::f64::consts::TAU * rng.uniform()).collect(),
            noise,
            period,
        }
    }

    pub fn rank(&self) -> usize {
        self.modes.cols()
    }

    /// Temporal coefficients of columns `[c0, c0 + b)`, `r x b` row-major,
    /// amplitudes included.
    fn coefficients(&self, c0: usize, b: usize) -> Vec<f64> {
        let mut coeff = vec![0.0; self.rank() * b];
        for k in 0..self.rank() {
            for j in 0..b {
                let t = (c0 + j) as f64 / self.period as f64;
                let phase = std::f64::consts::TAU * self.cycles[k] * t + self.phases[k];
                coeff[k * b + j] = self.amplitudes[k] * std::f64::consts::SQRT_2 * phase.sin();
            }
        }
        coeff
    }

    /// Rows `[r0, r1)` of columns `[c0, c0 + b)`, row-major. Noise is
    /// drawn in row-major order, so a record generated panel by panel is
    /// the same bytes however the panels are cut.
    pub fn rows(&self, r0: usize, r1: usize, c0: usize, b: usize, rng: &mut Rng) -> Matrix {
        let coeff = self.coefficients(c0, b);
        let mut out = Matrix::zeros(r1 - r0, b);
        for i in r0..r1 {
            let p = self.modes.row(i);
            for (j, v) in out.row_mut(i - r0).iter_mut().enumerate() {
                let mut acc = self.noise * rng.normal();
                for (k, pk) in p.iter().enumerate() {
                    acc += pk * coeff[k * b + j];
                }
                *v = acc;
            }
        }
        out
    }

    /// Columns `[c0, c0 + b)` of the record as an `M x b` batch.
    pub fn batch(&self, c0: usize, b: usize, rng: &mut Rng) -> Matrix {
        self.rows(0, self.modes.rows(), c0, b, rng)
    }
}

/// Oracle for the leading singular values of a forget-weighted stream:
/// `S ← ff²·S + G Gᵀ` with `G = Pᵀ A_j` per ingested batch; the singular
/// values of the streamed record restricted to the planted subspace are
/// the square roots of `S`'s eigenvalues.
pub struct GramOracle {
    s: Matrix,
    ff2: f64,
}

impl GramOracle {
    pub fn new(r: usize, forget_factor: f64) -> Self {
        Self { s: Matrix::zeros(r, r), ff2: forget_factor * forget_factor }
    }

    /// `Pᵀ A` for one batch (`r x b`) — computed once per distinct batch.
    pub fn project(modes: &Matrix, batch: &Matrix) -> Matrix {
        matmul_tn(modes, batch)
    }

    pub fn ingest(&mut self, g: &Matrix) {
        let r = self.s.rows();
        for a in 0..r {
            for b in 0..r {
                let dot: f64 = g.row(a).iter().zip(g.row(b)).map(|(x, y)| x * y).sum();
                self.s[(a, b)] = self.ff2 * self.s[(a, b)] + dot;
            }
        }
    }

    /// Oracle singular values, descending.
    pub fn sigma(&self) -> Vec<f64> {
        psvd_linalg::svd(&self.s).s.iter().map(|e| e.sqrt()).collect()
    }
}

/// Max relative deviation of the leading `n` values of `got` from `want`.
pub fn max_rel_err(got: &[f64], want: &[f64], n: usize) -> f64 {
    got.iter().zip(want).take(n).map(|(g, w)| (g - w).abs() / w.abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let make = |seed| {
            let mut rng = Rng::new(seed);
            let p = Planted::new(300, 4, 64, 0.05, &mut rng);
            p.batch(8, 8, &mut rng)
        };
        assert_eq!(make(3), make(3));
        assert_ne!(make(3), make(4));
    }

    #[test]
    fn gram_oracle_matches_a_dense_svd_of_the_weighted_record() {
        let mut rng = Rng::new(11);
        let p = Planted::new(400, 3, 32, 0.0, &mut rng);
        let ff = 0.9;
        let mut oracle = GramOracle::new(3, ff);
        let batches: Vec<Matrix> = (0..4).map(|j| p.batch(8 * j, 8, &mut rng)).collect();
        let mut weighted = batches[0].scaled(ff.powi(3));
        for (j, b) in batches.iter().enumerate() {
            oracle.ingest(&GramOracle::project(&p.modes, b));
            if j > 0 {
                weighted = weighted.hstack(&b.scaled(ff.powi(3 - j as i32)));
            }
        }
        let dense = psvd_linalg::svd(&weighted).s;
        assert!(max_rel_err(&oracle.sigma(), &dense, 3) < 1e-10);
    }
}
