//! Real Schur decomposition via the Francis implicit double-shift QR
//! iteration: `A = Q T Qᵀ` with `Q` orthogonal and `T` quasi-upper
//! triangular (1×1 blocks for real eigenvalues, 2×2 blocks for complex
//! pairs).
//!
//! Completes the nonsymmetric eigen stack ([`crate::hessenberg`] →
//! here → [`crate::eig_general`]) that DMD builds on.

use crate::complex::Complex;
use crate::hessenberg::hessenberg;
use psvd_linalg::matrix::Matrix;

/// The real Schur factorization `a = q * t * qᵀ`.
#[derive(Clone, Debug)]
pub struct SchurFactors {
    /// Orthogonal Schur vectors.
    pub q: Matrix,
    /// Quasi-upper-triangular Schur form.
    pub t: Matrix,
}

/// 3-element Householder reflector annihilating `y` and `z` of `(x, y, z)`.
/// Returns `(v0, v1, v2, 2/vᵀv)` or `None` when nothing to do.
fn householder3(x: f64, y: f64, z: f64) -> Option<(f64, f64, f64, f64)> {
    let norm = (x * x + y * y + z * z).sqrt();
    if norm == 0.0 || (y == 0.0 && z == 0.0) {
        return None;
    }
    let alpha = if x >= 0.0 { -norm } else { norm };
    let v0 = x - alpha;
    let vn2 = v0 * v0 + y * y + z * z;
    if vn2 == 0.0 {
        return None;
    }
    Some((v0, y, z, 2.0 / vn2))
}

/// One Francis double-shift bulge chase on the active block `[low..=high]`.
/// `exceptional` substitutes ad-hoc shifts to break rare convergence cycles.
fn francis_step(t: &mut Matrix, q: &mut Matrix, low: usize, high: usize, exceptional: bool) {
    let n = t.rows();
    // Shift polynomial coefficients from the trailing 2x2 (trace s, det d).
    let (s, d) = if exceptional {
        let ex =
            t[(high, high - 1)].abs() + if high >= 2 { t[(high - 1, high - 2)].abs() } else { 0.0 };
        (1.5 * ex, ex * ex)
    } else {
        let a = t[(high - 1, high - 1)];
        let b = t[(high - 1, high)];
        let c = t[(high, high - 1)];
        let dd = t[(high, high)];
        (a + dd, a * dd - b * c)
    };

    // First column of (H - aI)(H - bI) restricted to the block.
    let h00 = t[(low, low)];
    let h10 = t[(low + 1, low)];
    let mut x = h00 * h00 + t[(low, low + 1)] * h10 - s * h00 + d;
    let mut y = h10 * (h00 + t[(low + 1, low + 1)] - s);
    let mut z = if low + 2 <= high { h10 * t[(low + 2, low + 1)] } else { 0.0 };

    for k in low..high - 1 {
        let Some((v0, v1, v2, beta)) = householder3(x, y, z) else {
            // Nothing to annihilate; advance the chase window.
            x = t[(k + 1, k)];
            y = t[(k + 2, k)];
            z = if k + 3 <= high { t[(k + 3, k)] } else { 0.0 };
            continue;
        };
        let rows = [k, k + 1, k + 2];
        // Left multiplication: rows k..k+2, columns from the chase front.
        let c0 = if k > low { k - 1 } else { low };
        for j in c0..n {
            let dot = v0 * t[(rows[0], j)] + v1 * t[(rows[1], j)] + v2 * t[(rows[2], j)];
            let sfac = beta * dot;
            t[(rows[0], j)] -= sfac * v0;
            t[(rows[1], j)] -= sfac * v1;
            t[(rows[2], j)] -= sfac * v2;
        }
        // Right multiplication: columns k..k+2, rows up to the bulge tip.
        let rmax = (k + 3).min(high);
        for i in 0..=rmax {
            let dot = v0 * t[(i, rows[0])] + v1 * t[(i, rows[1])] + v2 * t[(i, rows[2])];
            let sfac = beta * dot;
            t[(i, rows[0])] -= sfac * v0;
            t[(i, rows[1])] -= sfac * v1;
            t[(i, rows[2])] -= sfac * v2;
        }
        // Accumulate into the Schur vectors.
        for i in 0..n {
            let dot = v0 * q[(i, rows[0])] + v1 * q[(i, rows[1])] + v2 * q[(i, rows[2])];
            let sfac = beta * dot;
            q[(i, rows[0])] -= sfac * v0;
            q[(i, rows[1])] -= sfac * v1;
            q[(i, rows[2])] -= sfac * v2;
        }
        x = t[(k + 1, k)];
        y = t[(k + 2, k)];
        z = if k + 3 <= high { t[(k + 3, k)] } else { 0.0 };
    }

    // Final 2-element reflector on (x, y) acting on rows/cols high-1, high.
    let norm = x.hypot(y);
    if norm > 0.0 && y != 0.0 {
        let alpha = if x >= 0.0 { -norm } else { norm };
        let v0 = x - alpha;
        let v1 = y;
        let vn2 = v0 * v0 + v1 * v1;
        if vn2 > 0.0 {
            let beta = 2.0 / vn2;
            let (r0, r1) = (high - 1, high);
            let c0 = if high - 1 > low { high - 2 } else { low };
            for j in c0..n {
                let dot = v0 * t[(r0, j)] + v1 * t[(r1, j)];
                let sfac = beta * dot;
                t[(r0, j)] -= sfac * v0;
                t[(r1, j)] -= sfac * v1;
            }
            for i in 0..=high {
                let dot = v0 * t[(i, r0)] + v1 * t[(i, r1)];
                let sfac = beta * dot;
                t[(i, r0)] -= sfac * v0;
                t[(i, r1)] -= sfac * v1;
            }
            for i in 0..n {
                let dot = v0 * q[(i, r0)] + v1 * q[(i, r1)];
                let sfac = beta * dot;
                q[(i, r0)] -= sfac * v0;
                q[(i, r1)] -= sfac * v1;
            }
        }
    }

    // The chase restores Hessenberg structure up to round-off; clean the
    // sub-subdiagonal fill inside the block.
    for i in low + 2..=high {
        for j in low..i - 1 {
            t[(i, j)] = 0.0;
        }
    }
}

/// Real Schur decomposition of a square matrix.
pub fn real_schur(a: &Matrix) -> SchurFactors {
    let n = a.rows();
    assert_eq!(n, a.cols(), "real_schur: matrix must be square");
    let hf = hessenberg(a);
    let mut t = hf.h;
    let mut q = hf.q;
    if n <= 1 {
        return SchurFactors { q, t };
    }

    let eps = f64::EPSILON;
    let mut high = n - 1;
    let mut block_iters = 0usize;
    let max_total = 60 * n * n + 200;
    let mut total_iters = 0usize;

    loop {
        // Deflate negligible subdiagonals in the active region.
        for i in 1..=high {
            let scale = t[(i - 1, i - 1)].abs() + t[(i, i)].abs();
            if t[(i, i - 1)].abs() <= eps * scale.max(f64::MIN_POSITIVE) {
                t[(i, i - 1)] = 0.0;
            }
        }
        // Shrink from the bottom: converged 1x1 or 2x2 blocks.
        if t[(high, high - 1)] == 0.0 {
            if high == 1 {
                break;
            }
            high -= 1;
            block_iters = 0;
            continue;
        }
        if high >= 2 && t[(high - 1, high - 2)] == 0.0 {
            // Bottom 2x2 with complex (or tough real) eigenvalues: deflate
            // if its eigenvalues are complex; otherwise keep iterating to
            // split it. Complex pairs are final in REAL Schur form.
            let a11 = t[(high - 1, high - 1)];
            let a12 = t[(high - 1, high)];
            let a21 = t[(high, high - 1)];
            let a22 = t[(high, high)];
            let disc = (a11 - a22) * (a11 - a22) / 4.0 + a12 * a21;
            if disc < 0.0 {
                if high == 2 {
                    // Standardization of the final 2x2 is unnecessary for
                    // eigenvalue extraction.
                }
                if high < 3 {
                    break;
                }
                high -= 2;
                block_iters = 0;
                continue;
            }
            // Real eigenvalues in a 2x2: a single Givens splits it.
            split_real_2x2(&mut t, &mut q, high - 1);
            continue;
        }
        if high == 1 {
            // 2x2 total: same treatment as above.
            let a11 = t[(0, 0)];
            let a12 = t[(0, 1)];
            let a21 = t[(1, 0)];
            let a22 = t[(1, 1)];
            let disc = (a11 - a22) * (a11 - a22) / 4.0 + a12 * a21;
            if disc < 0.0 {
                break;
            }
            split_real_2x2(&mut t, &mut q, 0);
            if t[(1, 0)] == 0.0 {
                break;
            }
            continue;
        }

        // Active block start.
        let mut low = high;
        while low > 0 && t[(low, low - 1)] != 0.0 {
            low -= 1;
        }
        if high - low == 1 {
            // Unreduced 2x2 inside: handled by the bottom logic next pass.
        }

        total_iters += 1;
        block_iters += 1;
        if total_iters > max_total {
            debug_assert!(false, "Schur iteration failed to converge");
            break;
        }
        let exceptional = block_iters % 11 == 10;
        francis_step(&mut t, &mut q, low, high, exceptional);
    }

    SchurFactors { q, t }
}

/// Rotate a 2x2 diagonal block with real eigenvalues into upper-triangular
/// form (zeroing `t[b+1, b]`) with a Givens similarity.
fn split_real_2x2(t: &mut Matrix, q: &mut Matrix, b: usize) {
    let n = t.rows();
    let a11 = t[(b, b)];
    let a12 = t[(b, b + 1)];
    let a21 = t[(b + 1, b)];
    let a22 = t[(b + 1, b + 1)];
    let half = (a11 - a22) / 2.0;
    let disc = half * half + a12 * a21;
    debug_assert!(disc >= 0.0, "split_real_2x2 called on a complex block");
    // Eigenvalue closer to a22 for stability.
    let sq = disc.sqrt();
    let lambda = if half >= 0.0 {
        a22 - a12 * a21 / (half + sq).max(f64::MIN_POSITIVE)
    } else {
        a22 + a12 * a21 / (sq - half).max(f64::MIN_POSITIVE)
    };
    // Null vector of [a11-l, a12; a21, a22-l]: rotate (a11 - lambda, a21).
    let (c, s) = {
        let x = a11 - lambda;
        let r = x.hypot(a21);
        if r == 0.0 {
            (1.0, 0.0)
        } else {
            (x / r, a21 / r)
        }
    };
    // Similarity G(b, b+1, c, s): T <- Gᵀ T G, Q <- Q G where the rotation
    // sends the eigenvector (x, a21) to e1... apply as column+row rotation.
    for j in 0..n {
        let x0 = t[(b, j)];
        let x1 = t[(b + 1, j)];
        t[(b, j)] = c * x0 + s * x1;
        t[(b + 1, j)] = -s * x0 + c * x1;
    }
    for i in 0..n {
        let x0 = t[(i, b)];
        let x1 = t[(i, b + 1)];
        t[(i, b)] = c * x0 + s * x1;
        t[(i, b + 1)] = -s * x0 + c * x1;
    }
    for i in 0..q.rows() {
        let x0 = q[(i, b)];
        let x1 = q[(i, b + 1)];
        q[(i, b)] = c * x0 + s * x1;
        q[(i, b + 1)] = -s * x0 + c * x1;
    }
    // The rotation may leave round-off in the (b+1, b) slot; the deflation
    // scan in the main loop will zero it if negligible. Help it along when
    // it is clearly converged.
    let scale = t[(b, b)].abs() + t[(b + 1, b + 1)].abs();
    if t[(b + 1, b)].abs() <= f64::EPSILON * 8.0 * scale.max(f64::MIN_POSITIVE) {
        t[(b + 1, b)] = 0.0;
    }
}

/// Eigenvalues read off a real Schur form's diagonal blocks.
pub fn schur_eigenvalues(t: &Matrix) -> Vec<Complex> {
    let n = t.rows();
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        if i + 1 < n && t[(i + 1, i)] != 0.0 {
            let a = t[(i, i)];
            let b = t[(i, i + 1)];
            let c = t[(i + 1, i)];
            let d = t[(i + 1, i + 1)];
            let mean = (a + d) / 2.0;
            let disc = (a - d) * (a - d) / 4.0 + b * c;
            if disc >= 0.0 {
                let sq = disc.sqrt();
                out.push(Complex::real(mean + sq));
                out.push(Complex::real(mean - sq));
            } else {
                let sq = (-disc).sqrt();
                out.push(Complex::new(mean, sq));
                out.push(Complex::new(mean, -sq));
            }
            i += 2;
        } else {
            out.push(Complex::real(t[(i, i)]));
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_linalg::gemm::matmul;
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::random::{gaussian_matrix, seeded_rng};

    fn check_schur(a: &Matrix, tol: f64) -> SchurFactors {
        let f = real_schur(a);
        assert!(orthogonality_error(&f.q) < 1e-10, "Q not orthogonal");
        let rec = matmul(&matmul(&f.q, &f.t), &f.q.transpose());
        assert!(
            (&rec - a).max_abs() < tol * a.max_abs().max(1.0),
            "A != Q T Qᵀ (err {})",
            (&rec - a).max_abs()
        );
        // Quasi-triangular: no two consecutive subdiagonals, zeros below.
        let n = a.rows();
        for i in 0..n {
            for j in 0..i.saturating_sub(1) {
                assert_eq!(f.t[(i, j)], 0.0, "junk below subdiagonal at ({i},{j})");
            }
        }
        for i in 2..n {
            assert!(
                f.t[(i, i - 1)] == 0.0 || f.t[(i - 1, i - 2)] == 0.0,
                "consecutive subdiagonal entries at {i}"
            );
        }
        f
    }

    fn sorted_by_re_im(mut v: Vec<Complex>) -> Vec<Complex> {
        v.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap().then(a.im.partial_cmp(&b.im).unwrap()));
        v
    }

    #[test]
    fn random_matrices_factor() {
        for (n, seed) in [(2usize, 1u64), (3, 2), (5, 3), (8, 4), (12, 5), (20, 6)] {
            let a = gaussian_matrix(n, n, &mut seeded_rng(seed));
            check_schur(&a, 1e-9);
        }
    }

    #[test]
    fn rotation_matrix_complex_pair() {
        let th = 0.7f64;
        let a = Matrix::from_rows(&[vec![th.cos(), -th.sin()], vec![th.sin(), th.cos()]]);
        let f = check_schur(&a, 1e-12);
        let ev = schur_eigenvalues(&f.t);
        assert_eq!(ev.len(), 2);
        assert!((ev[0].abs() - 1.0).abs() < 1e-12);
        assert!((ev[0].arg().abs() - th).abs() < 1e-12, "eigenvalue angle {}", ev[0].arg());
        assert!((ev[0] - ev[1].conj()).abs() < 1e-12);
    }

    #[test]
    fn companion_matrix_known_roots() {
        // Companion of (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6.
        let a =
            Matrix::from_rows(&[vec![6.0, -11.0, 6.0], vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        let f = check_schur(&a, 1e-10);
        let ev = sorted_by_re_im(schur_eigenvalues(&f.t));
        for (got, want) in ev.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((got.re - want).abs() < 1e-9, "{got:?} vs {want}");
            assert!(got.im.abs() < 1e-9);
        }
    }

    #[test]
    fn symmetric_matches_jacobi_eigensolver() {
        let g = psvd_linalg::gemm::gram(&gaussian_matrix(12, 6, &mut seeded_rng(7)));
        let f = check_schur(&g, 1e-9);
        let mut schur_ev: Vec<f64> = schur_eigenvalues(&f.t).iter().map(|z| z.re).collect();
        schur_ev.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let jac = psvd_linalg::eig::sym_eig(&g);
        for (a, b) in schur_ev.iter().zip(&jac.values) {
            assert!((a - b).abs() < 1e-8 * jac.values[0].max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn trace_preserved_by_eigenvalues() {
        let a = gaussian_matrix(10, 10, &mut seeded_rng(8));
        let f = real_schur(&a);
        let ev = schur_eigenvalues(&f.t);
        let sum_re: f64 = ev.iter().map(|z| z.re).sum();
        let sum_im: f64 = ev.iter().map(|z| z.im).sum();
        let tr: f64 = (0..10).map(|i| a[(i, i)]).sum();
        assert!((sum_re - tr).abs() < 1e-9, "trace {tr} vs eigensum {sum_re}");
        assert!(sum_im.abs() < 1e-9, "imaginary parts must cancel");
    }

    #[test]
    fn defective_jordan_block() {
        // [[2, 1], [0, 2]] — defective; Schur form is itself.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]);
        let f = check_schur(&a, 1e-12);
        let ev = schur_eigenvalues(&f.t);
        for z in ev {
            assert!((z.re - 2.0).abs() < 1e-10 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn permutation_matrix_roots_of_unity() {
        // 4-cycle permutation: eigenvalues are the 4th roots of unity.
        let mut a = Matrix::zeros(4, 4);
        a[(0, 1)] = 1.0;
        a[(1, 2)] = 1.0;
        a[(2, 3)] = 1.0;
        a[(3, 0)] = 1.0;
        let f = check_schur(&a, 1e-10);
        let ev = schur_eigenvalues(&f.t);
        for z in &ev {
            assert!((z.abs() - 1.0).abs() < 1e-9, "|lambda| = {} for {z:?}", z.abs());
        }
        let n_real: usize = ev.iter().filter(|z| z.im.abs() < 1e-9).count();
        assert_eq!(n_real, 2, "two real roots (1, -1) expected: {ev:?}");
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_vec(1, 1, vec![-3.5]);
        let f = real_schur(&a);
        assert_eq!(f.t[(0, 0)], -3.5);
        assert_eq!(schur_eigenvalues(&f.t)[0], Complex::real(-3.5));
    }

    #[test]
    fn upper_triangular_input_fast_path() {
        let a =
            Matrix::from_rows(&[vec![1.0, 5.0, 2.0], vec![0.0, 4.0, -1.0], vec![0.0, 0.0, -2.0]]);
        let f = check_schur(&a, 1e-12);
        let ev = sorted_by_re_im(schur_eigenvalues(&f.t));
        let want = [-2.0, 1.0, 4.0];
        for (got, want) in ev.iter().zip(&want) {
            assert!((got.re - want).abs() < 1e-10);
        }
    }
}
