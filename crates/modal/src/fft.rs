//! Fast Fourier transform (iterative radix-2 Cooley–Tukey, plus a Bluestein
//! fallback for arbitrary lengths).
//!
//! Powers the SPOD module: Welch-segmented spectral estimation FFTs each
//! grid point's time series. Implemented from scratch on [`Complex`].

use crate::complex::Complex;

/// In-place forward FFT. Length must be a power of two.
pub fn fft_pow2(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft_pow2: length {n} is not a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar(1.0, ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// In-place inverse FFT (normalized by `1/n`). Length must be a power of two.
pub fn ifft_pow2(data: &mut [Complex]) {
    let n = data.len();
    for z in data.iter_mut() {
        *z = z.conj();
    }
    fft_pow2(data);
    let scale = 1.0 / n as f64;
    for z in data.iter_mut() {
        *z = z.conj().scale(scale);
    }
}

/// Forward FFT of arbitrary length via Bluestein's chirp-z transform
/// (falls through to the radix-2 path when the length is a power of two).
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    if n.is_power_of_two() {
        let mut data = input.to_vec();
        fft_pow2(&mut data);
        return data;
    }
    // Bluestein: X_k = conj(w_k) * ( (x_j w_j) convolved with conj(w) )_k,
    // with w_j = e^{-i pi j^2 / n}, via power-of-two cyclic convolution.
    let m = (2 * n - 1).next_power_of_two();
    let chirp: Vec<Complex> = (0..n)
        .map(|j| {
            // j^2 mod 2n avoids precision loss for large j.
            let jj = (j * j) % (2 * n);
            Complex::from_polar(1.0, -std::f64::consts::PI * jj as f64 / n as f64)
        })
        .collect();
    let mut a = vec![Complex::ZERO; m];
    for j in 0..n {
        a[j] = input[j] * chirp[j];
    }
    let mut b = vec![Complex::ZERO; m];
    b[0] = chirp[0].conj();
    for j in 1..n {
        let c = chirp[j].conj();
        b[j] = c;
        b[m - j] = c;
    }
    fft_pow2(&mut a);
    fft_pow2(&mut b);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    ifft_pow2(&mut a);
    (0..n).map(|k| a[k] * chirp[k]).collect()
}

/// FFT of a real sequence; returns the full complex spectrum (length `n`).
pub fn rfft(input: &[f64]) -> Vec<Complex> {
    let data: Vec<Complex> = input.iter().map(|&x| Complex::real(x)).collect();
    fft(&data)
}

/// The FFT bin frequencies for sample spacing `dt` (cycles per unit time),
/// in standard FFT order (non-negative then negative frequencies).
pub fn fft_frequencies(n: usize, dt: f64) -> Vec<f64> {
    let df = 1.0 / (n as f64 * dt);
    (0..n)
        .map(|k| {
            let signed = if k <= (n - 1) / 2 { k as f64 } else { k as f64 - n as f64 };
            signed * df
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &x) in input.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += x * Complex::from_polar(1.0, ang);
                }
                acc
            })
            .collect()
    }

    fn wave(n: usize) -> Vec<Complex> {
        (0..n).map(|j| Complex::new((j as f64 * 0.7).sin(), (j as f64 * 0.3).cos())).collect()
    }

    #[test]
    fn matches_naive_dft_pow2() {
        let x = wave(32);
        let fast = fft(&x);
        let slow = naive_dft(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-10, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_lengths() {
        for n in [3usize, 5, 6, 7, 12, 15, 100] {
            let x = wave(n);
            let fast = fft(&x);
            let slow = naive_dft(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((*a - *b).abs() < 1e-9, "n={n}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn roundtrip_pow2() {
        let x = wave(64);
        let mut data = x.clone();
        fft_pow2(&mut data);
        ifft_pow2(&mut data);
        for (a, b) in data.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        let f = fft(&x);
        for z in f {
            assert!((z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<f64> = (0..n)
            .map(|j| (2.0 * std::f64::consts::PI * k0 as f64 * j as f64 / n as f64).cos())
            .collect();
        let f = rfft(&x);
        // Energy splits between bins k0 and n-k0, each with magnitude n/2.
        assert!((f[k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((f[n - k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (k, z) in f.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(z.abs() < 1e-9, "leak at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_identity() {
        let x = wave(48); // non-power-of-two
        let f = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = f.iter().map(|z| z.norm_sqr()).sum::<f64>() / 48.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn frequencies_layout() {
        let f = fft_frequencies(8, 0.5); // df = 1/(8*0.5) = 0.25
        assert_eq!(f[0], 0.0);
        assert!((f[1] - 0.25).abs() < 1e-15);
        assert!((f[4] - -1.0).abs() < 1e-15); // Nyquist mapped negative
        assert!((f[7] - -0.25).abs() < 1e-15);
        // Odd length: symmetric around zero without a Nyquist bin.
        let g = fft_frequencies(5, 1.0);
        assert!((g[2] - 0.4).abs() < 1e-15);
        assert!((g[3] - -0.4).abs() < 1e-15);
    }

    #[test]
    fn empty_and_single() {
        assert!(fft(&[]).is_empty());
        let one = fft(&[Complex::new(2.5, -1.0)]);
        assert_eq!(one, vec![Complex::new(2.5, -1.0)]);
    }
}
