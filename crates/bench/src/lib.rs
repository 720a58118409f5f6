//! # psvd-bench
//!
//! Figure harness for the PyParSVD reproduction. Each `fig*` binary
//! regenerates one figure of the paper's evaluation (Section 4.3) and each
//! `ablation_*` binary sweeps one design knob called out in `DESIGN.md`.
//! Performance is measured elsewhere: `benchmark/` (`psvd-e2e`) is the
//! repository's one benchmark.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1ab` | Fig. 1(a,b): serial vs parallel+randomized Burgers modes |
//! | `fig1c_weak_scaling` | Fig. 1(c): weak scaling to 256 ranks |
//! | `fig2_era5_modes` | Fig. 2: ERA5-style coherent structures |
//! | `ablation_forget_factor` | forget-factor sweep |
//! | `ablation_truncation` | r1/r2 accuracy-vs-traffic sweep |
//! | `ablation_randomized` | oversampling / power-iteration sweep |
//! | `ablation_batch_size` | streaming batch-size sweep |
//! | `ablation_baselines` | Levy–Lindenbaum vs randomized vs one-shot |

use std::time::Instant;

/// Fixed-width table printer for harness output.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table by printing the header and remembering column widths.
    pub fn new(headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(12)).collect();
        let cells: Vec<String> =
            headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
        println!("{}", cells.join("  "));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        Self { widths }
    }

    /// Print one row (cells formatted by the caller).
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "cell count mismatch");
        let padded: Vec<String> =
            cells.iter().zip(&self.widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", padded.join("  "));
    }
}

/// Wall-clock a closure, returning `(result, seconds)`.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Calibrate this host's dense-kernel throughput (flops/second) with a
/// short GEMM, used to convert analytic flop counts into simulated compute
/// seconds for the weak-scaling model.
pub fn calibrate_flops_per_sec() -> f64 {
    use psvd_linalg::gemm::matmul;
    use psvd_linalg::Matrix;
    let n = 192;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 3 + j) as f64 * 0.01).sin());
    let b = Matrix::from_fn(n, n, |i, j| ((i + 5 * j) as f64 * 0.02).cos());
    // Warm up, then measure.
    let _ = matmul(&a, &b);
    let (_, secs) = time_it(|| matmul(&a, &b));
    let flops = 2.0 * (n as f64).powi(3);
    flops / secs.max(1e-9)
}

/// Format seconds for table output (µs/ms/s autoscaling).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.2} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive() {
        let rate = calibrate_flops_per_sec();
        assert!(rate > 1e6, "implausible flop rate {rate}");
    }

    #[test]
    fn fmt_secs_scales() {
        assert!(fmt_secs(2e-6).ends_with("us"));
        assert!(fmt_secs(2e-3).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }

    #[test]
    fn time_it_returns_result() {
        let (x, secs) = time_it(|| 41 + 1);
        assert_eq!(x, 42);
        assert!(secs >= 0.0);
    }
}
