//! Postprocessing: CSV/report emission and terminal plots.
//!
//! PyParSVD ships a `postprocessing` module that plots singular values and
//! modes; in a terminal-first Rust reproduction the equivalents are CSV
//! writers (consumable by any plotting tool) and compact ASCII sparklines
//! for quick inspection in logs and example output.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use psvd_linalg::Matrix;

/// Write singular values as `index,value` CSV.
pub fn write_singular_values_csv(path: &Path, s: &[f64]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "index,singular_value")?;
    for (i, v) in s.iter().enumerate() {
        writeln!(out, "{i},{v:.17e}")?;
    }
    out.flush()
}

/// Write modes (columns of `u`) as CSV: `point,mode_0,mode_1,...`.
pub fn write_modes_csv(path: &Path, u: &Matrix) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let header: Vec<String> = (0..u.cols()).map(|j| format!("mode_{j}")).collect();
    writeln!(out, "point,{}", header.join(","))?;
    for i in 0..u.rows() {
        let row: Vec<String> = u.row(i).iter().map(|v| format!("{v:.17e}")).collect();
        writeln!(out, "{i},{}", row.join(","))?;
    }
    out.flush()
}

/// A one-line unicode sparkline of a series (resampled to `width` cells).
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let mut out = String::with_capacity(width * 3);
    for c in 0..width {
        // Average the bucket of values mapped to this cell.
        let start = c * values.len() / width;
        let end = (((c + 1) * values.len()) / width).max(start + 1).min(values.len());
        let avg: f64 = values[start..end].iter().sum::<f64>() / (end - start) as f64;
        let level = (((avg - lo) / span) * 7.0).round().clamp(0.0, 7.0) as usize;
        out.push(BARS[level]);
    }
    out
}

/// A multi-line summary of a factorization: spectrum sparkline plus the
/// values, and one sparkline per mode.
pub fn summarize(s: &[f64], modes: &Matrix, max_modes: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "singular values ({}): {}", s.len(), sparkline(s, 32));
    let shown: Vec<String> = s.iter().take(8).map(|v| format!("{v:.4e}")).collect();
    let _ = writeln!(out, "  leading: [{}]", shown.join(", "));
    let mut col = Vec::with_capacity(modes.rows());
    for j in 0..modes.cols().min(max_modes) {
        col.clear();
        col.extend(modes.col_iter(j));
        let _ = writeln!(out, "mode {j}: {}", sparkline(&col, 48));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("psvd_post_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn singular_values_csv_roundtrip() {
        let path = tmp("sv");
        write_singular_values_csv(&path, &[3.0, 1.5, 0.25]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "index,singular_value");
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("0,3."));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn modes_csv_has_header_and_rows() {
        let path = tmp("modes");
        let u = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        write_modes_csv(&path, &u).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("point,mode_0,mode_1\n"));
        assert_eq!(text.lines().count(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sparkline_shape() {
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(line.chars().count(), 4);
        // Monotone input -> non-decreasing bars.
        let levels: Vec<u32> = line.chars().map(|c| c as u32).collect();
        assert!(levels.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sparkline_handles_constant_and_empty() {
        assert_eq!(sparkline(&[], 10), "");
        let flat = sparkline(&[5.0; 16], 8);
        assert_eq!(flat.chars().count(), 8);
    }

    #[test]
    fn summarize_mentions_modes() {
        let u = Matrix::from_fn(10, 3, |i, j| ((i * (j + 1)) as f64).sin());
        let text = summarize(&[2.0, 1.0, 0.5], &u, 2);
        assert!(text.contains("singular values (3)"));
        assert!(text.contains("mode 0"));
        assert!(text.contains("mode 1"));
        assert!(!text.contains("mode 2"));
    }
}
