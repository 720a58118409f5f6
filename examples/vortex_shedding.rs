//! Vortex-shedding analysis — DMD on a synthetic cylinder wake, the
//! canonical modal-decomposition flow (Schmid 2010 introduced DMD on
//! exactly this configuration).
//!
//! The wake generator plants a steady base flow, a fundamental shedding
//! mode at `f_s`, and its first harmonic at `2 f_s`, optionally growing at
//! a known exponential rate (the instability's pre-saturation phase). DMD
//! must read all of it back from raw snapshots:
//!
//! ```text
//! cargo run --release --example vortex_shedding
//! ```

use pyparsvd::core::pod::pod;
use pyparsvd::core::postprocess::{sparkline, write_mode_pgm};
use pyparsvd::data::wake::{generate, WakeConfig};
use pyparsvd::modal::dmd::dmd;

fn main() {
    let cfg = WakeConfig {
        nx: 128,
        ny: 64,
        snapshots: 384,
        growth_rate: 0.08, // mild transient growth before saturation
        ..WakeConfig::default()
    };
    println!(
        "synthetic cylinder wake: {} x {} grid, {} snapshots, shedding at {} Hz (+harmonic), growth 0.08",
        cfg.nx, cfg.ny, cfg.snapshots, cfg.shedding_frequency
    );
    let data = generate(&cfg);

    // POD first: energy ranking (the oscillatory pairs show up as twins).
    let p = pod(&data, 5);
    println!(
        "\nPOD singular values: {:?}",
        p.singular_values.iter().map(|v| (v * 10.0).round() / 10.0).collect::<Vec<_>>()
    );

    // DMD: dynamics. Frequencies, growth rates, and modes.
    let d = dmd(&data, 5, cfg.dt);
    println!("\nDMD eigenvalue analysis (rank {}):", d.rank);
    println!("{:>12} {:>12} {:>14}", "freq (Hz)", "growth", "|amplitude|");
    let mut rows: Vec<(f64, f64, f64)> = d
        .continuous_eigenvalues()
        .iter()
        .zip(&d.amplitudes)
        .map(|(w, b)| (w.im / (2.0 * std::f64::consts::PI), w.re, b.abs()))
        .collect();
    rows.sort_by(|a, b| a.0.abs().partial_cmp(&b.0.abs()).unwrap());
    for (f, g, amp) in &rows {
        println!("{f:>12.4} {g:>12.4} {amp:>14.3}");
    }

    let f_s = cfg.shedding_frequency;
    let has = |target: f64, tol: f64| rows.iter().any(|(f, _, _)| (f.abs() - target).abs() < tol);
    assert!(has(0.0, 1e-3), "steady base-flow eigenvalue missing");
    assert!(has(f_s, 0.02), "fundamental missing");
    assert!(has(2.0 * f_s, 0.04), "harmonic missing");
    let fundamental =
        rows.iter().find(|(f, _, _)| (f.abs() - f_s).abs() < 0.02).expect("fundamental");
    assert!(
        (fundamental.1 - cfg.growth_rate).abs() < 0.01,
        "planted growth rate should be measured: {} vs {}",
        fundamental.1,
        cfg.growth_rate
    );
    println!(
        "\n-> recovered: steady mode, fundamental at {:.3} Hz growing at {:.3}, harmonic at {:.3} Hz",
        fundamental.0.abs(),
        fundamental.1,
        2.0 * f_s
    );

    // Mode maps: centerline profile of the fundamental's real part, plus a
    // PGM image of the full 2-D structure.
    let fund_idx = d
        .continuous_eigenvalues()
        .iter()
        .position(|w| (w.im / (2.0 * std::f64::consts::PI) - f_s).abs() < 0.02)
        .expect("fundamental index");
    let mode_re = d.modes.real_part();
    let centerline: Vec<f64> =
        (0..cfg.nx).map(|ix| mode_re[((cfg.ny / 2 - 3) * cfg.nx + ix, fund_idx)]).collect();
    println!("\nfundamental mode, off-center streamwise profile:");
    println!("  {}", sparkline(&centerline, 72));

    let pgm = std::path::PathBuf::from("wake_fundamental_mode.pgm");
    write_mode_pgm(&pgm, &mode_re, fund_idx, cfg.ny, cfg.nx).expect("write pgm");
    println!("wrote {} ({} x {} grayscale map)", pgm.display(), cfg.ny, cfg.nx);

    // Reconstruction closes the loop.
    let err = d.reconstruction_error(&data);
    println!("DMD reconstruction error over all snapshots: {err:.2e}");
    assert!(err < 1e-4, "rank-5 DMD should reconstruct the rank-5 wake");
}
