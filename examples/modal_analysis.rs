//! Modal analysis toolbox tour: POD vs DMD vs SPOD on the same dataset.
//!
//! Section 2 of the paper motivates the SVD through this family of
//! data-driven decompositions. Here a synthetic flow-like field combines a
//! *traveling* wave (advecting structure, frequency f1) and a *standing*
//! oscillation (frequency f2) plus noise, and each method reveals what it
//! is built to see:
//!
//! - **POD** (energy-ranked spatial structures): needs two real modes per
//!   traveling wave;
//! - **DMD** (linear dynamics): isolates each oscillation's complex
//!   eigenvalue — read off the frequencies;
//! - **SPOD** (frequency-resolved POD): shows the energy concentrated at
//!   f1 and f2, with the traveling wave captured by a single complex mode.
//!
//! (Each oscillation carries two independent spatial patterns — its cos and
//! sin quadratures — because a pure one-pattern "cos(ωt)" signal is not the
//! output of any linear evolution and would defeat DMD by construction.)
//!
//! ```text
//! cargo run --release --example modal_analysis
//! ```

use pyparsvd::core::pod::pod;
use pyparsvd::core::postprocess::sparkline;
use pyparsvd::linalg::random::{seeded_rng, StandardNormal};
use pyparsvd::modal::dmd::dmd;
use pyparsvd::modal::spod::{spod, SpodConfig};
use pyparsvd::prelude::*;
use rand::distributions::Distribution;

fn main() {
    let m = 128; // grid points
    let n = 1024; // snapshots
    let dt = 0.05;
    let f1 = 1.2; // traveling wave frequency (cycles/unit time)
    let f2 = 2.7; // second (elliptic/standing-like) oscillation frequency
    let tau = 2.0 * std::f64::consts::PI;

    let mut rng = seeded_rng(7);
    let normal = StandardNormal;
    let mut data = Matrix::zeros(m, n);
    for t in 0..n {
        let time = t as f64 * dt;
        for i in 0..m {
            let x = i as f64 / m as f64 * tau;
            let traveling = 2.0 * (3.0 * x - tau * f1 * time).cos();
            let standing = 1.0 * (5.0 * x).sin() * (tau * f2 * time).cos()
                + 0.4 * (9.0 * x).cos() * (tau * f2 * time).sin();
            data[(i, t)] = traveling + standing + 0.05 * normal.sample(&mut rng);
        }
    }
    println!("dataset: {m} x {n}, traveling wave at {f1} Hz + oscillating structure at {f2} Hz + noise\n");

    // --- POD ---
    let p = pod(&data, 6);
    println!(
        "POD singular values: {:?}",
        p.singular_values.iter().map(|v| (v * 10.0).round() / 10.0).collect::<Vec<_>>()
    );
    println!("  (the traveling wave consumes TWO energy-paired real modes: sigma_1 ~ sigma_2)");
    println!("  mode 1: {}", sparkline(&p.modes.col(0), 64));
    println!("  mode 2: {}", sparkline(&p.modes.col(1), 64));

    // --- DMD ---
    let d = dmd(&data, 6, dt);
    let mut freqs: Vec<f64> = d.frequencies().iter().map(|f| f.abs()).collect();
    freqs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    freqs.dedup_by(|a, b| (*a - *b).abs() < 0.05);
    println!(
        "\nDMD frequencies (cycles/unit time): {:?}",
        freqs.iter().map(|f| (f * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    let found_f1 = freqs.iter().any(|&f| (f - f1).abs() < 0.05);
    let found_f2 = freqs.iter().any(|&f| (f - f2).abs() < 0.05);
    assert!(found_f1 && found_f2, "DMD must isolate both planted frequencies");
    println!("  -> both planted frequencies isolated as complex eigenvalues");

    // --- SPOD ---
    let s = spod(&data, &SpodConfig::new(128, dt).with_n_modes(2));
    let spectrum = s.spectrum();
    println!("\nSPOD spectrum (energy vs frequency):");
    let energies: Vec<f64> = spectrum.iter().map(|(_, e)| *e).collect();
    println!("  {}", sparkline(&energies, 65));
    // Peaks at the planted frequencies?
    let near = |target: f64| {
        spectrum
            .iter()
            .filter(|(f, _)| (f - target).abs() < 0.2)
            .map(|(_, e)| *e)
            .fold(0.0, f64::max)
    };
    let background: f64 = energies.iter().sum::<f64>() / energies.len() as f64;
    println!(
        "  energy at {f1} Hz: {:.2} | at {f2} Hz: {:.2} | spectrum mean: {background:.2}",
        near(f1),
        near(f2)
    );
    assert!(near(f1) > 5.0 * background, "SPOD must peak at the traveling-wave frequency");
    assert!(near(f2) > 2.0 * background, "SPOD must peak at the second frequency");

    // The traveling wave needs ONE complex SPOD mode (energies of the peak
    // bin are strongly ordered), unlike POD's paired real modes.
    let peak_bin = s
        .frequencies
        .iter()
        .max_by(|a, b| {
            a.energies.iter().sum::<f64>().partial_cmp(&b.energies.iter().sum::<f64>()).unwrap()
        })
        .expect("nonempty spectrum");
    println!(
        "  peak bin modal energies: [{:.2}, {:.2}] -> single complex mode carries the wave",
        peak_bin.energies[0], peak_bin.energies[1]
    );
    println!("\nok: three SVD-based decompositions, one substrate");
}
