//! Ablation A5: streaming/truncated SVD algorithm baselines.
//!
//! The paper builds on Levy–Lindenbaum, and the randomized SVD is the
//! one-shot alternative when the matrix fits in memory. This harness runs
//! both on the same tall snapshot matrices and reports accuracy vs the
//! exact truncated SVD and wall time:
//!
//! - `levy-lindenbaum` — this library's streaming driver (each batch
//!   projected onto the modes, only the `M x B` residual factored:
//!   `O(MKB + MB²)` per batch);
//! - `randomized` — one-shot randomized SVD (q = 2);
//! - `one-shot` — the deterministic truncated SVD (ground truth, also timed).
//!
//! ```text
//! cargo run -p psvd-bench --release --bin ablation_baselines
//! ```

use psvd_bench::{fmt_secs, time_it, Table};
use psvd_core::{batch_truncated_svd, SerialStreamingSvd, SvdConfig};
use psvd_data::burgers::{snapshot_matrix, BurgersConfig};
use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
use psvd_linalg::randomized::{randomized_svd, RandomizedConfig};
use psvd_linalg::validate::{max_principal_angle, spectrum_error};
use psvd_linalg::Matrix;

fn compare(name: &str, data: &Matrix, k: usize, batch: usize) {
    println!("-- {name}: {} x {}, K = {k}, batch = {batch} --\n", data.rows(), data.cols());
    let ((u_ref, s_ref), t_ref) = time_it(|| batch_truncated_svd(data, k));

    let table = Table::new(&["algorithm", "time", "spectrum err", "subspace angle"]);
    let report = |name: &str, t: f64, s: &[f64], u: &Matrix| {
        table.row(&[
            name.to_string(),
            fmt_secs(t),
            format!("{:.3e}", spectrum_error(&s_ref, s)),
            format!("{:.3e}", max_principal_angle(&u_ref, u)),
        ]);
    };
    report("one-shot (exact)", t_ref, &s_ref, &u_ref);

    let (ll, t_ll) = time_it(|| {
        let mut s = SerialStreamingSvd::new(SvdConfig::new(k).with_forget_factor(1.0));
        s.fit_batched(data, batch);
        s
    });
    report("levy-lindenbaum", t_ll, ll.singular_values(), ll.modes());

    let (rand_svd, t_rand) = time_it(|| {
        let mut rng = seeded_rng(4);
        randomized_svd(data, &RandomizedConfig::new(k).with_power_iterations(2), &mut rng)
    });
    report("randomized q=2", t_rand, &rand_svd.s, &rand_svd.u);
    println!();
}

fn main() {
    println!("== A5: algorithm baselines on identical data ==\n");

    let burgers = snapshot_matrix(&BurgersConfig {
        grid_points: 4096,
        snapshots: 256,
        ..BurgersConfig::default()
    });
    compare("Burgers (physical, slow spectral decay)", &burgers, 10, 32);

    let mut rng = seeded_rng(1);
    let spec: Vec<f64> = (0..60).map(|i| 8.0 * 0.8f64.powi(i)).collect();
    let synthetic = matrix_with_spectrum(8192, 128, &spec, &mut rng);
    compare("synthetic (geometric decay)", &synthetic, 10, 16);

    println!("expected: streaming trades a little accuracy for batch-sized memory.");
}
