//! ERA5-style coherent-structure extraction — the paper's science
//! demonstration (Figure 2), with the parallel-IO path exercised end to
//! end:
//!
//! 1. generate a synthetic global-pressure dataset with planted modes;
//! 2. write it to an `ncsim` container (the NetCDF4 stand-in);
//! 3. each of 8 ranks reads *only its own hyperslab* from the file;
//! 4. run the distributed streaming SVD;
//! 5. gather the modes and verify they recover the planted structures.
//!
//! ```text
//! cargo run --release --example era5_coherent_structures
//! ```

use pyparsvd::core::postprocess::{sparkline, write_modes_csv};
use pyparsvd::data::era5::{generate, Era5Config};
use pyparsvd::data::ncsim::{write_v2, NcsimReader, V2Options};
use pyparsvd::linalg::validate::max_principal_angle;
use pyparsvd::prelude::*;

fn main() {
    let cfg = Era5Config {
        nlon: 72,
        nlat: 48,
        snapshots: 512,
        n_modes: 4,
        noise_level: 0.05,
        ..Era5Config::default()
    };
    println!(
        "synthetic ERA5 pressure: {} x {} grid, {} snapshots, {} planted modes",
        cfg.nlat, cfg.nlon, cfg.snapshots, cfg.n_modes
    );
    let dataset = generate(&cfg);

    // Parallel-IO path: one file, per-rank hyperslab reads.
    let path = std::env::temp_dir().join(format!("era5_demo_{}.ncs", std::process::id()));
    write_v2(&path, "surface_pressure", &dataset.snapshots, V2Options::default())
        .expect("write ncsim");
    println!("wrote {} ({} MB)", path.display(), dataset.snapshots.byte_mb());

    let n_ranks = 8;
    // Track buffer modes beyond the structures of interest: per-batch
    // truncation at exactly n_modes would slowly distort the weakest mode,
    // so give the stream headroom (standard practice for streaming PCA).
    let k = cfg.n_modes + 4;
    let svd_cfg = SvdConfig::new(k).with_forget_factor(1.0).with_r1(64).with_r2(16);
    let world = World::new(n_ranks);
    let path_ref = &path;
    let out = world.run(|comm| {
        // Each rank opens the file independently and reads its row block —
        // the access pattern of NetCDF4 parallel IO.
        let mut reader = NcsimReader::open(path_ref).expect("open ncsim");
        let local = reader.read_rank_block(comm.size(), comm.rank()).expect("hyperslab read");
        let mut driver = ParallelStreamingSvd::new(comm, svd_cfg);
        driver.fit_batched(&local, 128);
        (driver.gather_modes(0), driver.singular_values().to_vec())
    });
    std::fs::remove_file(&path).ok();

    let modes = out[0].0.clone().expect("rank 0 gathers");
    let s = &out[0].1;
    println!(
        "distributed run: {} messages, {:.1} kB total traffic",
        world.stats().total_messages(),
        world.stats().total_bytes() as f64 / 1024.0
    );

    println!(
        "\nleading singular values: {:?}",
        s.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    // Per-mode recovery: the strongest planted structures must align almost
    // perfectly; the weakest sits near the noise floor (sigma ~ 30 vs noise
    // sigma ~ 11), so Davis–Kahan predicts a visibly larger angle there.
    println!("per-mode recovery angles:");
    for j in 0..cfg.n_modes {
        let planted = Matrix::from_columns(&[dataset.true_modes.col(j)]);
        let got = Matrix::from_columns(&[modes.col(j)]);
        let a = max_principal_angle(&planted, &got);
        println!("  mode {}: {a:.4} rad", j + 1);
        if j < 2 {
            assert!(a < 0.15, "leading planted structures should be recovered, mode {j} angle {a}");
        }
    }
    let angle = max_principal_angle(&dataset.true_modes, &modes.first_columns(cfg.n_modes));
    println!(
        "full {}-mode subspace angle: {angle:.4} rad (limited by the weakest mode)",
        cfg.n_modes
    );

    // Figure-2-style output: first two modes as lat-lon fields.
    for mode in 0..2 {
        let col = modes.col(mode);
        println!("\nmode {} (zonal profile at mid-latitude):", mode + 1);
        let mid_lat = cfg.nlat / 2;
        let zonal: Vec<f64> = (0..cfg.nlon).map(|j| col[mid_lat * cfg.nlon + j]).collect();
        println!("  {}", sparkline(&zonal, 64));
    }
    let out_csv = std::path::PathBuf::from("era5_modes.csv");
    write_modes_csv(&out_csv, &modes).expect("write modes csv");
    println!(
        "\nwrote {} (reshape each column to {} x {} for maps)",
        out_csv.display(),
        cfg.nlat,
        cfg.nlon
    );
}

/// Small display helper: matrix size in MB.
trait ByteMb {
    fn byte_mb(&self) -> usize;
}

impl ByteMb for Matrix {
    fn byte_mb(&self) -> usize {
        self.rows() * self.cols() * 8 / (1024 * 1024)
    }
}
