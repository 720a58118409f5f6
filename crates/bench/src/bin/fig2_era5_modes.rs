//! Figure 2: coherent structures of the (synthetic) ERA5 surface-pressure
//! record.
//!
//! The paper shows maps of the first two SVD modes of 2013–2020 6-hourly
//! ERA5 pressure read through parallel NetCDF4. Here the dataset is the
//! planted-mode synthetic substitute (`DESIGN.md`), the IO path is `ncsim`
//! hyperslab reads (one file handle per rank), and — because the ground
//! truth is known — the figure's qualitative "coherent structures emerge"
//! claim becomes a measured recovery angle per mode.
//!
//! Writes `fig2_modes.csv` (each column one mode, reshape to nlat x nlon).
//!
//! ```text
//! cargo run -p psvd-bench --release --bin fig2_era5_modes            # 96x144, 2048 snaps
//! cargo run -p psvd-bench --release --bin fig2_era5_modes -- --tiny  # quick check
//! ```

use psvd_bench::{fmt_secs, time_it, Table};
use psvd_comm::{Communicator, World};
use psvd_core::postprocess::{sparkline, write_modes_csv};
use psvd_core::{ParallelStreamingSvd, SvdConfig};
use psvd_data::era5::{generate, Era5Config};
use psvd_data::ncsim::{write_v2, NcsimReader, V2Options};
use psvd_linalg::validate::max_principal_angle;
use psvd_linalg::Matrix;

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let cfg = if tiny {
        Era5Config { nlon: 36, nlat: 24, snapshots: 256, ..Era5Config::default() }
    } else {
        Era5Config::default() // 144 x 96 grid, 2048 snapshots, 4 planted modes
    };
    println!(
        "== Figure 2: synthetic ERA5 pressure, {} x {} grid, {} snapshots, noise {} ==\n",
        cfg.nlat, cfg.nlon, cfg.snapshots, cfg.noise_level
    );

    let (dataset, t_gen) = time_it(|| generate(&cfg));
    let path = std::env::temp_dir().join(format!("fig2_era5_{}.ncs", std::process::id()));
    write_v2(&path, "surface_pressure", &dataset.snapshots, V2Options::default())
        .expect("write ncsim");
    println!(
        "generated + wrote container in {} ({:.1} MB)",
        fmt_secs(t_gen),
        (dataset.snapshots.rows() * dataset.snapshots.cols() * 8) as f64 / 1e6
    );

    let n_ranks = 8;
    let k = cfg.n_modes + 4; // buffer modes beyond the structures of interest
    let svd_cfg = SvdConfig::new(k).with_forget_factor(1.0).with_r1(64).with_r2(16);
    let batch = cfg.snapshots / 8;
    let world = World::new(n_ranks);
    let path_ref = &path;
    let (out, t_run) = time_it(|| {
        world.run(|comm| {
            let mut reader = NcsimReader::open(path_ref).expect("open");
            let local = reader.read_rank_block(comm.size(), comm.rank()).expect("hyperslab");
            let mut d = ParallelStreamingSvd::new(comm, svd_cfg);
            d.fit_batched(&local, batch);
            (d.gather_modes(0), d.singular_values().to_vec())
        })
    });
    std::fs::remove_file(&path).ok();
    let modes = out[0].0.clone().expect("rank 0 gathers");
    println!(
        "distributed streaming SVD: {} ranks, {} batches, {} msgs / {:.0} kB in {}\n",
        n_ranks,
        cfg.snapshots / batch,
        world.stats().total_messages(),
        world.stats().total_bytes() as f64 / 1024.0,
        fmt_secs(t_run)
    );

    let table = Table::new(&["mode", "sigma (measured)", "sigma (planted)", "recovery angle"]);
    let scale = (cfg.snapshots as f64).sqrt();
    for j in 0..cfg.n_modes {
        let planted = Matrix::from_columns(&[dataset.true_modes.col(j)]);
        let got = Matrix::from_columns(&[modes.col(j)]);
        let angle = max_principal_angle(&planted, &got);
        table.row(&[
            format!("{}", j + 1),
            format!("{:.2}", out[0].1[j]),
            format!("{:.2}", dataset.amplitudes[j] * scale),
            format!("{angle:.4} rad"),
        ]);
    }

    println!("\nmode maps (zonal profile at the central latitude):");
    let mid = cfg.nlat / 2;
    for j in 0..2 {
        let col = modes.col(j);
        let zonal: Vec<f64> = (0..cfg.nlon).map(|x| col[mid * cfg.nlon + x]).collect();
        println!("  mode {}: {}", j + 1, sparkline(&zonal, 72));
    }
    write_modes_csv(std::path::Path::new("fig2_modes.csv"), &modes).expect("write csv");
    println!("\nwrote fig2_modes.csv (reshape each column to {} x {})", cfg.nlat, cfg.nlon);
}
