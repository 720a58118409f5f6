//! In-situ distributed streaming SVD — the paper's motivating deployment:
//! a domain-decomposed simulation produces data that is analyzed *as it is
//! computed*, without ever assembling (or storing) the global snapshot
//! matrix.
//!
//! Four ranks each own a block of the Burgers grid. Every time step they
//! exchange one halo value per side (point-to-point messages over the same
//! communicator the SVD uses) and advance their block with the explicit
//! solver; at uniform *time* intervals each rank appends its local state to
//! a snapshot buffer, and whenever a batch fills, the distributed streaming
//! SVD absorbs it in place.
//!
//! At the end, the in-situ modes are validated against an offline SVD of
//! analytical snapshots over the same time window.
//!
//! Parameters are chosen so the explicit scheme can traverse the full
//! window: the stable step is diffusion-limited at `dx²/(2ν)`, so grid
//! resolution and Reynolds number trade against step count.
//!
//! ```text
//! cargo run --release --example insitu_streaming
//! ```

use pyparsvd::data::burgers::{snapshot_matrix, BurgersConfig};
use pyparsvd::data::partition::block_range;
use pyparsvd::data::solver::{stable_dt, step_with_halos};
use pyparsvd::linalg::validate::max_principal_angle;
use pyparsvd::prelude::*;

const TAG_HALO_LEFT: u64 = 1; // carries a value to the left neighbour
const TAG_HALO_RIGHT: u64 = 2; // carries a value to the right neighbour

fn main() {
    let cfg = BurgersConfig {
        grid_points: 512,
        snapshots: 160,
        reynolds: 100.0,
        ..BurgersConfig::default()
    };
    let k = 6;
    let batch = 20;
    let n_ranks = 4;
    let svd_cfg = SvdConfig::new(k).with_forget_factor(1.0).with_r1(50).with_r2(12);

    println!(
        "in-situ Burgers: {} points over {} ranks, Re = {}, {} snapshots over t in [0, {}]",
        cfg.grid_points, n_ranks, cfg.reynolds, cfg.snapshots, cfg.final_time
    );

    let world = World::new(n_ranks);
    let out = world.run(|comm| {
        let rank = comm.rank();
        let size = comm.size();
        let (r0, r1) = block_range(cfg.grid_points, size, rank);
        let grid = cfg.grid();
        let nu = 1.0 / cfg.reynolds;
        let dx = cfg.length / (cfg.grid_points - 1) as f64;

        // Local state from the analytical initial condition.
        let mut u: Vec<f64> = grid[r0..r1]
            .iter()
            .map(|&x| pyparsvd::data::burgers::analytical_solution(x, 0.0, cfg.reynolds))
            .collect();

        // Fixed stable step from the *global* initial velocity bound
        // (viscous Burgers dissipates, so the bound holds for all time).
        let local_max = u.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        let maxima = comm.gather(local_max, 0);
        let global_max = comm.bcast(maxima.map(|m| m.into_iter().fold(0.0, f64::max)), 0);
        let dt = stable_dt(dx, nu, global_max.max(1e-6));

        let sample_dt = cfg.final_time / cfg.snapshots as f64;
        let mut driver = ParallelStreamingSvd::new(comm, svd_cfg);
        let mut buffer: Vec<Vec<f64>> = Vec::with_capacity(batch);
        let mut sampled = 0;
        let mut time = 0.0;
        let mut step_count = 0usize;

        while sampled < cfg.snapshots {
            // Halo exchange: send boundary values to neighbours, receive
            // theirs (domain boundaries substitute zeros).
            if rank > 0 {
                comm.send(u[0], rank - 1, TAG_HALO_LEFT);
            }
            if rank + 1 < size {
                comm.send(*u.last().expect("nonempty block"), rank + 1, TAG_HALO_RIGHT);
            }
            let left = if rank > 0 { comm.recv::<f64>(rank - 1, TAG_HALO_RIGHT) } else { 0.0 };
            let right =
                if rank + 1 < size { comm.recv::<f64>(rank + 1, TAG_HALO_LEFT) } else { 0.0 };

            u = step_with_halos(&u, left, right, nu, dx, dt);
            if rank == 0 {
                u[0] = 0.0;
            }
            if rank + 1 == size {
                *u.last_mut().expect("nonempty") = 0.0;
            }
            time += dt;
            step_count += 1;

            // Sample at uniform time intervals.
            if time >= (sampled + 1) as f64 * sample_dt {
                buffer.push(u.clone());
                sampled += 1;
                if buffer.len() == batch || sampled == cfg.snapshots {
                    let cols: Vec<Vec<f64>> = std::mem::take(&mut buffer);
                    let block = Matrix::from_columns(&cols);
                    if driver.is_initialized() {
                        driver.incorporate_data(&block);
                    } else {
                        driver.initialize(&block);
                    }
                }
            }
        }
        (driver.gather_modes(0), driver.singular_values().to_vec(), step_count)
    });

    let modes = out[0].0.clone().expect("rank 0 gathers");
    println!(
        "simulation complete: {} solver steps/rank, {} messages total ({:.0} kB)",
        out[0].2,
        world.stats().total_messages(),
        world.stats().total_bytes() as f64 / 1024.0
    );
    println!("in-situ singular values: {:?}", &out[0].1[..4.min(out[0].1.len())]);

    // Offline reference: SVD of analytical snapshots over the same window.
    // The in-situ data carries the first-order scheme's O(dx) error, so
    // compare the leading subspace with a modest tolerance.
    let reference = snapshot_matrix(&cfg);
    let f = pyparsvd::linalg::svd(&reference);
    println!("offline singular values: {:?}", &f.s[..4]);
    let angle = max_principal_angle(&f.u.first_columns(2), &modes.first_columns(2));
    println!("angle between in-situ and offline analytical leading modes: {angle:.3} rad");
    assert!(
        angle < 0.2,
        "in-situ modes should resemble the offline analytical modes (angle {angle})"
    );
    println!("ok: coherent structures extracted in situ, no global matrix ever assembled");
}
