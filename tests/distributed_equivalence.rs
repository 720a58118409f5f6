//! Cross-crate distributed pipelines: serial/parallel equivalence across
//! rank counts, the ncsim parallel-IO path, and traffic accounting.

use pyparsvd::data::burgers::{snapshot_matrix, BurgersConfig};
use pyparsvd::data::ncsim::{write_v2, NcsimReader, V2Options};
use pyparsvd::data::partition::split_rows;
use pyparsvd::linalg::validate::{max_principal_angle, spectrum_error};
use pyparsvd::prelude::*;

fn burgers_data() -> Matrix {
    snapshot_matrix(&BurgersConfig { grid_points: 384, snapshots: 48, ..BurgersConfig::default() })
}

#[test]
fn parallel_matches_serial_across_rank_counts() {
    let data = burgers_data();
    let k = 4;
    let batch = 12;
    let cfg = SvdConfig::new(k).with_forget_factor(0.95).with_r1(48).with_r2(48);

    let mut serial = SerialStreamingSvd::new(cfg);
    serial.fit_batched(&data, batch);

    for n_ranks in [1, 2, 3, 5, 8] {
        let blocks = split_rows(&data, n_ranks);
        let world = World::new(n_ranks);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&blocks[comm.rank()], batch);
            (d.gather_modes(0), d.singular_values().to_vec())
        });
        let err = spectrum_error(serial.singular_values(), &out[0].1);
        assert!(err < 1e-6, "{n_ranks} ranks: spectrum error {err}");
        let modes = out[0].0.as_ref().unwrap();
        let angle = max_principal_angle(serial.modes(), modes);
        assert!(angle < 1e-4, "{n_ranks} ranks: mode subspace angle {angle}");
    }
}

#[test]
fn randomized_parallel_close_to_deterministic_parallel() {
    let data = burgers_data();
    let k = 3;
    let blocks = split_rows(&data, 4);
    let base = SvdConfig::new(k).with_forget_factor(1.0).with_r1(24).with_r2(12);

    let run = |cfg: SvdConfig| {
        let world = World::new(4);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&blocks[comm.rank()], 16);
            d.singular_values().to_vec()
        });
        out[0].clone()
    };
    let det = run(base);
    let rand = run(base.with_low_rank(true).with_power_iterations(2).with_seed(11));
    for (d, r) in det.iter().zip(&rand) {
        assert!((d - r).abs() / d < 0.05, "deterministic {d} vs randomized {r}");
    }
}

#[test]
fn ncsim_hyperslab_pipeline_matches_in_memory() {
    let data = burgers_data();
    let path = std::env::temp_dir().join(format!("psvd_it_ncsim_{}.ncs", std::process::id()));
    write_v2(&path, "u", &data, V2Options::default()).unwrap();

    let k = 3;
    let cfg = SvdConfig::new(k).with_forget_factor(1.0).with_r1(48).with_r2(48);
    let n_ranks = 4;

    // In-memory reference.
    let blocks = split_rows(&data, n_ranks);
    let world_mem = World::new(n_ranks);
    let mem = world_mem.run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        d.fit_batched(&blocks[comm.rank()], 12);
        (d.gather_modes(0), d.singular_values().to_vec())
    });

    // File-backed run: each rank reads only its hyperslab.
    let world_io = World::new(n_ranks);
    let path_ref = &path;
    let io = world_io.run(|comm| {
        let mut reader = NcsimReader::open(path_ref).unwrap();
        let local = reader.read_rank_block(comm.size(), comm.rank()).unwrap();
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        d.fit_batched(&local, 12);
        (d.gather_modes(0), d.singular_values().to_vec())
    });
    std::fs::remove_file(&path).ok();

    assert_eq!(mem[0].1, io[0].1, "file-backed run must be bit-identical");
    assert_eq!(mem[0].0, io[0].0);
}

#[test]
fn rank0_receives_the_gather_concentration() {
    let data = burgers_data();
    let blocks = split_rows(&data, 6);
    let cfg = SvdConfig::new(3).with_r1(10).with_r2(6);
    let world = World::new(6);
    world.run(|comm| {
        let _ = parallel_svd_once(comm, cfg, &blocks[comm.rank()]);
    });
    let stats = world.stats();
    // Rank 0 receives W blocks from everyone; everyone else receives only
    // the broadcast.
    for r in 1..6 {
        assert!(
            stats.recv_bytes(0) > stats.recv_bytes(r),
            "rank 0 should be the receive bottleneck: {} vs rank {r}: {}",
            stats.recv_bytes(0),
            stats.recv_bytes(r)
        );
    }
}

#[test]
fn weak_scaling_traffic_per_rank_is_flat() {
    // Weak scaling: per-rank problem size constant. APMOS sends r1 columns
    // of length N from each rank regardless of world size, so *per-rank*
    // sent bytes must stay constant as ranks grow — the structural reason
    // Figure 1(c) looks near-ideal.
    let rows_per_rank = 64;
    let n = 24;
    // Pin the flat gather: a PSVD_TREE_FANOUT-seeded merge tree changes
    // the per-rank payload shape (bounds ride the wire) by design.
    let cfg = SvdConfig::new(3).with_r1(8).with_r2(6).with_tree_fanout(0);
    let mut per_rank = Vec::new();
    for n_ranks in [2, 4, 8] {
        let world = World::new(n_ranks);
        world.run(|comm| {
            let local = Matrix::from_fn(rows_per_rank, n, |i, j| {
                (((comm.rank() * rows_per_rank + i) * 7 + j * 13) as f64 * 0.1).sin()
            });
            let _ = parallel_svd_once(comm, cfg, &local);
        });
        // Non-root ranks all send the same W block; measure rank 1.
        per_rank.push(world.stats().sent_bytes(1));
    }
    assert_eq!(per_rank[0], per_rank[1], "per-rank traffic must not grow with world size");
    assert_eq!(per_rank[1], per_rank[2]);
}

#[test]
fn simulated_clocks_grow_with_world_size_at_root() {
    // With a network model, rank 0's simulated time grows with the number
    // of gathered messages — the communication term of the scaling model.
    let rows_per_rank = 32;
    let n = 16;
    let cfg = SvdConfig::new(2).with_r1(8).with_r2(4);
    let clock_for = |n_ranks: usize| {
        let world = World::with_model(n_ranks, NetworkModel::slow_ethernet());
        let (_, clocks) = world.run_with_clocks(|comm| {
            let local = Matrix::from_fn(rows_per_rank, n, |i, j| {
                ((i * 3 + j * 5 + comm.rank()) as f64 * 0.2).cos()
            });
            let _ = parallel_svd_once(comm, cfg, &local);
        });
        clocks.iter().cloned().fold(0.0, f64::max)
    };
    let t4 = clock_for(4);
    let t16 = clock_for(16);
    assert!(t16 > t4, "more ranks -> more gather traffic -> later clock: {t4} vs {t16}");
}

#[test]
fn randomized_knobs_reach_the_parallel_driver_and_the_merge_tree() {
    // Regression: the distributed inner SVDs used to hard-code p = 10,
    // q = 1. On a slowly decaying spectrum with a thin sketch, power
    // iterations must change the answer and move it towards the batch
    // SVD — through the flat exchange (2 ranks) and through interior
    // merge nodes (4 ranks, fanout 2), APMOS initialize and TSQR updates.
    let spec: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let a = pyparsvd::linalg::random::matrix_with_spectrum(
        160,
        40,
        &spec,
        &mut pyparsvd::linalg::random::seeded_rng(23),
    );
    let k = 5;
    let (_, s_ref) = batch_truncated_svd(&a, k);
    for (n_ranks, fanout) in [(2usize, 0usize), (4, 2)] {
        let sigma_err = |q: usize| {
            let cfg = SvdConfig::new(k)
                .with_forget_factor(1.0)
                .with_r1(40)
                .with_r2(40)
                .with_low_rank(true)
                .with_oversampling(2)
                .with_power_iterations(q)
                .with_seed(11)
                .with_tree_fanout(fanout);
            let blocks = split_rows(&a, n_ranks);
            let world = World::new(n_ranks);
            let out = world.run(|comm| {
                let mut d = ParallelStreamingSvd::new(comm, cfg);
                d.fit_batched(&blocks[comm.rank()], 20);
                d.singular_values().to_vec()
            });
            (spectrum_error(&s_ref, &out[0]), out.into_iter().next().unwrap())
        };
        let (e0, s0) = sigma_err(0);
        let (e3, s3) = sigma_err(3);
        assert_ne!(s0, s3, "{n_ranks} ranks: power_iterations must reach the inner SVDs");
        assert!(e3 < e0, "{n_ranks} ranks: q = 3 error {e3} should undercut q = 0 error {e0}");
    }
}
