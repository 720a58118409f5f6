//! Checkpoint/restart integration: a distributed streaming job is stopped
//! mid-stream, each rank's state saved to disk, a *new* world restores, and
//! the result is bit-identical to an uninterrupted run — the scheduler-
//! allocation-boundary scenario HPC streaming jobs face.

use pyparsvd::core::pod::distributed_pod;
use pyparsvd::core::SvdCheckpoint;
use pyparsvd::data::burgers::{snapshot_matrix, BurgersConfig};
use pyparsvd::data::partition::split_rows;
use pyparsvd::prelude::*;

fn dataset() -> Matrix {
    snapshot_matrix(&BurgersConfig { grid_points: 320, snapshots: 48, ..BurgersConfig::default() })
}

#[test]
fn distributed_restart_is_bit_exact() {
    let cfg = SvdConfig::new(4).with_forget_factor(0.95).with_r1(24).with_r2(24);
    restart_is_bit_exact(cfg);
    restart_is_bit_exact(cfg.with_low_rank(true).with_power_iterations(2));
}

/// Six batches over 4 ranks in one world vs three, checkpoints on disk,
/// and the other three in a fresh world: the same bits.
fn restart_is_bit_exact(cfg: SvdConfig) {
    let data = dataset();
    let n_ranks = 4;
    let batch = 8;
    let blocks = split_rows(&data, n_ranks);

    // Uninterrupted reference: all 6 batches in one world.
    let world = World::new(n_ranks);
    let straight = world.run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        d.fit_batched(&blocks[comm.rank()], batch);
        (d.gather_modes(0), d.singular_values().to_vec())
    });

    // Job 1: three batches, then checkpoint each rank to disk.
    let ckpt_path = |rank: usize| {
        let name = format!("psvd_restart_{}_{}_{rank}.ckp", std::process::id(), cfg.low_rank);
        std::env::temp_dir().join(name)
    };
    let world1 = World::new(n_ranks);
    world1.run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        let local = &blocks[comm.rank()];
        d.fit_batched(&local.submatrix(0, local.rows(), 0, 3 * batch), batch);
        d.checkpoint().save(&ckpt_path(comm.rank())).expect("save checkpoint");
    });

    // Job 2: a fresh world restores and finishes the stream.
    let world2 = World::new(n_ranks);
    let resumed = world2.run(|comm| {
        let ckpt = SvdCheckpoint::load(&ckpt_path(comm.rank())).expect("load checkpoint");
        let mut d = ParallelStreamingSvd::restore(comm, cfg, ckpt);
        assert_eq!(d.snapshots_seen(), 3 * batch);
        let local = &blocks[comm.rank()];
        for b in 3..6 {
            d.incorporate_data(&local.submatrix(0, local.rows(), b * batch, (b + 1) * batch));
        }
        (d.gather_modes(0), d.singular_values().to_vec())
    });
    for rank in 0..n_ranks {
        std::fs::remove_file(ckpt_path(rank)).ok();
    }

    let low_rank = cfg.low_rank;
    assert_eq!(straight[0].1, resumed[0].1, "singular values must be bit-identical ({low_rank})");
    assert_eq!(straight[0].0, resumed[0].0, "modes must be bit-identical ({low_rank})");
}

#[test]
fn distributed_pod_matches_serial_pod() {
    let data = dataset();
    let n_ranks = 4;
    let cfg = SvdConfig::new(3).with_forget_factor(1.0).with_r1(48).with_r2(48);
    let blocks = split_rows(&data, n_ranks);

    let serial = pyparsvd::core::pod::pod(&data, 3);

    let world = World::new(n_ranks);
    let out = world.run(|comm| {
        let p = distributed_pod(comm, &blocks[comm.rank()], cfg);
        (p.mean.clone(), p.modes.clone(), p.singular_values.clone())
    });

    // Means concatenate to the global mean.
    let mut global_mean = Vec::new();
    for (mean, _, _) in &out {
        global_mean.extend_from_slice(mean);
    }
    for (a, b) in global_mean.iter().zip(&serial.mean) {
        assert!((a - b).abs() < 1e-12);
    }
    // Modes concatenate to the serial POD modes (up to sign).
    let modes = Matrix::vstack_all(&out.iter().map(|(_, m, _)| m.clone()).collect::<Vec<_>>());
    let angle = pyparsvd::linalg::validate::max_principal_angle(&serial.modes, &modes);
    assert!(angle < 1e-6, "distributed POD subspace angle {angle}");
    // Singular values match.
    for (a, b) in out[0].2.iter().zip(&serial.singular_values) {
        assert!((a - b).abs() < 1e-8 * b.max(1.0), "{a} vs {b}");
    }
}

#[test]
fn serve_eviction_rehydration_is_bit_exact() {
    // The service-level restart scenario: one session is evicted to its
    // checkpoint blob and rehydrated repeatedly mid-stream, its twin never
    // leaves memory; both see the same columns and must agree bitwise.
    use pyparsvd::serve::{ServeConfig, SessionSpec, SvdServer};

    let data = dataset();
    let spec = SessionSpec::new(4, data.rows())
        .with_svd(SvdConfig::new(4).with_forget_factor(0.95).with_r1(24).with_r2(24))
        .with_ranks(4)
        .with_batch(8);
    let server = SvdServer::new(ServeConfig::default().with_workers(2));
    server.open("churned", spec).unwrap();
    server.open("resident", spec).unwrap();

    for start in (0..data.cols()).step_by(8) {
        let chunk = data.submatrix(0, data.rows(), start, (start + 8).min(data.cols()));
        server.submit("churned", chunk.clone()).unwrap();
        server.submit("resident", chunk).unwrap();
        server.drain();
        // Spill only the churned session; queries force rehydration.
        assert!(server.evict("churned").unwrap(), "idle session must evict");
        let churned_sigma = server.singular_values("churned").unwrap();
        assert_eq!(churned_sigma, server.singular_values("resident").unwrap());
    }

    let churned = server.model("churned").unwrap();
    let resident = server.model("resident").unwrap();
    assert_eq!(churned.singular_values, resident.singular_values);
    assert_eq!(churned.modes, resident.modes);
    assert_eq!(churned.snapshots_seen, resident.snapshots_seen);
    assert!(server.stats().snapshot().evictions >= 6, "every cycle must actually spill");
    assert_eq!(server.stats().snapshot().evictions, server.stats().snapshot().rehydrations);
    server.shutdown();
}
