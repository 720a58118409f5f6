//! End-to-end serial streaming pipelines on the paper's workloads,
//! including out-of-core ingestion through the ncsim v2 prefetcher.

use pyparsvd::data::burgers::{snapshot_matrix, BurgersConfig};
use pyparsvd::data::era5::{generate, Era5Config};
use pyparsvd::data::ncsim::{write_v2, Codec, V2Options};
use pyparsvd::data::partition::block_range;
use pyparsvd::data::prefetch::SnapshotPrefetcher;
use pyparsvd::data::stream::{column_batches, MatrixBatchSource};
use pyparsvd::linalg::norms::orthogonality_error;
use pyparsvd::linalg::validate::{max_principal_angle, spectrum_error};
use pyparsvd::prelude::*;

fn burgers_small() -> Matrix {
    snapshot_matrix(&BurgersConfig { grid_points: 512, snapshots: 80, ..BurgersConfig::default() })
}

#[test]
fn burgers_streaming_tracks_batch_svd() {
    let data = burgers_small();
    let k = 6;
    let mut svd = SerialStreamingSvd::new(SvdConfig::new(k).with_forget_factor(1.0));
    for batch in column_batches(&data, 20) {
        if svd.is_initialized() {
            svd.incorporate_data(&batch);
        } else {
            svd.initialize(&batch);
        }
    }
    let (u_ref, s_ref) = batch_truncated_svd(&data, k);
    assert!(
        spectrum_error(&s_ref[..3], &svd.singular_values()[..3]) < 0.01,
        "leading Burgers singular values should match within 1%: {:?} vs {:?}",
        &s_ref[..3],
        &svd.singular_values()[..3]
    );
    assert!(
        max_principal_angle(&u_ref.first_columns(3), &svd.modes().first_columns(3)) < 0.05,
        "leading Burgers modes should match"
    );
}

#[test]
fn burgers_modes_orthonormal_through_stream() {
    let data = burgers_small();
    let mut svd = SerialStreamingSvd::new(SvdConfig::new(5)); // paper's ff = 0.95
    for batch in column_batches(&data, 16) {
        if svd.is_initialized() {
            svd.incorporate_data(&batch);
        } else {
            svd.initialize(&batch);
        }
        assert!(
            orthogonality_error(svd.modes()) < 1e-9,
            "orthonormality must hold after every single update"
        );
    }
}

#[test]
fn era5_streaming_recovers_leading_planted_modes() {
    let cfg = Era5Config { noise_level: 0.02, ..Era5Config::tiny() };
    let d = generate(&cfg);
    let mut svd = SerialStreamingSvd::new(SvdConfig::new(cfg.n_modes + 2).with_forget_factor(1.0));
    svd.fit_batched(&d.snapshots, 32);
    for j in 0..2 {
        let planted = Matrix::from_columns(&[d.true_modes.col(j)]);
        let got = Matrix::from_columns(&[svd.modes().col(j)]);
        assert!(
            max_principal_angle(&planted, &got) < 0.05,
            "planted mode {j} should be recovered through the stream"
        );
    }
}

#[test]
fn smaller_batches_do_not_break_accuracy() {
    let data = burgers_small();
    let k = 4;
    let (_, s_ref) = batch_truncated_svd(&data, k);
    for batch in [5, 10, 20, 40, 80] {
        let mut svd = SerialStreamingSvd::new(SvdConfig::new(k).with_forget_factor(1.0));
        svd.fit_batched(&data, batch);
        let err = spectrum_error(&s_ref[..2], &svd.singular_values()[..2]);
        assert!(err < 0.02, "batch={batch}: leading spectrum error {err}");
    }
}

#[test]
fn low_rank_streaming_on_burgers() {
    let data = burgers_small();
    let k = 4;
    let mut svd = SerialStreamingSvd::new(
        SvdConfig::new(k)
            .with_forget_factor(1.0)
            .with_low_rank(true)
            .with_power_iterations(2)
            .with_seed(3),
    );
    svd.fit_batched(&data, 20);
    let (_, s_ref) = batch_truncated_svd(&data, k);
    for (got, want) in svd.singular_values()[..2].iter().zip(&s_ref[..2]) {
        assert!(
            (got - want).abs() / want < 0.05,
            "randomized streaming sigma {got} vs deterministic {want}"
        );
    }
}

fn burgers_file(name: &str, data: &Matrix, codec: Codec) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("psvd_pipeline_{name}_{}.ncs", std::process::id()));
    write_v2(&path, "burgers_u", data, V2Options { chunk_rows: 100, codec }).unwrap();
    path
}

#[test]
fn out_of_core_serial_is_bitwise_in_core() {
    let data = burgers_small();
    let (batch, k) = (16, 5);
    let cfg = SvdConfig::new(k).with_forget_factor(1.0);

    let mut in_core = SerialStreamingSvd::new(cfg);
    in_core.fit_source(&mut MatrixBatchSource::new(&data, batch)).unwrap();

    let path = burgers_file("serial", &data, Codec::ShuffleRle);
    for depth in [0usize, 2] {
        let mut pf = SnapshotPrefetcher::<f64>::open_with_depth(&path, batch, depth).unwrap();
        let mut svd = SerialStreamingSvd::new(cfg);
        svd.fit_source(&mut pf).unwrap();
        assert_eq!(
            svd.singular_values(),
            in_core.singular_values(),
            "depth {depth}: out-of-core sigmas must be bitwise identical"
        );
        assert_eq!(svd.modes(), in_core.modes(), "depth {depth}: modes must be bitwise identical");
        let st = pf.io_stats();
        assert_eq!(st.batches as usize, data.cols().div_ceil(batch));
        assert!(st.bytes_read > 0);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn out_of_core_parallel_ranks_stream_independent_hyperslabs() {
    let data = burgers_small();
    let (ranks, batch, k) = (4usize, 16usize, 5usize);
    let cfg = SvdConfig::new(k).with_forget_factor(1.0);

    // In-core distributed reference over the same stream.
    let blocks = pyparsvd::data::partition::split_rows(&data, ranks);
    let world = World::new(ranks);
    let reference = world.run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        d.fit_batched(&blocks[comm.rank()], batch);
        (d.singular_values().to_vec(), d.local_modes().clone())
    });

    // Out-of-core: every rank opens its own prefetcher over its row
    // hyperslab — independent file handles, like MPI-IO independent mode.
    let path = burgers_file("parallel", &data, Codec::ShuffleRle);
    let rows = data.rows();
    let world = World::new(ranks);
    let streamed = world.run(|comm| {
        let (r0, r1) = block_range(rows, comm.size(), comm.rank());
        let mut pf = SnapshotPrefetcher::<f64>::open_rows(&path, r0, r1, batch).unwrap();
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        d.try_fit_source(&mut pf).unwrap();
        (d.singular_values().to_vec(), d.local_modes().clone())
    });

    for (rank, (got, want)) in streamed.iter().zip(&reference).enumerate() {
        assert_eq!(got.0, want.0, "rank {rank}: out-of-core sigmas must be bitwise identical");
        assert_eq!(got.1, want.1, "rank {rank}: out-of-core modes must be bitwise identical");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn prefetch_io_failure_surfaces_as_ingest_error() {
    let data = burgers_small();
    let path = burgers_file("corrupt", &data, Codec::Raw);
    let full = std::fs::read(&path).unwrap();

    // Truncating the payload is caught at open time: the chunk table no
    // longer fits the file.
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    assert!(
        SnapshotPrefetcher::<f64>::open_with_depth(&path, 16, 2).is_err(),
        "truncated file must be rejected at open"
    );

    // Corrupting a chunk's internal segment-length table passes the header
    // checks (it is only validated lazily, on first read of that chunk), so
    // the failure must instead surface from the driver's fit_source.
    // Layout: header = magic(8) + name_len(4) + "burgers_u"(9) + rows(8)
    // + cols(8) + dtype(1) + codec(1) + chunk_rows(8) = 47, then the
    // 6-entry chunk table (512 rows / 100 per chunk) = 48 bytes.
    let mut bytes = full.clone();
    bytes[95..99].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let mut pf = SnapshotPrefetcher::<f64>::open_with_depth(&path, 16, 2).unwrap();
    let mut svd = SerialStreamingSvd::new(SvdConfig::new(4).with_forget_factor(1.0));
    assert!(svd.fit_source(&mut pf).is_err(), "corrupt chunk must surface as an io::Error");
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_count_bookkeeping() {
    let data = burgers_small();
    let mut svd = SerialStreamingSvd::new(SvdConfig::new(3));
    svd.fit_batched(&data, 23); // uneven: 23+23+23+11
    assert_eq!(svd.snapshots_seen(), 80);
    assert_eq!(svd.iteration(), 3);
}
