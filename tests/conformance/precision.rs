//! Precision conformance: the f32 instantiation against the f64 oracle,
//! and the mixed-precision pipeline's accuracy / traffic contracts.
//!
//! Tolerances are stated relative to the dtype's epsilon: an f32 result
//! is held to `c · eps_f32 · σ_max` where the f64 path is held to the
//! analogous f64 bound — see DESIGN.md, "Scalar genericity & mixed
//! precision" for the error budget.

use psvd_comm::{Communicator, World};
use psvd_core::{ParallelStreamingSvd, Precision, SerialStreamingSvd, SvdConfig};
use psvd_data::partition::split_rows;
use psvd_linalg::randomized::{mixed_randomized_svd, randomized_svd};
use psvd_linalg::svd::svd;
use psvd_linalg::{Matrix, RandomizedConfig};

use crate::harness::{data_matrix, spectrum_values, ALL_SPECTRA};

const M: usize = 60;
const N: usize = 20;

/// f32 dense SVD agrees with the f64 spectrum on every synthetic shape:
/// singular values are perfectly conditioned (|σ(A+E) − σ(A)| ≤ ‖E‖₂),
/// so demoting the data perturbs each σ by at most the demotion error
/// ‖E‖ ≲ √(mn)·eps_f32·‖A‖ — the bound asserted here.
#[test]
fn f32_spectrum_matches_f64_across_spectra() {
    for (i, kind) in ALL_SPECTRA.iter().enumerate() {
        let a = data_matrix(*kind, M, N, 500 + i as u64);
        let f64_svd = svd(&a);
        let f32_svd = svd(&a.cast::<f32>());
        let sigma_max = f64_svd.s[0];
        let bound = ((M * N) as f64).sqrt() * f32::EPSILON as f64 * sigma_max;
        for (j, (narrow, wide)) in f32_svd.s.iter().zip(&f64_svd.s).enumerate() {
            let diff = (*narrow as f64 - wide).abs();
            assert!(
                diff <= bound,
                "{kind:?}: sigma_{j} f32 {narrow} vs f64 {wide} (diff {diff:.3e} > {bound:.3e})"
            );
        }
    }
}

/// The f32 streaming driver tracks the f64 one across every spectrum:
/// same stream, same batching, singular values within an f32-scaled
/// round-off budget (streaming compounds the per-update rounding, hence
/// the larger constant than the one-shot bound above).
#[test]
fn f32_streaming_driver_tracks_f64_across_spectra() {
    for (i, kind) in ALL_SPECTRA.iter().enumerate() {
        let a = data_matrix(*kind, M, N, 700 + i as u64);
        let cfg = SvdConfig::new(4)
            .with_forget_factor(1.0)
            .with_r1(N)
            .with_r2(N)
            .with_precision(Precision::F64);
        let mut wide = SerialStreamingSvd::new(cfg);
        wide.fit_batched(&a, 5);
        let mut narrow = SerialStreamingSvd::<f32>::new(cfg);
        narrow.fit_batched(&a.cast::<f32>(), 5);
        let sigma_max = wide.singular_values()[0];
        let bound = 1e-4 * sigma_max;
        for (j, (ns, ws)) in narrow.singular_values().iter().zip(wide.singular_values()).enumerate()
        {
            let diff = (*ns as f64 - ws).abs();
            assert!(
                diff <= bound,
                "{kind:?}: sigma_{j} f32-stream {ns} vs f64-stream {ws} (diff {diff:.3e})"
            );
        }
    }
}

/// Mixed randomized SVD (f32 sketch, f64 re-orthogonalization and
/// factors) reproduces the all-f64 randomized pipeline's singular values
/// to 1e-5 relative. The two draw the *same* Gaussian sample stream (the
/// f32 sketch is the f64 sketch rounded), so the captured subspaces agree
/// to f32 level and the σs — quadratically insensitive to subspace
/// perturbation — much closer than that.
#[test]
fn mixed_randomized_svd_matches_f64_randomized_within_1e5() {
    for (i, kind) in ALL_SPECTRA.iter().enumerate() {
        let a = data_matrix(*kind, M, N, 900 + i as u64);
        let cfg = RandomizedConfig::new(6).with_oversampling(6).with_power_iterations(2);
        let wide = randomized_svd(&a, &cfg, &mut psvd_linalg::random::seeded_rng(3));
        let mixed = mixed_randomized_svd(&a, &cfg, &mut psvd_linalg::random::seeded_rng(3));
        assert_eq!(wide.s.len(), mixed.s.len());
        for (j, (ms, ws)) in mixed.s.iter().zip(&wide.s).enumerate() {
            let rel = (ms - ws).abs() / ws.max(f64::MIN_POSITIVE);
            assert!(
                rel <= 1e-5,
                "{kind:?}: sigma_{j} mixed {ms} vs f64 {ws} (rel {rel:.3e} > 1e-5)"
            );
        }
    }
}

/// One full mixed streaming run per driver: singular values within 1e-5
/// relative of the all-f64 streaming oracle on the same stream.
#[test]
fn mixed_streaming_sigma_within_1e5_of_f64_oracle() {
    let a = data_matrix(crate::harness::Spectrum::Geometric, 72, 24, 1234);
    let base = SvdConfig::new(5).with_forget_factor(1.0).with_r1(24).with_r2(24);

    let mut oracle = SerialStreamingSvd::new(base.with_precision(Precision::F64));
    oracle.fit_batched(&a, 6);

    // Serial mixed (non-randomized local math is f64; exercised for parity).
    let mut serial_mixed = SerialStreamingSvd::new(base.with_precision(Precision::Mixed));
    serial_mixed.fit_batched(&a, 6);
    for (ms, ws) in serial_mixed.singular_values().iter().zip(oracle.singular_values()) {
        let rel = (ms - ws).abs() / ws.max(f64::MIN_POSITIVE);
        assert!(rel <= 1e-5, "serial mixed sigma {ms} vs {ws} (rel {rel:.3e})");
    }

    // Parallel mixed: every wire payload is f32, σs still within 1e-5.
    let blocks = split_rows(&a, 3);
    let world = World::new(3);
    let out = world.run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, base.with_precision(Precision::Mixed));
        d.fit_batched(&blocks[comm.rank()], 6);
        d.singular_values().to_vec()
    });
    for (rank, s) in out.iter().enumerate() {
        assert_eq!(s, &out[0], "rank {rank} disagrees on mixed singular values");
    }
    for (j, (ms, ws)) in out[0].iter().zip(oracle.singular_values()).enumerate() {
        let rel = (ms - ws).abs() / ws.max(f64::MIN_POSITIVE);
        assert!(rel <= 1e-5, "parallel mixed sigma_{j} {ms} vs {ws} (rel {rel:.3e})");
    }
}

/// Mixed mode's reason to exist: the same distributed stream moves about
/// half the bytes (matrix payloads demote to f32 on the wire; only the
/// 16-byte dims headers and the K-element σ vectors stay full-width).
#[test]
fn mixed_mode_halves_wire_traffic() {
    let a = data_matrix(crate::harness::Spectrum::Clustered, 80, 32, 77);
    let run_bytes = |precision: Precision| {
        let cfg = SvdConfig::new(4)
            .with_forget_factor(0.95)
            .with_r1(16)
            .with_r2(8)
            .with_precision(precision);
        let blocks = split_rows(&a, 4);
        let world = World::new(4);
        world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&blocks[comm.rank()], 8);
            let _ = d.gather_modes(0);
        });
        world.stats().total_bytes()
    };
    let wide = run_bytes(Precision::F64);
    let mixed = run_bytes(Precision::Mixed);
    let ratio = mixed as f64 / wide as f64;
    assert!(ratio < 0.60, "mixed wire bytes {mixed} vs f64 {wide}: ratio {ratio:.3} not ~0.5");
    assert!(ratio > 0.40, "ratio {ratio:.3} suspiciously low — accounting bug?");
}

/// The dtype-aware spectra themselves: sanity that the harness spectra
/// survive an f32 round trip (guards the synthetic-data generator against
/// silently exceeding f32 range/precision, which would invalidate the
/// comparisons above).
#[test]
fn harness_spectra_are_f32_representable() {
    for kind in ALL_SPECTRA {
        for v in spectrum_values(kind, N) {
            let rt = v as f32 as f64;
            assert!((rt - v).abs() <= f32::EPSILON as f64 * v.abs().max(1.0));
        }
    }
}

/// Mixed-mode determinism: tree and flat collectives demote identically,
/// so from a shared post-initialize state the TSQR rounds and the mode
/// gather are bit-identical whether the plan routes them flat or (fanout
/// 2) through group leaders.
#[test]
fn mixed_tree_and_flat_collectives_bit_identical() {
    let a = data_matrix(crate::harness::Spectrum::Step, 64, 24, 42);
    let flat = SvdConfig::new(4)
        .with_forget_factor(0.95)
        .with_r1(12)
        .with_r2(8)
        .with_precision(Precision::Mixed)
        .with_tree_fanout(0);
    let run = |cfg: SvdConfig| {
        let blocks = split_rows(&a, 4);
        let world = World::new(4);
        world.run(|comm| {
            let b = &blocks[comm.rank()];
            let mut d = ParallelStreamingSvd::new(comm, flat);
            d.initialize(&b.submatrix(0, b.rows(), 0, 8));
            let mut d = ParallelStreamingSvd::restore(comm, cfg, d.into_checkpoint());
            d.fit_batched(&b.submatrix(0, b.rows(), 8, 24), 8);
            (d.gather_modes(0), d.singular_values().to_vec())
        })
    };
    let (flat_out, tree_out) = (run(flat), run(flat.with_tree_fanout(2)));
    assert_eq!(flat_out[0].1, tree_out[0].1, "mixed σ must be bit-identical tree vs flat");
    assert_eq!(flat_out[0].0, tree_out[0].0, "mixed modes must be bit-identical tree vs flat");
}

/// An f32-dtype parallel stream over a `Matrix<f32>` partition: the
/// generic driver runs end-to-end at single precision and all ranks agree
/// bitwise on the results.
#[test]
fn f32_parallel_driver_runs_end_to_end() {
    let a = data_matrix(crate::harness::Spectrum::Geometric, 48, 16, 8);
    let a32: Matrix<f32> = a.cast();
    let cfg = SvdConfig::new(3)
        .with_forget_factor(1.0)
        .with_r1(16)
        .with_r2(16)
        .with_precision(Precision::F64);
    let blocks = split_rows(&a32, 2);
    let world = World::new(2);
    let out = world.run(|comm| {
        let mut d = ParallelStreamingSvd::<_, f32>::new(comm, cfg);
        d.fit_batched(&blocks[comm.rank()], 4);
        d.singular_values().to_vec()
    });
    assert_eq!(out[0], out[1], "ranks must agree bitwise at f32");
    // Oracle: the f64 *streaming* driver on the same stream (the batch
    // SVD is not the reference here — K-truncation between batches is
    // part of the contract, not an error term).
    let mut oracle = SerialStreamingSvd::new(cfg);
    oracle.fit_batched(&a, 4);
    let sigma_max = oracle.singular_values()[0];
    for (got, want) in out[0].iter().zip(oracle.singular_values()) {
        assert!(
            (*got as f64 - want).abs() < 1e-3 * sigma_max,
            "f32 parallel sigma {got} vs f64 streaming oracle {want}"
        );
    }
}
