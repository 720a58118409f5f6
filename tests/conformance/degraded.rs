//! Rank-death schedules: the run continues degraded on the survivors,
//! the continuation is exactly a restart of the surviving world from its
//! checkpoints, and the surviving rows track the serial oracle.

use psvd_comm::{CommError, Communicator, FaultComm, FaultPlan, World};
use psvd_core::{ParallelStreamingSvd, SerialStreamingSvd, SvdCheckpoint, SvdConfig};
use psvd_data::partition::split_rows;
use psvd_linalg::validate::{max_principal_angle, spectrum_error};
use psvd_linalg::Matrix;

use crate::harness::{assert_whole, data_matrix, exact_config, Spectrum};

const M: usize = 64;
const N: usize = 32;
const RANKS: usize = 4;
const VICTIM: usize = 1;
const BATCH: usize = 8;

fn cfg() -> SvdConfig {
    exact_config(4, BATCH).with_forget_factor(0.95).with_allow_degraded(true)
}

/// What each rank reports from the faulted run.
struct RankOutcome {
    /// `Err` only on the victim.
    fate: Result<(), CommError>,
    /// Workspace misses during the last update that completed — on a
    /// survivor, a clean round on the shrunken world after the death round.
    last_update_misses: u64,
    /// Checkpoint taken after the first update, before the death round.
    ckpt: Option<SvdCheckpoint>,
    /// Final local modes and singular values (survivors only).
    modes: Matrix,
    sigma: Vec<f64>,
    degraded: Option<psvd_core::DegradedInfo>,
}

/// Stream 4 batches over 4 ranks; the victim dies at the start of the
/// second update (collective round 11: init takes two rounds, and update
/// one, which projects, takes eight: three allreduces of two rounds each,
/// the TSQR gather and the factor broadcast). Survivors checkpoint after
/// update one and finish the stream.
fn death_run(a: &Matrix) -> Vec<RankOutcome> {
    let blocks = split_rows(a, RANKS);
    let plan = FaultPlan::new(77).with_death(VICTIM, 11);
    let world = World::new(RANKS);
    world.run(|comm| {
        let fc = FaultComm::new(comm, plan.clone());
        let b = &blocks[comm.rank()];
        let rows = b.rows();
        let mut d = ParallelStreamingSvd::new(&fc, cfg());
        d.try_initialize(&b.submatrix(0, rows, 0, 8)).expect("init precedes the death");
        d.try_incorporate_data(&b.submatrix(0, rows, 8, 16)).expect("update one too");
        let ckpt = Some(d.checkpoint());
        let mut fate = Ok(());
        let mut last_update_misses = 0;
        for c0 in [16usize, 24] {
            let before = d.scratch_stats().misses;
            if let Err(e) = d.try_incorporate_data(&b.submatrix(0, rows, c0, c0 + BATCH)) {
                fate = Err(e);
                break;
            }
            last_update_misses = d.scratch_stats().misses - before;
        }
        assert_whole(&d, BATCH);
        let degraded = d.degraded().cloned();
        let (modes, sigma) = d.into_modes();
        RankOutcome { fate, last_update_misses, ckpt, modes, sigma, degraded }
    })
}

#[test]
fn rank_death_degrades_and_reports() {
    let a = data_matrix(Spectrum::Geometric, M, N, 50);
    let out = death_run(&a);

    // The victim sees its own death as a permanent error — mid-round, so
    // before the commit: it still holds exactly what it checkpointed.
    assert_eq!(out[VICTIM].fate, Err(CommError::RankDead { rank: VICTIM }));
    let pre = out[VICTIM].ckpt.as_ref().unwrap();
    assert_eq!(out[VICTIM].sigma, pre.singular_values, "victim σ rolled back");
    assert_eq!(out[VICTIM].modes, pre.modes, "victim modes rolled back");

    // Survivors complete and report the shrink.
    for (r, o) in out.iter().enumerate() {
        if r == VICTIM {
            continue;
        }
        assert_eq!(o.fate, Ok(()), "rank {r} should have survived");
        let info = o.degraded.as_ref().expect("survivors report degradation");
        assert_eq!(info.initial_ranks, RANKS);
        assert_eq!(info.surviving_ranks, RANKS - 1);
        assert_eq!(info.failed_ranks, vec![VICTIM]);
        assert_eq!(info.detected_at_iteration, 2);
        // The death round left every persistent buffer in place: the next
        // round on the surviving world draws all its QR scratch from them.
        assert_eq!(o.last_update_misses, 0, "rank {r}: scratch lost in the death round");
        crate::harness::assert_descending(&o.sigma);
        // Every survivor agrees on the spectrum.
        assert_eq!(o.sigma, out[(VICTIM + 1) % RANKS].sigma);
    }
}

#[test]
fn degraded_continuation_is_a_bitwise_restart_of_the_survivors() {
    // Acceptance criterion (checkpoint-restart equivalence after injected
    // rank death): the degraded continuation must be bit-identical to a
    // fresh 3-rank world restored from the survivors' checkpoints and fed
    // the remaining survivor batches.
    let a = data_matrix(Spectrum::Geometric, M, N, 50);
    let out = death_run(&a);

    let blocks = split_rows(&a, RANKS);
    let survivors: Vec<usize> = (0..RANKS).filter(|&r| r != VICTIM).collect();
    let ckpts: Vec<SvdCheckpoint> =
        survivors.iter().map(|&r| out[r].ckpt.clone().unwrap()).collect();
    let world = World::new(RANKS - 1);
    let replay = world.run(|comm| {
        let phys = survivors[comm.rank()];
        let b = &blocks[phys];
        let mut d = ParallelStreamingSvd::restore(comm, cfg(), ckpts[comm.rank()].clone());
        for c0 in [16usize, 24] {
            d.incorporate_data(&b.submatrix(0, b.rows(), c0, c0 + BATCH));
        }
        d.into_modes()
    });
    for (i, &phys) in survivors.iter().enumerate() {
        assert_eq!(replay[i].1, out[phys].sigma, "rank {phys}: sigma must be bit-identical");
        assert_eq!(replay[i].0, out[phys].modes, "rank {phys}: modes must be bit-identical");
    }
}

#[test]
fn degraded_run_matches_the_serial_oracle_on_surviving_rows() {
    // Acceptance criterion: serial-equivalence on the surviving rows
    // within 1e-10. The oracle restarts the serial driver from the
    // vstacked survivor checkpoints and streams the survivor rows.
    let a = data_matrix(Spectrum::Geometric, M, N, 50);
    let out = death_run(&a);

    let blocks = split_rows(&a, RANKS);
    let survivors: Vec<usize> = (0..RANKS).filter(|&r| r != VICTIM).collect();
    let global =
        SvdCheckpoint::vstack(survivors.iter().map(|&r| out[r].ckpt.clone().unwrap()).collect());
    let survivor_rows =
        Matrix::vstack_all(&survivors.iter().map(|&r| blocks[r].clone()).collect::<Vec<_>>());
    let mut serial = SerialStreamingSvd::restore(cfg(), global);
    for c0 in [16usize, 24] {
        serial.incorporate_data(&survivor_rows.submatrix(0, survivor_rows.rows(), c0, c0 + BATCH));
    }

    let par_modes =
        Matrix::vstack_all(&survivors.iter().map(|&r| out[r].modes.clone()).collect::<Vec<_>>());
    let serr = spectrum_error(serial.singular_values(), &out[survivors[0]].sigma);
    assert!(serr < 1e-10, "serial vs degraded sigma diverged by {serr}");
    // The subspace angle amplifies round-off by the inverse spectral gap;
    // 1e-6 is this repo's standard serial-vs-parallel mode tolerance.
    let aerr = max_principal_angle(serial.modes(), &par_modes);
    assert!(aerr < 1e-6, "serial vs degraded subspace diverged by {aerr}");
}

#[test]
fn death_replay_is_deterministic_across_kernel_thread_counts() {
    // Acceptance criterion: the rank-death replay is deterministic for a
    // fixed seed at any kernel thread count.
    let a = data_matrix(Spectrum::Clustered, M, N, 51);
    let before = psvd_linalg::par::num_threads();
    psvd_linalg::par::set_num_threads(1);
    let one = death_run(&a);
    psvd_linalg::par::set_num_threads(4);
    let four = death_run(&a);
    psvd_linalg::par::set_num_threads(before);
    for (x, y) in one.iter().zip(&four) {
        assert_eq!(x.fate, y.fate);
        assert_eq!(x.sigma, y.sigma);
        assert_eq!(x.modes, y.modes);
        assert_eq!(x.degraded, y.degraded);
        assert_eq!(x.ckpt, y.ckpt);
    }
}

#[test]
fn death_without_allow_degraded_is_a_hard_error_everywhere() {
    let a = data_matrix(Spectrum::Geometric, M, N, 52);
    let blocks = split_rows(&a, RANKS);
    let plan = FaultPlan::new(78).with_death(VICTIM, 11);
    let strict = cfg().with_allow_degraded(false);
    let world = World::new(RANKS);
    // Per rank: the failing call's error, and the state before and after it.
    let out = world.run(|comm| {
        let fc = FaultComm::new(comm, plan.clone());
        let b = &blocks[comm.rank()];
        let rows = b.rows();
        let mut d = ParallelStreamingSvd::new(&fc, strict);
        d.try_initialize(&b.submatrix(0, rows, 0, 8)).expect("init precedes the death");
        d.try_incorporate_data(&b.submatrix(0, rows, 8, 16)).expect("update one too");
        let pre = d.checkpoint();
        let fate = d.try_incorporate_data(&b.submatrix(0, rows, 16, 24)).map(|_| ());
        assert_whole(&d, BATCH);
        (fate, pre, d.into_checkpoint())
    });
    for (r, (fate, _, _)) in out.iter().enumerate() {
        assert_eq!(
            *fate,
            Err(CommError::RankDead { rank: VICTIM }),
            "rank {r} must refuse to continue degraded"
        );
    }

    // An errored round never leaves a torn tracker. The victim failed
    // mid-round (pre-commit) and holds the pre-call state; the survivors
    // finished the round on the shrunken world and learnt of the death
    // from the trailing world check (post-commit), so they hold what a
    // fault-free survivor world produces from the same pre-call state.
    let survivors: Vec<usize> = (0..RANKS).filter(|&r| r != VICTIM).collect();
    let twin = World::new(RANKS - 1).run(|comm| {
        let phys = survivors[comm.rank()];
        let b = &blocks[phys];
        let mut d = ParallelStreamingSvd::restore(comm, strict, out[phys].1.clone());
        d.incorporate_data(&b.submatrix(0, b.rows(), 16, 24));
        d.into_checkpoint()
    });
    assert_eq!(out[VICTIM].2, out[VICTIM].1, "victim: pre-call state, bit for bit");
    for (i, &phys) in survivors.iter().enumerate() {
        assert_eq!(out[phys].2, twin[i], "rank {phys}: post-call state, bit for bit");
    }
}
