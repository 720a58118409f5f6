//! Rank-death schedules: a death fails its collective round on every
//! rank, no rank commits, and restarting every rank from its checkpoint
//! on a clean world reproduces the fault-free run bit for bit — the
//! recovery `psvd-serve` performs.

use psvd_comm::{CommError, Communicator, FaultComm, FaultPlan, World};
use psvd_core::{ParallelStreamingSvd, SvdCheckpoint, SvdConfig};
use psvd_data::partition::split_rows;
use psvd_linalg::Matrix;

use crate::harness::{assert_whole, data_matrix, exact_config, Spectrum};

const M: usize = 64;
const N: usize = 32;
const RANKS: usize = 4;
const VICTIM: usize = 1;
const BATCH: usize = 8;
/// The last round of the second update, the broadcast of the summed
/// `[U | J₁]ᵀJ₁`: init takes two collective rounds and a projected update
/// six (three allreduces of two rounds each — `Uᵀ[U | A]`, `[U | H]ᵀH`,
/// `[U | J₁]ᵀJ₁`; every rank then solves the small core itself), so
/// update two runs rounds 9–14 and dies in its last one, after every
/// other exchange completed.
const DEATH_ROUND: u64 = 14;

fn cfg() -> SvdConfig {
    exact_config(4, BATCH).with_forget_factor(0.95)
}

/// Columns `c0..c0 + BATCH` of a rank's block.
fn batch(b: &Matrix, c0: usize) -> Matrix {
    b.submatrix(0, b.rows(), c0, c0 + BATCH)
}

/// Initialize and update once over 4 ranks, checkpoint, then attempt the
/// second update with the victim dying in its last collective round. Per
/// rank: that update's result, and the state before and after it.
fn death_run(a: &Matrix) -> Vec<(Result<(), CommError>, SvdCheckpoint, SvdCheckpoint)> {
    let blocks = split_rows(a, RANKS);
    let plan = FaultPlan::new(77).with_death(VICTIM, DEATH_ROUND);
    World::new(RANKS).run(|comm| {
        let fc = FaultComm::new(comm, plan.clone());
        let b = &blocks[comm.rank()];
        let mut d = ParallelStreamingSvd::new(&fc, cfg());
        d.try_initialize(&batch(b, 0)).expect("init precedes the death");
        d.try_incorporate_data(&batch(b, 8)).expect("update one too");
        let pre = d.checkpoint();
        let fate = d.try_incorporate_data(&batch(b, 16)).map(|_| ());
        assert_whole(&d, BATCH);
        (fate, pre, d.into_checkpoint())
    })
}

#[test]
fn death_fails_every_rank_and_keeps_its_pre_call_checkpoint() {
    let a = data_matrix(Spectrum::Geometric, M, N, 52);
    for (r, (fate, pre, post)) in death_run(&a).into_iter().enumerate() {
        assert_eq!(fate, Err(CommError::RankDead { rank: VICTIM }), "rank {r}");
        assert_eq!(post, pre, "rank {r}: pre-call state, bit for bit");
    }
}

#[test]
fn restart_from_the_checkpoints_equals_the_fault_free_run() {
    // Serve's replay: every rank restarts from its pre-call checkpoint on
    // a clean world and streams the remaining batches; the result must be
    // the run that never saw the death.
    let a = data_matrix(Spectrum::Geometric, M, N, 50);
    let out = death_run(&a);
    let blocks = split_rows(&a, RANKS);
    let replay = World::new(RANKS).run(|comm| {
        let b = &blocks[comm.rank()];
        let mut d = ParallelStreamingSvd::restore(comm, cfg(), out[comm.rank()].1.clone());
        for c0 in [16, 24] {
            d.incorporate_data(&batch(b, c0));
        }
        d.into_checkpoint()
    });
    let clean = World::new(RANKS).run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, cfg());
        d.fit_batched(&blocks[comm.rank()], BATCH);
        d.into_checkpoint()
    });
    assert_eq!(replay, clean, "the restart must be bit-identical to the fault-free run");
}

#[test]
fn death_run_is_identical_at_1_and_4_kernel_threads() {
    let a = data_matrix(Spectrum::Clustered, M, N, 51);
    let before = psvd_linalg::par::num_threads();
    psvd_linalg::par::set_num_threads(1);
    let one = death_run(&a);
    psvd_linalg::par::set_num_threads(4);
    let four = death_run(&a);
    psvd_linalg::par::set_num_threads(before);
    assert_eq!(one, four);
}
