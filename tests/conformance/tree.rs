//! Merge-tree fault contracts: transient faults inside the hierarchical
//! exchange recover bitwise, and a rank death at the entry of a tree
//! round degrades onto the survivors exactly as a fresh survivor-world
//! run — the tree analogue of `degraded.rs`.

use psvd_comm::{CommError, Communicator, FaultComm, FaultPlan, FaultStats, World};
use psvd_core::{ParallelStreamingSvd, SvdConfig, TreeMergeInfo};
use psvd_data::partition::split_rows;
use psvd_linalg::Matrix;

use crate::harness::{assert_whole, data_matrix, exact_config, Spectrum};

const M: usize = 72;
const N: usize = 24;
const BATCH: usize = 8;

/// Exact-config base with the merge tree pinned on (fanout 2) regardless
/// of the environment's `PSVD_TREE_*` seeding.
fn tree_cfg() -> SvdConfig {
    exact_config(4, BATCH).with_forget_factor(0.95).with_tree_fanout(2)
}

/// One rank's view of a faulted run: modes gathered at 0, σ, the tree
/// diagnostics and the fault counters.
type FaultedRank = (Option<Matrix>, Vec<f64>, Option<TreeMergeInfo>, FaultStats);

/// One rank's view of a run with an injected death: its fate, local
/// modes, σ, the tree diagnostics and the workspace misses of its last
/// update.
type DeathRank = (Result<(), CommError>, Matrix, Vec<f64>, Option<TreeMergeInfo>, u64);

/// Stream the whole matrix through the tree-configured driver under a
/// fault plan; returns per-rank `(modes at 0, σ, tree info, fault stats)`.
fn faulted_tree_run(a: &Matrix, ranks: usize, plan: &FaultPlan) -> Vec<FaultedRank> {
    let blocks = split_rows(a, ranks);
    let world = World::new(ranks);
    world.run(|comm| {
        let fc = FaultComm::new(comm, plan.clone());
        let mut d = ParallelStreamingSvd::new(&fc, tree_cfg());
        d.fit_batched(&blocks[fc.rank()], BATCH);
        let s = d.singular_values().to_vec();
        let info = d.tree_merge_info().cloned();
        let modes = d.into_gathered_modes(0);
        let stats = fc.stats();
        (modes, s, info, stats)
    })
}

#[test]
fn transient_faults_in_the_tree_exchange_are_bitwise_invisible() {
    // Every send's first attempt dropped, then every payload mangled: the
    // retry path must reproduce the fault-free tree factorization bit for
    // bit, and the executed tree shape must be untouched.
    let a = data_matrix(Spectrum::Geometric, M, N, 61);
    let clean = faulted_tree_run(&a, 6, &FaultPlan::new(21));
    assert_eq!(
        clean[0].2.as_ref().expect("tree engaged").fanouts,
        vec![2, 2, 2],
        "6 ranks at fanout 2 is a depth-3 tree"
    );
    for (label, plan) in [
        ("drop", FaultPlan::new(21).with_drop_prob(1.0)),
        ("corrupt", FaultPlan::new(21).with_corrupt_prob(1.0)),
    ] {
        let faulted = faulted_tree_run(&a, 6, &plan);
        assert_eq!(clean[0].1, faulted[0].1, "singular values ({label})");
        assert_eq!(clean[0].0, faulted[0].0, "modes ({label})");
        assert_eq!(clean[0].2, faulted[0].2, "tree diagnostics ({label})");
        let touched: u64 =
            faulted.iter().map(|(_, _, _, s)| s.drops + s.corruptions + s.truncations).sum();
        assert!(touched > 0, "the {label} schedule must actually have fired");
    }
}

/// Kill rank 1 of 4 at collective round 1 — the first tag claim of the
/// tree walk, i.e. the entry barrier of the hierarchical initialize,
/// before any factor moved. Survivors renumber and run the round on the
/// 3-rank world.
fn tree_death_run(a: &Matrix) -> Vec<DeathRank> {
    const RANKS: usize = 4;
    const VICTIM: usize = 1;
    let blocks = split_rows(a, RANKS);
    let plan = FaultPlan::new(91).with_death(VICTIM, 1);
    let world = World::new(RANKS);
    world.run(|comm| {
        let fc = FaultComm::new(comm, plan.clone());
        let b = &blocks[comm.rank()];
        let rows = b.rows();
        let cfg = tree_cfg().with_allow_degraded(true);
        let mut d = ParallelStreamingSvd::new(&fc, cfg);
        let mut misses = 0;
        let fate = (|| {
            d.try_initialize(&b.submatrix(0, rows, 0, BATCH))?;
            d.try_incorporate_data(&b.submatrix(0, rows, BATCH, 2 * BATCH))?;
            let warm = d.scratch_stats().misses;
            d.try_incorporate_data(&b.submatrix(0, rows, 2 * BATCH, 3 * BATCH))?;
            misses = d.scratch_stats().misses - warm;
            Ok(())
        })();
        assert_whole(&d, BATCH);
        let info = d.tree_merge_info().cloned();
        let (modes, sigma) = d.into_modes();
        (fate, modes, sigma, info, misses)
    })
}

#[test]
fn tree_round_death_degrades_onto_the_survivors() {
    let a = data_matrix(Spectrum::Geometric, M, N, 62);
    let out = tree_death_run(&a);

    // The victim sees its own death; it never produced a tree round, and
    // the failed initialize left it the empty tracker it was.
    assert_eq!(out[1].0, Err(CommError::RankDead { rank: 1 }));
    assert!(out[1].3.is_none(), "the victim must not report an executed tree");
    assert!(out[1].1.is_empty() && out[1].2.is_empty(), "the victim must hold no factorization");

    // Survivors complete with an executed 2-level tree (the plan was
    // resolved on the 4-rank world; capacity 4 covers the 3 survivors).
    for (r, (fate, _, sigma, info, misses)) in out.iter().enumerate() {
        if r == 1 {
            continue;
        }
        assert_eq!(*fate, Ok(()), "rank {r} should have survived");
        assert_eq!(*misses, 0, "rank {r}: a clean round on the surviving world reuses its scratch");
        assert_eq!(info.as_ref().expect("tree engaged").fanouts, vec![2, 2], "rank {r}");
        crate::harness::assert_descending(sigma);
        assert_eq!(sigma, &out[0].2, "survivors agree on the spectrum");
    }
}

#[test]
fn degraded_tree_run_is_a_bitwise_restart_of_the_survivors() {
    // The death fires at the entry barrier of the hierarchical
    // initialize, so the degraded run never saw a byte of the victim's
    // data: it must be bit-identical to a fresh 3-rank world streaming
    // the survivor blocks through the same tree configuration.
    let a = data_matrix(Spectrum::Geometric, M, N, 62);
    let out = tree_death_run(&a);

    let blocks = split_rows(&a, 4);
    let survivors = [0usize, 2, 3];
    let world = World::new(3);
    let replay = world.run(|comm| {
        let b = &blocks[survivors[comm.rank()]];
        let rows = b.rows();
        let cfg = tree_cfg().with_allow_degraded(true);
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        d.initialize(&b.submatrix(0, rows, 0, BATCH));
        d.incorporate_data(&b.submatrix(0, rows, BATCH, 2 * BATCH));
        d.incorporate_data(&b.submatrix(0, rows, 2 * BATCH, 3 * BATCH));
        let info = d.tree_merge_info().cloned();
        let (modes, sigma) = d.into_modes();
        (modes, sigma, info)
    });
    for (i, &phys) in survivors.iter().enumerate() {
        assert_eq!(replay[i].1, out[phys].2, "rank {phys}: σ must be bit-identical");
        assert_eq!(replay[i].0, out[phys].1, "rank {phys}: modes must be bit-identical");
        assert_eq!(replay[i].2, out[phys].3, "rank {phys}: tree diagnostics must match");
    }
}
