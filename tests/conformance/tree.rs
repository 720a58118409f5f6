//! Merge-tree fault contracts: delayed sends inside the hierarchical
//! exchange are bitwise invisible, and a rank death inside a tree round fails
//! it on every rank — the tree analogue of `rank_death.rs`.

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
fn delayed_sends_in_the_tree_exchange_are_bitwise_invisible() {
    // Half, then all, of the sends held back: the out-of-order arrivals
    // must reproduce the fault-free tree factorization bit for bit, and
    // the executed tree shape must be untouched.
    let a = data_matrix(Spectrum::Geometric, M, N, 61);
    let clean = faulted_tree_run(&a, 6, &FaultPlan::new(21));
    assert_eq!(
        clean[0].2.as_ref().expect("tree engaged").fanouts,
        vec![2, 2, 2],
        "6 ranks at fanout 2 is a depth-3 tree"
    );
    for p in [0.5, 1.0] {
        let faulted = faulted_tree_run(&a, 6, &FaultPlan::new(21).with_delay_prob(p, 2));
        assert_eq!(clean[0].1, faulted[0].1, "singular values (delay_prob {p})");
        assert_eq!(clean[0].0, faulted[0].0, "modes (delay_prob {p})");
        assert_eq!(clean[0].2, faulted[0].2, "tree diagnostics (delay_prob {p})");
        let delays: u64 = faulted.iter().map(|(_, _, _, s)| s.delays).sum();
        assert!(delays > 0, "the delay_prob {p} schedule must actually have fired");
    }
}

#[test]
fn tree_round_death_fails_every_rank() {
    // A fanout-2 initialize on 4 ranks walks its factors up the tree
    // (round 1), then broadcasts the factors down it (round 2). Rank 1
    // dies at that broadcast, after the leaves forwarded their factors:
    // every rank must fail, and none may hold a factorization.
    let a = data_matrix(Spectrum::Geometric, M, N, 62);
    let blocks = split_rows(&a, 4);
    let plan = FaultPlan::new(91).with_death(1, 2);
    let out = World::new(4).run(|comm| {
        let fc = FaultComm::new(comm, plan.clone());
        let b = &blocks[comm.rank()];
        let mut d = ParallelStreamingSvd::new(&fc, tree_cfg());
        let fate = d.try_initialize(&b.submatrix(0, b.rows(), 0, BATCH)).map(|_| ());
        assert_whole(&d, BATCH);
        (fate, d.is_initialized(), d.tree_merge_info().is_some())
    });
    for (r, (fate, initialized, tree_info)) in out.into_iter().enumerate() {
        assert_eq!(fate, Err(CommError::RankDead { rank: 1 }), "rank {r}");
        assert!(!initialized && !tree_info, "rank {r} must hold no factorization");
    }
}
