//! Delay-reorder schedules: a delayed send changes only the order in which
//! messages arrive, so the factorization must be bitwise-identical to the
//! fault-free run, and every replay deterministic for a fixed seed.

use psvd_comm::{Communicator, FaultComm, FaultPlan, FaultStats, World};
use psvd_core::{ParallelStreamingSvd, SvdConfig};
use psvd_data::partition::split_rows;
use psvd_linalg::Matrix;

use crate::harness::{data_matrix, exact_config, Spectrum};

const M: usize = 60;
const N: usize = 24;
const RANKS: usize = 3;
const BATCH: usize = 8;

/// `tree` selects a fanout-2 merge-tree plan (3 ranks: two levels, every
/// collective walking the tree) instead of the paper's flat exchange.
fn cfg(tree: bool) -> SvdConfig {
    exact_config(4, BATCH).with_forget_factor(0.95).with_tree_fanout(if tree { 2 } else { 0 })
}

/// Stream the whole matrix under a fault plan; returns per-rank
/// `(gathered modes at 0, singular values, fault stats)`.
fn faulted_run(
    a: &Matrix,
    tree: bool,
    plan: &FaultPlan,
) -> Vec<(Option<Matrix>, Vec<f64>, FaultStats)> {
    let blocks = split_rows(a, RANKS);
    let world = World::new(RANKS);
    world.run(|comm| {
        let fc = FaultComm::new(comm, plan.clone());
        let mut d = ParallelStreamingSvd::new(&fc, cfg(tree));
        d.fit_batched(&blocks[fc.rank()], BATCH);
        let s = d.singular_values().to_vec();
        let modes = d.into_gathered_modes(0);
        let stats = fc.stats();
        (modes, s, stats)
    })
}

#[test]
fn delayed_reordered_messages_recover_bitwise() {
    // Send-side delays exercise the receivers' out-of-order tag buffering;
    // values are unchanged, so the factorization is too — under both the
    // flat plan and a merge tree with tree collectives.
    let a = data_matrix(Spectrum::Step, M, N, 33);
    for tree in [false, true] {
        let clean = faulted_run(&a, tree, &FaultPlan::new(21));
        let faulted = faulted_run(&a, tree, &FaultPlan::new(21).with_delay_prob(0.5, 2));
        assert_eq!(clean[0].1, faulted[0].1, "singular values (tree={tree})");
        assert_eq!(clean[0].0, faulted[0].0, "modes (tree={tree})");
        let delays: u64 = faulted.iter().map(|(_, _, s)| s.delays).sum();
        assert!(delays > 0, "the schedule must actually have delayed sends (tree={tree})");
        assert!(clean.iter().all(|(_, _, s)| *s == FaultStats::default()));
    }
}

#[test]
fn mixed_schedule_replays_identically_across_kernel_thread_counts() {
    // Acceptance criterion: fault decisions are a pure function of the
    // seed and per-rank op counters, so the replay — results AND injected
    // fault counts — is identical whether the GEMM pool runs 1 thread or 4.
    let a = data_matrix(Spectrum::Geometric, M, N, 34);
    let plan = FaultPlan::new(555).with_delay_prob(0.5, 2);
    let before = psvd_linalg::par::num_threads();
    psvd_linalg::par::set_num_threads(1);
    let one = faulted_run(&a, false, &plan);
    psvd_linalg::par::set_num_threads(4);
    let four = faulted_run(&a, false, &plan);
    psvd_linalg::par::set_num_threads(before);
    assert_eq!(one, four, "replay must not depend on the kernel thread count");
    assert!(one.iter().any(|(_, _, s)| s.delays > 0), "the schedule must actually have fired");
    // And replaying at the same thread count is trivially deterministic.
    psvd_linalg::par::set_num_threads(before);
    let again = faulted_run(&a, false, &plan);
    assert_eq!(one, again);
}
