//! Merge-tree APMOS contracts: every spelling of the flat plan runs the
//! same depth-1 exchange (bitwise equal, zero interior bound), a round
//! is two collective rounds — one up the plan, one down — at any depth,
//! non-flat plans stay within the tracked truncation bound, and the
//! bound itself dominates the observed σ deviation on graded and
//! clustered spectra (the Weyl / Eckart–Young accounting of
//! `core/hierarchical.rs`). The independent oracle for the depth-1
//! exchange itself is `apmos_exact_without_truncation` in
//! `core/parallel.rs`. The last two tests hold the reason the tree
//! exists: on modelled clocks it beats the flat gather as the world grows.

use pyparsvd::data::partition::split_rows;
use pyparsvd::linalg::random::{matrix_with_spectrum, seeded_rng};
use pyparsvd::linalg::validate::max_principal_angle;
use pyparsvd::prelude::*;

const WORLDS: std::ops::RangeInclusive<usize> = 1..=9;
const FANOUTS: [usize; 3] = [2, 3, 4];
const DEPTHS: [usize; 3] = [1, 2, 3];

fn graded(m: usize, n: usize, seed: u64) -> Matrix {
    let spec: Vec<f64> = (0..n.min(m)).map(|i| 10.0 * 0.55f64.powi(i as i32)).collect();
    matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
}

fn clustered(m: usize, n: usize, seed: u64) -> Matrix {
    let spec: Vec<f64> =
        (0..n.min(m)).map(|i| if i < 3 { 8.0 } else { 0.5 * 0.8f64.powi(i as i32) }).collect();
    matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
}

/// One APMOS round through the driver, returning every rank's view:
/// assembled modes, the σ estimate, and the round's diagnostics.
fn driver_round(a: &Matrix, n_ranks: usize, cfg: SvdConfig) -> (Matrix, Vec<f64>, TreeMergeInfo) {
    let blocks = split_rows(a, n_ranks);
    let world = World::new(n_ranks);
    let out = world.run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, cfg);
        let (phi, s) = d.parallel_svd(&blocks[comm.rank()]);
        (phi, s, d.tree_merge_info().cloned().expect("every APMOS round reports"))
    });
    for (_, s, info) in &out {
        assert_eq!(s, &out[0].1, "σ must agree on every rank");
        assert_eq!(info, &out[0].2, "tree diagnostics must agree on every rank");
    }
    let modes = Matrix::vstack_all(&out.iter().map(|(p, _, _)| p.clone()).collect::<Vec<_>>());
    (modes, out[0].1.clone(), out[0].2.clone())
}

fn max_sigma_dev(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "σ count changed between plans: {a:?} vs {b:?}");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[test]
fn every_flat_spelling_is_the_same_depth_1_exchange() {
    // A cleared knob and any fanout >= world resolve to the flat plan:
    // bit-identical results and the depth-1 diagnostics on every rank
    // (`driver_round` checks cross-rank agreement), whatever the
    // inner-SVD flavour.
    let a = graded(90, 12, 41);
    let dense = SvdConfig::new(3).with_r1(6).with_r2(6).with_tree_fanout(0);
    for base in [dense, dense.with_low_rank(true).with_seed(7)] {
        for n_ranks in WORLDS {
            let (modes, sigma, info) = driver_round(&a, n_ranks, base);
            assert_eq!(info.fanouts, vec![n_ranks], "{n_ranks} ranks: one level, whole world");
            assert_eq!(info.merges, 0, "{n_ranks} ranks: no interior merge at depth 1");
            assert_eq!(info.interior_bound(), 0.0);
            for cfg in [base.with_tree_fanout(n_ranks.max(2)), base.with_tree_fanout(100)] {
                let (m2, s2, i2) = driver_round(&a, n_ranks, cfg);
                assert_eq!(i2.depth(), 1, "{n_ranks} ranks, {cfg:?}: plan should resolve flat");
                assert_eq!(i2.merges, 0);
                assert_eq!(s2, sigma, "{n_ranks} ranks: flat-resolved σ must be bitwise identical");
                assert_eq!(m2, modes, "{n_ranks} ranks: flat-resolved modes must be identical");
            }
        }
    }
}

#[test]
fn a_depth_1_round_is_two_collective_rounds() {
    // The paper's exchange: P − 1 factors into rank 0, P − 1 broadcast
    // copies out (the diagnostics ride the factor broadcast) — so fault
    // schedules keyed on collective rounds keep two rounds per APMOS. A
    // deeper plan walks the same two rounds: P − 1 messages up, P − 1
    // down, rank 0 answering exactly the members it heard from.
    const P: usize = 4;
    let a = graded(64, 12, 46);
    let blocks = split_rows(&a, P);
    // (fanout, messages into rank 0): flat, [2, 2] and [3, 2].
    for (fanout, root_degree) in [(0, P as u64 - 1), (2, 2), (3, 3)] {
        let cfg = SvdConfig::new(3).with_r1(6).with_r2(6).with_tree_fanout(fanout);
        let world = World::new(P);
        let tags = world.run(|comm| {
            let before = comm.next_collective_tag();
            let _ = parallel_svd_once(comm, cfg, &blocks[comm.rank()]);
            comm.next_collective_tag() - before - 1
        });
        assert_eq!(tags, vec![2; P], "fanout {fanout}: collective tags claimed per rank");
        let stats = world.stats();
        assert_eq!(stats.total_messages(), 2 * (P as u64 - 1), "fanout {fanout}");
        assert_eq!(stats.recv_messages(0), root_degree, "fanout {fanout}: into the root");
        assert_eq!(stats.sent_messages(0), root_degree, "fanout {fanout}: out of the root");
    }
}

#[test]
fn fanout_sweep_stays_within_tracked_bound() {
    let a = graded(90, 12, 42);
    let base = SvdConfig::new(3).with_r1(6).with_r2(6).with_tree_fanout(0);
    for n_ranks in WORLDS {
        let (flat_modes, flat_sigma, _) = driver_round(&a, n_ranks, base);
        for fanout in FANOUTS {
            let cfg = base.with_tree_fanout(fanout);
            let (modes, sigma, info) = driver_round(&a, n_ranks, cfg);
            if fanout >= n_ranks {
                assert_eq!(sigma, flat_sigma, "{n_ranks} ranks fanout {fanout}: bitwise");
                assert_eq!(modes, flat_modes, "{n_ranks} ranks fanout {fanout}: bitwise");
                continue;
            }
            let expect = MergeTreePlan::uniform(fanout, n_ranks).unwrap();
            assert_eq!(info.fanouts, expect.fanouts(), "{n_ranks} ranks fanout {fanout}");
            let dev = max_sigma_dev(&sigma, &flat_sigma);
            assert!(
                dev <= info.interior_bound() + 1e-8,
                "{n_ranks} ranks fanout {fanout}: σ deviation {dev} exceeds tracked bound {}",
                info.interior_bound()
            );
            // The well-separated leading subspace survives the tree merge.
            let angle = max_principal_angle(&flat_modes, &modes);
            assert!(angle < 1e-3, "{n_ranks} ranks fanout {fanout}: mode angle {angle}");
        }
    }
}

#[test]
fn depth_sweep_stays_within_tracked_bound() {
    let a = graded(90, 12, 43);
    let base = SvdConfig::new(3).with_r1(6).with_r2(6).with_tree_fanout(0);
    for n_ranks in WORLDS {
        let (flat_modes, flat_sigma, _) = driver_round(&a, n_ranks, base);
        for depth in DEPTHS {
            let plan = MergeTreePlan::with_depth(depth, n_ranks).unwrap();
            let cfg = base.with_tree_fanout(plan.fanouts()[0]);
            let (modes, sigma, info) = driver_round(&a, n_ranks, cfg);
            if info.depth() == 1 {
                // Depth 1 (or a world too small to split) resolves flat.
                assert_eq!(sigma, flat_sigma, "{n_ranks} ranks depth {depth}: bitwise");
                assert_eq!(modes, flat_modes, "{n_ranks} ranks depth {depth}: bitwise");
            } else {
                assert!(info.depth() <= depth);
                let dev = max_sigma_dev(&sigma, &flat_sigma);
                assert!(
                    dev <= info.interior_bound() + 1e-8,
                    "{n_ranks} ranks depth {depth}: σ deviation {dev} exceeds bound {}",
                    info.interior_bound()
                );
            }
        }
    }
}

#[test]
fn truncation_bound_dominates_on_graded_and_clustered_spectra() {
    // Property sweep: aggressive interior truncation (r1 well below the
    // column count) across spectra, worlds, fanouts and seeds. The
    // deterministic path makes the per-merge discarded energy exact, so
    // the accumulated bound must dominate the observed σ deviation — with
    // only round-off slack.
    let shapes: &[fn(usize, usize, u64) -> Matrix] = &[graded, clustered];
    for (which, gen) in shapes.iter().enumerate() {
        for seed in [7u64, 19, 31] {
            let a = gen(96, 16, seed);
            let cfg = SvdConfig::new(3).with_r1(4).with_r2(4).with_tree_fanout(0);
            for n_ranks in [5usize, 8, 9] {
                let (_, flat_sigma, _) = driver_round(&a, n_ranks, cfg);
                for fanout in [2usize, 3] {
                    let (_, sigma, info) = driver_round(&a, n_ranks, cfg.with_tree_fanout(fanout));
                    let dev = max_sigma_dev(&sigma, &flat_sigma);
                    let bound = info.interior_bound();
                    assert!(
                        dev <= bound + 1e-8,
                        "spectrum {which} seed {seed} ranks {n_ranks} fanout {fanout}: \
                         deviation {dev} vs bound {bound}"
                    );
                    assert!(bound.is_finite() && bound >= 0.0);
                    // The bound is meaningful, not vacuous: it stays below
                    // the total spectral energy of the data.
                    let fro: f64 = a.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
                    assert!(bound < fro, "bound {bound} should undercut ‖A‖_F = {fro}");
                }
            }
        }
    }
}

#[test]
fn randomized_tree_path_tracks_leading_sigma() {
    // The randomized inner SVD rides the same tree; its σ estimates stay
    // close to the deterministic flat reference on a decaying spectrum.
    let a = graded(96, 16, 44);
    let cfg = SvdConfig::new(3)
        .with_r1(8)
        .with_r2(8)
        .with_low_rank(true)
        .with_power_iterations(2)
        .with_seed(5)
        .with_tree_fanout(3);
    let (_, sigma, info) = driver_round(&a, 9, cfg);
    assert_eq!(info.depth(), 2, "9 ranks at fanout 3");
    let (_, flat_sigma, _) = driver_round(&a, 9, cfg.with_tree_fanout(0));
    for (got, want) in sigma.iter().zip(&flat_sigma) {
        assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
    }
}

/// One timed one-shot run on a Theta-Aries-modelled world: 16 rows per
/// rank of a ~6-mode field with geometrically decaying weights, 24
/// snapshots, `r1 = K = 4` (so interior merges discard real, tracked
/// energy), compute charged at a fixed 25 GFLOP/s. Kernels and messages
/// run for real; only time is modelled, so every number is deterministic.
/// Returns (max rank clock, rank-0 ingress bytes, σ, interior bound).
fn timed_run(world_size: usize, plan: &MergeTreePlan) -> (f64, u64, Vec<f64>, f64) {
    const ROWS: usize = 16;
    const RATE: f64 = 25e9;
    let cfg = SvdConfig::new(4).with_r1(4).with_r2(4).with_forget_factor(1.0);
    let world = World::with_model(world_size, NetworkModel::theta_aries());
    let (out, clocks) = world.run_with_clocks(|comm| {
        let a = Matrix::from_fn(ROWS, 24, |i, j| {
            let g = (comm.rank() * ROWS + i) as f64;
            (0..6)
                .map(|p| {
                    let pf = p as f64;
                    0.6f64.powi(p) * (g * (pf + 1.0) * 0.37 + j as f64 * (pf * 1.3 + 0.41)).sin()
                })
                .sum()
        });
        try_merge_tree_svd(comm, cfg, &a, plan, Some(RATE)).expect("fault-free world")
    });
    let (_, sigma, info) = &out[0];
    let slowest = clocks.iter().cloned().fold(0.0, f64::max);
    (slowest, world.stats().recv_bytes(0), sigma.clone(), info.interior_bound())
}

/// Flat vs. {fanout 4, fanout 16, depth 2} at `world_size` ranks: every
/// tree's σ stays within its tracked bound of the flat result, and the
/// best tree beats the flat gather by >= 2x on the slowest rank's clock.
/// Prints the best speed-up and its rank-0 ingress reduction.
fn tree_beats_flat_on_simulated_time(world_size: usize) {
    let (flat_time, flat_ingress, flat_sigma, _) =
        timed_run(world_size, &MergeTreePlan::flat(world_size));
    let mut best = (0.0f64, 0.0f64);
    for plan in [
        MergeTreePlan::uniform(4, world_size).unwrap(),
        MergeTreePlan::uniform(16, world_size).unwrap(),
        MergeTreePlan::with_depth(2, world_size).unwrap(),
    ] {
        let (time, ingress, sigma, bound) = timed_run(world_size, &plan);
        let dev = max_sigma_dev(&sigma, &flat_sigma);
        assert!(
            dev <= bound + 1e-8,
            "{world_size} ranks {:?}: σ deviation {dev} exceeds tracked bound {bound}",
            plan.fanouts()
        );
        if flat_time / time > best.0 {
            best = (flat_time / time, flat_ingress as f64 / ingress as f64);
        }
    }
    assert!(
        best.0 >= 2.0,
        "{world_size} ranks: no tree beat the flat gather by 2x on simulated time (best {:.2}x)",
        best.0
    );
    println!(
        "{world_size} ranks: best tree {:.3}x flat on simulated time, rank-0 ingress {:.1}x down",
        best.0, best.1
    );
}

#[test]
fn tree_beats_flat_on_simulated_time_at_256_ranks() {
    tree_beats_flat_on_simulated_time(256);
}

/// DESIGN.md's 4096-rank figures, reproducible on demand:
/// `cargo test --release --test tree_merge -- --ignored --nocapture`.
#[test]
#[ignore = "spawns 4096 rank threads four times; run on demand"]
fn tree_beats_flat_on_simulated_time_at_4096_ranks() {
    tree_beats_flat_on_simulated_time(4096);
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn fanout_one_is_rejected_at_driver_construction() {
    // Fanout 1 can never reduce the active set; the driver rejects it up
    // front (inside the rank threads, which the harness surfaces as a
    // join panic) instead of hanging mid-stream.
    let a = graded(24, 8, 45);
    let blocks = split_rows(&a, 2);
    let cfg = SvdConfig::new(2).with_r1(8).with_r2(8).with_tree_fanout(1);
    let world = World::new(2);
    world.run(|comm| {
        let _ = ParallelStreamingSvd::<_, f64>::new(comm, cfg);
        let _ = &blocks;
    });
}
