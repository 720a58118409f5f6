//! Figure 1(c): weak scaling of the parallelized + randomized SVD.
//!
//! The paper fixes 1024 grid points per rank and scales to 256 nodes of
//! Theta, timing the one-shot parallel randomized SVD (no streaming). This
//! host has one or two cores, so — per the substitution documented in
//! `DESIGN.md` — the *algorithm and all messages run for real* over the
//! in-process fabric, while time is accounted on per-rank simulated clocks:
//!
//! - compute: analytic flop counts for each phase, converted to seconds at
//!   the host's calibrated dense-kernel rate;
//! - communication: every real message charged `alpha + bytes/bandwidth`
//!   (Theta Aries-like parameters) plus per-message endpoint overhead.
//!
//! Reported: simulated wall-clock per rank count (max over rank clocks),
//! weak-scaling efficiency `t(1)/t(N)`, and real traffic volumes, for three
//! series, all through the one engine ([`psvd_core::try_merge_tree_svd`]
//! with a compute rate): the paper's randomized
//! flat-gather configuration, a deterministic rank-0 baseline, and a
//! two-level merge tree with ~√P groups (an extension that removes the
//! rank-0 bottleneck).
//!
//! ```text
//! cargo run -p psvd-bench --release --bin fig1c_weak_scaling            # up to 64 ranks
//! cargo run -p psvd-bench --release --bin fig1c_weak_scaling -- --full  # up to 256 ranks
//! ```

use psvd_bench::{calibrate_flops_per_sec, fmt_secs, Table};
use psvd_comm::{Communicator, NetworkModel, World};
use psvd_core::{try_merge_tree_svd, MergeTreePlan, SvdConfig};
use psvd_data::burgers::{snapshot_rows, BurgersConfig};

/// Per-rank grid points, as in the paper.
const POINTS_PER_RANK: usize = 1024;
/// Snapshots (paper: 800; reduced so the 256-rank point runs in seconds).
const SNAPSHOTS: usize = 128;
/// APMOS local truncation (paper: 50; scaled with the snapshot count).
const R1: usize = 16;
/// Modes (= r2: the root truncation).
const K: usize = 10;

fn run_scale(n_ranks: usize, svd: SvdConfig, plan: &MergeTreePlan, rate: f64) -> (f64, u64, u64) {
    let cfg = BurgersConfig {
        grid_points: POINTS_PER_RANK * n_ranks,
        snapshots: SNAPSHOTS,
        ..BurgersConfig::default()
    };
    let world = World::with_model(n_ranks, NetworkModel::theta_aries());
    let (_, clocks) = world.run_with_clocks(|comm| {
        let r0 = comm.rank() * POINTS_PER_RANK;
        let local = snapshot_rows(&cfg, r0, r0 + POINTS_PER_RANK);
        try_merge_tree_svd(comm, svd, &local, plan, Some(rate)).expect("fault-free world").1
    });
    let t = clocks.iter().cloned().fold(0.0, f64::max);
    (t, world.stats().total_messages(), world.stats().total_bytes())
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let max_ranks = if full { 256 } else { 64 };
    let rate = calibrate_flops_per_sec();
    println!("== Figure 1(c): weak scaling, {POINTS_PER_RANK} grid points/rank, {SNAPSHOTS} snapshots, K = {K}, r1 = {R1} ==");
    println!(
        "calibrated dense-kernel rate: {:.2} GF/s; network model: Theta Aries (1.2 us, 8 GB/s)\n",
        rate / 1e9
    );

    let mut ranks = vec![1usize];
    while *ranks.last().unwrap() < max_ranks {
        ranks.push(ranks.last().unwrap() * 2);
    }

    let base = SvdConfig::new(K).with_r1(R1).with_r2(K).with_forget_factor(1.0);
    type PlanFor = fn(usize) -> MergeTreePlan;
    let series: [(SvdConfig, PlanFor, &str); 3] = [
        (
            base.with_low_rank(true),
            MergeTreePlan::flat,
            "randomized, flat gather (paper's configuration)",
        ),
        (base, MergeTreePlan::flat, "deterministic, flat gather (baseline)"),
        (
            base.with_low_rank(true),
            |p| MergeTreePlan::with_depth(2, p).expect("depth 2 is a valid shape"),
            "randomized, two-level merge tree with ~sqrt(P) groups (extension)",
        ),
    ];
    for (svd, plan_for, label) in series {
        println!("-- {label} --");
        let table = Table::new(&[
            "ranks",
            "global points",
            "sim time",
            "efficiency",
            "messages",
            "bytes moved",
        ]);
        let mut t1 = None;
        for &n in &ranks {
            let (t, msgs, bytes) = run_scale(n, svd, &plan_for(n), rate);
            let t1v = *t1.get_or_insert(t);
            table.row(&[
                n.to_string(),
                (n * POINTS_PER_RANK).to_string(),
                fmt_secs(t),
                format!("{:.3}", t1v / t),
                msgs.to_string(),
                format!("{:.1} kB", bytes as f64 / 1024.0),
            ]);
        }
        println!();
    }
    println!("ideal weak scaling = efficiency 1.0 at every rank count; the paper reports");
    println!("\"scaling is seen to follow the ideal trend appropriately\" up to 256 nodes.");
}
