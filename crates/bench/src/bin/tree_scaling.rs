//! Merge-tree weak scaling: simulated-time crossover of hierarchical
//! APMOS over the flat rank-0 gather, swept to 4096 simulated ranks,
//! emitting machine-readable JSON (`BENCH_tree.json`).
//!
//! ```text
//! cargo run -p psvd-bench --release --bin tree_scaling [-- --quick] [--out PATH]
//! ```
//!
//! Every rank's kernels and messages run for real over the in-process
//! fabric; time is accounted on the per-rank simulated clocks (Theta
//! Aries-like alpha–beta model, analytic flop charges at a nominal
//! dense-kernel rate — the same substitution as `fig1c_weak_scaling`, see
//! DESIGN.md). Four series per world size, all through the one engine,
//! [`psvd_core::try_merge_tree_svd_timed`]:
//!
//! * `flat` — the paper's configuration, i.e. the depth-1 plan the
//!   parallel driver itself runs by default: every rank's `r1`-column
//!   factor to rank 0, one factorization there, flat broadcast back.
//! * `fanout4` / `fanout16` — merge trees of uniform fanout, the factor
//!   broadcast routed through the tree collectives.
//! * `depth2` — a two-level tree with fanout ≈ √P.
//!
//! Gated contracts (timings are informational, the gates are not): every
//! tree run's σ deviation from flat stays within its tracked per-level
//! truncation bound; and at the largest world at least one tree
//! configuration beats the flat gather by >= 2x simulated time.

use std::fmt::Write as _;

use psvd_bench::{fmt_secs, Table};
use psvd_comm::{Communicator, NetworkModel, World};
use psvd_core::{try_merge_tree_svd_timed, MergeTreePlan, Precision, SvdConfig};
use psvd_linalg::Matrix;

/// Rows per rank (the weak-scaling axis holds this fixed).
const ROWS: usize = 16;
/// Snapshots.
const SNAPS: usize = 24;
/// APMOS local truncation: columns each rank forwards.
const R1: usize = 4;
/// Modes (= r2: the root truncation).
const K: usize = 4;
/// Nominal dense-kernel rate for the flop->seconds conversion. Fixed, not
/// calibrated: the artifact must be reproducible across CI hosts, and the
/// gates compare simulated times that all use the same rate.
const RATE: f64 = 25e9;

fn base_cfg() -> SvdConfig {
    SvdConfig::new(K)
        .with_r1(R1)
        .with_r2(K)
        .with_forget_factor(1.0)
        .with_precision(Precision::F64)
        .with_tree_fanout(0)
        .with_tree_depth(0)
}

/// This rank's row block: a global field with ~6 modes of geometrically
/// decaying weight, so the interior `r1 = 4` truncation discards real
/// (tracked) energy.
fn local_block(rank: usize) -> Matrix {
    Matrix::from_fn(ROWS, SNAPS, |i, j| {
        let g = (rank * ROWS + i) as f64;
        (0..6)
            .map(|p| {
                0.6f64.powi(p)
                    * ((g * (p as f64 + 1.0) * 0.37 + j as f64 * (p as f64 * 1.3 + 0.41)).sin())
            })
            .sum()
    })
}

struct RunOut {
    label: &'static str,
    fanouts: Vec<usize>,
    sim_seconds: f64,
    messages: u64,
    bytes: u64,
    root_recv_bytes: u64,
    sigma: Vec<f64>,
    bound: f64,
}

fn run_tree(world_size: usize, label: &'static str, plan: &MergeTreePlan) -> RunOut {
    let world = World::with_model(world_size, NetworkModel::theta_aries());
    let (out, clocks) = world.run_with_clocks(|comm| {
        let a = local_block(comm.rank());
        try_merge_tree_svd_timed(comm, base_cfg(), &a, plan, RATE).expect("tree run failed")
    });
    let stats = world.stats();
    let info = &out[0].2;
    RunOut {
        label,
        fanouts: info.fanouts.clone(),
        sim_seconds: clocks.iter().cloned().fold(0.0, f64::max),
        messages: stats.total_messages(),
        bytes: stats.total_bytes(),
        root_recv_bytes: stats.recv_bytes(0),
        sigma: out[0].1.clone(),
        bound: info.interior_bound(),
    }
}

fn max_sigma_dev(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_tree.json".to_string());

    let worlds: &[usize] = if quick { &[16, 64, 256] } else { &[16, 64, 256, 1024, 4096] };
    let largest = *worlds.last().unwrap();

    println!(
        "== merge-tree weak scaling: {ROWS} rows/rank, {SNAPS} snapshots, r1 = {R1}, K = {K} =="
    );
    println!(
        "network model: Theta Aries (1.2 us, 8 GB/s); nominal compute rate {:.0} GF/s\n",
        RATE / 1e9
    );

    let mut rows: Vec<(usize, RunOut, f64, f64)> = Vec::new(); // (world, run, dev, speedup)
    let mut best_speedup_at_largest = 0.0f64;
    for &w in worlds {
        let flat = run_tree(w, "flat", &MergeTreePlan::flat(w));
        let plans = [
            ("fanout4", MergeTreePlan::uniform(4, w).expect("fanout 4")),
            ("fanout16", MergeTreePlan::uniform(16, w).expect("fanout 16")),
            ("depth2", MergeTreePlan::with_depth(2, w).expect("depth 2")),
        ];
        let flat_time = flat.sim_seconds;
        let flat_sigma = flat.sigma.clone();
        rows.push((w, flat, 0.0, 1.0));
        for (label, plan) in plans {
            let run = run_tree(w, label, &plan);
            let dev = max_sigma_dev(&run.sigma, &flat_sigma);
            assert!(
                dev <= run.bound + 1e-8,
                "{w} ranks {label}: σ deviation {dev} exceeds tracked bound {}",
                run.bound
            );
            let speedup = flat_time / run.sim_seconds;
            if w == largest {
                best_speedup_at_largest = best_speedup_at_largest.max(speedup);
            }
            rows.push((w, run, dev, speedup));
        }
    }

    let table = Table::new(&[
        "ranks",
        "series",
        "tree",
        "sim time",
        "speedup",
        "messages",
        "rank-0 recv",
        "sigma dev",
        "bound",
    ]);
    for (w, run, dev, speedup) in &rows {
        table.row(&[
            w.to_string(),
            run.label.to_string(),
            format!("{:?}", run.fanouts),
            fmt_secs(run.sim_seconds),
            format!("{speedup:.2}x"),
            run.messages.to_string(),
            format!("{:.1} kB", run.root_recv_bytes as f64 / 1024.0),
            format!("{dev:.2e}"),
            format!("{:.2e}", run.bound),
        ]);
    }
    println!(
        "\ngates: σ deviation within the tracked bound everywhere, best tree speedup at \
         {largest} ranks = {best_speedup_at_largest:.2}x >= 2x"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"tree_scaling\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"rows_per_rank\": {ROWS},");
    let _ = writeln!(json, "  \"snapshots\": {SNAPS},");
    let _ = writeln!(json, "  \"r1\": {R1},");
    let _ = writeln!(json, "  \"k\": {K},");
    let _ = writeln!(json, "  \"compute_rate_gflops\": {:.0},", RATE / 1e9);
    let _ = writeln!(json, "  \"network\": \"theta-aries\",");
    let _ = writeln!(json, "  \"largest_world\": {largest},");
    let _ = writeln!(json, "  \"best_speedup_at_largest\": {best_speedup_at_largest:.3},");
    json.push_str("  \"results\": [\n");
    for (i, (w, run, dev, speedup)) in rows.iter().enumerate() {
        let fanouts = run.fanouts.iter().map(|f| f.to_string()).collect::<Vec<_>>().join(", ");
        let _ = write!(
            json,
            "    {{ \"world\": {w}, \"series\": \"{}\", \"fanouts\": [{fanouts}], \
             \"sim_seconds\": {:.9}, \"speedup_vs_flat\": {speedup:.3}, \"messages\": {}, \
             \"bytes\": {}, \"root_recv_bytes\": {}, \"sigma_dev_vs_flat\": {dev:.3e}, \
             \"tracked_bound\": {:.3e} }}",
            run.label, run.sim_seconds, run.messages, run.bytes, run.root_recv_bytes, run.bound,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_tree.json");
    println!("wrote {out_path}");

    assert!(
        best_speedup_at_largest >= 2.0,
        "no tree configuration beat the flat gather by 2x at {largest} ranks \
         (best: {best_speedup_at_largest:.2}x)"
    );
}
