//! `burgers_dist`: the paper's viscous-Burgers record, row-split over two
//! ranks, streamed through the parallel + randomized driver in fig1ab's
//! configuration. The only workload with comm on the path (APMOS
//! initialize, TSQR gather / scatter, factor broadcast) and, at
//! `n = K + B = 110 >= 48`, the only one in the blocked compact-WY +
//! packed-GEMM QR regime that `tall_stream` bypasses. Covers the
//! randomized pillar.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use psvd_comm::{Communicator, NetworkModel, ThreadComm, World};
use psvd_core::{ParallelStreamingSvd, SerialStreamingSvd, SvdConfig};
use psvd_data::burgers::{snapshot_rows, BurgersConfig};
use psvd_data::partition::block_range;
use psvd_linalg::gemm::matvec_t;
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::Matrix;

use crate::fixture::{max_rel_err, Rng};
use crate::harness::{query_ok, sigma_ok, Check, Outcome, RunCfg, Window};
use crate::probes::{self, SmallSvd, UpdateShape};
use crate::stats::{median, Segment};
use crate::trace::Tracer;

/// Oracle tolerances: the seed commit's values with 10x headroom.
const TOL_ORTHO: f64 = 5e-13;
const TOL_SIGMA_VS_SERIAL: f64 = 1e-10;

const RANKS: usize = 2;
const K: usize = 10;
const FORGET: f64 = 0.95;
/// Measurement noise added to the analytic record, relative to its O(1)
/// amplitude: makes the input depend on `--seed` and the record full rank.
const NOISE: f64 = 1e-4;
const QUERIES_PER_SEGMENT: usize = 8;

const GRID: usize = 16_384;
const SNAPSHOTS: usize = 800;
const BATCH: usize = 100;
/// Batches in one pass over the record.
const EPOCH: usize = SNAPSHOTS / BATCH;
/// Passes over the record before the window opens (`initialize` + 23
/// updates); the serial oracle is held against the first.
const WARMUP_EPOCHS: usize = 3;
const SETUPS: usize = 3;
/// Updates per equal-work segment; each ends with `gather_modes(0)` and
/// the queries on rank 0.
const SEGMENT_UPDATES: usize = 4;

fn svd_cfg() -> SvdConfig {
    // fig1ab's parallel configuration.
    SvdConfig::new(K)
        .with_forget_factor(FORGET)
        .with_r1(50)
        .with_r2(K)
        .with_low_rank(true)
        .with_power_iterations(2)
        .with_seed(1)
}

/// What one rank hands back from the world.
struct RankOut {
    sigma_after_epoch: Vec<f64>,
    sigma_final: Vec<f64>,
    tracer: Tracer,
    /// Rank 0 only.
    root: Option<RootOut>,
}

#[derive(Default)]
struct RootOut {
    setup_s: f64,
    segments: Vec<Segment>,
    update_ms: Vec<f64>,
    query_us: Vec<f64>,
    bad_queries: u64,
    gathered: Option<Matrix>,
    local_modes: Option<Matrix>,
    fresh_bytes: u64,
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    psvd_linalg::par::set_num_threads(1);
    let mut out = Outcome::default();

    let t_fix = Instant::now();
    let burgers =
        BurgersConfig { grid_points: GRID, snapshots: SNAPSHOTS, ..BurgersConfig::default() };
    let mut rng = Rng::new(cfg.seed);
    // Row blocks are generated and cut one rank at a time, so the full
    // record never sits in the measuring process beside its chunks.
    let chunks: Vec<Vec<Matrix>> = (0..RANKS)
        .map(|rank| {
            let (r0, r1) = block_range(GRID, RANKS, rank);
            let mut block = snapshot_rows(&burgers, r0, r1);
            for v in block.as_mut_slice() {
                *v += NOISE * rng.normal();
            }
            (0..EPOCH).map(|c| block.submatrix(0, r1 - r0, c * BATCH, (c + 1) * BATCH)).collect()
        })
        .collect();
    let global = |c: usize| Matrix::vstack_all(&[chunks[0][c].clone(), chunks[1][c].clone()]);
    let queries: Vec<Vec<f64>> = {
        let first = global(0);
        (0..QUERIES_PER_SEGMENT).map(|j| first.col(j * BATCH / QUERIES_PER_SEGMENT)).collect()
    };
    // The oracle: the deterministic serial driver over the first epoch.
    let sigma_serial = {
        let mut s = SerialStreamingSvd::<f64>::new(SvdConfig::new(K).with_forget_factor(FORGET));
        s.initialize(&global(0));
        for c in 1..EPOCH {
            s.incorporate_data(&global(c));
        }
        s.singular_values().to_vec()
    };
    out.fixture_s = t_fix.elapsed().as_secs_f64();

    tr.set_on(cfg.trace);
    let stop = AtomicBool::new(false);
    let trace_next = AtomicBool::new(false);
    let barrier = Barrier::new(RANKS);
    let mut last = Vec::new();
    for rep in 0..SETUPS {
        let timed = rep + 1 == SETUPS;
        let t0 = Instant::now();
        let world_span = tr.begin("comm.world_run", 0);
        let world = World::new(RANKS);
        let base: &Tracer = tr;
        let ranks = world.run(|comm| {
            rank_body(
                comm,
                cfg,
                &chunks,
                &queries,
                base,
                world_span.id(),
                t0,
                timed,
                &stop,
                &trace_next,
                &barrier,
            )
        });
        tr.end(world_span);
        out.setup_s.push(ranks[0].root.as_ref().expect("rank 0 reports").setup_s);
        last = ranks;
    }
    tr.set_on(false);

    let sigmas: Vec<Vec<f64>> = last.iter().map(|r| r.sigma_final.clone()).collect();
    let sigma_after_epoch = last[0].sigma_after_epoch.clone();
    let mut root = None;
    for r in last {
        tr.absorb(r.tracer);
        root = root.or(r.root);
    }
    let root = root.expect("rank 0 reports");
    out.segments = root.segments;
    out.update_ms = root.update_ms;
    out.query_us = root.query_us;
    out.bad_queries = root.bad_queries;

    let gathered = root.gathered.expect("rank 0 gathers the final modes");
    let ortho = orthogonality_error(&gathered);
    let sigma_err = max_rel_err(&sigma_after_epoch, &sigma_serial, 4);
    out.checks.push(Check::holds(
        "sigma_bitwise_equal_across_ranks",
        sigmas.iter().all(|s| s == &sigmas[0]),
    ));
    out.checks.push(Check::holds("sigma_finite_descending", sigma_ok(&sigmas[0])));
    out.checks.push(Check::new("ortho_err", ortho, TOL_ORTHO));
    out.checks.push(Check::new("leading4_sigma_vs_serial", sigma_err, TOL_SIGMA_VS_SERIAL));

    if cfg.trace {
        let local_rows = chunks[0][0].rows();
        let n = K + BATCH;
        let local = root.local_modes.as_ref().expect("rank 0 keeps its block");
        let shape = UpdateShape {
            // Rank 0's local stack is the live data; the root's stacked
            // R factors stay inside the driver, so noise stands in.
            qr: vec![
                probes::stacked(local, &sigmas[0], FORGET, &chunks[0][0]),
                probes::noise(RANKS * n, n),
            ],
            gemm: vec![(local_rows, n, n), (local_rows, n, K)],
            small: SmallSvd::LowRank { n, rank: K },
            modes: (GRID, K),
        };
        let l = &mut out.layers;
        let linalg_ms = probes::linalg(&shape, l);
        let exchange_ms = probes::comm(n, l);
        let of_rank0 = |name: &str| -> Vec<f64> {
            tr.spans()
                .iter()
                .filter(|s| s.tid == 1 && s.name == name && s.op > 0)
                .map(|s| s.ms())
                .collect()
        };
        let updates = of_rank0("core.update");
        probes::core_update(&updates, linalg_ms + exchange_ms, &of_rank0("core.query"), l);
        l.put("comm.wait_ms_est", (median(&updates) - linalg_ms).max(0.0), "ms");
        let inits: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.tid == 1 && s.name == "core.initialize")
            .map(|s| s.ms())
            .collect();
        l.put("core.initialize_ms", median(&inits), "ms");
        l.put("core.gather_modes_ms", median(&of_rank0("core.gather_modes")), "ms");
        l.put(
            "core.scratch_fresh_bytes_per_update",
            root.fresh_bytes as f64 / out.update_ms.len() as f64,
            "bytes",
        );
        probes::checkpoint(local, &sigmas[0], l);
        l.put("core.sigma_rel_err", sigma_err, "frac");
        l.put("core.ortho_err", ortho, "frac");
        model_epoch(&chunks, l);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn rank_body(
    comm: &ThreadComm,
    cfg: &RunCfg,
    chunks: &[Vec<Matrix>],
    queries: &[Vec<f64>],
    base: &Tracer,
    world_span: u32,
    t0: Instant,
    timed: bool,
    stop: &AtomicBool,
    trace_next: &AtomicBool,
    barrier: &Barrier,
) -> RankOut {
    let rank = comm.rank();
    let mine = &chunks[rank];
    let mut t = base.fork(rank as u32 + 1, world_span, 1 << 14);
    let mut root = (rank == 0).then(RootOut::default);

    let o = t.begin("core.new", 0);
    let mut d = ParallelStreamingSvd::new(comm, svd_cfg());
    t.end(o);
    let o = t.begin("core.initialize", 0);
    d.initialize(&mine[0]);
    t.end(o);
    let mut sigma_after_epoch = Vec::new();
    for next in 1..WARMUP_EPOCHS * EPOCH {
        let o = t.begin("core.update", 0);
        d.incorporate_data(&mine[next % EPOCH]);
        t.end(o);
        if next + 1 == EPOCH {
            sigma_after_epoch = d.singular_values().to_vec();
        }
    }
    if let Some(r) = root.as_mut() {
        r.setup_s = t0.elapsed().as_secs_f64();
    }
    d.reset_scratch_stats();

    let mut window = (timed && rank == 0).then(|| Window::open(cfg));
    let mut op = 0u32;
    let mut next = 0usize;
    while window_continues(timed, window.as_ref(), &mut t, stop, trace_next, barrier) {
        // The segment clock starts after the rendezvous.
        let started = Instant::now();
        for _ in 0..SEGMENT_UPDATES {
            op += 1;
            let o = t.begin("core.update", op);
            d.incorporate_data(&mine[next % EPOCH]);
            let ms = t.end(o) * 1e3;
            if let Some(r) = root.as_mut() {
                r.update_ms.push(ms);
            }
            next += 1;
        }
        let o = t.begin("core.gather_modes", op);
        let modes = d.gather_modes(0);
        t.end(o);
        if let (Some(r), Some(modes)) = (root.as_mut(), modes) {
            for x in queries {
                let o = t.begin("core.query", op);
                let c = matvec_t(&modes, x);
                r.query_us.push(t.end(o) * 1e6);
                r.bad_queries += u64::from(!query_ok(&c, K));
            }
        }
        if let Some(w) = window.as_mut() {
            w.end_segment(started, SEGMENT_UPDATES * BATCH, &t);
        }
    }
    t.set_on(false);

    let gathered = timed.then(|| d.gather_modes(0)).flatten();
    if let Some(r) = root.as_mut() {
        r.segments = window.map(|w| w.segments).unwrap_or_default();
        r.gathered = gathered;
        r.local_modes = Some(d.local_modes().clone());
        r.fresh_bytes = d.scratch_stats().fresh_bytes;
    }
    RankOut { sigma_after_epoch, sigma_final: d.singular_values().to_vec(), tracer: t, root }
}

/// Is another segment due, and does it record spans? Rank 0 owns the
/// clock (`window`); the harness's own barrier — not the program's
/// communicator — tells the other rank what it decided.
fn window_continues(
    timed: bool,
    window: Option<&Window>,
    t: &mut Tracer,
    stop: &AtomicBool,
    trace_next: &AtomicBool,
    barrier: &Barrier,
) -> bool {
    if !timed {
        return false;
    }
    if let Some(w) = window {
        stop.store(!w.more(), Ordering::SeqCst);
        w.begin_segment(t);
        trace_next.store(t.is_on(), Ordering::SeqCst);
    }
    barrier.wait();
    t.set_on(trace_next.load(Ordering::SeqCst));
    !stop.load(Ordering::SeqCst)
}

/// One extra epoch under the Theta/Aries alpha–beta model: exact message
/// and byte counts per update (`TrafficStats`) and the simulated seconds
/// an update's communication would cost on that network.
fn model_epoch(chunks: &[Vec<Matrix>], l: &mut crate::harness::Metrics) {
    let world = World::with_model(RANKS, NetworkModel::theta_aries());
    let barrier = Barrier::new(RANKS);
    let stats = world.stats();
    let per_rank = world.run(|comm| {
        let mine = &chunks[comm.rank()];
        let mut d = ParallelStreamingSvd::new(comm, svd_cfg());
        d.initialize(&mine[0]);
        barrier.wait();
        let before = (stats.total_messages(), stats.total_bytes(), stats.recv_bytes(0), comm.now());
        barrier.wait();
        for chunk in &mine[1..] {
            d.incorporate_data(chunk);
        }
        barrier.wait();
        (
            stats.total_messages() - before.0,
            stats.total_bytes() - before.1,
            stats.recv_bytes(0) - before.2,
            comm.now() - before.3,
        )
    });
    let updates = (EPOCH - 1) as f64;
    let (messages, bytes, ingress, _) = per_rank[0];
    let sim = per_rank.iter().map(|r| r.3).fold(0.0, f64::max);
    l.put("comm.messages_per_update", messages as f64 / updates, "count");
    l.put("comm.bytes_per_update", bytes as f64 / updates, "bytes");
    l.put("comm.root_ingress_bytes_per_update", ingress as f64 / updates, "bytes");
    l.put("comm.sim_s_per_update", sim / updates, "s");
}
