//! Layer probes: each layer's public kernel called in isolation at the
//! workload's exact shapes, repeated, and reported as the **minimum**
//! (ROADMAP 1(a)'s min-of-N: a neighbour on the shared host only ever
//! adds time, so the minimum is the kernel's own cost). A span's
//! *attributed* self time is its median duration minus these probed
//! children — attributed, not measured, because a probe runs with warm
//! caches on buffers of its own.

use std::hint::black_box;
use std::time::Instant;

use psvd_comm::{Communicator, World};
use psvd_core::SvdCheckpoint;
use psvd_linalg::gemm::{matmul, matmul_into, matvec_t};
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::randomized::low_rank_svd;
use psvd_linalg::svd::{svd_with, SvdMethod};
use psvd_linalg::workspace::Workspace;
use psvd_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fixture::Rng;
use crate::harness::Metrics;
use crate::stats::median;

/// The quiet-host cost out of repeated timings.
pub fn quiet(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Time `f` repeatedly: at least `min_reps` calls, more until `budget_s`
/// is spent (capped at 400). Returns one duration (ms) per call. The
/// first call warms buffers and caches and is dropped — unless it ran
/// for over a quarter second, where first-touch cost no longer shows.
pub fn time_reps(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    let opened = Instant::now();
    let mut out = Vec::new();
    let mut warm = false;
    while out.len() < min_reps || (opened.elapsed().as_secs_f64() < budget_s && out.len() < 400) {
        let t = Instant::now();
        f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if warm || ms > 250.0 {
            out.push(ms);
        }
        warm = true;
    }
    out
}

/// A noise matrix of the given shape, for kernels whose live input the
/// harness cannot rebuild.
pub fn noise(rows: usize, cols: usize) -> Matrix {
    let mut rng = Rng::new((rows * 31 + cols) as u64);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform() - 0.5)
}

/// The `[ff·U·diag(σ) | A]` stack the next update would factor, rebuilt
/// from the driver's public state: the QR probe then runs on the live
/// data, not on noise of the same shape.
pub fn stacked(modes: &Matrix, sigma: &[f64], forget_factor: f64, batch: &Matrix) -> Matrix {
    let weights: Vec<f64> = sigma.iter().map(|s| s * forget_factor).collect();
    modes.mul_diag(&weights).hstack(batch)
}

/// The small factorization an update performs on its `n x n` triangle.
#[derive(Clone, Copy, Debug)]
pub enum SmallSvd {
    /// `svd_with(R, default)` — the deterministic drivers.
    Dense { n: usize },
    /// `low_rank_svd(R, rank)` — rank 0 of the randomized parallel driver.
    LowRank { n: usize, rank: usize },
}

/// The linalg calls one update op makes on the measuring thread.
#[derive(Clone, Debug)]
pub struct UpdateShape {
    /// The matrices one update thin-QRs.
    pub qr: Vec<Matrix>,
    /// `matmul_into` products, `(m, k, n)` for `m x k · k x n`.
    pub gemm: Vec<(usize, usize, usize)>,
    pub small: SmallSvd,
    /// Shape of the published modes a query projects onto.
    pub modes: (usize, usize),
}

/// Householder thin QR with explicit `Q`: `R` costs `2mn² − 2n³/3`,
/// forming the thin `Q` the same again.
pub fn qr_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    4.0 * m * n * n - 4.0 * n * n * n / 3.0
}

/// Probe the linalg layer at `shape`; returns the probed cost of one
/// update's linalg children in ms.
pub fn linalg(shape: &UpdateShape, out: &mut Metrics) -> f64 {
    let mut ws = Workspace::new();

    let mut qr_ms = 0.0;
    let mut flops = 0.0;
    for a in &shape.qr {
        let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let reps = time_reps(2, 0.15, || qr_thin_into(a.view(), &mut q, &mut r, &mut ws));
        black_box(&q);
        qr_ms += quiet(&reps);
        flops += qr_flops(a.rows(), a.cols());
    }
    let qr_gflops = flops / (qr_ms * 1e6);
    out.put("linalg.qr_ms", qr_ms, "ms");
    out.put("linalg.qr_gflops", qr_gflops, "GFLOP/s");

    let small_ms = match shape.small {
        SmallSvd::Dense { n } => {
            let r = noise(n, n);
            quiet(&time_reps(5, 0.05, || {
                black_box(svd_with(&r, SvdMethod::default()));
            }))
        }
        SmallSvd::LowRank { n, rank } => {
            let r = noise(n, n);
            let mut srng = StdRng::seed_from_u64(1);
            quiet(&time_reps(5, 0.05, || {
                black_box(low_rank_svd(&r, rank, &mut srng));
            }))
        }
    };
    out.put("linalg.small_svd_ms", small_ms, "ms");

    let mut gemm_ms = 0.0;
    let mut flops = 0.0;
    for &(m, k, n) in &shape.gemm {
        let a = noise(m, k);
        let b = noise(k, n);
        let mut c = Matrix::zeros(0, 0);
        let reps = time_reps(5, 0.1, || matmul_into(a.view(), b.view(), &mut c));
        black_box(&c);
        gemm_ms += quiet(&reps);
        flops += 2.0 * (m * k * n) as f64;
    }
    out.put("linalg.gemm_ms", gemm_ms, "ms");
    out.put("linalg.gemm_gflops", flops / (gemm_ms * 1e6), "GFLOP/s");

    // The kernel ceiling, measured in this run on this host.
    let a = noise(512, 512);
    let b = a.transpose();
    let peak_ms = quiet(&time_reps(5, 0.1, || {
        black_box(matmul(&a, &b));
    }));
    let peak = 2.0 * 512f64.powi(3) / (peak_ms * 1e6);
    out.put("linalg.peak_gflops", peak, "GFLOP/s");
    out.put("linalg.qr_frac_of_peak", qr_gflops / peak, "frac");

    let modes = noise(shape.modes.0, shape.modes.1);
    let x = noise(shape.modes.0, 1).into_vec();
    let mv = quiet(&time_reps(9, 0.03, || {
        black_box(matvec_t(&modes, &x));
    }));
    out.put("linalg.matvec_t_us", mv * 1e3, "us");

    qr_ms + small_ms + gemm_ms
}

/// Checkpoint encode / decode of one rank's state at the workload's size.
pub fn checkpoint(modes: &Matrix, sigma: &[f64], out: &mut Metrics) {
    let ckpt = SvdCheckpoint {
        modes: modes.clone(),
        singular_values: sigma.to_vec(),
        iteration: 1,
        snapshots_seen: 1,
    };
    let bytes = ckpt.to_bytes();
    let enc = quiet(&time_reps(5, 0.05, || {
        black_box(ckpt.to_bytes());
    }));
    let dec = quiet(&time_reps(5, 0.05, || {
        black_box(SvdCheckpoint::from_bytes(&bytes).expect("own encoding decodes"));
    }));
    out.put("core.ckpt_encode_ms", enc, "ms");
    out.put("core.ckpt_decode_ms", dec, "ms");
    out.put("core.ckpt_bytes", bytes.len() as f64, "bytes");
}

/// Comm primitives the distributed update is built from, on 2 ranks:
/// spawning a world with an empty body, and one `n x n` gather to rank 0
/// followed by a broadcast back. Returns the exchange cost in ms.
pub fn comm(n: usize, out: &mut Metrics) -> f64 {
    let spawn = quiet(&time_reps(30, 0.1, || {
        World::new(2).run(|_| ());
    }));
    out.put("comm.world_spawn_us", spawn * 1e3, "us");

    let block = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64);
    let per_rank = World::new(2).run(|comm| {
        let mut samples = Vec::with_capacity(200);
        for _ in 0..200 {
            let t = Instant::now();
            let gathered = comm.gather(block.clone(), 0);
            let back = comm.bcast(gathered.map(|mut g| g.swap_remove(0)), 0);
            black_box(back);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        samples
    });
    let exchange = quiet(&per_rank[0]);
    out.put("comm.gather_bcast_us", exchange * 1e3, "us");
    exchange
}

/// Cost of one clock pair, the floor under every latency reported.
pub fn timer_ns() -> f64 {
    let n = 100_000;
    let opened = Instant::now();
    for _ in 0..n {
        black_box(Instant::now().elapsed());
    }
    opened.elapsed().as_nanos() as f64 / n as f64
}

/// `core.update` span statistics, the attributed self time, and the
/// median of the traced queries (the end-to-end metric is their p10).
pub fn core_update(update_ms: &[f64], children_ms: f64, query_ms: &[f64], out: &mut Metrics) {
    out.put("core.query_p50_us", median(query_ms) * 1e3, "us");
    let p50 = median(update_ms);
    out.put("core.update_ms", p50, "ms");
    out.put("core.update_p90_ms", crate::stats::percentile(update_ms, 90.0), "ms");
    out.put("core.update_count", update_ms.len() as f64, "count");
    // A stand-alone kernel's time depends on where its buffers land in
    // physical memory (the column-strided QR varies by ~4 % between
    // allocations), so a self time inside that margin can come out
    // below zero: it is then reported as 0, "under the probe's resolution".
    let self_ms = (p50 - children_ms).max(0.0);
    out.put("core.self_ms", self_ms, "ms");
    out.put("core.self_frac", self_ms / p50, "frac");
}
