//! `tall_stream`: the serial streaming driver, in core, at ROADMAP 1(b)'s
//! hot shape — every timed update stacks `60000 x (24 + 8)`, which sits
//! under the `n < 48` cutoff and so takes the unblocked QR path. linalg
//! does nearly all the work; comm, data and serve do none. This is the
//! plain single-thread baseline the other workloads are read against.

use psvd_core::{SerialStreamingSvd, SvdConfig};
use psvd_linalg::Matrix;
use std::time::Instant;

use super::serial::{self, Tolerances};
use crate::fixture::{GramOracle, Planted, Rng};
use crate::harness::{query_ok, Outcome, RunCfg, Window};
use crate::trace::Tracer;

const TOL: Tolerances = Tolerances { ortho: 5e-13, angle: 1.3e-1, sigma: 1e-3 };

const M: usize = 60_000;
const K: usize = 24;
const B: usize = 8;
const FORGET: f64 = 0.95;
/// Distinct batches, replayed in order.
const RING: usize = 8;
const PLANTED: usize = 12;
const NOISE: f64 = 0.002;
/// Updates after `initialize` before the window opens: `K` fills at the
/// third batch, so every timed update is the steady shape.
const WARMUPS: usize = 3;
const SETUPS: usize = 3;
/// Update ops per equal-work segment: throughput is a median over
/// two-update segments, latency a median over single updates, so a stall
/// on every other batch moves the first even where it splits the second.
const SEGMENT_UPDATES: usize = 2;
const QUERIES_PER_UPDATE: usize = 8;

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    psvd_linalg::par::set_num_threads(1);
    let mut out = Outcome::default();

    let t_fix = Instant::now();
    let mut rng = Rng::new(cfg.seed);
    let planted = Planted::new(M, PLANTED, RING * B, NOISE, &mut rng);
    let ring: Vec<Matrix> = (0..RING).map(|j| planted.batch(j * B, B, &mut rng)).collect();
    let grams: Vec<Matrix> = ring.iter().map(|a| GramOracle::project(&planted.modes, a)).collect();
    let queries: Vec<Vec<f64>> =
        (0..QUERIES_PER_UPDATE).map(|j| ring[j % RING].col(j % B)).collect();
    out.fixture_s = t_fix.elapsed().as_secs_f64();

    let svd_cfg = SvdConfig::new(K).with_forget_factor(FORGET);
    let mut svd = SerialStreamingSvd::<f64>::new(svd_cfg);
    tr.set_on(cfg.trace);
    for _ in 0..SETUPS {
        let o = tr.begin("core.new", 0);
        svd = SerialStreamingSvd::<f64>::new(svd_cfg);
        let mut spent = tr.end(o);
        let o = tr.begin("core.initialize", 0);
        svd.initialize(&ring[0]);
        spent += tr.end(o);
        for batch in &ring[1..=WARMUPS] {
            let o = tr.begin("core.update", 0);
            svd.incorporate_data(batch);
            spent += tr.end(o);
        }
        out.setup_s.push(spent);
    }
    let mut oracle = GramOracle::new(PLANTED, FORGET);
    for g in &grams[..=WARMUPS] {
        oracle.ingest(g);
    }
    svd.reset_scratch_stats();

    let mut next = WARMUPS + 1;
    let mut op = 0u32;
    let mut w = Window::open(cfg);
    while w.more() {
        let started = w.begin_segment(tr);
        for _ in 0..SEGMENT_UPDATES {
            op += 1;
            let o = tr.begin("core.update", op);
            svd.incorporate_data(&ring[next % RING]);
            out.update_ms.push(tr.end(o) * 1e3);
            oracle.ingest(&grams[next % RING]);
            next += 1;
            for x in &queries {
                let o = tr.begin("core.query", op);
                let c = svd.project(x);
                out.query_us.push(tr.end(o) * 1e6);
                out.bad_queries += u64::from(!query_ok(&c, K));
            }
        }
        w.end_segment(started, SEGMENT_UPDATES * B, tr);
    }
    tr.set_on(false);
    out.segments = w.segments;

    let errs = serial::check(&svd, &planted.modes, &oracle.sigma(), &TOL, &mut out);
    if cfg.trace {
        let updates = out.update_ms.len();
        serial::ledger(&svd, &ring[next % RING], tr, errs, updates, &mut out.layers);
    }
    out
}
