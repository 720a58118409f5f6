//! `serve_mixed`: the multi-tenant server under a closed loop from one
//! client. 48 small tenants against a resident cap of 24: 16 hot ones
//! (half one-rank, half two-rank) are updated every sweep, 32 cold ones
//! eight per sweep in rotation, so the LRU spills and rehydrates eight
//! sessions every sweep. Queries (reads) run while the rounds (writes)
//! are in flight.
//!
//! Each round is about a megaflop of linalg, so the queue, the scheduler,
//! per-round checkpoint-in/out, the per-round `World` spawn of two-rank
//! tenants and the spill / rehydrate cycle do most of the work — what
//! ROADMAP item 4 removes. A lock every query has to take shows in
//! `query_p10_us`; one that delays only some of them shows in
//! `core.query_p50_us` and the printed distribution (see
//! `stats::QUERY_PERCENTILE`).

use std::time::Instant;

use psvd_comm::SelfComm;
use psvd_core::{ParallelStreamingSvd, SvdCheckpoint};
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::Matrix;
use psvd_serve::{
    CoalescedBatches, ServeConfig, ServeError, SessionModel, SessionSpec, SessionState, SvdServer,
};

use crate::fixture::{max_rel_err, Planted, Rng};
use crate::harness::{query_ok, sigma_ok, Check, Metrics, Outcome, RunCfg, Window};
use crate::probes::{self, quiet, time_reps, SmallSvd, UpdateShape};
use crate::stats::{median, percentile};
use crate::trace::{window_durations_ms, Tracer};

/// Oracle tolerance: the seed commit's value with 10x headroom.
const TOL_ORTHO: f64 = 5e-13;

const WORKERS: usize = 2;
const K: usize = 8;
const B: usize = 8;
const RING: usize = 8;

const ROWS: usize = 2048;
/// Hot tenants; the first half run one-rank rounds, the rest two-rank.
const HOT: usize = 16;
const COLD: usize = 32;
const COLD_PER_SWEEP: usize = 8;
const TENANTS: usize = HOT + COLD;
/// Rounds outstanding per sweep, which is also the resident cap.
const PER_SWEEP: usize = HOT + COLD_PER_SWEEP;
const QUERIES_PER_SWEEP: usize = 64;
/// Sweeps before the window opens: 14 cold rotations, so every cold
/// tenant is initialized and the spill / rehydrate cycle is steady.
const WARMUP_SWEEPS: usize = 56;
/// Sweeps per equal-work segment (two cold rotations).
const SEGMENT_SWEEPS: usize = 8;
const SETUPS: usize = 3;

fn spec(tenant: usize) -> SessionSpec {
    let two_rank = (HOT / 2..HOT).contains(&tenant);
    SessionSpec::new(K, ROWS).with_batch(B).with_ranks(if two_rank { 2 } else { 1 })
}

/// The client: owns the server of the current set-up and the exact
/// column stream each tenant was sent (for the replay oracle).
struct Client<'a> {
    server: SvdServer,
    names: Vec<String>,
    ring: &'a [Matrix],
    query: &'a [f64],
    submitted: Vec<usize>,
    sweeps: usize,
    queue_full: u64,
}

impl<'a> Client<'a> {
    /// `new` + one `open` per tenant, timed as calls into the program.
    fn connect(ring: &'a [Matrix], query: &'a [f64], tr: &mut Tracer) -> (Self, f64) {
        let cfg = ServeConfig::default()
            .with_workers(WORKERS)
            .with_sessions(PER_SWEEP)
            .with_round_batches(1)
            .with_queue_depth(1024)
            .with_idle_rounds(0);
        let o = tr.begin("serve.new", 0);
        let server = SvdServer::new(cfg);
        let mut spent = tr.end(o);
        let names: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i:02}")).collect();
        for (i, name) in names.iter().enumerate() {
            let o = tr.begin("serve.open", 0);
            server.open(name, spec(i)).expect("fresh tenant key");
            spent += tr.end(o);
        }
        let submitted = vec![0; TENANTS];
        (Self { server, names, ring, query, submitted, sweeps: 0, queue_full: 0 }, spent)
    }

    /// The batch tenant `i` receives as its `j`-th submit.
    fn batch_for(&self, tenant: usize, j: usize) -> &'a Matrix {
        &self.ring[(tenant + j) % self.ring.len()]
    }

    /// One sweep: a canonical batch to every hot tenant and this sweep's
    /// cold ones, projection queries on hot tenants while those rounds
    /// are in flight, then `drain`. Returns the seconds spent in the
    /// program and pushes query latencies (µs) and malformed answers.
    fn sweep(&mut self, tr: &mut Tracer, op: u32, query_us: &mut Vec<f64>, bad: &mut u64) -> f64 {
        let rotation = (self.sweeps * COLD_PER_SWEEP) % COLD;
        let targets: Vec<usize> =
            (0..HOT).chain((0..COLD_PER_SWEEP).map(|c| HOT + (rotation + c) % COLD)).collect();
        // `submit` takes ownership; the copies are made before the clock starts.
        let chunks: Vec<Matrix> =
            targets.iter().map(|&t| self.batch_for(t, self.submitted[t]).clone()).collect();
        // The very first sweep has nothing published to query until it drains.
        let queries_first = self.sweeps > 0;

        let sweep = tr.begin("serve.sweep", op);
        for (&t, chunk) in targets.iter().zip(chunks) {
            let o = tr.begin("serve.submit", op);
            let res = self.server.submit(&self.names[t], chunk);
            tr.end(o);
            match res {
                Ok(()) => self.submitted[t] += 1,
                Err(ServeError::QueueFull { .. }) => self.queue_full += 1,
                Err(e) => panic!("submit failed: {e}"),
            }
        }
        if !queries_first {
            let o = tr.begin("serve.drain", op);
            self.server.drain();
            tr.end(o);
        }
        for q in 0..QUERIES_PER_SWEEP {
            let o = tr.begin("serve.query", op);
            let c = self.server.project(&self.names[q % HOT], self.query);
            query_us.push(tr.end(o) * 1e6);
            *bad += u64::from(!c.is_ok_and(|c| query_ok(&c, K)));
        }
        if queries_first {
            let o = tr.begin("serve.drain", op);
            self.server.drain();
            tr.end(o);
        }
        self.sweeps += 1;
        tr.end(sweep)
    }

    /// Stand-alone replay of everything tenant `t` was sent.
    fn replay(&self, t: usize) -> SessionState {
        let mut state = SessionState::new(spec(t));
        for j in 0..self.submitted[t] {
            state.update(&CoalescedBatches::from_batches(vec![self.batch_for(t, j).clone()]));
        }
        state
    }
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    psvd_linalg::par::set_num_threads(1);
    let mut out = Outcome::default();

    let t_fix = Instant::now();
    let mut rng = Rng::new(cfg.seed);
    let planted = Planted::new(ROWS, 4, RING * B, 0.01, &mut rng);
    let ring: Vec<Matrix> = (0..RING).map(|j| planted.batch(j * B, B, &mut rng)).collect();
    let query = ring[0].col(0);
    out.fixture_s = t_fix.elapsed().as_secs_f64();

    tr.set_on(cfg.trace);
    let mut sink = Vec::new();
    let mut client = None;
    for _ in 0..SETUPS {
        if let Some(old) = client.take() {
            let old: Client = old;
            old.server.shutdown();
        }
        let (mut c, mut spent) = Client::connect(&ring, &query, tr);
        for _ in 0..WARMUP_SWEEPS {
            spent += c.sweep(tr, 0, &mut sink, &mut out.bad_queries);
        }
        out.setup_s.push(spent);
        client = Some(c);
    }
    let mut client = client.expect("at least one set-up");
    let before = client.server.stats().snapshot();

    let mut op = 0u32;
    let mut w = Window::open(cfg);
    while w.more() {
        let started = w.begin_segment(tr);
        for _ in 0..SEGMENT_SWEEPS {
            op += 1;
            let s = client.sweep(tr, op, &mut out.query_us, &mut out.bad_queries);
            out.update_ms.push(s * 1e3);
        }
        w.end_segment(started, SEGMENT_SWEEPS * PER_SWEEP * B, tr);
    }
    tr.set_on(false);
    out.segments = w.segments;
    let after = client.server.stats().snapshot();

    client.server.flush_all();
    client.server.drain();
    let settled = client.server.stats().snapshot();
    // One hot two-rank tenant and one cold tenant against stand-alone replays.
    let sampled = [HOT - 1, HOT + COLD / 2];
    let replays: Vec<SessionState> = sampled.iter().map(|&t| client.replay(t)).collect();
    let served: Vec<_> = sampled
        .iter()
        .map(|&t| client.server.model(&client.names[t]).expect("committed model"))
        .collect();
    let bitwise = served.iter().zip(&replays).all(|(m, r)| **m == r.model());
    let ortho = served.iter().map(|m| orthogonality_error(&m.modes)).fold(0.0, f64::max);
    out.checks.push(Check::holds("no_queue_full", client.queue_full == 0));
    out.checks.push(Check::holds(
        "processed_equals_accepted",
        settled.snapshots_processed == settled.snapshots_accepted
            && settled.snapshots_rejected == 0,
    ));
    out.checks.push(Check::holds("sampled_tenants_bitwise_equal_replay", bitwise));
    out.checks.push(Check::holds(
        "sigma_finite_descending",
        served.iter().all(|m| sigma_ok(&m.singular_values)),
    ));
    out.checks.push(Check::new("ortho_err", ortho, TOL_ORTHO));

    if cfg.trace {
        let l = &mut out.layers;
        // A round called directly, no scheduler: one- and two-rank.
        let round = |tenant: usize| {
            let mut state = SessionState::new(spec(tenant));
            for batch in &ring[..3] {
                state.update(&CoalescedBatches::from_batches(vec![batch.clone()]));
            }
            let work = CoalescedBatches::from_batches(vec![ring[3].clone()]);
            time_reps(20, 0.15, || {
                state.update(&work);
            })
        };
        let (r1, r2) = (round(0), round(HOT - 1));
        core_rows(tr, &ring, &r1, &replays[1].model(), l);
        let replayed = replays[0].model();
        let err = max_rel_err(&served[0].singular_values, &replayed.singular_values, 4);
        l.put("core.sigma_rel_err", err, "frac");
        l.put("core.ortho_err", ortho, "frac");
        serve_layer(&client, tr, &replays[1], (quiet(&r1), quiet(&r2)), &before, &after, l);
    }
    client.server.shutdown();
    out
}

/// The linalg and core rows, one round seen from outside: `r1` are
/// direct one-rank rounds, `model` a cold tenant's replayed state.
fn core_rows(tr: &Tracer, ring: &[Matrix], r1: &[f64], model: &SessionModel, l: &mut Metrics) {
    let n = K + B;
    let shape = UpdateShape {
        qr: vec![probes::noise(ROWS, n), probes::noise(n, n)],
        gemm: vec![(ROWS, n, n), (ROWS, n, K)],
        small: SmallSvd::Dense { n },
        modes: (ROWS, K),
    };
    let children = probes::linalg(&shape, l);
    probes::core_update(r1, children, &window_durations_ms(tr.spans(), "serve.query"), l);
    let first = CoalescedBatches::from_batches(vec![ring[0].clone()]);
    let init = time_reps(10, 0.05, || {
        SessionState::new(spec(0)).update(&first);
    });
    l.put("core.initialize_ms", quiet(&init), "ms");

    // What one round allocates: a driver restored from the session's
    // checkpoint, one update, its scratch counters.
    let ckpt = SvdCheckpoint {
        modes: model.modes.clone(),
        singular_values: model.singular_values.clone(),
        iteration: 1,
        snapshots_seen: model.snapshots_seen,
    };
    let comm = SelfComm::new();
    let mut driver = ParallelStreamingSvd::restore(&comm, spec(0).svd, ckpt);
    driver.incorporate_data(&ring[1]);
    l.put(
        "core.scratch_fresh_bytes_per_update",
        driver.scratch_stats().fresh_bytes as f64,
        "bytes",
    );
    probes::checkpoint(&model.modes, &model.singular_values, l);
}

#[allow(clippy::too_many_arguments)]
fn serve_layer(
    client: &Client,
    tr: &Tracer,
    cold_state: &SessionState,
    (r1, r2): (f64, f64),
    before: &psvd_serve::StatsSnapshot,
    after: &psvd_serve::StatsSnapshot,
    l: &mut Metrics,
) {
    let timed = |name: &str| window_durations_ms(tr.spans(), name);
    l.put("serve.round_r1_ms", r1, "ms");
    l.put("serve.round_r2_ms", r2, "ms");
    let sweeps = timed("serve.sweep");
    let sweep_p50 = median(&sweeps);
    l.put("serve.submit_us", median(&timed("serve.submit")) * 1e3, "us");
    l.put("serve.drain_ms", median(&timed("serve.drain")), "ms");
    l.put("serve.sweep_p98_ms", percentile(&sweeps, 98.0), "ms");
    l.put("serve.sweep_count", sweeps.len() as f64, "count");
    // Rounds of one sweep, probed, spread over the workers, against the sweep.
    let one_rank = (HOT / 2 + COLD_PER_SWEEP) as f64;
    let two_rank = (HOT - HOT / 2) as f64;
    let probed = (one_rank * r1 + two_rank * r2) / WORKERS as f64;
    l.put("serve.sched_overhead_frac", 1.0 - probed / sweep_p50, "frac");

    let all_sweeps = (after.rounds - before.rounds) as f64 / PER_SWEEP as f64;
    let per_sweep = |a: u64, b: u64| (a - b) as f64 / all_sweeps;
    l.put("serve.evictions_per_sweep", per_sweep(after.evictions, before.evictions), "count");
    l.put(
        "serve.rehydrations_per_sweep",
        per_sweep(after.rehydrations, before.rehydrations),
        "count",
    );
    l.put(
        "serve.evicted_bytes_per_sweep",
        per_sweep(after.evicted_bytes, before.evicted_bytes),
        "bytes",
    );
    l.put("serve.wire_bytes_per_sweep", per_sweep(after.wire_bytes, before.wire_bytes), "bytes");
    l.put("serve.queue_full", client.queue_full as f64, "count");
    // What a two-rank tenant pays per round on top of its linalg: a
    // `World` spawn and the `n x n` factor exchange.
    probes::comm(K + B, l);

    // Spill an idle tenant, then query it: the query pays the rehydration.
    let (mut evict_ms, mut cold_us) = (Vec::new(), Vec::new());
    for name in &client.names[HOT..] {
        let t = Instant::now();
        let spilled = client.server.evict(name).expect("known tenant");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if spilled {
            evict_ms.push(ms);
        }
        let t = Instant::now();
        let c = client.server.project(name, client.query);
        cold_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(c.is_ok(), "cold query failed");
    }
    l.put("serve.evict_ms", median(&evict_ms), "ms");
    l.put("serve.query_cold_us", median(&cold_us), "us");
    let blob = cold_state.to_bytes();
    let rehydrate = time_reps(20, 0.05, || {
        std::hint::black_box(
            SessionState::from_bytes(*cold_state.spec(), &blob).expect("own blob decodes"),
        );
    });
    l.put("serve.rehydrate_ms", quiet(&rehydrate), "ms");
}
