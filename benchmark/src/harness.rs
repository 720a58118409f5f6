//! What every workload shares: run configuration, the timed window cut
//! into equal-work segments, the result record, and correctness checks.

use std::path::PathBuf;
use std::time::Instant;

use crate::stats::Segment;
use crate::trace::Tracer;

/// One invocation of one workload.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Timed-window length; segments are equal work, the window closes at
    /// the first segment boundary past this many seconds.
    pub seconds: f64,
    /// The traced run: odd segments of the window record spans, even
    /// ones do not, so the two halves see the same host drift and their
    /// difference is the tracing overhead. End-to-end metrics come from
    /// the untraced run.
    pub trace: bool,
    /// Scratch directory for containers and traces (inside the checkout).
    pub out_dir: PathBuf,
}

/// Fewest segments a window is cut into, however short `--seconds` is.
pub const MIN_SEGMENTS: usize = 4;

/// The timed window.
pub struct Window {
    opened: Instant,
    seconds: f64,
    trace: bool,
    pub segments: Vec<Segment>,
}

impl Window {
    pub fn open(cfg: &RunCfg) -> Self {
        Self {
            opened: Instant::now(),
            seconds: cfg.seconds,
            trace: cfg.trace,
            segments: Vec::new(),
        }
    }

    /// Another segment is due.
    pub fn more(&self) -> bool {
        self.segments.len() < MIN_SEGMENTS || self.opened.elapsed().as_secs_f64() < self.seconds
    }

    /// Start the next segment: switches span recording for it.
    pub fn begin_segment(&self, tr: &mut Tracer) -> Instant {
        tr.set_on(self.trace && self.segments.len() % 2 == 1);
        Instant::now()
    }

    pub fn end_segment(&mut self, started: Instant, columns: usize, tr: &Tracer) {
        self.segments.push(Segment {
            columns: columns as f64,
            wall_s: started.elapsed().as_secs_f64(),
            traced: tr.is_on(),
        });
    }
}

/// One correctness oracle. A tripped check is a failed operation.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub value: f64,
    /// The check passes while `value <= tolerance`.
    pub tolerance: f64,
}

impl Check {
    pub fn new(name: &'static str, value: f64, tolerance: f64) -> Self {
        Self { name, value, tolerance }
    }

    /// A yes/no oracle (bitwise equality, counters that must match).
    pub fn holds(name: &'static str, ok: bool) -> Self {
        Self { name, value: if ok { 0.0 } else { 1.0 }, tolerance: 0.5 }
    }

    pub fn passed(&self) -> bool {
        // NaN fails.
        self.value <= self.tolerance
    }
}

/// Named values with units, in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// Every per-layer metric `BENCHMARK.json` names, with its unit, in the
/// order a traced run reports them. A traced run reports all of them: a
/// layer that is not on the workload's path did no work there and reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("linalg.qr_ms", "ms"),
    ("linalg.qr_gflops", "GFLOP/s"),
    ("linalg.small_svd_ms", "ms"),
    ("linalg.gemm_ms", "ms"),
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.peak_gflops", "GFLOP/s"),
    ("linalg.qr_frac_of_peak", "frac"),
    ("linalg.matvec_t_us", "us"),
    ("core.update_ms", "ms"),
    ("core.update_p90_ms", "ms"),
    ("core.update_count", "count"),
    ("core.initialize_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.self_frac", "frac"),
    ("core.query_p50_us", "us"),
    ("core.scratch_fresh_bytes_per_update", "bytes"),
    ("core.gather_modes_ms", "ms"),
    ("core.ckpt_encode_ms", "ms"),
    ("core.ckpt_decode_ms", "ms"),
    ("core.ckpt_bytes", "bytes"),
    ("core.sigma_rel_err", "frac"),
    ("core.ortho_err", "frac"),
    ("comm.messages_per_update", "count"),
    ("comm.bytes_per_update", "bytes"),
    ("comm.root_ingress_bytes_per_update", "bytes"),
    ("comm.sim_s_per_update", "s"),
    ("comm.world_spawn_us", "us"),
    ("comm.gather_bcast_us", "us"),
    ("comm.wait_ms_est", "ms"),
    ("data.write_mb_per_s", "MB/s"),
    ("data.file_mb", "MB"),
    ("data.decode_mb_per_s", "MB/s"),
    ("data.batch_decode_ms", "ms"),
    ("data.first_batch_ms", "ms"),
    ("data.stall_fraction", "frac"),
    ("data.stall_ms_per_update", "ms"),
    ("data.io_busy_s", "s"),
    ("data.bytes_read", "bytes"),
    ("data.chunks_prefetched", "count"),
    ("data.recycle_hits", "count"),
    ("data.stream_ratio", "ratio"),
    ("serve.round_r1_ms", "ms"),
    ("serve.round_r2_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.sweep_p98_ms", "ms"),
    ("serve.sweep_count", "count"),
    ("serve.sched_overhead_frac", "frac"),
    ("serve.evictions_per_sweep", "count"),
    ("serve.rehydrations_per_sweep", "count"),
    ("serve.evicted_bytes_per_sweep", "bytes"),
    ("serve.evict_ms", "ms"),
    ("serve.rehydrate_ms", "ms"),
    ("serve.query_cold_us", "us"),
    ("serve.queue_full", "count"),
    ("serve.wire_bytes_per_sweep", "bytes"),
    ("harness.fixture_s", "s"),
    ("harness.trace_overhead_frac", "frac"),
    ("harness.timer_ns", "ns"),
    ("harness.spans", "count"),
];

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition (calls into the program
    /// before the window opens).
    pub setup_s: Vec<f64>,
    pub segments: Vec<Segment>,
    /// Latency of every update op in the window, ms.
    pub update_ms: Vec<f64>,
    /// Latency of every projection query in the window, µs.
    pub query_us: Vec<f64>,
    /// Queries whose answer was malformed (wrong length, non-finite).
    pub bad_queries: u64,
    pub checks: Vec<Check>,
    /// Harness time spent synthesising inputs and oracles (not set-up).
    pub fixture_s: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        (self.update_ms.len() + self.query_us.len() + self.checks.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        self.bad_queries + self.checks.iter().filter(|c| !c.passed()).count() as u64
    }
}

/// A projection answer is well-formed: `k` finite coefficients.
pub fn query_ok(coeffs: &[f64], k: usize) -> bool {
    coeffs.len() == k && coeffs.iter().all(|c| c.is_finite())
}

/// σ is finite, positive and descending.
pub fn sigma_ok(sigma: &[f64]) -> bool {
    !sigma.is_empty()
        && sigma.iter().all(|s| s.is_finite() && *s >= 0.0)
        && sigma.windows(2).all(|w| w[0] >= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` / `"unit"` pairs of the `per_layer` list in
    /// `BENCHMARK.json` (its last key), in file order.
    fn per_layer_of(json: &str) -> Vec<(String, String)> {
        let field = |line: &str| line.split('"').nth(3).expect("a quoted value").to_string();
        let list = json.split("\"per_layer\"").nth(1).expect("a per_layer key");
        let names = list.lines().filter(|l| l.contains("\"name\"")).map(field);
        let units = list.lines().filter(|l| l.contains("\"unit\"")).map(field);
        names.zip(units).collect()
    }

    #[test]
    fn ledger_is_the_per_layer_list_of_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let ours: Vec<(String, String)> =
            LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(per_layer_of(&json), ours);
    }
}
