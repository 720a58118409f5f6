//! `psvd-e2e`: the repository's end-to-end benchmark. See
//! `benchmark/README.md`; run through `benchmark/run.sh`.

mod fixture;
mod harness;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Metrics, Outcome, RunCfg, LAYER_METRICS};
use stats::{median, peak_rss_mb, percentile, segment_rate, QUERY_PERCENTILE};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["tall_stream", "burgers_dist", "era5_ooc", "serve_mixed"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: psvd-e2e --workload <{}> --seed N --seconds S --trace 0|1 --out DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn run_workload(name: &str, cfg: &RunCfg, tr: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "tall_stream" => workloads::tall_stream::run(cfg, tr),
        "burgers_dist" => workloads::burgers_dist::run(cfg, tr),
        "era5_ooc" => workloads::era5_ooc::run(cfg, tr),
        "serve_mixed" => workloads::serve_mixed::run(cfg, tr),
        _ => return None,
    })
}

fn end_to_end(out: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(&out.setup_s), "s");
    m.put("snapshots_per_s", segment_rate(out.segments.iter()), "columns/s");
    m.put("update_p50_ms", median(&out.update_ms), "ms");
    m.put("query_p10_us", percentile(&out.query_us, QUERY_PERCENTILE), "us");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Assemble the traced run's ledger: the rows the workload measured,
/// the harness's own diagnostics, and 0 for every row of a layer that is
/// not on this workload's path.
fn per_layer(out: &Outcome, tr: &Tracer) -> Metrics {
    let mut m = out.layers.clone();
    let cost = |traced: bool| {
        let s: Vec<f64> = out
            .segments
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.wall_s / s.columns)
            .collect();
        median(&s)
    };
    m.put("harness.fixture_s", out.fixture_s, "s");
    m.put("harness.trace_overhead_frac", cost(true) / cost(false) - 1.0, "frac");
    m.put("harness.timer_ns", probes::timer_ns(), "ns");
    m.put("harness.spans", tr.spans().len() as f64, "count");
    for (name, _, unit) in &m.0 {
        assert!(
            LAYER_METRICS.contains(&(name.as_str(), *unit)),
            "{name} [{unit}] is not in the ledger"
        );
    }
    let mut ledger = Metrics::default();
    for &(name, unit) in LAYER_METRICS {
        ledger.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    ledger
}

fn json_line(out: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed() == 0,
        out.attempted(),
        out.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    // A stray tuning knob would silently change what is measured.
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("PSVD_")) {
        eprintln!("psvd-e2e: refusing to run with {k} set; unset every PSVD_* variable");
        return ExitCode::from(2);
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir, mut fixture_era5) =
        (None, None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].iter().position(|t| *t == value).map(|t| t == 1),
            "--out" => out_dir = Some(PathBuf::from(value)),
            "--fixture-era5" => fixture_era5 = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    if let (Some(path), Some(seed)) = (&fixture_era5, seed) {
        // Internal: the separate process that writes era5_ooc's container.
        return match workloads::era5_ooc::write_fixture(path, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("psvd-e2e: writing {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    // No defaults here: `run.sh` is the one place that has them.
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(out_dir)) =
        (workload, seed, seconds, trace, out_dir)
    else {
        return usage();
    };
    let cfg = RunCfg { seed, seconds, trace, out_dir };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("psvd-e2e: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }

    let mut tr = Tracer::new(1 << 18);
    let Some(out) = run_workload(&workload, &cfg, &mut tr) else { return usage() };
    let metrics = if cfg.trace {
        let trace_path = cfg.out_dir.join(format!("{workload}.trace.json"));
        if let Err(e) = trace::write_chrome_trace(&trace_path, &workload, tr.spans()) {
            eprintln!("psvd-e2e: writing {}: {e}", trace_path.display());
            return ExitCode::from(2);
        }
        per_layer(&out, &tr)
    } else {
        end_to_end(&out)
    };

    for c in &out.checks {
        let verdict = if c.passed() { "ok" } else { "FAILED" };
        println!("{workload}/check.{} {:e} (<= {:e}) {verdict}", c.name, c.value, c.tolerance);
    }
    println!("{workload}/ops_attempted {} count", out.attempted());
    println!("{workload}/ops_failed {} count", out.failed());
    // The distributions behind the two latency metrics, with their
    // sample counts (informational; the metrics proper follow).
    for (what, v, unit) in [("update", &out.update_ms, "ms"), ("query", &out.query_us, "us")] {
        let q = |p| percentile(v, p);
        println!(
            "{workload}/{what}_distribution p10 {:.3} p25 {:.3} p50 {:.3} p90 {:.3} {unit} of {} samples",
            q(10.0),
            q(25.0),
            q(50.0),
            q(90.0),
            v.len()
        );
    }
    let rates: Vec<f64> = out.segments.iter().map(|s| s.columns / s.wall_s).collect();
    println!(
        "{workload}/segment_rates p10 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} columns/s of {} segments",
        percentile(&rates, 10.0),
        percentile(&rates, 50.0),
        percentile(&rates, 75.0),
        percentile(&rates, 90.0),
        rates.len()
    );
    println!("{workload}/fixture_s {:.3} s", out.fixture_s);
    println!("{workload}/window_s {:.3} s", out.segments.iter().map(|s| s.wall_s).sum::<f64>());
    for (name, value, unit) in &metrics.0 {
        println!("{workload}/{name} {value:.6} {unit}");
    }
    println!("{}", json_line(&out, &metrics));
    if out.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
