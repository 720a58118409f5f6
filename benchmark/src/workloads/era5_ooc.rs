//! `era5_ooc`: an ERA5-shaped record (181 x 360 grid) streamed out of
//! core. A separate fixture process writes it once to an ncsim v2
//! container; the measuring process drives the same pull loop as
//! `fit_source` (`SnapshotPrefetcher::open` → `next_batch_into` →
//! `initialize` / `incorporate_data`) so both calls can be timed.
//!
//! The only workload with the data layer (decode, prefetch ring, panel
//! recycling) on the critical path, and `peak_rss_mb` here *is* the
//! out-of-core promise: resident set far below the file. Its QR is the
//! same unblocked regime as `tall_stream` (`n = 24`), so a gap between
//! the two isolates the data layer. Demchik et al.'s out-of-core SVD
//! (PAPERS.md) is the external shape: file ≫ resident set.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use psvd_core::{SerialStreamingSvd, SvdConfig};
use psvd_data::ncsim::{Codec, NcsimV2Writer, V2Options};
use psvd_data::prefetch::{IoStats, SnapshotPrefetcher};
use psvd_data::stream::SnapshotSource;
use psvd_linalg::Matrix;

use super::serial::{self, Tolerances};
use crate::fixture::{GramOracle, Planted, Rng};
use crate::harness::{query_ok, Check, Metrics, Outcome, RunCfg, Window};
use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;

const TOL: Tolerances = Tolerances { ortho: 5e-13, angle: 3e-1, sigma: 5e-3 };

const VARIABLE: &str = "sp";
const FORGET: f64 = 1.0;
const NOISE: f64 = 0.002;
const QUERIES_PER_UPDATE: usize = 8;

const ROWS: usize = 181 * 360;
const COLS: usize = 640;
const CHUNK_ROWS: usize = 4096;
const K: usize = 16;
const B: usize = 8;
const PLANTED: usize = 6;
/// Updates after `initialize` before the window opens (`K` fills at the
/// first, so every timed update stacks `ROWS x (K + B)`).
const WARMUPS: usize = 4;
const SETUPS: usize = 3;
/// Update ops per equal-work segment (see `tall_stream`).
const SEGMENT_UPDATES: usize = 4;

fn oracle_path(container: &Path) -> PathBuf {
    container.with_extension("oracle")
}

/// The fixture process: synthesize the record panel by panel, write the
/// container, save the planted modes and `PᵀA` beside it, then read the
/// file once so the measuring process starts from a warm page cache.
/// Prints `gen_s write_s file_bytes` for the parent.
pub fn write_fixture(path: &Path, seed: u64) -> io::Result<()> {
    let mut rng = Rng::new(seed);
    let planted = Planted::new(ROWS, PLANTED, COLS, NOISE, &mut rng);
    let opts = V2Options { chunk_rows: CHUNK_ROWS, codec: Codec::ShuffleRle };
    let mut writer = NcsimV2Writer::<f64>::create(path, VARIABLE, ROWS, COLS, opts)?;
    let mut gram = Matrix::zeros(PLANTED, COLS);
    let (mut gen_s, mut write_s) = (0.0, 0.0);
    let mut r0 = 0;
    while r0 < ROWS {
        let r1 = (r0 + CHUNK_ROWS).min(ROWS);
        let t = Instant::now();
        let panel = planted.rows(r0, r1, 0, COLS, &mut rng);
        for i in r0..r1 {
            for (k, pk) in planted.modes.row(i).iter().enumerate() {
                for (g, a) in gram.row_mut(k).iter_mut().zip(panel.row(i - r0)) {
                    *g += pk * a;
                }
            }
        }
        gen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        writer.write_rows(panel.as_slice())?;
        write_s += t.elapsed().as_secs_f64();
        r0 = r1;
    }
    let t = Instant::now();
    writer.finish()?;
    write_s += t.elapsed().as_secs_f64();

    let mut side = io::BufWriter::new(std::fs::File::create(oracle_path(path))?);
    for v in planted.modes.as_slice().iter().chain(gram.as_slice()) {
        side.write_all(&v.to_le_bytes())?;
    }
    side.flush()?;

    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut file_bytes = 0u64;
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        file_bytes += n as u64;
    }
    println!("{gen_s} {write_s} {file_bytes}");
    Ok(())
}

struct Fixture {
    path: PathBuf,
    modes: Matrix,
    /// `PᵀA_j` per batch of the file.
    grams: Vec<Matrix>,
    write_s: f64,
    file_bytes: u64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(oracle_path(&self.path));
    }
}

fn make_fixture(cfg: &RunCfg) -> Fixture {
    let path = cfg.out_dir.join(format!("era5_{}.ncs", std::process::id()));
    let exe = std::env::current_exe().expect("own executable path");
    let child = Command::new(exe)
        .arg("--fixture-era5")
        .arg(&path)
        .args(["--seed", &cfg.seed.to_string()])
        .output()
        .expect("spawn the fixture process");
    assert!(
        child.status.success(),
        "fixture process failed: {}",
        String::from_utf8_lossy(&child.stderr)
    );
    let line = String::from_utf8_lossy(&child.stdout);
    let mut fields = line.split_whitespace();
    let mut field =
        || fields.next().expect("fixture report").parse::<f64>().expect("fixture report");
    let (_gen_s, write_s, file_bytes) = (field(), field(), field() as u64);

    let raw = std::fs::read(oracle_path(&path)).expect("read the planted oracle");
    let vals: Vec<f64> =
        raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes"))).collect();
    let (pm, gm) = vals.split_at(ROWS * PLANTED);
    let gram = Matrix::from_vec(PLANTED, COLS, gm.to_vec());
    let grams = (0..COLS / B).map(|j| gram.submatrix(0, PLANTED, j * B, (j + 1) * B)).collect();
    Fixture {
        path,
        modes: Matrix::from_vec(ROWS, PLANTED, pm.to_vec()),
        grams,
        write_s,
        file_bytes,
    }
}

/// Bytes a complete pass must read: everything after the header and the
/// chunk-length table (segment tables + segments of every chunk).
fn payload_bytes(file_bytes: u64) -> u64 {
    let n_chunks = ROWS.div_ceil(CHUNK_ROWS);
    file_bytes - (8 + 4 + VARIABLE.len() + 8 + 8 + 1 + 1 + 8 + 8 * n_chunks) as u64
}

/// The container read as an endless stream: at end of file the source is
/// reopened, and the reopen is charged to the update op that hit it.
struct Stream<'a> {
    path: &'a Path,
    batch: usize,
    source: SnapshotPrefetcher<f64>,
    /// Next batch index within the file.
    at: usize,
    /// Counters of the sources already closed.
    closed: IoStats,
    /// Every finished pass read exactly the payload.
    passes_exact: bool,
    payload: u64,
}

fn add(a: IoStats, b: IoStats) -> IoStats {
    IoStats {
        bytes_read: a.bytes_read + b.bytes_read,
        chunks_prefetched: a.chunks_prefetched + b.chunks_prefetched,
        recycle_hits: a.recycle_hits + b.recycle_hits,
        stall_nanos: a.stall_nanos + b.stall_nanos,
        io_busy_nanos: a.io_busy_nanos + b.io_busy_nanos,
        batches: a.batches + b.batches,
    }
}

impl<'a> Stream<'a> {
    fn open(path: &'a Path, batch: usize, payload: u64, tr: &mut Tracer, op: u32) -> (Self, f64) {
        let o = tr.begin("data.open", op);
        let source = SnapshotPrefetcher::<f64>::open(path, batch).expect("open the container");
        let spent = tr.end(o);
        (
            Self {
                path,
                batch,
                source,
                at: 0,
                closed: IoStats::default(),
                passes_exact: true,
                payload,
            },
            spent,
        )
    }

    /// Next batch into `dst`; returns the file batch index and the
    /// seconds spent in the program.
    fn next(&mut self, dst: &mut Matrix, tr: &mut Tracer, op: u32) -> (usize, f64) {
        let o = tr.begin("data.next_batch", op);
        let mut got = self.source.next_batch_into(dst).expect("read a batch");
        let mut spent = tr.end(o);
        if !got {
            self.finish_pass();
            let o = tr.begin("data.open", op);
            self.source = SnapshotPrefetcher::<f64>::open(self.path, self.batch).expect("reopen");
            spent += tr.end(o);
            self.at = 0;
            let o = tr.begin("data.next_batch", op);
            got = self.source.next_batch_into(dst).expect("read a batch");
            spent += tr.end(o);
            assert!(got, "a fresh pass yields a batch");
        }
        self.at += 1;
        (self.at - 1, spent)
    }

    fn finish_pass(&mut self) {
        let s = self.source.io_stats();
        self.passes_exact &= s.bytes_read == self.payload;
        self.closed = add(self.closed, s);
    }

    fn stats(&self) -> IoStats {
        add(self.closed, self.source.io_stats())
    }

    /// Read the rest of the current pass (untimed) so its byte count can
    /// be held against the payload.
    fn drain(mut self, dst: &mut Matrix) -> bool {
        while self.source.next_batch_into(dst).expect("read a batch") {}
        self.finish_pass();
        self.passes_exact
    }
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    psvd_linalg::par::set_num_threads(1);
    let mut out = Outcome::default();

    let t_fix = Instant::now();
    let fx = make_fixture(cfg);
    out.fixture_s = t_fix.elapsed().as_secs_f64();
    let payload = payload_bytes(fx.file_bytes);

    tr.set_on(cfg.trace);
    let svd_cfg = SvdConfig::new(K).with_forget_factor(FORGET);
    let mut ingest = Matrix::zeros(0, 0);
    let mut first_batch_ms = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let (mut stream, mut spent) = Stream::open(&fx.path, B, payload, tr, 0);
        let o = tr.begin("core.new", 0);
        let mut svd = SerialStreamingSvd::<f64>::new(svd_cfg);
        spent += tr.end(o);
        let (_, s) = stream.next(&mut ingest, tr, 0);
        first_batch_ms.push(s * 1e3);
        spent += s;
        let o = tr.begin("core.initialize", 0);
        svd.initialize(&ingest);
        spent += tr.end(o);
        for _ in 0..WARMUPS {
            spent += stream.next(&mut ingest, tr, 0).1;
            let o = tr.begin("core.update", 0);
            svd.incorporate_data(&ingest);
            spent += tr.end(o);
        }
        out.setup_s.push(spent);
        state = Some((stream, svd));
    }
    let (mut stream, mut svd) = state.expect("at least one set-up");
    let mut oracle = GramOracle::new(PLANTED, FORGET);
    for g in &fx.grams[..=WARMUPS] {
        oracle.ingest(g);
    }
    let queries: Vec<Vec<f64>> = (0..QUERIES_PER_UPDATE).map(|j| ingest.col(j % B)).collect();
    svd.reset_scratch_stats();
    let io_before = stream.stats();

    let mut op = 0u32;
    let mut stall_ms = Vec::new();
    let mut w = Window::open(cfg);
    while w.more() {
        let started = w.begin_segment(tr);
        for _ in 0..SEGMENT_UPDATES {
            op += 1;
            let (j, fetch_s) = stream.next(&mut ingest, tr, op);
            let o = tr.begin("core.update", op);
            svd.incorporate_data(&ingest);
            out.update_ms.push((fetch_s + tr.end(o)) * 1e3);
            stall_ms.push(fetch_s * 1e3);
            oracle.ingest(&fx.grams[j]);
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
    let io = stream.stats();
    // Before the probes below allocate anything of their own.
    let rss_after_window_mb = peak_rss_mb();
    let passes_exact = stream.drain(&mut ingest);

    let errs = serial::check(&svd, &fx.modes, &oracle.sigma(), &TOL, &mut out);
    out.checks.push(Check::holds("bytes_read_equals_payload", passes_exact));

    if cfg.trace {
        let l = &mut out.layers;
        serial::ledger(&svd, &ingest, tr, errs, out.update_ms.len(), l);
        let n_updates = out.update_ms.len() as f64;
        let d = |a: u64, b: u64| (a - b) as f64;
        l.put("data.file_mb", fx.file_bytes as f64 / 1e6, "MB");
        l.put("data.write_mb_per_s", fx.file_bytes as f64 / 1e6 / fx.write_s, "MB/s");
        blocking_pass(&fx.path, l);
        l.put("data.first_batch_ms", median(&first_batch_ms), "ms");
        let busy = d(io.io_busy_nanos, io_before.io_busy_nanos);
        let stall = d(io.stall_nanos, io_before.stall_nanos);
        l.put("data.stall_fraction", stall / busy, "frac");
        l.put("data.stall_ms_per_update", median(&stall_ms), "ms");
        l.put("data.io_busy_s", busy / 1e9, "s");
        l.put("data.bytes_read", d(io.bytes_read, io_before.bytes_read) / n_updates, "bytes");
        l.put(
            "data.chunks_prefetched",
            d(io.chunks_prefetched, io_before.chunks_prefetched) / n_updates,
            "count",
        );
        l.put("data.recycle_hits", d(io.recycle_hits, io_before.recycle_hits) / n_updates, "count");
        l.put(
            "data.stream_ratio",
            fx.file_bytes as f64 / (rss_after_window_mb * 1024.0 * 1024.0),
            "ratio",
        );
    }
    out
}

/// Depth-0 pass over the head of the file: every batch is read and
/// decoded inline, so the call's duration is the decode cost the
/// prefetch thread otherwise hides.
fn blocking_pass(path: &Path, l: &mut Metrics) {
    let mut source =
        SnapshotPrefetcher::<f64>::open_with_depth(path, B, 0).expect("open the container");
    let mut dst = Matrix::zeros(0, 0);
    let mut ms = Vec::new();
    for _ in 0..12 {
        let t = Instant::now();
        if !source.next_batch_into(&mut dst).expect("read a batch") {
            break;
        }
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // The first batch also reads every chunk's segment table.
    let steady = median(&ms[1..]);
    l.put("data.batch_decode_ms", steady, "ms");
    l.put("data.decode_mb_per_s", (ROWS * B * 8) as f64 / 1e6 / (steady / 1e3), "MB/s");
}
