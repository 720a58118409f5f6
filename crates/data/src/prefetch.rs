//! Background snapshot prefetching: overlap disk IO + decode with compute.
//!
//! A [`SnapshotPrefetcher`] streams the column batches of one `ncsim`
//! variable (optionally restricted to a row hyperslab, the per-rank
//! pattern of a distributed run). With `depth > 0` it spawns one reader
//! thread that owns its own [`NcsimReader`] — its own file handle, the
//! MPI-IO independent-access analogue — and runs the whole IO + codec
//! decode for batch `k+1` while the caller's SVD update is busy
//! incorporating batch `k`.
//!
//! ## Buffer-recycling protocol
//!
//! Exactly `depth` batch panels (`Matrix<T>`) circulate between the
//! consumer and the worker through a pair of channels:
//!
//! ```text
//!            full panels (decoded batch k+1, k+2, ...)
//!   worker  ────────────────────────────────────────▶  consumer
//!     ▲                                                   │ copy into
//!     │            empty panels (recycled)                ▼ caller's dst
//!     └────────────────────────────────────────────── tx_empty
//! ```
//!
//! The worker *blocks* waiting for an empty panel before reading, so it
//! can never run more than `depth` batches ahead — the ring itself is the
//! backpressure, independent of channel buffering. Panels are allocated
//! once (first touch) and reused for the rest of the stream; the consumer
//! copies each panel into the caller-provided matrix, preserving the
//! drivers' zero-transient-O(M)-allocation steady state.
//!
//! `depth == 0` is the synchronous fallback (`PSVD_PREFETCH_DEPTH=0`):
//! the same API, but every batch is read inline — by construction its
//! compute-stall time equals its IO time, which is what the
//! overlap-efficiency bench compares against.
//!
//! ## Determinism
//!
//! The codec is lossless and decode order is fixed, so the bytes landing
//! in `dst` are identical whether they arrive through the prefetcher, the
//! synchronous path, or an in-core [`crate::stream::MatrixBatchSource`]:
//! f64 out-of-core results are bitwise identical to in-core results at any
//! thread count.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};
use psvd_linalg::{Matrix, Scalar};

use crate::ncsim::NcsimReader;
use crate::stream::SnapshotSource;

/// The prefetch depth: `PSVD_PREFETCH_DEPTH` if set (0 = synchronous),
/// else 2 (classic double buffering). A malformed value panics.
pub fn default_depth() -> usize {
    psvd_linalg::par::env_knob("PSVD_PREFETCH_DEPTH").unwrap_or(2)
}

/// Counters describing one prefetcher's IO pipeline, snapshot via
/// [`SnapshotPrefetcher::io_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IoStats {
    /// Payload + chunk-metadata bytes read from disk.
    pub bytes_read: u64,
    /// Batches fetched ahead by the worker thread (0 in synchronous mode).
    pub chunks_prefetched: u64,
    /// Panels successfully returned to the recycle ring.
    pub recycle_hits: u64,
    /// Nanoseconds the consumer spent waiting for data (compute stall).
    pub stall_nanos: u64,
    /// Nanoseconds of wall time spent inside read + decode.
    pub io_busy_nanos: u64,
    /// Batches delivered to the consumer.
    pub batches: u64,
}

impl IoStats {
    /// Fraction of IO + decode time the consumer actually waited for:
    /// ~1.0 for the blocking path (every IO nanosecond is a stall), → 0
    /// when prefetch fully hides IO under compute.
    pub fn stall_fraction(&self) -> f64 {
        if self.io_busy_nanos == 0 {
            0.0
        } else {
            self.stall_nanos as f64 / self.io_busy_nanos as f64
        }
    }
}

#[derive(Default)]
struct SharedStats {
    bytes_read: AtomicU64,
    chunks_prefetched: AtomicU64,
    recycle_hits: AtomicU64,
    stall_nanos: AtomicU64,
    io_busy_nanos: AtomicU64,
    batches: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            chunks_prefetched: self.chunks_prefetched.load(Ordering::Relaxed),
            recycle_hits: self.recycle_hits.load(Ordering::Relaxed),
            stall_nanos: self.stall_nanos.load(Ordering::Relaxed),
            io_busy_nanos: self.io_busy_nanos.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

enum Mode<T: Scalar> {
    /// `depth == 0`: read inline on the consumer thread.
    Sync { reader: Box<NcsimReader>, bytes_seen: u64 },
    /// `depth > 0`: a worker thread with its own reader/file handle.
    Async {
        rx_full: Option<Receiver<io::Result<Matrix<T>>>>,
        tx_empty: Option<Sender<Matrix<T>>>,
        worker: Option<JoinHandle<()>>,
    },
}

/// A pull-based out-of-core [`SnapshotSource`] over one ncsim file.
pub struct SnapshotPrefetcher<T: Scalar> {
    r0: usize,
    r1: usize,
    cols: usize,
    batch: usize,
    next_col: usize,
    done: bool,
    mode: Mode<T>,
    stats: Arc<SharedStats>,
}

impl<T: Scalar> SnapshotPrefetcher<T> {
    /// Stream all rows in `batch`-column batches at the default depth.
    pub fn open(path: &Path, batch: usize) -> io::Result<Self> {
        Self::open_with_depth(path, batch, default_depth())
    }

    /// Stream all rows at an explicit depth (`0` = synchronous).
    pub fn open_with_depth(path: &Path, batch: usize, depth: usize) -> io::Result<Self> {
        let rows = NcsimReader::open(path)?.rows();
        Self::open_rows_with_depth(path, 0, rows, batch, depth)
    }

    /// Stream the row hyperslab `[r0, r1)` — a rank's block — at the
    /// default depth. Each rank gets its own reader thread and file handle.
    pub fn open_rows(path: &Path, r0: usize, r1: usize, batch: usize) -> io::Result<Self> {
        Self::open_rows_with_depth(path, r0, r1, batch, default_depth())
    }

    /// Fully explicit constructor.
    pub fn open_rows_with_depth(
        path: &Path,
        r0: usize,
        r1: usize,
        batch: usize,
        depth: usize,
    ) -> io::Result<Self> {
        if batch == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "batch size must be positive"));
        }
        let reader = NcsimReader::open(path)?;
        if r0 > r1 || r1 > reader.rows() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("row range {r0}..{r1} out of bounds for {} rows", reader.rows()),
            ));
        }
        // Surface dtype mismatches at construction, not from the worker.
        reader.require_dtype::<T>()?;
        let cols = reader.cols();
        let stats = Arc::new(SharedStats::default());
        let mode = if depth == 0 {
            Mode::Sync { reader: Box::new(reader), bytes_seen: 0 }
        } else {
            // A 1-deep ring still serializes IO with the copy-out; two
            // panels is the minimum that actually double-buffers.
            let depth = depth.max(2);
            let (tx_full, rx_full) = crossbeam::channel::bounded(depth);
            let (tx_empty, rx_empty) = crossbeam::channel::bounded(depth);
            for _ in 0..depth {
                // Lazily sized: first reshape in the worker allocates.
                let _ = tx_empty.send(Matrix::<T>::zeros(0, 0));
            }
            let st = Arc::clone(&stats);
            let worker = std::thread::Builder::new()
                .name("psvd-prefetch".into())
                .spawn(move || worker_loop::<T>(reader, r0, r1, cols, batch, rx_empty, tx_full, st))
                .map_err(|e| io::Error::other(format!("spawning prefetch thread: {e}")))?;
            Mode::Async { rx_full: Some(rx_full), tx_empty: Some(tx_empty), worker: Some(worker) }
        };
        Ok(Self { r0, r1, cols, batch, next_col: 0, done: false, mode, stats })
    }

    /// Rows of each delivered batch (`r1 - r0`).
    pub fn rows(&self) -> usize {
        self.r1 - self.r0
    }

    /// Total snapshot columns in the file.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total batches this source will yield.
    pub fn total_batches(&self) -> usize {
        self.cols.div_ceil(self.batch)
    }

    /// Snapshot of the pipeline counters.
    pub fn io_stats(&self) -> IoStats {
        self.stats.snapshot()
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<T: Scalar>(
    mut reader: NcsimReader,
    r0: usize,
    r1: usize,
    cols: usize,
    batch: usize,
    rx_empty: Receiver<Matrix<T>>,
    tx_full: Sender<io::Result<Matrix<T>>>,
    stats: Arc<SharedStats>,
) {
    let mut bytes_seen = 0u64;
    let mut c0 = 0usize;
    while c0 < cols {
        let c1 = (c0 + batch).min(cols);
        // Blocking on an empty panel *is* the backpressure: the worker can
        // never be more than `depth` batches ahead of the consumer. Err
        // means the consumer hung up; just exit.
        let Ok(mut panel) = rx_empty.recv() else { return };
        let t0 = Instant::now();
        let res = reader.read_block_into(r0, r1, c0, c1, &mut panel);
        stats.io_busy_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let now = reader.io_bytes_read();
        stats.bytes_read.fetch_add(now - bytes_seen, Ordering::Relaxed);
        bytes_seen = now;
        match res {
            Ok(()) => {
                stats.chunks_prefetched.fetch_add(1, Ordering::Relaxed);
                if tx_full.send(Ok(panel)).is_err() {
                    return;
                }
            }
            Err(e) => {
                let _ = tx_full.send(Err(e));
                return;
            }
        }
        c0 = c1;
    }
}

impl<T: Scalar> SnapshotSource<T> for SnapshotPrefetcher<T> {
    fn next_batch_into(&mut self, dst: &mut Matrix<T>) -> io::Result<bool> {
        if self.done || self.next_col >= self.cols {
            self.done = true;
            return Ok(false);
        }
        let c0 = self.next_col;
        let c1 = (c0 + self.batch).min(self.cols);
        match &mut self.mode {
            Mode::Sync { reader, bytes_seen } => {
                let t0 = Instant::now();
                let res = reader.read_block_into(self.r0, self.r1, c0, c1, dst);
                let dt = t0.elapsed().as_nanos() as u64;
                // Inline IO: every nanosecond of it is a consumer stall.
                self.stats.io_busy_nanos.fetch_add(dt, Ordering::Relaxed);
                self.stats.stall_nanos.fetch_add(dt, Ordering::Relaxed);
                let now = reader.io_bytes_read();
                self.stats.bytes_read.fetch_add(now - *bytes_seen, Ordering::Relaxed);
                *bytes_seen = now;
                if let Err(e) = res {
                    self.done = true;
                    return Err(e);
                }
            }
            Mode::Async { rx_full, tx_empty, .. } => {
                let rx = rx_full.as_ref().expect("receiver lives until drop");
                let t0 = Instant::now();
                let msg = rx.recv();
                self.stats.stall_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                match msg {
                    Ok(Ok(panel)) => {
                        dst.reshape_for_overwrite(panel.rows(), panel.cols());
                        dst.as_mut_slice().copy_from_slice(panel.as_slice());
                        let tx = tx_empty.as_ref().expect("sender lives until drop");
                        if tx.send(panel).is_ok() {
                            self.stats.recycle_hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok(Err(e)) => {
                        self.done = true;
                        return Err(e);
                    }
                    Err(_) => {
                        // Worker gone without delivering this batch.
                        self.done = true;
                        return Err(io::Error::other("prefetch worker exited early"));
                    }
                }
            }
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.next_col = c1;
        Ok(true)
    }

    fn batches_hint(&self) -> Option<usize> {
        Some(self.total_batches())
    }
}

impl<T: Scalar> Drop for SnapshotPrefetcher<T> {
    fn drop(&mut self) {
        if let Mode::Async { rx_full, tx_empty, worker } = &mut self.mode {
            // Hang up both ends; the worker's next ring recv/send fails
            // and it exits, then join to avoid leaking the thread.
            tx_empty.take();
            rx_full.take();
            if let Some(h) = worker.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ncsim::{write_v2, Codec, V2Options};
    use crate::stream::MatrixBatchSource;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("psvd_prefetch_test_{name}_{}", std::process::id()));
        p
    }

    fn collect<T: Scalar, S: SnapshotSource<T>>(src: &mut S) -> Vec<Matrix<T>> {
        let mut out = Vec::new();
        let mut dst = Matrix::zeros(0, 0);
        while src.next_batch_into(&mut dst).unwrap() {
            out.push(dst.clone());
        }
        out
    }

    #[test]
    fn prefetched_batches_match_in_core_bitwise() {
        let path = tmpfile("bitwise");
        let a = Matrix::from_fn(200, 23, |i, j| ((i * 23 + j) as f64 * 0.317).sin());
        write_v2(&path, "v", &a, V2Options { chunk_rows: 64, codec: Codec::ShuffleRle }).unwrap();
        let expect = collect(&mut MatrixBatchSource::new(&a, 5));
        for depth in [0usize, 2, 4] {
            let mut pf = SnapshotPrefetcher::<f64>::open_with_depth(&path, 5, depth).unwrap();
            assert_eq!(pf.total_batches(), 5);
            let got = collect(&mut pf);
            assert_eq!(got, expect, "depth {depth} must be bitwise identical");
            let st = pf.io_stats();
            assert_eq!(st.batches, 5);
            assert!(st.bytes_read > 0);
            if depth == 0 {
                assert_eq!(st.chunks_prefetched, 0);
                assert_eq!(st.stall_nanos, st.io_busy_nanos, "sync mode stalls for all IO");
            } else {
                assert_eq!(st.chunks_prefetched, 5);
                // Once the worker has read the last batch it hangs up the
                // ring, so up to `depth` tail recycles may miss — but the
                // steady-state ones must land.
                assert!(
                    st.recycle_hits >= 5u64.saturating_sub(depth as u64),
                    "recycle_hits {} too low for depth {depth}",
                    st.recycle_hits
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn row_hyperslabs_tile_like_ranks() {
        let path = tmpfile("ranks");
        let a = Matrix::from_fn(57, 9, |i, j| (i * 9 + j) as f64);
        write_v2(&path, "v", &a, V2Options { chunk_rows: 10, codec: Codec::Raw }).unwrap();
        // Each "rank" opens its own prefetcher (own file handle, own
        // worker); their stacked batches reproduce the full matrix.
        for (r0, r1) in [(0usize, 20usize), (20, 41), (41, 57)] {
            let mut pf = SnapshotPrefetcher::<f64>::open_rows(&path, r0, r1, 4).unwrap();
            let got = Matrix::hstack_all(&collect(&mut pf));
            assert_eq!(got, a.row_block(r0, r1));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dropping_mid_stream_joins_worker() {
        let path = tmpfile("dropmid");
        let a = Matrix::from_fn(100, 40, |i, j| (i + j) as f64);
        write_v2(&path, "v", &a, V2Options::default()).unwrap();
        let mut pf = SnapshotPrefetcher::<f64>::open_with_depth(&path, 2, 3).unwrap();
        let mut dst = Matrix::zeros(0, 0);
        assert!(pf.next_batch_into(&mut dst).unwrap());
        drop(pf); // must not deadlock or leak the worker
        std::fs::remove_file(&path).unwrap();
    }
}
