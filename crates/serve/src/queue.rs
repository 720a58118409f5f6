//! Per-session ingestion queues.
//!
//! Clients submit snapshot chunks of whatever width their producers emit
//! (a single column from a live probe, a panel from a batch uploader).
//! The queue re-cuts that arrival stream into the session's canonical
//! batch width before anything reaches a driver, which makes the
//! committed factorization a pure function of the *column stream*: two
//! clients submitting the same columns chopped differently converge to
//! bitwise-identical models (pinned by `tests/props_serve.rs`).
//!
//! Rounds are handed to the workers as [`CoalescedBatches`], whose
//! [`psvd_data::SnapshotSource`] adapters feed the drivers' untouched
//! `try_fit_source` ingestion path — the whole point of the pull-based
//! source contract.

use std::collections::VecDeque;
use std::io;

use psvd_data::partition::block_range;
use psvd_data::SnapshotSource;
use psvd_linalg::Matrix;

/// A submit was rejected because the session's queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// Snapshots already pending.
    pub pending: usize,
    /// The configured depth (`ServeConfig::queue_depth`).
    pub depth: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ingestion queue full ({} pending snapshots, depth {})", self.pending, self.depth)
    }
}

impl std::error::Error for QueueFull {}

/// Arrival chunks in, canonical batches out.
///
/// Backpressure is counted in *snapshots* (columns): once `depth` columns
/// are pending, further submits are rejected with [`QueueFull`] until a
/// worker drains a round.
#[derive(Debug)]
pub struct BatchQueue {
    rows: usize,
    batch: usize,
    depth: usize,
    pending: VecDeque<Matrix>,
    /// Columns of `pending[0]` already consumed by a previous round.
    front_col: usize,
    pending_cols: usize,
    accepted: u64,
}

impl BatchQueue {
    /// A queue for `rows`-row snapshots, re-cut to `batch`-column rounds,
    /// holding at most `depth` pending snapshots.
    pub fn new(rows: usize, batch: usize, depth: usize) -> Self {
        assert!(rows > 0, "sessions need at least one row");
        assert!(batch > 0, "batch size must be positive");
        assert!(depth >= batch, "queue depth {depth} cannot hold one batch of {batch}");
        Self {
            rows,
            batch,
            depth,
            pending: VecDeque::new(),
            front_col: 0,
            pending_cols: 0,
            accepted: 0,
        }
    }

    /// Snapshots currently pending.
    pub fn pending_snapshots(&self) -> usize {
        self.pending_cols
    }

    /// Snapshots accepted over the queue's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Full canonical batches ready to be cut.
    pub fn ready_batches(&self) -> usize {
        self.pending_cols / self.batch
    }

    /// Enqueue an arrival chunk (`rows x w`, any `w >= 1`).
    pub fn push(&mut self, chunk: Matrix) -> Result<(), QueueFull> {
        assert_eq!(
            chunk.rows(),
            self.rows,
            "chunk has {} rows, session has {}",
            chunk.rows(),
            self.rows
        );
        assert!(chunk.cols() > 0, "empty snapshot chunk");
        if self.pending_cols + chunk.cols() > self.depth {
            return Err(QueueFull { pending: self.pending_cols, depth: self.depth });
        }
        self.pending_cols += chunk.cols();
        self.accepted += chunk.cols() as u64;
        self.pending.push_back(chunk);
        Ok(())
    }

    /// Cut up to `max_batches` *full* canonical batches for one round;
    /// `None` if no full batch is pending. A trailing runt (fewer than
    /// `batch` columns) stays queued until [`BatchQueue::take_flush`].
    pub fn take_round(&mut self, max_batches: usize) -> Option<CoalescedBatches> {
        let n = self.ready_batches().min(max_batches.max(1));
        if n == 0 {
            return None;
        }
        Some(self.cut(n, false))
    }

    /// Cut everything pending — full batches plus the trailing runt — for
    /// an end-of-stream flush. `None` if the queue is empty.
    pub fn take_flush(&mut self, max_batches: usize) -> Option<CoalescedBatches> {
        if self.pending_cols == 0 {
            return None;
        }
        let full = self.ready_batches();
        let runt = usize::from(!self.pending_cols.is_multiple_of(self.batch));
        Some(self.cut((full + runt).min(max_batches.max(1)), true))
    }

    /// Assemble `n` batches (the last possibly a runt iff `flush`).
    fn cut(&mut self, n: usize, flush: bool) -> CoalescedBatches {
        let mut batches = Vec::with_capacity(n);
        for _ in 0..n {
            let width = if flush { self.batch.min(self.pending_cols) } else { self.batch };
            if width == 0 {
                break;
            }
            let mut dst = Matrix::zeros(self.rows, width);
            for jj in 0..width {
                let chunk = &self.pending[0];
                for i in 0..self.rows {
                    dst.row_mut(i)[jj] = chunk.row(i)[self.front_col];
                }
                self.front_col += 1;
                self.pending_cols -= 1;
                if self.front_col == chunk.cols() {
                    self.pending.pop_front();
                    self.front_col = 0;
                }
            }
            batches.push(dst);
        }
        CoalescedBatches { rows: self.rows, batches }
    }
}

/// One round's worth of canonical batches, cut from a [`BatchQueue`] (or
/// built directly for tests/twin replays via
/// [`CoalescedBatches::from_batches`]).
#[derive(Clone, Debug)]
pub struct CoalescedBatches {
    rows: usize,
    batches: Vec<Matrix>,
}

impl CoalescedBatches {
    /// Wrap pre-cut batches (all `rows` tall).
    pub fn from_batches(batches: Vec<Matrix>) -> Self {
        assert!(!batches.is_empty(), "a round needs at least one batch");
        let rows = batches[0].rows();
        assert!(batches.iter().all(|b| b.rows() == rows), "mixed-height batches");
        Self { rows, batches }
    }

    /// Snapshot rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Batches in this round.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when the round carries no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total snapshots across the round.
    pub fn snapshots(&self) -> usize {
        self.batches.iter().map(|b| b.cols()).sum()
    }

    /// The batches themselves (rank 0..rows view).
    pub fn batches(&self) -> &[Matrix] {
        &self.batches
    }

    /// A [`SnapshotSource`] over `rank`'s row block of every batch — what
    /// each rank of a session world hands to `try_fit_source`, mirroring
    /// how distributed drivers pull their own row hyperslab.
    pub fn rank_source(&self, n_ranks: usize, rank: usize) -> RankSource<'_> {
        let (r0, r1) = block_range(self.rows, n_ranks, rank);
        RankSource { batches: &self.batches, next: 0, r0, r1 }
    }
}

/// [`SnapshotSource`] serving one rank's row block of a round's batches.
pub struct RankSource<'a> {
    batches: &'a [Matrix],
    next: usize,
    r0: usize,
    r1: usize,
}

impl SnapshotSource<f64> for RankSource<'_> {
    fn next_batch_into(&mut self, dst: &mut Matrix<f64>) -> io::Result<bool> {
        let Some(b) = self.batches.get(self.next) else {
            return Ok(false);
        };
        dst.reshape_for_overwrite(self.r1 - self.r0, b.cols());
        for (ii, i) in (self.r0..self.r1).enumerate() {
            dst.row_mut(ii).copy_from_slice(b.row(i));
        }
        self.next += 1;
        Ok(true)
    }

    fn batches_hint(&self) -> Option<usize> {
        Some(self.batches.len() - self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(rows: usize, cols: usize, tag: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| tag + (i * cols + j) as f64)
    }

    #[test]
    fn recuts_arrivals_to_canonical_width() {
        let mut q = BatchQueue::new(3, 4, 64);
        q.push(chunk(3, 3, 0.0)).unwrap();
        assert_eq!(q.ready_batches(), 0);
        assert!(q.take_round(4).is_none(), "no full batch yet");
        q.push(chunk(3, 6, 100.0)).unwrap();
        let round = q.take_round(4).expect("two full batches");
        assert_eq!(round.len(), 2);
        assert!(round.batches().iter().all(|b| b.cols() == 4));
        assert_eq!(q.pending_snapshots(), 1, "runt stays queued");
        let flush = q.take_flush(4).expect("runt");
        assert_eq!(flush.snapshots(), 1);
        assert!(q.take_flush(4).is_none());
    }

    #[test]
    fn coalescing_preserves_column_order() {
        let a = Matrix::from_fn(2, 9, |i, j| (i * 9 + j) as f64);
        let mut q = BatchQueue::new(2, 3, 32);
        q.push(a.submatrix(0, 2, 0, 2)).unwrap();
        q.push(a.submatrix(0, 2, 2, 3)).unwrap();
        q.push(a.submatrix(0, 2, 3, 9)).unwrap();
        let round = q.take_round(8).unwrap();
        assert_eq!(Matrix::hstack_all(round.batches()), a);
    }

    #[test]
    fn depth_backpressure() {
        let mut q = BatchQueue::new(2, 2, 4);
        q.push(chunk(2, 3, 0.0)).unwrap();
        let err = q.push(chunk(2, 2, 0.0)).unwrap_err();
        assert_eq!(err, QueueFull { pending: 3, depth: 4 });
        q.push(chunk(2, 1, 0.0)).unwrap();
        assert_eq!(q.accepted(), 4);
    }

    #[test]
    fn rank_source_partitions_rows() {
        let round = CoalescedBatches::from_batches(vec![chunk(5, 2, 0.0), chunk(5, 2, 50.0)]);
        let mut whole = Matrix::zeros(0, 0);
        let mut parts: Vec<Matrix> = Vec::new();
        let mut src = round.rank_source(1, 0);
        assert_eq!(src.batches_hint(), Some(2));
        while src.next_batch_into(&mut whole).unwrap() {
            parts.push(whole.clone());
        }
        assert_eq!(parts.len(), 2);
        for (b, p) in round.batches().iter().zip(&parts) {
            assert_eq!(b, p);
        }
        // Two-rank split: blocks vstack back to the batch.
        let mut top = Matrix::zeros(0, 0);
        let mut bot = Matrix::zeros(0, 0);
        assert!(round.rank_source(2, 0).next_batch_into(&mut top).unwrap());
        assert!(round.rank_source(2, 1).next_batch_into(&mut bot).unwrap());
        assert_eq!(top.vstack(&bot), round.batches()[0]);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn wrong_height_rejected() {
        let mut q = BatchQueue::new(3, 2, 8);
        let _ = q.push(chunk(4, 2, 0.0));
    }
}
