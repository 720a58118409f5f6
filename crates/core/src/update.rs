//! The Levy–Lindenbaum update (Algorithm 1 / Listing 1 of the paper),
//! written once under every caller.
//!
//! A streaming update, the first-batch factorization and a merge-tree
//! interior node are one factor-merge (Iwen & Ong, PAPERS.md): thin-QR a
//! stack of weighted factors, SVD the small `R`, keep the leading columns
//! of `Q·U'`. [`factor_truncate`] is that step; [`Tracker`] is the state it
//! advances — modes, σ, counters, RNG, scratch and every persistent
//! buffer — with the one ingestion loop and checkpoint capture/restore.
//!
//! What differs between callers is handed in as a [`TallQr`]: how a tall
//! stack is QR-factored and how the first batch is factored. [`LocalQr`]
//! is the in-process answer (serial driver, tree nodes); the distributed
//! driver supplies TSQR and one APMOS round. Nothing here knows which.

use std::convert::Infallible;
use std::io;

use psvd_data::stream::SnapshotSource;
use psvd_linalg::gemm::matmul_into;
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::workspace::{Workspace, WorkspaceStats};
use psvd_linalg::{Matrix, Scalar, Svd};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::SvdCheckpoint;
use crate::config::SvdConfig;

/// What every factorization draws on: the configuration, the RNG of a
/// randomized inner SVD, and the QR scratch arena.
pub(crate) struct Ctx<'a> {
    pub cfg: &'a SvdConfig,
    pub rng: &'a mut StdRng,
    pub ws: &'a mut Workspace,
}

/// The step a caller supplies to the update.
pub(crate) trait TallQr<T: Scalar> {
    /// `Infallible` in-process, `CommError` over a communicator.
    type Error;

    /// QR-factor the tall `stack` (the caller's rows of it), leaving those
    /// rows of `Q` in `q`, and return the inner SVD of the small `R`, asked
    /// for `rank` triplets. Only `u` and `s` are consumed.
    fn qr_svd(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &Matrix<T>,
        rank: usize,
        q: &mut Matrix<T>,
    ) -> Result<Svd<T>, Self::Error>;

    /// Factor the first batch: its `K` leading left vectors into `modes`,
    /// σ returned. By default the same QR path as every later update.
    fn first_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        a0: &Matrix<T>,
        q: &mut Matrix<T>,
        modes: &mut Matrix<T>,
    ) -> Result<Vec<T>, Self::Error> {
        let k = ctx.cfg.k;
        Ok(factor_truncate(self, ctx, a0, k, k, q, modes)?.s)
    }
}

/// Factor-and-truncate: QR `stack`, SVD its `R` for `keep` triplets, write
/// the leading `cols` columns of `Q·U'` to `out` (`usize::MAX`: all the
/// SVD returned — a tree node measures the discarded tail before it
/// truncates). Returns the inner SVD; its `s` is the new spectrum.
pub(crate) fn factor_truncate<T: Scalar, F: TallQr<T> + ?Sized>(
    qr: &mut F,
    ctx: &mut Ctx<'_>,
    stack: &Matrix<T>,
    keep: usize,
    cols: usize,
    q: &mut Matrix<T>,
    out: &mut Matrix<T>,
) -> Result<Svd<T>, F::Error> {
    let rank = keep.min(stack.rows().min(stack.cols()));
    let f = qr.qr_svd(ctx, stack, rank, q)?;
    let k = cols.min(f.s.len());
    matmul_into(q.view(), f.u.block(0, f.u.rows(), 0, k), out);
    Ok(f)
}

/// The in-process [`TallQr`]: `qr_thin_into` (blocked compact-WY once the
/// stack is wide enough, see `PSVD_QR_BLOCK` in DESIGN.md) into a
/// persistent `R`, then `SvdConfig::inner_svd`.
pub(crate) struct LocalQr<T: Scalar>(Matrix<T>);

impl<T: Scalar> LocalQr<T> {
    pub(crate) fn new() -> Self {
        Self(Matrix::zeros(0, 0))
    }
}

impl<T: Scalar> TallQr<T> for LocalQr<T> {
    type Error = Infallible;

    fn qr_svd(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &Matrix<T>,
        rank: usize,
        q: &mut Matrix<T>,
    ) -> Result<Svd<T>, Infallible> {
        qr_thin_into(stack.view(), q, &mut self.0, ctx.ws);
        Ok(ctx.cfg.inner_svd(&self.0, rank, ctx.rng))
    }
}

/// State of a streaming truncated SVD and the buffers its updates reuse:
/// every `O(M)` per-batch temporary lives here, so a steady-state update
/// allocates nothing beyond the `O((K+B)²)` inner-SVD factors (and,
/// distributed, the small matrices that move through the communicator).
pub(crate) struct Tracker<T: Scalar> {
    cfg: SvdConfig,
    modes: Matrix<T>,
    singular_values: Vec<T>,
    iteration: usize,
    snapshots_seen: usize,
    rng: StdRng,
    /// Scratch arena feeding the QR kernels.
    ws: Workspace,
    /// Persistent `[ff·U·D | A_i]` stack.
    stack: Matrix<T>,
    /// The caller's rows of the stack's `Q` factor.
    q: Matrix<T>,
    /// Where the next modes are formed before swapping into place.
    next_modes: Matrix<T>,
    /// Down-weighted singular values `ff · s`.
    weighted: Vec<T>,
    /// Landing buffer of the ingestion loop.
    ingest: Matrix<T>,
}

impl<T: Scalar> Tracker<T> {
    pub(crate) fn new(cfg: SvdConfig) -> Self {
        let cfg = cfg.validated();
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            modes: Matrix::zeros(0, 0),
            singular_values: Vec::new(),
            iteration: 0,
            snapshots_seen: 0,
            ws: Workspace::new(),
            stack: Matrix::zeros(0, 0),
            q: Matrix::zeros(0, 0),
            next_modes: Matrix::zeros(0, 0),
            weighted: Vec::new(),
            ingest: Matrix::zeros(0, 0),
        }
    }

    pub(crate) fn config(&self) -> &SvdConfig {
        &self.cfg
    }

    pub(crate) fn is_initialized(&self) -> bool {
        self.snapshots_seen > 0
    }

    pub(crate) fn iteration(&self) -> usize {
        self.iteration
    }

    pub(crate) fn snapshots_seen(&self) -> usize {
        self.snapshots_seen
    }

    pub(crate) fn modes(&self) -> &Matrix<T> {
        &self.modes
    }

    pub(crate) fn singular_values(&self) -> &[T] {
        &self.singular_values
    }

    pub(crate) fn into_modes(self) -> (Matrix<T>, Vec<T>) {
        (self.modes, self.singular_values)
    }

    pub(crate) fn scratch_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    pub(crate) fn reset_scratch_stats(&mut self) {
        self.ws.reset_stats();
    }

    /// The factorization context, for running a [`TallQr`] step by hand.
    pub(crate) fn ctx(&mut self) -> Ctx<'_> {
        Ctx { cfg: &self.cfg, rng: &mut self.rng, ws: &mut self.ws }
    }

    /// Swap in the modes just formed in the spare buffer, keep as many
    /// leading values of `sigma`, and count `cols` more snapshots.
    fn commit(&mut self, sigma: &[T], cols: usize) {
        std::mem::swap(&mut self.modes, &mut self.next_modes);
        self.singular_values.clear();
        self.singular_values.extend_from_slice(&sigma[..self.modes.cols()]);
        self.snapshots_seen += cols;
    }

    /// Ingest the first batch `A0` (`M x B`).
    pub(crate) fn initialize<F: TallQr<T>>(
        &mut self,
        qr: &mut F,
        a0: &Matrix<T>,
    ) -> Result<(), F::Error> {
        assert!(!self.is_initialized(), "initialize called twice");
        assert!(a0.cols() > 0, "first batch is empty");
        let Self { cfg, rng, ws, q, next_modes, .. } = self;
        let sigma = qr.first_batch(&mut Ctx { cfg, rng, ws }, a0, q, next_modes)?;
        self.commit(&sigma, a0.cols());
        Ok(())
    }

    /// Whether `ai` can follow the stream so far (panics if not); `false`
    /// for an empty batch, which every caller treats as a no-op.
    pub(crate) fn admits(&self, ai: &Matrix<T>) -> bool {
        assert!(self.is_initialized(), "incorporate_data before initialize");
        assert_eq!(ai.rows(), self.modes.rows(), "batch row count changed mid-stream");
        ai.cols() > 0
    }

    /// Ingest a further batch `Ai` (`M x B`), down-weighting history by
    /// the forget factor. A failed step commits nothing: modes, σ and both
    /// counters stay exactly what they were.
    pub(crate) fn update<F: TallQr<T>>(
        &mut self,
        qr: &mut F,
        ai: &Matrix<T>,
    ) -> Result<(), F::Error> {
        if !self.admits(ai) {
            return Ok(());
        }
        // [ff · U_{i-1} D_{i-1} | A_i], row by row in the persistent stack:
        // the same multiplies as mul_diag + hstack, neither materialized.
        let (m, k0) = self.modes.shape();
        let ff = T::from_f64(self.cfg.forget_factor);
        self.weighted.clear();
        self.weighted.extend(self.singular_values.iter().map(|s| *s * ff));
        self.stack.reshape_for_overwrite(m, k0 + ai.cols());
        for i in 0..m {
            let dst = self.stack.row_mut(i);
            for ((d, &u), &w) in dst[..k0].iter_mut().zip(self.modes.row(i)).zip(&self.weighted) {
                *d = u * w;
            }
            dst[k0..].copy_from_slice(ai.row(i));
        }
        let Self { cfg, rng, ws, stack, q, next_modes, .. } = self;
        let f = factor_truncate(qr, &mut Ctx { cfg, rng, ws }, stack, cfg.k, cfg.k, q, next_modes)?;
        self.iteration += 1;
        self.commit(&f.s, ai.cols());
        Ok(())
    }

    /// One batch of a stream: `initialize` on the first, `update` after.
    pub(crate) fn step<F: TallQr<T>>(
        &mut self,
        qr: &mut F,
        batch: &Matrix<T>,
    ) -> Result<(), F::Error> {
        if self.is_initialized() {
            self.update(qr, batch)
        } else {
            self.initialize(qr, batch)
        }
    }

    /// The one ingestion loop: pull every batch `source` yields into the
    /// persistent landing buffer and hand it to `each` — a driver's wrap
    /// around [`Tracker::step`]. Source failures enter `each`'s error type
    /// as [`io::Error`]; either way the last completed batch's
    /// factorization stays intact.
    pub(crate) fn fit_source<S: SnapshotSource<T>, E: From<io::Error>>(
        &mut self,
        source: &mut S,
        mut each: impl FnMut(&mut Self, &Matrix<T>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut ingest = std::mem::replace(&mut self.ingest, Matrix::zeros(0, 0));
        let result = (|| {
            while source.next_batch_into(&mut ingest)? {
                each(self, &ingest)?;
            }
            Ok(())
        })();
        self.ingest = ingest;
        result
    }
}

/// Checkpointing is defined on the `f64` instantiation only — the on-disk
/// [`SvdCheckpoint`] format is fixed at double precision.
impl Tracker<f64> {
    fn capture(&self, modes: Matrix, singular_values: Vec<f64>) -> SvdCheckpoint {
        assert!(self.is_initialized(), "checkpoint of an uninitialized tracker");
        let (iteration, snapshots_seen) = (self.iteration, self.snapshots_seen);
        SvdCheckpoint { modes, singular_values, iteration, snapshots_seen }
    }

    /// Copy the algorithmic state out.
    pub(crate) fn checkpoint(&self) -> SvdCheckpoint {
        self.capture(self.modes.clone(), self.singular_values.clone())
    }

    /// Move the algorithmic state out.
    pub(crate) fn into_checkpoint(mut self) -> SvdCheckpoint {
        let modes = std::mem::replace(&mut self.modes, Matrix::zeros(0, 0));
        let singular_values = std::mem::take(&mut self.singular_values);
        self.capture(modes, singular_values)
    }

    /// A tracker that continues the checkpointed stream bit-exactly.
    pub(crate) fn restore(cfg: SvdConfig, ckpt: SvdCheckpoint) -> Self {
        assert!(ckpt.snapshots_seen > 0, "restored state must be initialized");
        assert_eq!(ckpt.modes.cols(), ckpt.singular_values.len(), "inconsistent checkpoint");
        let SvdCheckpoint { modes, singular_values, iteration, snapshots_seen } = ckpt;
        Self { modes, singular_values, iteration, snapshots_seen, ..Self::new(cfg) }
    }
}

/// The read side both streaming drivers expose, forwarded to their
/// `tracker` field — written here so the two cannot drift.
macro_rules! forward_tracker_accessors {
    () => {
        /// The configuration in use.
        pub fn config(&self) -> &SvdConfig {
            self.tracker.config()
        }

        /// True once `initialize` has run.
        pub fn is_initialized(&self) -> bool {
            self.tracker.is_initialized()
        }

        /// Number of streaming updates performed so far (excluding init).
        pub fn iteration(&self) -> usize {
            self.tracker.iteration()
        }

        /// Total snapshots ingested.
        pub fn snapshots_seen(&self) -> usize {
            self.tracker.snapshots_seen()
        }

        /// Current estimate of the `K` leading singular values (identical
        /// on every rank of a distributed run).
        pub fn singular_values(&self) -> &[T] {
            self.tracker.singular_values()
        }

        /// Consume the tracker, handing out its (rows of the) modes and
        /// the singular values without copying them.
        pub fn into_modes(self) -> (Matrix<T>, Vec<T>) {
            self.tracker.into_modes()
        }

        /// Allocation accounting for the internal scratch arena: after the
        /// first update has warmed the buffers, further same-shape updates
        /// report zero additional misses and zero fresh bytes.
        pub fn scratch_stats(&self) -> WorkspaceStats {
            self.tracker.scratch_stats()
        }

        /// Reset the scratch-arena counters (e.g. after warm-up, before
        /// measuring a steady-state window).
        pub fn reset_scratch_stats(&mut self) {
            self.tracker.reset_scratch_stats();
        }
    };
}
pub(crate) use forward_tracker_accessors;
