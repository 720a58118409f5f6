//! The Levy–Lindenbaum update (Algorithm 1 / Listing 1 of the paper),
//! written once under every caller.
//!
//! A streaming update, the first-batch factorization and a merge-tree
//! interior node are one factor-merge (Iwen & Ong, PAPERS.md): the SVD of
//! a stack of weighted factors, truncated. It takes one of two forms here.
//!
//! - [`factor_truncate`] thin-QRs the whole stack, SVDs the small `R` and
//!   keeps the leading columns of `Q·U'`. It factors the first batch,
//!   every merge-tree node, and any update whose Grams the projection
//!   cannot trust.
//! - The projection update ([`Tracker::update`]) does not re-factor the
//!   modes `U`. It projects `U` out of the batch twice (`L = UᵀA`,
//!   `H = A − U·L`), factors only the `M×B` residual `H = J·R`, SVDs the
//!   `(K+B)`-square core `[[ff·D, L], [0, R]]` and forms `[U | J]·U'`:
//!   `O(MKB + MB²)` where the full stack costs `O(M(K+B)²)`. `U` need
//!   not be orthonormal: the measured `G = UᵀU`, `UᵀJ` and `JᵀJ` are
//!   folded into the core through the Cholesky factor of the Gram matrix
//!   of `[U | J]`, so neither the drift of `U` nor a residual `J` that
//!   leans into `span(U)` costs accuracy. Every Gram the update factors
//!   passes one trust rule ([`trusted_cholesky`]: finite, within ½ of
//!   `I` where it should be `I`, every pivot above ½ of the one it should
//!   have); when `G` or the residual's factor fails it, the update takes
//!   the full stack instead. The choice depends on the Grams' bits alone,
//!   so checkpoint restarts and thread counts cannot change it.
//! - The residual is factored by CholeskyQR2 (Yamamoto, Nakatsukasa,
//!   Yanagisawa & Fukaya 2015): `J₁ = H·chol(HᵀH)⁻¹`, then `J₁ᵀJ₁`
//!   measured and folded into the core, so the `M`-long work is two Gram
//!   products and one GEMM and the world sums only `B`-square matrices.
//!   When those Grams show `H` too ill-conditioned for two passes, the
//!   update runs the driver's tall QR on the same `H` instead: the
//!   Householder thin QR in-process, TSQR over a communicator.
//!
//! [`Tracker`] is the state both advance — modes, σ, counters, scratch
//! and every persistent buffer — with the one ingestion loop and
//! checkpoint capture/restore. It holds no RNG: a randomized inner SVD
//! draws from [`step_seed`], a pure function of the configured seed and
//! the step's ordinal, so a restored tracker draws the sketch the
//! uninterrupted one would have, and every rank draws the same.
//!
//! What differs between callers is handed in as a [`TallQr`]: how a small
//! matrix is summed over the world, how a tall matrix is QR-factored, and
//! how the first batch is factored. [`LocalQr`] is the in-process answer
//! (serial driver, tree nodes); the distributed driver supplies an
//! allreduce, TSQR (whose `R` reaches every rank with its `Q` block) and
//! one APMOS round. Every rank then holds the same small factors and
//! solves the small core itself. Nothing here knows which.

use std::convert::Infallible;
use std::io;

use psvd_data::stream::SnapshotSource;
use psvd_linalg::gemm::{matmul_acc_into, matmul_into, matmul_tn_cat_into, matmul_tn_into};
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::workspace::{Workspace, WorkspaceStats};
use psvd_linalg::{Matrix, Scalar};

use crate::checkpoint::SvdCheckpoint;
use crate::config::SvdConfig;

/// The one bound of [`trusted_cholesky`]: a Gram that should be `I` may
/// miss it by at most ½ in any entry, and every Cholesky pivot must clear
/// ½ of the pivot the Gram should have. A constant, not a knob.
const TRUST: f64 = 0.5;

/// The seed of a stream's inner SVD at step `ordinal`: the update count
/// [`SvdCheckpoint::iteration`] records once the step commits (0 for the
/// first batch). `seed` itself at ordinal 0, so the first batch draws what
/// a one-shot factorization draws; after it, `seed` xor SplitMix64's hash
/// of the ordinal.
fn step_seed(seed: u64, ordinal: usize) -> u64 {
    let mut z = (ordinal as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seed ^ z ^ (z >> 31)
}

/// What every factorization draws on: the configuration, the seed of a
/// randomized inner SVD, and the QR scratch arena.
pub(crate) struct Ctx<'a> {
    pub cfg: &'a SvdConfig,
    pub seed: u64,
    pub ws: &'a mut Workspace,
}

/// The steps a caller supplies to the update.
pub(crate) trait TallQr<T: Scalar> {
    /// `Infallible` in-process, `CommError` over a communicator.
    type Error;

    /// Sum a small matrix over the world in one collective. The identity
    /// in-process.
    fn sum(&mut self, a: Matrix<T>) -> Result<Matrix<T>, Self::Error>;

    /// QR-factor the tall `stack` (the caller's rows of it), leaving those
    /// rows of `Q` in `q`, and return `R`, the same on every rank. It
    /// factors the first batch, the full stack, every merge-tree node, and
    /// a projection residual whose Grams refuse CholeskyQR2.
    fn qr(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &Matrix<T>,
        q: &mut Matrix<T>,
    ) -> Result<&Matrix<T>, Self::Error>;

    /// Factor the first batch: its `K` leading left vectors into `modes`,
    /// σ returned. By default [`factor_truncate`], like a full-stack update.
    fn first_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        a0: &Matrix<T>,
        q: &mut Matrix<T>,
        modes: &mut Matrix<T>,
    ) -> Result<Vec<T>, Self::Error> {
        let k = ctx.cfg.k;
        factor_truncate(self, ctx, a0, k, k, q, modes)
    }
}

/// QR `stack` through the driver and SVD its `R` for `rank` triplets:
/// `(U', σ)`, on every rank alike.
pub(crate) fn qr_svd<T: Scalar, F: TallQr<T> + ?Sized>(
    qr: &mut F,
    ctx: &mut Ctx<'_>,
    stack: &Matrix<T>,
    rank: usize,
    q: &mut Matrix<T>,
) -> Result<(Matrix<T>, Vec<T>), F::Error> {
    let f = ctx.cfg.inner_svd(qr.qr(ctx, stack, q)?, rank, ctx.seed);
    Ok((f.u, f.s))
}

/// Factor-and-truncate: QR `stack`, SVD its `R` for `keep` triplets, write
/// the leading `cols` columns of `Q·U'` to `out` (`usize::MAX`: all the
/// SVD returned — a tree node measures the discarded tail before it
/// truncates). Returns the new spectrum.
pub(crate) fn factor_truncate<T: Scalar, F: TallQr<T> + ?Sized>(
    qr: &mut F,
    ctx: &mut Ctx<'_>,
    stack: &Matrix<T>,
    keep: usize,
    cols: usize,
    q: &mut Matrix<T>,
    out: &mut Matrix<T>,
) -> Result<Vec<T>, F::Error> {
    let rank = keep.min(stack.rows().min(stack.cols()));
    let (u, s) = qr_svd(qr, ctx, stack, rank, q)?;
    let k = cols.min(s.len());
    matmul_into(q.view(), u.block(0, u.rows(), 0, k), out);
    Ok(s)
}

/// The in-process [`TallQr`]: `qr_thin_into` into a persistent `R`; a sum
/// is the identity. The QR's panel width is a function of
/// shape alone: a stack with fewer than 48 columns (or rows) runs the
/// unblocked path, below 128 compact-WY panels of 16, otherwise panels of
/// 32 (DESIGN.md, "Panel width").
pub(crate) struct LocalQr<T: Scalar>(Matrix<T>);

impl<T: Scalar> LocalQr<T> {
    pub(crate) fn new() -> Self {
        Self(Matrix::zeros(0, 0))
    }
}

impl<T: Scalar> TallQr<T> for LocalQr<T> {
    type Error = Infallible;

    fn sum(&mut self, a: Matrix<T>) -> Result<Matrix<T>, Infallible> {
        Ok(a)
    }

    fn qr(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &Matrix<T>,
        q: &mut Matrix<T>,
    ) -> Result<&Matrix<T>, Infallible> {
        qr_thin_into(stack.view(), q, &mut self.0, ctx.ws);
        Ok(&self.0)
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
    /// Scratch arena feeding the QR kernels.
    ws: Workspace,
    /// Persistent `[ff·U·D | A_i]` stack, or the projection's residual `H`.
    stack: Matrix<T>,
    /// The caller's rows of the stack's `Q`, or of the residual's basis
    /// (CholeskyQR2's `J₁`, or the tall QR's `J`).
    q: Matrix<T>,
    /// Where the next modes are formed before swapping into place.
    next_modes: Matrix<T>,
    /// Down-weighted singular values `ff · s`.
    weighted: Vec<T>,
    /// The measured `G = UᵀU`, summed over the world; then its upper
    /// Cholesky factor `S` (`G = SᵀS`).
    gram: Matrix<T>,
    /// `L = UᵀA` summed over the world: `L₁`, then `L₁ + L₂`.
    proj: Matrix<T>,
    /// The projection's `K x B` coefficients: `−G⁻¹L₁`, `L₂`, `−G⁻¹L₂`,
    /// then `X = S⁻ᵀUᵀJ`.
    coef: Matrix<T>,
    /// The residual's `R` (`R₁` under CholeskyQR2), and the Cholesky
    /// factor `T` of the Gram matrix of its basis with `U` projected out.
    resid_r: Matrix<T>,
    resid_chol: Matrix<T>,
    /// The small core every rank forms (see `core_svd`).
    core: Matrix<T>,
    /// Landing buffer of the ingestion loop.
    ingest: Matrix<T>,
    /// `max|UᵀU − I|` measured by the latest update.
    ortho_drift: f64,
    /// Updates that re-factored the full stack because `G` or the
    /// residual's factor failed [`trusted_cholesky`].
    full_stack_updates: usize,
    /// Projection updates whose Grams refused CholeskyQR2, so that the
    /// residual went through the driver's tall QR.
    cholqr_fallbacks: usize,
}

impl<T: Scalar> Tracker<T> {
    pub(crate) fn new(cfg: SvdConfig) -> Self {
        let cfg = cfg.validated();
        Self {
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
            gram: Matrix::zeros(0, 0),
            proj: Matrix::zeros(0, 0),
            coef: Matrix::zeros(0, 0),
            resid_r: Matrix::zeros(0, 0),
            resid_chol: Matrix::zeros(0, 0),
            core: Matrix::zeros(0, 0),
            ingest: Matrix::zeros(0, 0),
            ortho_drift: 0.0,
            full_stack_updates: 0,
            cholqr_fallbacks: 0,
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

    pub(crate) fn ortho_drift(&self) -> f64 {
        self.ortho_drift
    }

    pub(crate) fn full_stack_updates(&self) -> usize {
        self.full_stack_updates
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

    /// The seed of the next step's inner SVD: [`step_seed`] at the
    /// ordinal the checkpoint will record once that step commits.
    fn seed(&self) -> u64 {
        step_seed(self.cfg.seed, self.iteration + usize::from(self.is_initialized()))
    }

    /// The factorization context, for running a [`TallQr`] step by hand.
    pub(crate) fn ctx(&mut self) -> Ctx<'_> {
        let seed = self.seed();
        Ctx { cfg: &self.cfg, seed, ws: &mut self.ws }
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
        let seed = self.seed();
        let Self { cfg, ws, q, next_modes, .. } = self;
        let sigma = qr.first_batch(&mut Ctx { cfg, seed, ws }, a0, q, next_modes)?;
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
    /// the forget factor: the projection update while the Grams it factors
    /// pass [`trusted_cholesky`], the full stack otherwise. A failed step
    /// commits nothing: modes, σ and both counters stay exactly what they
    /// were.
    pub(crate) fn update<F: TallQr<T>>(
        &mut self,
        qr: &mut F,
        ai: &Matrix<T>,
    ) -> Result<(), F::Error> {
        if !self.admits(ai) {
            return Ok(());
        }
        let drift = self.measure(qr, ai)?;
        let (sigma, projected) = match self.project(qr, ai)? {
            Some(sigma) => (sigma, true),
            None => (self.refactor(qr, ai)?, false),
        };
        self.ortho_drift = drift;
        self.full_stack_updates += usize::from(!projected);
        self.iteration += 1;
        self.commit(&sigma, ai.cols());
        Ok(())
    }

    /// `G = UᵀU` and `L₁ = UᵀA`, summed over the world in one collective
    /// as the blocks of `[G | L₁] = Uᵀ[U | A]`, into `gram` and `proj`;
    /// returns `max|G − I|` (NaN unless finite). One column-block product
    /// ([`matmul_tn_cat_into`]) forms both blocks in one pass over `U`,
    /// with the bits of two separate products.
    fn measure<F: TallQr<T>>(&mut self, qr: &mut F, a: &Matrix<T>) -> Result<f64, F::Error> {
        let (u, ws) = (&self.modes, &mut self.ws);
        let (k0, b) = (u.cols(), a.cols());
        let mut both = ws.take(k0, k0 + b);
        matmul_tn_cat_into(&[u.view()], &[u.view(), a.view()], &mut both.view_mut());
        let both = qr.sum(both)?;
        self.gram.reshape_for_overwrite(k0, k0);
        self.gram.view_mut().copy_from(both.block(0, k0, 0, k0));
        self.proj.reshape_for_overwrite(k0, b);
        self.proj.view_mut().copy_from(both.block(0, k0, k0, k0 + b));
        self.ws.give(both);
        Ok(identity_deviation(&self.gram))
    }

    /// The projection update, given `G` in `gram` and `L₁` in `proj`;
    /// returns σ with the next modes in the spare buffer, or `None` when
    /// the full stack must be factored instead: `G` fails
    /// [`trusted_cholesky`] (modes far from orthonormal, or not finite),
    /// or the residual basis is too close to `span(U)`. `H` lives in the
    /// stack buffer and its basis in `q`, so it needs no `O(M)` memory the
    /// full stack does not; every `B`-square factor comes from the
    /// workspace.
    ///
    /// `H` is factored by CholeskyQR2 ([`cholesky_qr2`]): two Gram sums
    /// that ride collectives the update makes anyway, and one GEMM. When
    /// the Grams say the pass cannot be trusted, the same `H` goes through
    /// the driver's tall QR instead, bit for bit as before.
    ///
    /// Neither `UᵀU = I` nor `UᵀJ = 0` is assumed, nor `J₁ᵀJ₁ = I` of
    /// CholeskyQR2's basis: all are measured, and the core is formed in the
    /// coordinates of the orthonormal basis the Cholesky factor of the Gram
    /// matrix of `[U | J]` defines, at `O((K+B)³)` cost. Drift that `U` carries in
    /// is therefore not carried forward, an ill-conditioned residual costs
    /// no accuracy, and CholeskyQR2's second factor `R₂` never has to be
    /// applied to anything `M` long.
    fn project<F: TallQr<T>>(
        &mut self,
        qr: &mut F,
        a: &Matrix<T>,
    ) -> Result<Option<Vec<T>>, F::Error> {
        let seed = self.seed();
        let Self {
            cfg,
            modes: u,
            singular_values,
            ws,
            stack: h,
            q: j,
            next_modes,
            gram: chol,
            proj,
            coef,
            core,
            resid_r,
            resid_chol,
            cholqr_fallbacks,
            ..
        } = self;
        let (m, k0) = u.shape();
        let b = a.cols();
        // Refused before any collective, so every rank returns alike.
        if !trusted_cholesky(chol, true, |_| T::ONE) {
            return Ok(None);
        }
        // H = A − U·G⁻¹L₁.
        coef.reshape_for_overwrite(k0, b);
        coef.as_mut_slice().copy_from_slice(proj.as_slice());
        neg_gram_solve(chol, coef);
        h.reshape_for_overwrite(m, b);
        h.as_mut_slice().copy_from_slice(a.as_slice());
        matmul_acc_into(u.view(), coef.view(), &mut h.view_mut());
        // Twice is enough: L₂ = UᵀH over the world, H −= U·G⁻¹L₂ and
        // L = L₁ + L₂. One pass leaves an O(ε·κ) part of A in span(U)
        // inside H, which the QR would turn into directions in span(U).
        // The Gram matrix of the first H rides the same sum, and
        // HᵀH − L₂ᵀG⁻¹L₂ is that of the second.
        let sums = qr.sum(tn_stack(ws, u, h))?;
        let l2 = sums.block(0, k0, 0, b);
        coef.view_mut().copy_from(l2);
        for (l, &c) in proj.as_mut_slice().iter_mut().zip(coef.as_slice()) {
            *l += c;
        }
        neg_gram_solve(chol, coef);
        matmul_acc_into(u.view(), coef.view(), &mut h.view_mut());
        let mut hgram = ws.take(b, b);
        hgram.view_mut().copy_from(sums.block(k0, k0 + b, 0, b));
        matmul_acc_into(l2.transposed(), coef.view(), &mut hgram.view_mut());
        ws.give(sums);
        // H = J·R and Y = UᵀJ, the measured Gram of J alongside when J is
        // CholeskyQR2's J₁; then X = S⁻ᵀY and the Cholesky factor T of
        // JᵀJ − XᵀX, the Gram matrix of J with U projected out, on every
        // rank alike.
        let basis = cholesky_qr2(qr, ws, u, h, j, hgram, coef, resid_r)?;
        if basis.is_none() {
            *cholqr_fallbacks += 1;
            resid_r.clone_from(qr.qr(&mut Ctx { cfg, seed, ws }, h, j)?);
            matmul_tn_into(u.view(), j.view(), coef);
            *coef = qr.sum(std::mem::replace(coef, Matrix::zeros(0, 0)))?;
        }
        solve_upper_t(chol, coef, 0);
        let p = coef.cols();
        resid_chol.reshape_zeroed(p, p);
        matmul_acc_into(coef.view().transposed(), coef.view(), &mut resid_chol.view_mut());
        resid_chol.as_mut_slice().iter_mut().for_each(|v| *v = -*v);
        // A pivot of T below ½ is a column of J mostly in span(U) (a zero
        // residual column gives Householder an arbitrary unit vector).
        // For CholeskyQR2's J₁ = J·R₂ the factor is T·R₂, whose pivots are
        // those of T times those of R₂.
        let pivots_hold = match basis {
            None => {
                for i in 0..p {
                    resid_chol[(i, i)] += T::ONE;
                }
                trusted_cholesky(resid_chol, false, |_| T::ONE)
            }
            Some((jgram, r2)) => {
                for (v, &g) in resid_chol.as_mut_slice().iter_mut().zip(jgram.as_slice()) {
                    *v += g;
                }
                let hold = trusted_cholesky(resid_chol, false, |i| r2[(i, i)]);
                ws.give(jgram);
                ws.give(r2);
                hold
            }
        };
        if !pivots_hold {
            return Ok(None);
        }
        let ctx = Ctx { cfg, seed, ws };
        let (w, s) = core_svd(&ctx, core, chol, resid_chol, coef, proj, resid_r, singular_values);
        // [U | J]·W, as two GEMMs.
        let kk = w.cols();
        matmul_into(u.view(), w.block(0, k0, 0, kk), next_modes);
        matmul_acc_into(j.view(), w.block(k0, k0 + p, 0, kk), &mut next_modes.view_mut());
        Ok(Some(s))
    }

    /// The full-stack update: thin-QR `[ff · U_{i-1} D_{i-1} | A_i]`,
    /// which re-orthonormalizes whatever modes it was handed.
    fn refactor<F: TallQr<T>>(&mut self, qr: &mut F, ai: &Matrix<T>) -> Result<Vec<T>, F::Error> {
        // Built row by row in the persistent stack: the same multiplies as
        // mul_diag + hstack, neither materialized.
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
        let seed = self.seed();
        let Self { cfg, ws, stack, q, next_modes, .. } = self;
        factor_truncate(qr, &mut Ctx { cfg, seed, ws }, stack, cfg.k, cfg.k, q, next_modes)
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

/// The small half of the projection update, which every rank solves
/// alike from the same summed factors. With `[U | J]` the basis,
/// `S` the Cholesky factor of `UᵀU`, `X = S⁻ᵀUᵀJ` and `TᵀT = JᵀJ − XᵀX`
/// (`JᵀJ` is `I` for a Householder `J`, the measured Gram for
/// CholeskyQR2's `J₁`), the upper-triangular `F = [[S, X], [0, T]]` has
/// `FᵀF` equal to the Gram matrix of `[U | J]`, so `[U | J]·F⁻¹` is
/// orthonormal and
/// `[ff·U·D | A] = [U | J]·F⁻¹·Core` for the core
/// `[[S·ff·D, S⁻ᵀL + X·R], [0, T·R]]`. Returns its σ and `W = F⁻¹·U'_K`,
/// from which every rank forms the modes `[U | J]·W`.
#[allow(clippy::too_many_arguments)]
fn core_svd<T: Scalar>(
    ctx: &Ctx<'_>,
    core: &mut Matrix<T>,
    s_chol: &Matrix<T>,
    t_chol: &Matrix<T>,
    x: &Matrix<T>,
    l: &Matrix<T>,
    r: &Matrix<T>,
    sigma: &[T],
) -> (Matrix<T>, Vec<T>) {
    let (k0, b, p) = (l.rows(), l.cols(), r.rows());
    let ff = T::from_f64(ctx.cfg.forget_factor);
    core.reshape_zeroed(k0 + p, k0 + b);
    for i in 0..k0 {
        let row = core.row_mut(i);
        for (jj, (c, &s)) in row[..k0].iter_mut().zip(sigma).enumerate().skip(i) {
            *c = s_chol[(i, jj)] * ff * s;
        }
        row[k0..].copy_from_slice(l.row(i));
    }
    solve_upper_t(s_chol, core, k0);
    // S⁻ᵀL + X·R, then T·R: both products of small triangular factors.
    for i in 0..k0 + p {
        let (f, skip) = if i < k0 { (x.row(i), 0) } else { (t_chol.row(i - k0), i - k0) };
        let row = &mut core.row_mut(i)[k0..];
        for (t, &c) in f.iter().enumerate().skip(skip) {
            for (v, &rv) in row.iter_mut().zip(r.row(t)) {
                *v += c * rv;
            }
        }
    }
    let f = ctx.cfg.inner_svd(core, ctx.cfg.k.min(core.rows().min(core.cols())), ctx.seed);
    let kk = ctx.cfg.k.min(f.s.len());
    // W_bot = T⁻¹U'_bot, then W_top = S⁻¹(U'_top − X·W_bot).
    let mut bot = f.u.submatrix(k0, k0 + p, 0, kk);
    solve_upper(t_chol, &mut bot);
    let mut top = f.u.submatrix(0, k0, 0, kk);
    for i in 0..k0 {
        for (t, &c) in x.row(i).iter().enumerate() {
            for (v, &y) in top.row_mut(i).iter_mut().zip(bot.row(t)) {
                *v -= c * y;
            }
        }
    }
    solve_upper(s_chol, &mut top);
    let mut s = f.s;
    s.truncate(kk);
    (Matrix::vstack_owned(vec![top, bot]), s)
}

/// Overwrite the summed Gram `g` with its upper Cholesky factor `S`
/// (`G = SᵀS`) and say whether the update may build on it: the one trust
/// rule of every Gram it factors. `false`, leaving `g` garbage, when
/// `identity` (`g` should be `I`: the modes' `UᵀU`, CholeskyQR2's
/// `J₁ᵀJ₁`) and `max|g − I| > ½`, when the pivot of row `i` is not above
/// ½ of `pivot(i)`, the pivot `g` should have, or when `g` or its factor
/// is not finite (NaN fails every comparison). Every rank holds the same
/// summed Gram, so every rank decides alike.
fn trusted_cholesky<T: Scalar>(
    g: &mut Matrix<T>,
    identity: bool,
    pivot: impl Fn(usize) -> T,
) -> bool {
    let near = !identity || identity_deviation(g) <= TRUST;
    if !near {
        return false;
    }
    let n = g.rows();
    for i in 0..n {
        for k in 0..i {
            let f = g[(k, i)];
            for jj in i..n {
                let v = g[(k, jj)];
                g[(i, jj)] -= f * v;
            }
        }
        let (d2, f) = (g[(i, i)], T::from_f64(TRUST) * pivot(i));
        if d2.partial_cmp(&(f * f)) != Some(std::cmp::Ordering::Greater) {
            return false;
        }
        let d = d2.sqrt();
        g.row_mut(i)[i..].iter_mut().for_each(|v| *v /= d);
        g.row_mut(i)[..i].iter_mut().for_each(|v| *v = T::ZERO);
    }
    g.all_finite()
}

/// `max|G − I|` of the square `g`; NaN unless every entry is finite.
fn identity_deviation<T: Scalar>(g: &Matrix<T>) -> f64 {
    let eye = |i: usize, j: usize| if i == j { T::ONE } else { T::ZERO };
    let dev = (0..g.rows()).flat_map(|i| (0..g.cols()).map(move |j| g[(i, j)] - eye(i, j)));
    let dev = dev.map(|d| d.abs().to_f64()).fold(0.0, f64::max);
    if g.all_finite() {
        dev
    } else {
        f64::NAN
    }
}

/// `[U | X]ᵀX` in a workspace buffer: `UᵀX` above `XᵀX`, the pair one
/// collective sums for a projection and a Gram — the residual `H`'s, and
/// CholeskyQR2's `J₁`'s. One column-block product forms both in one pass
/// over `X`, with the bits of two separate products.
fn tn_stack<T: Scalar>(ws: &mut Workspace, u: &Matrix<T>, x: &Matrix<T>) -> Matrix<T> {
    let (k0, b) = (u.cols(), x.cols());
    let mut out = ws.take(k0 + b, b);
    matmul_tn_cat_into(&[u.view(), x.view()], &[x.view()], &mut out.view_mut());
    out
}

/// The summed Gram `J₁ᵀJ₁` of CholeskyQR2's first basis and its Cholesky
/// factor `R₂`.
type BasisGram<T> = (Matrix<T>, Matrix<T>);

/// CholeskyQR2 of this rank's rows of the twice-projected `H`, given the
/// summed `HᵀH` in `hgram` (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya
/// 2015): `R₁ = chol(HᵀH)`, `J₁ = H·R₁⁻¹` into `j`, and `J₁ᵀJ₁` with
/// `UᵀJ₁` summed in one collective. `H = J·R₂R₁` for the orthonormal
/// `J = J₁R₂⁻¹`, `R₂ = chol(J₁ᵀJ₁)`, which is never formed: `R₁` goes to
/// `r`, `UᵀJ₁` to `y`, and the summed `J₁ᵀJ₁` and `R₂` are returned for
/// the core to fold in.
///
/// `None`, with `H` untouched, when a Gram fails [`trusted_cholesky`]:
/// a pivot of `R₁` is not finite and positive (rounding in `HᵀH` has
/// taken `H`'s rank), or `J₁ᵀJ₁` misses `I` by more than ½, beyond which
/// one more pass no longer certifies working-precision orthogonality.
#[allow(clippy::too_many_arguments)]
fn cholesky_qr2<T: Scalar, F: TallQr<T>>(
    qr: &mut F,
    ws: &mut Workspace,
    u: &Matrix<T>,
    h: &Matrix<T>,
    j: &mut Matrix<T>,
    mut hgram: Matrix<T>,
    y: &mut Matrix<T>,
    r: &mut Matrix<T>,
) -> Result<Option<BasisGram<T>>, F::Error> {
    let (k0, b) = (u.cols(), h.cols());
    if !trusted_cholesky(&mut hgram, false, |_| T::ZERO) {
        ws.give(hgram);
        return Ok(None);
    }
    // J₁ = H·R₁⁻¹ at GEMM rate: R₁⁻ᵀ by forward substitution (the
    // inverse whose left residual X·R₁ − I is small), then one product.
    let mut inv = ws.take(b, b);
    for i in 0..b {
        inv[(i, i)] = T::ONE;
    }
    solve_upper_t(&hgram, &mut inv, 0);
    matmul_into(h.view(), inv.view().transposed(), j);
    ws.give(inv);
    let sums = qr.sum(tn_stack(ws, u, j))?;
    let mut jgram = ws.take(b, b);
    jgram.view_mut().copy_from(sums.block(k0, k0 + b, 0, b));
    let mut r2 = ws.take(b, b);
    r2.as_mut_slice().copy_from_slice(jgram.as_slice());
    let trusted = trusted_cholesky(&mut r2, true, |_| T::ONE);
    if trusted {
        y.view_mut().copy_from(sums.block(0, k0, 0, b));
        r.clone_from(&hgram);
    }
    ws.give(sums);
    ws.give(hgram);
    if !trusted {
        ws.give(jgram);
        ws.give(r2);
        return Ok(None);
    }
    Ok(Some((jgram, r2)))
}

/// `X ← S⁻ᵀX` on the trailing columns `c0..` of `x`'s first `S.rows()`
/// rows: forward substitution with the lower-triangular `Sᵀ`.
fn solve_upper_t<T: Scalar>(s: &Matrix<T>, x: &mut Matrix<T>, c0: usize) {
    let cols = x.cols();
    for i in 0..s.rows() {
        let (done, rest) = x.as_mut_slice().split_at_mut(i * cols);
        let xi = &mut rest[c0..cols];
        for k in 0..i {
            let f = s[(k, i)];
            for (v, &y) in xi.iter_mut().zip(&done[k * cols + c0..(k + 1) * cols]) {
                *v -= f * y;
            }
        }
        let d = s[(i, i)];
        xi.iter_mut().for_each(|v| *v /= d);
    }
}

/// `X ← S⁻¹X` on the first `S.rows()` rows of `x`: back substitution.
fn solve_upper<T: Scalar>(s: &Matrix<T>, x: &mut Matrix<T>) {
    let cols = x.cols();
    for i in (0..s.rows()).rev() {
        let (head, done) = x.as_mut_slice().split_at_mut((i + 1) * cols);
        let xi = &mut head[i * cols..];
        for k in i + 1..s.rows() {
            let f = s[(i, k)];
            for (v, &y) in xi.iter_mut().zip(&done[(k - i - 1) * cols..(k - i) * cols]) {
                *v -= f * y;
            }
        }
        let d = s[(i, i)];
        xi.iter_mut().for_each(|v| *v /= d);
    }
}

/// `X ← −G⁻¹X = −S⁻¹S⁻ᵀX`: projection coefficients, negated for the
/// accumulating GEMM that subtracts `U·G⁻¹X`.
fn neg_gram_solve<T: Scalar>(s: &Matrix<T>, x: &mut Matrix<T>) {
    solve_upper_t(s, x, 0);
    solve_upper(s, x);
    x.as_mut_slice().iter_mut().for_each(|v| *v = -*v);
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

        /// `max|UᵀU − I|` of the modes the latest update was handed, as
        /// it measured them to choose between projecting the batch and
        /// re-factoring the full stack (`0` before the first update).
        pub fn ortho_drift(&self) -> f64 {
            self.tracker.ortho_drift()
        }

        /// How many updates re-factored the full stack instead of
        /// projecting: their modes' `UᵀU` was not finite, missed `I` by
        /// more than ½ or had a Cholesky pivot at or below ½, or the
        /// residual held a direction mostly inside the modes' span.
        pub fn full_stack_updates(&self) -> usize {
            self.tracker.full_stack_updates()
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

#[cfg(test)]
impl<T: Scalar> Tracker<T> {
    /// Projection updates whose Grams refused CholeskyQR2.
    pub(crate) fn cholqr_fallbacks(&self) -> usize {
        self.cholqr_fallbacks
    }
}
