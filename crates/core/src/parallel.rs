//! Distributed streaming SVD (Listings 2–4 of the paper).
//!
//! Each rank owns a row block `Aⁱ` (`Mᵢ x N`) of the global snapshot
//! matrix. The streaming driver (Listing 2) is the Levy–Lindenbaum tracker
//! of `crate::update` — the very loop the serial driver runs — handed
//! collective kernels in place of the local sums and thin QR:
//!
//! - [`ParallelStreamingSvd::parallel_svd`] factors the first batch: one
//!   APMOS round (Algorithm 2) through the merge-tree engine of
//!   [`crate::hierarchical`], under the [`MergeTreePlan`] resolved from the
//!   configuration and the world size (depth 1, the default, *is* the
//!   paper's Listing 3);
//! - the projection's sums go through an allreduce (gather at rank 0,
//!   broadcast back): `Uᵀ[U | A]`, `[U | H]ᵀH` and `[U | J₁]ᵀJ₁`, the last
//!   two carrying CholeskyQR2's Grams of the `Mᵢ x B` residual;
//! - TSQR (Benson et al., Listing 4) factors the whole `[ff·U·D | A]`
//!   stack when the modes' summed `UᵀU` cannot be trusted (not finite, or
//!   further than ½ from `I`), and a residual whose Grams refuse
//!   CholeskyQR2: local thin QR, R-blocks stacked and
//!   re-factorized at rank 0, each rank's block of the global Q handed
//!   back down the same tree in the same collective round together with
//!   the final `R`.
//!
//! After the last collective of an update every rank holds the same small
//! factors, so every rank forms the small core and takes its SVD itself:
//! the paper's broadcast of the root's factors is not needed, and a
//! randomized inner SVD draws the same sketch everywhere, because its seed
//! is a function of the configured seed and the step's ordinal alone.
//!
//! Every gather and broadcast (and the mode gathers) walks the plan — up
//! with `MergeTreePlan::try_reduce`, down with `try_fan_out` — so a flat
//! plan is the paper's rank-0 pattern and a deeper one spreads rank 0's
//! messages over the group leaders: same payloads, same bits.
//!
//! What the driver itself adds is the mode gathers. Every inner SVD is
//! `SvdConfig::inner_svd`, which may be randomized — the paper's third
//! building block.
//!
//! The paper's Listing 4 negates `qglobal`/`rfinal` ("trick for
//! consistency"); our QR canonicalizes to a non-negative `R` diagonal
//! instead, which achieves cross-rank consistency without the sign hack.
//!
//! `World::run` registers its rank count with `psvd_linalg::par`, so each
//! rank's kernels default to an equal share of the machine; results are
//! bitwise identical for any kernel thread count (DESIGN.md, "Threading
//! model").

use std::io;

use psvd_comm::{CommError, Communicator, Payload};
use psvd_data::stream::{MatrixBatchSource, SnapshotSource};
use psvd_linalg::gemm::matmul_into;
use psvd_linalg::qr::qr_thin_into;
use psvd_linalg::workspace::WorkspaceStats;
use psvd_linalg::{Matrix, Scalar};

use crate::checkpoint::SvdCheckpoint;
use crate::config::SvdConfig;
use crate::hierarchical::{try_merge_tree_svd_into, MergeTreePlan, TreeMergeInfo};
use crate::update::{forward_tracker_accessors, Ctx, TallQr, Tracker};

/// Failure of a pull-based ingestion round
/// ([`ParallelStreamingSvd::try_fit_source`]): either the snapshot source
/// failed to produce a batch (disk/decode) or the collective round on a
/// delivered batch failed permanently.
#[derive(Debug)]
pub enum IngestError {
    /// The snapshot source failed (out-of-core read / decode).
    Io(io::Error),
    /// A collective round failed permanently.
    Comm(CommError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "snapshot source failed: {e}"),
            IngestError::Comm(e) => write!(f, "collective round failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Comm(e) => Some(e),
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<CommError> for IngestError {
    fn from(e: CommError) -> Self {
        IngestError::Comm(e)
    }
}

/// Distributed streaming truncated SVD over a row-partitioned snapshot
/// stream. One instance lives on each rank, driven in SPMD style.
///
/// As in the serial driver every `O(Mᵢ)` per-batch temporary is reused
/// across updates; after warm-up a round's only allocations are the small
/// `O(n²)` factors whose ownership moves through the communicator
/// (gathered `R` blocks, handed-back `Q` blocks and the final `R`, summed
/// Grams), accounted by the communicator's traffic statistics.
///
/// Generic over the element dtype `T`, which is `f64` (DESIGN.md, "One
/// dtype").
pub struct ParallelStreamingSvd<'a, C: Communicator, T: Scalar = f64> {
    tracker: Tracker<T>,
    link: WorldLink<'a, C, T>,
}

/// This rank's end of the world: the communicator, the merge-tree plan
/// every collective follows, and the collective kernels' persistent
/// buffers.
struct WorldLink<'a, C: Communicator, T: Scalar> {
    comm: &'a C,
    /// Resolved once: the world never changes size.
    plan: MergeTreePlan,
    /// Persistent local thin-QR `Q` factor (TSQR step 1).
    local_q: Matrix<T>,
    /// Persistent `Q`/`R` factors of the stacked-R re-QR: rank 0 factors
    /// into both, and every rank keeps the final `R` TSQR hands it.
    gq: Matrix<T>,
    gr: Matrix<T>,
    /// Diagnostics of the latest APMOS round (`None` before the first).
    tree_info: Option<TreeMergeInfo>,
}

impl<C: Communicator, T: Scalar + Payload> TallQr<T> for WorldLink<'_, C, T> {
    type Error = CommError;

    /// One allreduce over the plan: gathered at rank 0, summed there in
    /// rank order (so a flat and a tree plan give the same bits) and
    /// broadcast back.
    fn sum(&mut self, a: Matrix<T>) -> Result<Matrix<T>, CommError> {
        let (comm, plan) = (self.comm, &self.plan);
        let total = plan.try_gather(comm, comm.next_collective_tag(), a)?.map(|parts| {
            let mut parts = parts.into_iter();
            let mut sum = parts.next().expect("the root's own part");
            for part in parts {
                for (s, &y) in sum.as_mut_slice().iter_mut().zip(part.as_slice()) {
                    *s += y;
                }
            }
            sum
        });
        plan.try_bcast(comm, comm.next_collective_tag(), total)
    }

    /// TSQR (Listing 4) in one collective round: the `R` factors go up
    /// the plan and each rank's block of the stacked `Q`, with the final
    /// `R`, comes back down on the same tag. Local `Q`, the stacked-R
    /// re-QR factors and the QR scratch persist (an errored round leaves
    /// the instance reusable). Both QR stages are `qr_thin_into`, whose
    /// panel width is a function of shape alone: `min(rows, cols)` below
    /// 48 runs the unblocked path, below 128 compact-WY panels of 16,
    /// otherwise panels of 32 (DESIGN.md, "Panel width"). So the `pn x n`
    /// root stage blocks exactly when `n ≥ 48`, like the local stage.
    fn qr(
        &mut self,
        ctx: &mut Ctx<'_>,
        a_local: &Matrix<T>,
        qlocal: &mut Matrix<T>,
    ) -> Result<&Matrix<T>, CommError> {
        let (comm, plan) = (self.comm, &self.plan);
        let n = a_local.cols();
        assert!(
            a_local.rows() >= n,
            "TSQR: local block must be tall ({} rows < {} cols); \
             use more snapshots per rank or fewer ranks",
            a_local.rows(),
            n
        );
        // Local thin QR; R is n x n because the block is tall. R is moved
        // into the gather, so it is built in a fresh matrix.
        let mut local_r = Matrix::zeros(0, 0);
        qr_thin_into(a_local.view(), &mut self.local_q, &mut local_r, ctx.ws);

        // Gather the R factors, stack (reusing their storage), and
        // re-factorize at rank 0; the stacked Q and the final R then travel
        // down, each leader handing on the n-row blocks of its members'
        // subtrees and a copy of R.
        let tag = comm.next_collective_tag();
        let stacked = plan.try_gather(comm, tag, local_r)?.map(|parts| {
            qr_thin_into(Matrix::vstack_owned(parts).view(), &mut self.gq, &mut self.gr, ctx.ws);
            let take = |m: &mut Matrix<T>| std::mem::replace(m, Matrix::zeros(0, 0));
            (take(&mut self.gq), take(&mut self.gr))
        });
        let (q, r) = plan.try_fan_out(comm, tag, stacked, |(q, r), ranks| {
            (q.block(ranks.start * n, ranks.end * n, 0, q.cols()).to_matrix(), r.clone())
        })?;
        // This rank's block leads what it holds: rank 0 holds the whole
        // stacked Q, consumed as a view and kept as scratch.
        matmul_into(self.local_q.view(), q.block(0, n, 0, n), qlocal);
        (self.gq, self.gr) = (q, r);
        Ok(&self.gr)
    }

    /// One APMOS round (Listing 3) over the resolved merge-tree plan.
    fn first_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        a_local: &Matrix<T>,
        _q: &mut Matrix<T>,
        phi: &mut Matrix<T>,
    ) -> Result<Vec<T>, CommError> {
        let (s, info) = try_merge_tree_svd_into(
            self.comm, *ctx.cfg, a_local, &self.plan, ctx.seed, ctx.ws, None, phi,
        )?;
        self.tree_info = Some(info);
        Ok(s)
    }
}

impl<'a, C: Communicator, T: Scalar + Payload> ParallelStreamingSvd<'a, C, T> {
    /// New driver on this rank.
    pub fn new(comm: &'a C, cfg: SvdConfig) -> Self {
        Self::over(comm, Tracker::new(cfg))
    }

    fn over(comm: &'a C, tracker: Tracker<T>) -> Self {
        // An unusable tree configuration surfaces here, like `validated()`
        // does for the numeric knobs, rather than mid-stream.
        let plan = MergeTreePlan::resolve(tracker.config(), comm.size())
            .unwrap_or_else(|e| panic!("merge-tree configuration rejected: {e}"));
        let link = WorldLink {
            comm,
            plan,
            local_q: Matrix::zeros(0, 0),
            gq: Matrix::zeros(0, 0),
            gr: Matrix::zeros(0, 0),
            tree_info: None,
        };
        Self { tracker, link }
    }

    forward_tracker_accessors!();

    /// This rank's rows of the current global modes (`Mᵢ x K`).
    pub fn local_modes(&self) -> &Matrix<T> {
        self.tracker.modes()
    }

    /// Diagnostics of the latest APMOS round: executed plan and the
    /// tracked truncation-error bound (`fanouts == [P]`, zero interior
    /// bound for the paper's flat exchange). `None` before the first round.
    pub fn tree_merge_info(&self) -> Option<&TreeMergeInfo> {
        self.link.tree_info.as_ref()
    }

    /// APMOS distributed SVD (Listing 3): returns this rank's block of the
    /// `K` leading global left singular vectors and the singular values.
    pub fn parallel_svd(&mut self, a_local: &Matrix<T>) -> (Matrix<T>, Vec<T>) {
        let (mut q, mut phi) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        let s = self
            .link
            .first_batch(&mut self.tracker.ctx(), a_local, &mut q, &mut phi)
            .unwrap_or_else(|e| panic!("parallel_svd failed: {e}"));
        (phi, s)
    }

    /// Ingest the first local batch `A0ⁱ` (`Mᵢ x B`) — Listing 2's
    /// `initialize`: one APMOS pass.
    pub fn initialize(&mut self, a_local: &Matrix<T>) -> &mut Self {
        self.try_initialize(a_local).unwrap_or_else(|e| panic!("initialize failed: {e}"))
    }

    /// Fallible [`ParallelStreamingSvd::initialize`]: permanent
    /// communication failures surface as [`CommError`] (see
    /// [`ParallelStreamingSvd::try_incorporate_data`] for the contract).
    pub fn try_initialize(&mut self, a_local: &Matrix<T>) -> Result<&mut Self, CommError> {
        self.tracker.initialize(&mut self.link, a_local)?;
        Ok(self)
    }

    /// Ingest a further local batch — Listing 2's `incorporate_data`:
    /// project the modes out of it, factor the residual (CholeskyQR2 over
    /// two Gram allreduces, TSQR when they refuse), SVD the small core on
    /// every rank, truncate to `K`. The modes need not be orthonormal: the
    /// measured `UᵀU` is folded into the core. The full `[ff·U·D | A]`
    /// stack runs instead only when that Gram is not finite, misses `I`
    /// by more than ½ or has a Cholesky pivot at or below ½, or when the
    /// residual holds a direction mostly inside the modes' span.
    pub fn incorporate_data(&mut self, a_local: &Matrix<T>) -> &mut Self {
        self.try_incorporate_data(a_local)
            .unwrap_or_else(|e| panic!("incorporate_data failed: {e}"))
    }

    /// Fallible [`ParallelStreamingSvd::incorporate_data`].
    ///
    /// An `Err` commits nothing on any rank: a rank death fails the
    /// collective round it fires in on every rank, so each rank keeps the
    /// factorization it held before the call — modes, σ, `iteration` and
    /// `snapshots_seen` alike. A caller that resumes restarts every rank
    /// from its checkpoint on a new world.
    pub fn try_incorporate_data(&mut self, a_local: &Matrix<T>) -> Result<&mut Self, CommError> {
        if self.tracker.admits(a_local) {
            self.tracker.update(&mut self.link, a_local)?;
        }
        Ok(self)
    }

    /// Stream this rank's row block of an entire dataset in `batch`-column
    /// chunks. Panics if a collective round fails permanently.
    pub fn fit_batched(&mut self, a_local: &Matrix<T>, batch: usize) -> &mut Self {
        self.try_fit_source(&mut MatrixBatchSource::new(a_local, batch))
            .unwrap_or_else(|e| panic!("fit_batched failed: {e}"))
    }

    /// Stream every batch a [`SnapshotSource`] yields — the pull-based
    /// ingestion path of a distributed run. Each rank drives its own
    /// source over its own row hyperslab (with a
    /// [`psvd_data::prefetch::SnapshotPrefetcher`], its own file handle
    /// and reader thread — the MPI-IO independent-access pattern), so
    /// batch `k+1`'s IO and decode overlap batch `k`'s collective update.
    ///
    /// IO failures surface as [`IngestError::Io`], permanent collective
    /// failures as [`IngestError::Comm`]; either way the last successful
    /// update's factorization stays intact. A collective failure stops
    /// every rank at the same batch; an IO error is local to this rank,
    /// whose peers then wait in the round it skips, so it must stop the
    /// whole run.
    pub fn try_fit_source<S: SnapshotSource<T>>(
        &mut self,
        source: &mut S,
    ) -> Result<&mut Self, IngestError> {
        let Self { tracker, link } = self;
        tracker.fit_source(source, |t, batch| t.step(link, batch).map_err(IngestError::Comm))?;
        Ok(self)
    }

    /// Gather the distributed modes into the global `M x K` matrix at
    /// `root` (rank order = row order). Returns `Some` at the root. Copies
    /// this rank's block into the gather; when the tracker is finished,
    /// [`ParallelStreamingSvd::into_gathered_modes`] moves it instead.
    pub fn gather_modes(&self, root: usize) -> Option<Matrix<T>> {
        self.link.gather_rows(self.tracker.modes().clone(), root)
    }

    /// Consume the tracker and gather the distributed modes at `root`,
    /// moving this rank's block into the collective (no snapshot copy) and
    /// assembling the result by reusing the gathered storage.
    pub fn into_gathered_modes(self, root: usize) -> Option<Matrix<T>> {
        self.link.gather_rows(self.tracker.into_modes().0, root)
    }
}

impl<C: Communicator, T: Scalar + Payload> WorldLink<'_, C, T> {
    /// Gather every rank's row block at `root` and stack them in rank
    /// order, reusing the gathered storage. The walk lands at rank 0; any
    /// other root is one more hop on the same tag.
    fn gather_rows(&self, block: Matrix<T>, root: usize) -> Option<Matrix<T>> {
        let (comm, tag) = (self.comm, self.comm.next_collective_tag());
        let gather = || -> Result<_, CommError> {
            let rows = self.plan.try_gather(comm, tag, block)?;
            match rows.map(Matrix::vstack_owned) {
                rows if root == 0 => Ok(rows),
                Some(rows) => comm.try_send(rows, root, tag).map(|()| None),
                None if comm.rank() == root => comm.try_recv(0, tag).map(Some),
                None => Ok(None),
            }
        };
        gather().unwrap_or_else(|e| panic!("gather_modes failed: {e}"))
    }
}

/// Checkpointing is defined on the `f64` instantiation only — the
/// on-disk [`SvdCheckpoint`] format is fixed at double precision.
impl<'a, C: Communicator> ParallelStreamingSvd<'a, C> {
    /// Capture this rank's state for checkpointing (one checkpoint file
    /// per rank; pair with [`ParallelStreamingSvd::restore`]). Copies the
    /// mode block — use [`ParallelStreamingSvd::into_checkpoint`] when the
    /// tracker is done streaming.
    pub fn checkpoint(&self) -> SvdCheckpoint {
        self.tracker.checkpoint()
    }

    /// Consume the tracker into its checkpoint without copying the modes.
    pub fn into_checkpoint(self) -> SvdCheckpoint {
        self.tracker.into_checkpoint()
    }

    /// Rebuild this rank's tracker from its checkpoint; the stream resumes
    /// bit-exactly (all ranks must restore from the same streaming step).
    pub fn restore(comm: &'a C, cfg: SvdConfig, ckpt: SvdCheckpoint) -> Self {
        Self::over(comm, Tracker::restore(cfg, ckpt))
    }
}

/// One-shot distributed (optionally randomized) SVD without streaming —
/// the configuration the paper's weak-scaling experiment times.
pub fn parallel_svd_once<C: Communicator, T: Scalar + Payload>(
    comm: &C,
    cfg: SvdConfig,
    a_local: &Matrix<T>,
) -> (Matrix<T>, Vec<T>) {
    let mut driver = ParallelStreamingSvd::new(comm, cfg);
    driver.parallel_svd(a_local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_comm::World;
    use psvd_data::partition::split_rows;
    use psvd_linalg::gemm::matmul;
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::random::{gaussian_matrix, matrix_with_spectrum, seeded_rng};
    use psvd_linalg::validate::{max_principal_angle, spectrum_error};

    use crate::serial::{batch_truncated_svd, SerialStreamingSvd};
    use crate::update::qr_svd;

    /// TSQR through the driver's link: this rank's rows of `Q`, and the
    /// SVD `(U_R, σ_R)` of the final `R` for `K` triplets.
    fn tsqr<C: Communicator>(
        d: &mut ParallelStreamingSvd<'_, C>,
        a_local: &Matrix,
    ) -> (Matrix, Matrix, Vec<f64>) {
        let mut q = Matrix::zeros(0, 0);
        let rank = d.tracker.config().k.min(a_local.cols());
        let (u, s) = qr_svd(&mut d.link, &mut d.tracker.ctx(), a_local, rank, &mut q).unwrap();
        (q, u, s)
    }

    fn decaying_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let spec: Vec<f64> = (0..n.min(m)).map(|i| 8.0 * 0.6f64.powi(i as i32)).collect();
        matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
    }

    #[test]
    fn apmos_exact_without_truncation() {
        // r1 = N, full SVD at rank 0: APMOS is algebraically exact because
        // W Wᵀ = Σᵢ AⁱᵀAⁱ = AᵀA.
        let a = decaying_matrix(96, 12, 1);
        let k = 5;
        let cfg = SvdConfig::new(k).with_r1(12).with_r2(12).with_forget_factor(1.0);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            let (phi, s) = d.parallel_svd(&blocks[comm.rank()]);
            (phi, s)
        });
        let global_u = Matrix::vstack_all(&out.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>());
        let (u_ref, s_ref) = batch_truncated_svd(&a, k);
        assert!(spectrum_error(&s_ref, &out[0].1) < 1e-9, "sigma mismatch");
        assert!(max_principal_angle(&u_ref, &global_u) < 1e-7);
        assert!(orthogonality_error(&global_u) < 1e-8);
        // All ranks agree on singular values.
        for (_, s) in &out {
            assert_eq!(s, &out[0].1);
        }
    }

    #[test]
    fn apmos_truncated_still_accurate_on_decaying_spectrum() {
        let a = decaying_matrix(80, 24, 2);
        let k = 4;
        let cfg = SvdConfig::new(k).with_r1(10).with_r2(8);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| parallel_svd_once(comm, cfg, &blocks[comm.rank()]));
        let (_, s_ref) = batch_truncated_svd(&a, k);
        for (got, want) in out[0].1.iter().zip(&s_ref) {
            assert!((got - want).abs() / want < 0.02, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn tsqr_factorizes_distributed_matrix() {
        let a = decaying_matrix(64, 8, 3);
        let cfg = SvdConfig::new(4).with_forget_factor(1.0);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            tsqr(&mut d, &blocks[comm.rank()])
        });
        // Stacked local Qs form the global Q.
        let q = Matrix::vstack_all(&out.iter().map(|(q, _, _)| q.clone()).collect::<Vec<_>>());
        assert!(orthogonality_error(&q) < 1e-10, "global Q not orthonormal");
        // SVD of R gives the singular values of A.
        let f_ref = psvd_linalg::svd(&a);
        assert!(spectrum_error(&f_ref.s, &out[0].2) < 1e-10);
        // Q * (U_R Σ V_Rᵀ reconstruction through the returned factors):
        // A = Q R and R = U_R Σ V_Rᵀ, so Q·U_R spans A's left space.
        let qu = matmul(&q, &out[0].1);
        assert!(max_principal_angle(&f_ref.u.first_columns(4), &qu.first_columns(4)) < 1e-7);
    }

    #[test]
    fn parallel_streaming_matches_serial_streaming() {
        // Identical math, distributed: the parallel driver must track the
        // serial one to round-off-level agreement at every step.
        let a = decaying_matrix(72, 30, 4);
        let k = 5;
        let batch = 6;
        let cfg = SvdConfig::new(k).with_forget_factor(0.95).with_r1(30).with_r2(30);

        let mut serial = SerialStreamingSvd::new(cfg);
        serial.fit_batched(&a, batch);

        let world = World::new(3);
        let blocks = split_rows(&a, 3);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&blocks[comm.rank()], batch);
            let s = d.singular_values().to_vec();
            (d.into_gathered_modes(0), s)
        });
        assert!(
            spectrum_error(serial.singular_values(), &out[0].1) < 1e-6,
            "serial {:?} vs parallel {:?}",
            serial.singular_values(),
            out[0].1
        );
        let par_modes = out[0].0.as_ref().expect("root gathered");
        assert!(max_principal_angle(serial.modes(), par_modes) < 1e-5);
    }

    #[test]
    fn single_rank_parallel_equals_serial() {
        let a = decaying_matrix(40, 16, 5);
        let cfg = SvdConfig::new(3).with_forget_factor(1.0).with_r1(16).with_r2(16);
        let mut serial = SerialStreamingSvd::new(cfg);
        serial.fit_batched(&a, 4);

        let world = World::new(1);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&a, 4);
            let s = d.singular_values().to_vec();
            (d.into_gathered_modes(0).unwrap(), s)
        });
        assert!(spectrum_error(serial.singular_values(), &out[0].1) < 1e-8);
        assert!(max_principal_angle(serial.modes(), &out[0].0) < 1e-6);
    }

    #[test]
    fn gather_modes_assembles_in_rank_order() {
        let a = decaying_matrix(60, 10, 6);
        let cfg = SvdConfig::new(2).with_forget_factor(1.0).with_r1(10).with_r2(10);
        let world = World::new(4);
        let blocks = split_rows(&a, 4);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.initialize(&blocks[comm.rank()]);
            let gathered = d.gather_modes(2);
            (comm.rank(), gathered, d.into_modes().0)
        });
        // Only rank 2 gets the assembly.
        for (rank, gathered, _) in &out {
            assert_eq!(gathered.is_some(), *rank == 2);
        }
        let assembled = out[2].1.as_ref().unwrap();
        let manual = Matrix::vstack_owned(out.iter().map(|(_, _, l)| l.clone()).collect());
        assert_eq!(assembled, &manual);
    }

    #[test]
    fn steady_state_updates_reuse_scratch() {
        // After one warm-up update, every further same-shape TSQR round
        // must be served entirely from the per-instance workspace.
        let a = decaying_matrix(60, 30, 10);
        let cfg = SvdConfig::new(4).with_forget_factor(0.99).with_r1(6).with_r2(6);
        let world = World::new(3);
        let blocks = split_rows(&a, 3);
        let stats = world.run(|comm| {
            let b = &blocks[comm.rank()];
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.initialize(&b.submatrix(0, b.rows(), 0, 6));
            d.incorporate_data(&b.submatrix(0, b.rows(), 6, 12)); // warm-up
            d.reset_scratch_stats();
            for c0 in (12..30).step_by(6) {
                d.incorporate_data(&b.submatrix(0, b.rows(), c0, c0 + 6));
            }
            d.scratch_stats()
        });
        for s in &stats {
            assert!(s.takes > 0, "updates must route QR scratch through the workspace");
            assert_eq!(s.misses, 0, "steady-state TSQR rounds must not miss the workspace");
            assert_eq!(s.fresh_bytes, 0);
        }
    }

    #[test]
    fn randomized_parallel_path_tracks_leading_modes() {
        let a = decaying_matrix(80, 20, 7);
        let k = 3;
        let cfg = SvdConfig::new(k)
            .with_forget_factor(1.0)
            .with_r1(20)
            .with_r2(10)
            .with_low_rank(true)
            .with_power_iterations(2)
            .with_seed(42);
        let world = World::new(2);
        let blocks = split_rows(&a, 2);
        let out = world.run(|comm| parallel_svd_once(comm, cfg, &blocks[comm.rank()]));
        let (_, s_ref) = batch_truncated_svd(&a, k);
        for (got, want) in out[0].1.iter().zip(&s_ref) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn traffic_shrinks_with_r1() {
        // The whole point of r1: it caps the gathered volume.
        let a = decaying_matrix(64, 32, 8);
        let count_bytes = |r1: usize| {
            let cfg = SvdConfig::new(2).with_r1(r1).with_r2(4);
            let world = World::new(4);
            let blocks = split_rows(&a, 4);
            world.run(|comm| {
                let _ = parallel_svd_once(comm, cfg, &blocks[comm.rank()]);
            });
            world.stats().total_bytes()
        };
        let big = count_bytes(32);
        let small = count_bytes(4);
        assert!(small < big, "r1=4 traffic {small} should undercut r1=32 traffic {big}");
    }

    #[test]
    fn plan_changes_collective_shape_not_bits() {
        // From a shared post-initialize state, the TSQR rounds and the mode
        // gather move identical payloads whether the plan routes them flat
        // (depth 1) or through group leaders (deeper): bit-identical
        // results, fewer messages into rank 0. The APMOS round itself
        // re-compresses at interior nodes, so end to end a deeper plan
        // agrees with the flat one to round-off only (nothing is truncated
        // at r1 = N).
        let a = decaying_matrix(72, 24, 9);
        let blocks = split_rows(&a, 5);
        let run = |init_cfg: SvdConfig, cfg: SvdConfig| {
            let world = World::new(5);
            let out = world.run(|comm| {
                let b = &blocks[comm.rank()];
                let mut d = ParallelStreamingSvd::new(comm, init_cfg);
                d.initialize(&b.submatrix(0, b.rows(), 0, 8));
                let mut d = ParallelStreamingSvd::restore(comm, cfg, d.into_checkpoint());
                d.fit_batched(&b.submatrix(0, b.rows(), 8, 24), 8);
                (d.gather_modes(0), d.singular_values().to_vec())
            });
            let (modes, sigma) = out.into_iter().next().unwrap();
            (modes.expect("root gathered"), sigma, world.stats().recv_messages(0))
        };
        let flat =
            SvdConfig::new(4).with_forget_factor(0.95).with_r1(24).with_r2(24).with_tree_fanout(0);
        let tree = flat.with_tree_fanout(2);
        let (flat_modes, flat_sigma, flat_msgs) = run(flat, flat);
        let (modes, sigma, msgs) = run(flat, tree);
        assert_eq!(sigma, flat_sigma, "singular values must be bit-identical");
        assert_eq!(modes, flat_modes, "modes must be bit-identical");
        assert!(msgs < flat_msgs, "tree collectives must unload rank 0: {msgs} vs {flat_msgs}");
        let (modes, sigma, _) = run(tree, tree);
        assert!(spectrum_error(&flat_sigma, &sigma) < 1e-10, "{flat_sigma:?} vs {sigma:?}");
        assert!(max_principal_angle(&flat_modes, &modes) < 1e-7);
    }

    #[test]
    fn tree_tsqr_hands_q_down_through_the_leaders() {
        // 16 ranks at fanout 4: rank 0 hands Q blocks to its three leaf
        // members and to the three other leaders, who serve their own
        // groups — 6 sends from rank 0 instead of the flat plan's 15, in
        // one collective round either way.
        const P: usize = 16;
        let a = decaying_matrix(8 * P, 4, 11);
        let blocks = split_rows(&a, P);
        for (fanout, root_sends) in [(0, P as u64 - 1), (4, 6)] {
            let cfg = SvdConfig::new(2).with_tree_fanout(fanout);
            let world = World::new(P);
            let tags = world.run(|comm| {
                let mut d = ParallelStreamingSvd::new(comm, cfg);
                let mut q = Matrix::zeros(0, 0);
                let before = comm.next_collective_tag();
                d.link.qr(&mut d.tracker.ctx(), &blocks[comm.rank()], &mut q).unwrap();
                comm.next_collective_tag() - before - 1
            });
            assert_eq!(tags, vec![1; P], "fanout {fanout}: TSQR is one collective round");
            assert_eq!(world.stats().sent_messages(0), root_sends, "fanout {fanout}");
            assert_eq!(world.stats().total_messages(), 2 * (P as u64 - 1), "fanout {fanout}");
        }
    }

    /// `tests/props_streaming.rs`'s adversarial stream, `b` columns a
    /// batch, built against a serial run: two fresh batches, one inside
    /// `span(U)`, a near-duplicate of the last fresh one, one whose first
    /// column is inside `span(U)`, a zero batch and two fresh ones. Returns
    /// the batches and, after each serial step, σ and the CholeskyQR2
    /// fallback count.
    #[allow(clippy::type_complexity)]
    fn adversarial_stream(
        cfg: SvdConfig,
        m: usize,
        b: usize,
        seed: u64,
    ) -> (Vec<Matrix>, Vec<(Vec<f64>, usize)>) {
        let spec: Vec<f64> = (0..4 * b).map(|i| 5.0 * 0.6f64.powi(i as i32)).collect();
        let data = matrix_with_spectrum(m, 4 * b, &spec, &mut seeded_rng(seed));
        let fresh = |i: usize| data.submatrix(0, m, i * b, (i + 1) * b);
        let gaussian = |rows, seed| gaussian_matrix(rows, b, &mut seeded_rng(seed));
        let mut d = SerialStreamingSvd::new(cfg);
        let (mut batches, mut steps) = (Vec::new(), Vec::new());
        for i in 0..8 {
            let inside = || matmul(d.modes(), &gaussian(d.modes().cols(), seed + 1));
            let a = match i {
                0 | 1 => fresh(i),
                2 => inside(),
                3 => &fresh(1) + &gaussian(m, seed + 2).map(|x| x * 1e-8),
                4 => inside().submatrix(0, m, 0, 1).hstack(&fresh(2).submatrix(0, m, 1, b)),
                5 => Matrix::zeros(m, b),
                _ => fresh(i - 4),
            };
            if i == 0 {
                d.initialize(&a);
            } else {
                d.incorporate_data(&a);
            }
            steps.push((d.singular_values().to_vec(), d.tracker.cholqr_fallbacks()));
            batches.push(a);
        }
        (batches, steps)
    }

    #[test]
    fn fresh_batches_take_cholesky_qr2_and_a_smooth_stream_falls_back() {
        use psvd_data::burgers::{snapshot_matrix, BurgersConfig};
        let cfg = SvdConfig::new(4);
        for ff in [0.95, 1.0] {
            let (_, steps) = adversarial_stream(cfg.with_forget_factor(ff), 48, 4, 3);
            for i in [1, 6, 7] {
                assert_eq!(steps[i].1, steps[i - 1].1, "ff {ff}: fresh batch {i} fell back");
            }
            assert_eq!(steps[5].1, steps[4].1 + 1, "ff {ff}: a zero HᵀH has no pivot");
        }
        // Noise-free Burgers, finely sampled in time: a 32-snapshot
        // residual's singular values run down to round-off, and HᵀH loses
        // them.
        let burgers = BurgersConfig { grid_points: 1024, snapshots: 256, ..Default::default() };
        let mut s = SerialStreamingSvd::new(cfg.with_forget_factor(1.0));
        s.fit_batched(&snapshot_matrix(&burgers), 32);
        assert_eq!(s.iteration(), 7);
        assert_eq!(s.tracker.cholqr_fallbacks(), 7, "every smooth residual falls back");
    }

    /// The adversarial stream on 3 ranks under `fanout`: σ bitwise-equal
    /// across ranks and within 1e-10 of the serial run (relative to σ₁)
    /// after every step, and every rank counting the same fallbacks.
    fn gate_agrees_across_ranks(ff: f64, fanout: usize, low_rank: bool) {
        let (m, b) = (48, 4);
        let cfg = SvdConfig::new(4)
            .with_forget_factor(ff)
            .with_r1(b)
            .with_r2(b)
            .with_tree_fanout(fanout)
            .with_low_rank(low_rank);
        let (batches, serial) = adversarial_stream(cfg, m, b, 5);
        let blocks: Vec<Vec<Matrix>> = batches.iter().map(|a| split_rows(a, 3)).collect();
        let out = World::new(3).run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            let mut steps = Vec::new();
            for (i, parts) in blocks.iter().enumerate() {
                let a = &parts[comm.rank()];
                if i == 0 {
                    d.initialize(a);
                } else {
                    d.incorporate_data(a);
                }
                steps.push((d.singular_values().to_vec(), d.tracker.cholqr_fallbacks()));
            }
            steps
        });
        let case = format!("ff {ff}, fanout {fanout}, low_rank {low_rank}");
        for (r, steps) in out.iter().enumerate() {
            assert_eq!(steps, &out[0], "rank {r} disagrees with rank 0 ({case})");
        }
        assert!(out[0][7].1 >= 1, "the zero batch takes the tall QR");
        for (i, ((got, _), (want, _))) in out[0].iter().zip(&serial).enumerate() {
            let s1 = want[0];
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                let err = (g - w).abs() / s1;
                assert!(err <= 1e-10, "step {i}: σ {g} vs serial {w} ({case})");
            }
        }
    }

    #[test]
    fn cholesky_qr2_gate_agrees_across_ranks_and_plans() {
        for ff in [0.95, 1.0] {
            for fanout in [0, 2] {
                for low_rank in [false, true] {
                    gate_agrees_across_ranks(ff, fanout, low_rank);
                }
            }
        }
    }

    #[test]
    fn a_projected_update_takes_at_most_seven_collective_rounds() {
        // CholeskyQR2 takes six: Uᵀ[U | A], [U | H]ᵀH and [U | J₁]ᵀJ₁, two
        // rounds each; every rank then solves the core itself. A zero batch
        // leaves HᵀH without a pivot, and its TSQR takes seven.
        const P: usize = 3;
        let (k, b) = (4, 8);
        let a = decaying_matrix(60, 2 * b, 12);
        let blocks = split_rows(&a, P);
        let cfg = SvdConfig::new(k).with_tree_fanout(0);
        let cols = |r: usize, c0: usize| blocks[r].submatrix(0, blocks[r].rows(), c0, c0 + b);
        let init = World::new(P).run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.initialize(&cols(comm.rank(), 0));
            d.into_checkpoint()
        });
        // Every rank restored from `ckpts` on a fresh world streams
        // `batches(rank)`. Per rank: the collective rounds of each update
        // and the fallback and full-stack counts; then the world's bytes.
        let run = |ckpts: &[SvdCheckpoint], batches: &(dyn Fn(usize) -> Vec<Matrix> + Sync)| {
            let world = World::new(P);
            let out = world.run(|comm| {
                let mut d = ParallelStreamingSvd::restore(comm, cfg, ckpts[comm.rank()].clone());
                let mut rounds = Vec::new();
                for a in batches(comm.rank()) {
                    let before = comm.next_collective_tag();
                    d.incorporate_data(&a);
                    rounds.push(comm.next_collective_tag() - before - 1);
                }
                (rounds, d.tracker.cholqr_fallbacks(), d.full_stack_updates())
            });
            (out, world.stats().total_bytes())
        };
        let zero = |r: usize| Matrix::zeros(blocks[r].rows(), b);
        let (out, _) = run(&init, &|r| vec![cols(r, b), zero(r)]);
        assert_eq!(out, vec![(vec![6, 7], 1, 0); P]);
        // The fresh update moves the three sums and nothing else, each up
        // and back down the flat plan: P − 1 messages each way.
        let (_, bytes) = run(&init, &|r| vec![cols(r, b)]);
        let payload: usize =
            [(k, k + b), (k + b, b), (k + b, b)].iter().map(|&(r, c)| 16 + 8 * r * c).sum();
        assert_eq!(bytes, (2 * (P - 1) * payload) as u64);
        // Modes 1e-6 off unit length still project: their UᵀU is folded
        // into the core. Modes scaled by 2 miss I by 3 and re-factor the
        // full stack: Uᵀ[U | A], then TSQR, whose R rides down with each
        // rank's Q block.
        let scaled = |f: f64| -> Vec<SvdCheckpoint> {
            init.iter()
                .map(|c| SvdCheckpoint { modes: c.modes.map(|x| x * f), ..c.clone() })
                .collect()
        };
        let (out, _) = run(&scaled(1.0 + 1e-6), &|r| vec![cols(r, b)]);
        assert_eq!(out, vec![(vec![6], 0, 0); P]);
        let (out, _) = run(&scaled(2.0), &|r| vec![cols(r, b)]);
        assert_eq!(out, vec![(vec![3], 0, 1); P]);
    }

    #[test]
    // The tall-block assertion fires inside the rank thread; the harness
    // surfaces it as a join failure on the spawning thread.
    #[should_panic(expected = "rank thread panicked")]
    fn tsqr_rejects_short_blocks() {
        let cfg = SvdConfig::new(2);
        let world = World::new(1);
        world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            let wide = Matrix::<f64>::zeros(3, 8);
            let _ = tsqr(&mut d, &wide);
        });
    }
}
