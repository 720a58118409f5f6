//! Session state: checkpoint-in / checkpoint-out update rounds.
//!
//! A served session cannot hold a live [`ParallelStreamingSvd`] between
//! requests — the driver borrows its communicator, and a long-lived
//! service must also survive worker crashes. So the *durable* state of a
//! session is exactly its per-rank [`SvdCheckpoint`] set, and every
//! update round is ephemeral: restore drivers over a stack-local
//! communicator, stream the round's batches through `try_fit_source`,
//! commit the new checkpoint set. Checkpoint/restore is bit-transparent,
//! the randomized path's included: its sketches are seeded from the
//! configured seed and the step's ordinal, which the checkpoint records
//! (pinned by `resume_is_bit_exact` / `distributed_restart_is_bit_exact`).
//! So the round engine adds nothing observable to the mathematics.
//!
//! **Crash recovery contract.** Under a fault plan, delayed sends only
//! reorder arrivals and are bitwise invisible. A rank death fails the
//! round on every rank. The engine never commits a partial round: on any
//! rank error it discards every per-rank result and replays the whole
//! round from the still-held pre-round checkpoints on a clean world. The
//! committed factorization is bitwise identical to one that never saw the
//! fault — the property the chaos-soak suite holds across thousands of
//! session-updates.

use psvd_comm::{Communicator, FaultComm, FaultPlan, FaultStats, SelfComm, World};
use psvd_core::{IngestError, MergeTreePlan, ParallelStreamingSvd, SvdCheckpoint, SvdConfig};
use psvd_data::partition::block_len;
use psvd_linalg::Matrix;

use crate::chaos::ChaosSpec;
use crate::queue::CoalescedBatches;
use crate::server::ServeError;

/// Everything that defines a tenant's session.
#[derive(Clone, Copy, Debug)]
pub struct SessionSpec {
    /// Driver configuration.
    pub svd: SvdConfig,
    /// Global snapshot rows `M`.
    pub rows: usize,
    /// Simulated ranks per update round (1 = in-thread `SelfComm`).
    pub ranks: usize,
    /// Canonical ingestion batch width.
    pub batch: usize,
    /// Fault schedules injected into every round (needs `ranks >= 2`).
    pub chaos: Option<ChaosSpec>,
}

impl SessionSpec {
    /// A `k`-mode session over `rows`-row snapshots with library defaults.
    pub fn new(k: usize, rows: usize) -> Self {
        Self { svd: SvdConfig::new(k), rows, ranks: 1, batch: 8, chaos: None }
    }

    /// Builder: full driver configuration.
    pub fn with_svd(mut self, svd: SvdConfig) -> Self {
        self.svd = svd;
        self
    }

    /// Builder: ranks per update round.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Builder: canonical batch width.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: chaos schedule.
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The spec, or [`ServeError::InvalidSpec`] naming the first condition
    /// it violates — the embedded [`SvdConfig`]'s own fields and the
    /// merge-tree shape it asks for on `ranks` included, so nothing a
    /// round's drivers would reject at construction gets past `open`.
    pub fn try_validated(self) -> Result<Self, ServeError> {
        let invalid = |why: String| Err(ServeError::InvalidSpec(why));
        if let Err(e) = self.svd.try_validated() {
            return invalid(e.to_string());
        }
        if self.ranks == 0 {
            return invalid("sessions need at least one rank".into());
        }
        if let Err(e) = MergeTreePlan::resolve(&self.svd, self.ranks) {
            return invalid(e.to_string());
        }
        if self.batch == 0 {
            return invalid("batch width must be positive".into());
        }
        // A full-stack update QR-factors `K + batch` columns of every
        // rank's block, and TSQR needs that block tall.
        let min_block = block_len(self.rows, self.ranks, self.ranks - 1);
        if min_block < self.svd.k + self.batch {
            return invalid(format!(
                "smallest row block ({min_block} rows) must cover K + the batch width ({} + {})",
                self.svd.k, self.batch
            ));
        }
        if let Some(chaos) = self.chaos {
            let p = chaos.delay_prob;
            if !(0.0..=1.0).contains(&p) {
                return invalid(format!("chaos delay probability must be in [0, 1], got {p}"));
            }
            if self.ranks < 2 {
                return invalid(
                    "chaos needs ranks >= 2: a single-rank round performs no communication".into(),
                );
            }
        }
        Ok(self)
    }

    /// Panics if the spec is unusable; returns `self` otherwise.
    pub fn validated(self) -> Self {
        self.try_validated().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// What one committed update round did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundReport {
    /// Driver batch incorporations in the round.
    pub batches: usize,
    /// Snapshots ingested.
    pub snapshots: usize,
    /// The faulted attempt failed and the round was replayed cleanly from
    /// the pre-round checkpoints.
    pub replayed: bool,
    /// Injected-fault counters summed over ranks (attempt + replay).
    pub fault: FaultStats,
    /// Wire messages across the round's world(s).
    pub messages: u64,
    /// Wire bytes across the round's world(s).
    pub bytes: u64,
}

/// The durable state of one tenant's streaming session.
#[derive(Clone, Debug)]
pub struct SessionState {
    spec: SessionSpec,
    /// One checkpoint per rank; empty until the first committed round.
    parts: Vec<SvdCheckpoint>,
    rounds: u64,
    replays: u64,
}

const BLOB_MAGIC: &[u8; 8] = b"PSVDSRV2";

impl SessionState {
    /// A fresh (uninitialized) session.
    pub fn new(spec: SessionSpec) -> Self {
        Self { spec: spec.validated(), parts: Vec::new(), rounds: 0, replays: 0 }
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Committed update rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds that needed a clean replay after a rank death.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Snapshots ingested so far.
    pub fn snapshots_seen(&self) -> usize {
        self.parts.first().map_or(0, |p| p.snapshots_seen)
    }

    /// True once the first round has committed.
    pub fn is_initialized(&self) -> bool {
        !self.parts.is_empty()
    }

    /// Exact eviction-spill size of this state, in bytes.
    pub fn byte_len(&self) -> usize {
        48 + self.parts.iter().map(|p| 8 + p.byte_len()).sum::<usize>()
    }

    /// Stream one round of batches (no faults).
    pub fn update(&mut self, work: &CoalescedBatches) -> RoundReport {
        self.update_with_plan(work, None)
    }

    /// Stream one round under a fault plan; on a rank death the round is
    /// replayed cleanly from the pre-round checkpoints (see the
    /// module docs for why partial results are never kept).
    pub fn update_chaos(&mut self, work: &CoalescedBatches, plan: &FaultPlan) -> RoundReport {
        self.update_with_plan(work, Some(plan))
    }

    fn update_with_plan(
        &mut self,
        work: &CoalescedBatches,
        plan: Option<&FaultPlan>,
    ) -> RoundReport {
        assert!(!work.is_empty(), "a round needs at least one batch");
        assert_eq!(work.rows(), self.spec.rows, "round rows do not match the session");
        let mut report = RoundReport {
            batches: work.len(),
            snapshots: work.snapshots(),
            ..RoundReport::default()
        };

        if self.spec.ranks == 1 && plan.is_none() {
            // Single-rank fast path: no thread spawn, no wire traffic.
            let comm = SelfComm::new();
            let prior = self.parts.pop();
            let part = drive(&comm, self.spec.svd, prior, work, 1, 0)
                .expect("single-rank ingestion cannot fail");
            self.parts = vec![part];
        } else {
            match self.run_world(work, plan, &mut report) {
                Ok(parts) => self.parts = parts,
                Err(_) => {
                    // Rank death: discard every per-rank result and
                    // replay the whole round from the pre-round
                    // checkpoints on a clean world.
                    let replayed = self.run_world(work, None, &mut report);
                    self.parts = replayed.expect("clean replay cannot fail");
                    report.replayed = true;
                    self.replays += 1;
                }
            }
        }
        self.rounds += 1;
        report
    }

    /// One world-run attempt: every rank restores, ingests, checkpoints,
    /// and the world's traffic and fault counters go to `report`. `Err`
    /// carries the first rank error (the round must not commit).
    fn run_world(
        &self,
        work: &CoalescedBatches,
        plan: Option<&FaultPlan>,
        report: &mut RoundReport,
    ) -> Result<Vec<SvdCheckpoint>, IngestError> {
        let ranks = self.spec.ranks;
        let world = World::new(ranks);
        let parts = &self.parts;
        let cfg = self.spec.svd;
        let out = world.run(|comm| {
            let rank = comm.rank();
            let prior = parts.get(rank).cloned();
            match plan {
                Some(p) => {
                    let fc = FaultComm::new(comm, p.clone());
                    let r = drive(&fc, cfg, prior, work, ranks, rank);
                    (r, fc.stats())
                }
                None => (drive(comm, cfg, prior, work, ranks, rank), FaultStats::default()),
            }
        });
        report.messages += world.stats().total_messages();
        report.bytes += world.stats().total_bytes();
        report.fault.delays += out.iter().map(|(_, s)| s.delays).sum::<u64>();
        out.into_iter().map(|(r, _)| r).collect()
    }

    /// The queryable model: global modes (rank blocks vstacked in row
    /// order) plus singular values. Panics before the first round.
    pub fn model(&self) -> SessionModel {
        assert!(self.is_initialized(), "model of an uninitialized session");
        let global = SvdCheckpoint::vstack(self.parts.clone());
        SessionModel {
            modes: global.modes,
            singular_values: global.singular_values,
            rounds: self.rounds,
            snapshots_seen: global.snapshots_seen,
        }
    }

    /// Serialize for eviction: a small header plus every rank's
    /// length-prefixed [`SvdCheckpoint`] encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(BLOB_MAGIC);
        for v in [
            self.spec.rows as u64,
            self.spec.ranks as u64,
            self.rounds,
            self.replays,
            self.parts.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for p in &self.parts {
            let enc = p.to_bytes();
            out.extend_from_slice(&(enc.len() as u64).to_le_bytes());
            out.extend_from_slice(&enc);
        }
        out
    }

    /// Rehydrate a state evicted by [`SessionState::to_bytes`]. The spec
    /// is not serialized (the server keeps it resident); it must match
    /// the one the state was evicted under.
    pub fn from_bytes(spec: SessionSpec, data: &[u8]) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        if data.len() < 48 || &data[..8] != BLOB_MAGIC {
            return Err(bad("not a PSVD session blob"));
        }
        let word = |i: usize| {
            u64::from_le_bytes(data[8 + i * 8..16 + i * 8].try_into().expect("sized")) as usize
        };
        let (rows, ranks, rounds, replays, nparts) = (word(0), word(1), word(2), word(3), word(4));
        if rows != spec.rows || ranks != spec.ranks {
            return Err(bad("session blob does not match the spec"));
        }
        let mut parts = Vec::with_capacity(nparts);
        let mut off = 48;
        for _ in 0..nparts {
            if data.len() < off + 8 {
                return Err(bad("truncated session blob"));
            }
            let len = u64::from_le_bytes(data[off..off + 8].try_into().expect("sized")) as usize;
            off += 8;
            if data.len() < off + len {
                return Err(bad("truncated session blob"));
            }
            parts.push(SvdCheckpoint::from_bytes(&data[off..off + len])?);
            off += len;
        }
        if off != data.len() || (nparts > 0 && nparts != ranks) {
            return Err(bad("session blob length mismatch"));
        }
        let mut s = Self::new(spec);
        s.parts = parts;
        s.rounds = rounds as u64;
        s.replays = replays as u64;
        Ok(s)
    }
}

/// Restore (or freshly create) this rank's driver, ingest the round
/// through the untouched `try_fit_source` path, and hand back the new
/// checkpoint.
fn drive<C: Communicator>(
    comm: &C,
    cfg: SvdConfig,
    prior: Option<SvdCheckpoint>,
    work: &CoalescedBatches,
    n_ranks: usize,
    rank: usize,
) -> Result<SvdCheckpoint, IngestError> {
    let mut d = match prior {
        Some(ckpt) => ParallelStreamingSvd::restore(comm, cfg, ckpt),
        None => ParallelStreamingSvd::new(comm, cfg),
    };
    let mut src = work.rank_source(n_ranks, rank);
    d.try_fit_source(&mut src)?;
    Ok(d.into_checkpoint())
}

/// An immutable, query-ready snapshot of a session's factorization.
///
/// Published behind an `Arc` after every committed round; query endpoints
/// clone the `Arc` and compute lock-free, so no query ever waits on an
/// update computation.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionModel {
    /// Global modes `M x K'`.
    pub modes: Matrix,
    /// Singular values (length `K'`).
    pub singular_values: Vec<f64>,
    /// Rounds committed when this model was published.
    pub rounds: u64,
    /// Snapshots ingested when this model was published.
    pub snapshots_seen: usize,
}

impl SessionModel {
    /// Modal coefficients of a snapshot: `c = Uᵀ x`.
    pub fn project(&self, snapshot: &[f64]) -> Vec<f64> {
        assert_eq!(snapshot.len(), self.modes.rows(), "snapshot length mismatch");
        psvd_linalg::gemm::matvec_t(&self.modes, snapshot)
    }

    /// Reconstruct a snapshot from modal coefficients: `x ≈ U c`.
    pub fn reconstruct(&self, coefficients: &[f64]) -> Vec<f64> {
        psvd_linalg::gemm::matvec(&self.modes, coefficients)
    }

    /// How much of a snapshot the tracked subspace misses:
    /// `‖x − U Uᵀ x‖₂ / ‖x‖₂` (the online novelty signal).
    pub fn residual_fraction(&self, snapshot: &[f64]) -> f64 {
        let rec = self.reconstruct(&self.project(snapshot));
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, r) in snapshot.iter().zip(&rec) {
            num += (x - r) * (x - r);
            den += x * x;
        }
        (num / den.max(f64::MIN_POSITIVE)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BatchQueue;
    use psvd_core::SerialStreamingSvd;

    fn data(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((i as f64 * 0.7 + j as f64 * 1.3 + seed as f64) * 0.37).sin()
                + 0.5 * ((i as f64 - 2.0 * j as f64) * 0.11).cos()
        })
    }

    fn spec(rows: usize, ranks: usize, batch: usize) -> SessionSpec {
        SessionSpec::new(2, rows)
            .with_svd(SvdConfig::new(2).with_r1(4).with_r2(4).with_tree_fanout(0))
            .with_ranks(ranks)
            .with_batch(batch)
    }

    fn rounds_of(a: &Matrix, batch: usize) -> Vec<CoalescedBatches> {
        let mut q = BatchQueue::new(a.rows(), batch, a.cols().max(batch));
        q.push(a.clone()).unwrap();
        let mut out = Vec::new();
        while let Some(r) = q.take_round(1) {
            out.push(r);
        }
        if let Some(r) = q.take_flush(8) {
            out.push(r);
        }
        out
    }

    #[test]
    fn single_rank_session_matches_direct_driver() {
        let a = data(20, 12, 3);
        let sp = spec(20, 1, 4);
        let mut st = SessionState::new(sp);
        for r in rounds_of(&a, 4) {
            st.update(&r);
        }
        let model = st.model();
        // Bitwise twin: the same driver run uninterrupted (the session's
        // round-by-round checkpointing must be invisible).
        let comm = SelfComm::new();
        let mut direct = ParallelStreamingSvd::new(&comm, sp.svd);
        direct.fit_batched(&a, 4);
        assert_eq!(model.snapshots_seen, 12);
        let (direct_modes, direct_sigma) = direct.into_modes();
        assert_eq!(model.singular_values, direct_sigma);
        assert_eq!(model.modes, direct_modes);
        // The serial driver takes a different (but equivalent) reduction
        // path; it agrees to roundoff and anchors the query endpoints.
        let mut serial = SerialStreamingSvd::new(sp.svd);
        serial.fit_batched(&a, 4);
        for (s, p) in model.singular_values.iter().zip(serial.singular_values()) {
            assert!((s - p).abs() <= 1e-9 * p.abs(), "sigma drifted: {s} vs {p}");
        }
        let x = a.col(5);
        let (p_model, p_serial) = (model.project(&x), serial.project(&x));
        for (m, s) in p_model.iter().zip(&p_serial) {
            // Each mode's sign is arbitrary, so compare magnitudes.
            assert!((m.abs() - s.abs()).abs() <= 1e-8 * (1.0 + s.abs()), "projection drifted");
        }
        assert!(
            (model.residual_fraction(&x) - serial.residual_fraction(&x)).abs() <= 1e-8,
            "residual drifted"
        );
    }

    #[test]
    fn multi_rank_session_matches_single_shot_run() {
        let a = data(24, 12, 9);
        let sp = spec(24, 3, 4);
        let mut st = SessionState::new(sp);
        for r in rounds_of(&a, 4) {
            let rep = st.update(&r);
            assert!(!rep.replayed);
            assert!(rep.messages > 0, "multi-rank rounds must communicate");
        }
        // Round-by-round checkpointed streaming == one uninterrupted run.
        let blocks = psvd_data::partition::split_rows(&a, 3);
        let world = World::new(3);
        let straight = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, sp.svd);
            d.fit_batched(&blocks[comm.rank()], 4);
            (d.gather_modes(0), d.singular_values().to_vec())
        });
        let model = st.model();
        assert_eq!(model.singular_values, straight[0].1);
        assert_eq!(Some(model.modes), straight[0].0);
    }

    #[test]
    fn eviction_blob_roundtrip_is_lossless() {
        let a = data(18, 9, 5);
        let sp = spec(18, 2, 3);
        let mut st = SessionState::new(sp);
        for r in rounds_of(&a, 3) {
            st.update(&r);
        }
        let blob = st.to_bytes();
        assert_eq!(blob.len(), st.byte_len());
        let back = SessionState::from_bytes(sp, &blob).unwrap();
        assert_eq!(back.parts, st.parts);
        assert_eq!(back.rounds(), st.rounds());
        assert_eq!(back.replays(), st.replays());
        assert_eq!(back.model(), st.model());
        // Uninitialized states evict too (nothing to spill but counters).
        let empty = SessionState::new(sp);
        let back = SessionState::from_bytes(sp, &empty.to_bytes()).unwrap();
        assert!(!back.is_initialized());
    }

    #[test]
    fn corrupt_blob_rejected() {
        let sp = spec(18, 2, 3);
        let mut st = SessionState::new(sp);
        for r in rounds_of(&data(18, 6, 1), 3) {
            st.update(&r);
        }
        let mut blob = st.to_bytes();
        blob[0] = b'X';
        assert!(SessionState::from_bytes(sp, &blob).is_err());
        let mut truncated = st.to_bytes();
        truncated.truncate(truncated.len() - 3);
        assert!(SessionState::from_bytes(sp, &truncated).is_err());
    }

    #[test]
    fn transient_chaos_is_bitwise_invisible() {
        let a = data(18, 9, 7);
        let sp = spec(18, 3, 3);
        let mut clean = SessionState::new(sp);
        let mut faulted = SessionState::new(sp);
        let plan = FaultPlan::new(77).with_delay_prob(1.0, 2);
        let mut delays = 0;
        for r in rounds_of(&a, 3) {
            clean.update(&r);
            let rep = faulted.update_chaos(&r, &plan);
            assert!(!rep.replayed, "delayed sends must never fail a round");
            delays += rep.fault.delays;
        }
        assert!(delays > 0, "the schedule must actually have delayed sends");
        assert_eq!(clean.model(), faulted.model());
    }

    #[test]
    fn rank_death_replays_bitwise_from_checkpoints() {
        let a = data(18, 12, 11);
        let sp = spec(18, 2, 3);
        let mut clean = SessionState::new(sp);
        let mut faulted = SessionState::new(sp);
        let mut replays = 0;
        for (i, r) in rounds_of(&a, 3).iter().enumerate() {
            clean.update(r);
            // Kill a rank mid-stream every other round.
            let rep = if i % 2 == 1 {
                let plan = FaultPlan::new(i as u64).with_death(i % 2, 2);
                faulted.update_chaos(r, &plan)
            } else {
                faulted.update(r)
            };
            replays += u64::from(rep.replayed);
        }
        assert!(replays > 0, "the deaths must actually have fired");
        assert_eq!(faulted.replays(), replays);
        assert_eq!(clean.model(), faulted.model());
        // Per-session replay accounting survives eviction + rehydration.
        let back = SessionState::from_bytes(sp, &faulted.to_bytes()).unwrap();
        assert_eq!(back.replays(), replays);
        assert_eq!(back.rounds(), faulted.rounds());
    }

    #[test]
    fn row_blocks_must_hold_a_full_stack_update() {
        // 8 rows on 2 ranks, K = 4, batch 4: the first round would commit,
        // but a full-stack update factors K + batch = 8 columns of a 4-row
        // block.
        let err = SessionSpec::new(4, 8).with_batch(4).with_ranks(2).try_validated().unwrap_err();
        assert!(err.to_string().contains("K + the batch width (4 + 4)"), "{err}");
        // Twice the rows: every round commits.
        let sp = SessionSpec::new(4, 16).with_svd(SvdConfig::new(4)).with_batch(4).with_ranks(2);
        let mut st = SessionState::new(sp);
        for r in rounds_of(&data(16, 16, 2), 4) {
            st.update(&r);
        }
        assert_eq!(st.snapshots_seen(), 16);
    }

    #[test]
    #[should_panic(expected = "chaos needs ranks >= 2")]
    fn chaos_on_single_rank_rejected() {
        let _ = SessionState::new(SessionSpec::new(2, 16).with_chaos(crate::ChaosSpec::new(1)));
    }
}
