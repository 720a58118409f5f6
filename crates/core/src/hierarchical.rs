//! The APMOS exchange (Listing 3 of the paper), once, over a merge tree —
//! the only place in the crate where right-vector factors are formed,
//! moved, merged and turned back into global modes.
//!
//! A [`MergeTreePlan`] lists children per merge node, leaf level first.
//! **Depth 1 is the paper's algorithm verbatim**: every rank sends its
//! `r1`-column factor `Ṽⁱ Σ̃ⁱ` to rank 0, which factorizes the stack
//! `W = [Ṽ¹Σ̃¹, …]` once to `r2` and broadcasts `(X̃, Λ̃)` back — two
//! collective rounds, `P − 1` messages each way. Rank 0's compute and
//! per-message receive overhead then grow linearly with the world size,
//! which is what the weak-scaling experiment exposes; deeper plans attack
//! it: at each level, groups of `fanout` active ranks concatenate their
//! `U·diag(σ)` factors at a group leader, which re-orthogonalizes the
//! stack (blocked thin QR and a small SVD of `R` for tall stacks) and
//! truncates back to `r1` columns before forwarding upward. With fanout
//! `g` the root sees `r1 · g` columns regardless of the world size, and
//! every level costs `O(g)` messages per leader. Iwen & Ong (PAPERS.md)
//! prove the hierarchical form equals the flat one level by level, which
//! is why one walk serves both: APMOS is the plan's walk up with an
//! SVD-truncate combiner, then its walk down with the root's factors.
//!
//! The re-compression is sound for the same reason APMOS itself is: the
//! Gram identity `W_group W_groupᵀ = Σ_{i∈group} AⁱᵀAⁱ` means the group's
//! SVD-truncated `X̃Λ̃` carries the leading energy of the group's share of
//! the global covariance — it is exactly the `r1` truncation applied once
//! more, per level.
//!
//! The same two walks carry the driver's other exchanges: the
//! projection sums and TSQR's `R` factors go up concatenated (rank 0
//! combines them in rank order, so every plan gives the same bits), and
//! broadcasts and TSQR's `Q` blocks come down, each leader handing a
//! member its subtree's share. A flat plan is the paper's rank-0 pattern;
//! a deeper one spreads rank 0's messages over the group leaders.
//!
//! # Error-bound accounting
//!
//! Each interior merge replaces the group stack `S` by its rank-`r1`
//! truncation; by the Eckart–Young theorem the discarded part has
//! Frobenius norm `e = sqrt(‖S‖_F² − Σ_kept σ²)`, and by Weyl's
//! inequality every singular value of the final (root) stack moves by at
//! most the sum of the `e`'s over all merges. [`TreeMergeInfo`] carries
//! the per-level sums up the tree with the factors and back down with the
//! broadcast factors, so every rank can report the tracked upper bound
//! `interior_bound()` on the σ deviation from the depth-1 exchange — zero
//! at depth 1, and property-tested to dominate the observed deviation
//! otherwise.

use std::ops::Range;

use psvd_comm::{CommError, Communicator, Payload};
use psvd_linalg::gemm::matmul_into;
use psvd_linalg::snapshots::generate_right_vectors;
use psvd_linalg::workspace::Workspace;
use psvd_linalg::{Matrix, Scalar, Svd};

use crate::config::SvdConfig;
use crate::update::{factor_truncate, Ctx, LocalQr};

/// Why a merge-tree plan could not be built from the requested shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A fanout of zero ranks per merge is meaningless.
    ZeroFanout,
    /// A depth of zero levels is meaningless.
    ZeroDepth,
    /// Fanout 1 never reduces the active set: the tree cannot terminate.
    FanoutOne {
        /// World size the plan was requested for.
        world: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ZeroFanout => write!(f, "merge-tree fanout must be positive"),
            PlanError::ZeroDepth => write!(f, "merge-tree depth must be positive"),
            PlanError::FanoutOne { world } => {
                write!(f, "merge-tree fanout 1 cannot reduce a world of {world} ranks")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The shape of a hierarchical merge: children per interior node, leaf
/// level first. Rank `r` is active at level `l` iff `r` is a multiple of
/// the level stride `fanouts[0]·…·fanouts[l-1]`; groups are `fanout`
/// consecutive active ranks, led by their lowest member. The last level
/// always lands everything at rank 0, which factorizes the final stack to
/// `r2` — the only factorization there is at depth 1.
///
/// Every collective the distributed driver makes walks this shape: up
/// with the crate's `try_reduce`, down with its `try_fan_out`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeTreePlan {
    fanouts: Vec<usize>,
}

impl MergeTreePlan {
    /// The flat rank-0 gather: one level spanning the whole world.
    pub fn flat(world: usize) -> Self {
        Self { fanouts: vec![world.max(1)] }
    }

    /// Uniform fanout, as many levels as it takes to reach one rank.
    /// `fanout >= world` (or a world of one) degenerates to [`Self::flat`].
    pub fn uniform(fanout: usize, world: usize) -> Result<Self, PlanError> {
        if fanout == 0 {
            return Err(PlanError::ZeroFanout);
        }
        if world <= 1 || fanout >= world {
            return Ok(Self::flat(world));
        }
        if fanout == 1 {
            return Err(PlanError::FanoutOne { world });
        }
        let mut fanouts = Vec::new();
        let mut remaining = world;
        while remaining > 1 {
            fanouts.push(fanout.min(remaining));
            remaining = remaining.div_ceil(fanout);
        }
        Ok(Self { fanouts })
    }

    /// A tree of (at most) `depth` levels: the fanout is the smallest
    /// integer whose `depth`-th power covers the world, so all levels
    /// carry roughly `world^(1/depth)` children. Small worlds may need
    /// fewer levels than requested.
    pub fn with_depth(depth: usize, world: usize) -> Result<Self, PlanError> {
        if depth == 0 {
            return Err(PlanError::ZeroDepth);
        }
        if depth == 1 || world <= 2 {
            return Ok(Self::flat(world));
        }
        let mut fanout = (world as f64).powf(1.0 / depth as f64).ceil() as usize;
        fanout = fanout.max(2);
        // Guard the floating-point root against off-by-one: grow until the
        // capacity covers the world.
        while fanout.checked_pow(depth as u32).map(|c| c < world).unwrap_or(false) {
            fanout += 1;
        }
        Self::uniform(fanout, world)
    }

    /// Resolve the plan a configuration asks for: a `tree_fanout` gives
    /// the uniform plan, no fanout keeps the flat gather — the
    /// backward-compatible default.
    pub fn resolve(cfg: &SvdConfig, world: usize) -> Result<Self, PlanError> {
        match cfg.tree_fanout {
            None => Ok(Self::flat(world)),
            Some(f) => Self::uniform(f, world),
        }
    }

    /// Number of merge levels (1 = the flat gather).
    pub fn depth(&self) -> usize {
        self.fanouts.len()
    }

    /// Children per interior node, leaf level first.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Level strides: `strides[l]` is the spacing of the ranks active at
    /// level `l` (`depth + 1` entries, from 1 up to the plan's capacity).
    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize];
        for &f in &self.fanouts {
            strides.push(strides[strides.len() - 1].saturating_mul(f));
        }
        strides
    }

    /// The walk up, on collective tag `tag`. At each level a leader
    /// receives its group's parts — its own first, then its members' in
    /// rank order — folds a group of two or more with `merge(level,
    /// group)` and forwards a singleton unchanged; every other rank sends
    /// its part to its leader and is done. Rank 0 gets the last level's
    /// group unmerged (`Some`); every other rank gets `None`. Each rank
    /// sends at most once, so one tag serves every level.
    pub(crate) fn try_reduce<C: Communicator, V: Payload>(
        &self,
        comm: &C,
        tag: u64,
        mut part: V,
        mut merge: impl FnMut(usize, Vec<V>) -> V,
    ) -> Result<Option<Vec<V>>, CommError> {
        let (rank, size) = (comm.rank(), comm.size());
        let strides = self.strides();
        for (l, &f) in self.fanouts.iter().enumerate() {
            if !rank.is_multiple_of(strides[l + 1]) {
                comm.try_send(part, rank - rank % strides[l + 1], tag)?;
                return Ok(None);
            }
            let mut group = vec![part];
            for src in (1..f).map(|j| rank + j * strides[l]).take_while(|&s| s < size) {
                group.push(comm.try_recv(src, tag)?);
            }
            if l + 1 == self.depth() {
                return Ok(Some(group));
            }
            part = if group.len() > 1 { merge(l, group) } else { group.remove(0) };
        }
        unreachable!("the last level lands every part at rank 0")
    }

    /// The walk down, on collective tag `tag`: rank 0 supplies `value`
    /// (ignored elsewhere), and each leader, top level first, hands each
    /// member `split(held, offsets)` — `offsets` being the ranks of the
    /// member's subtree relative to the leader's own. Returns what this
    /// rank holds at the end: its whole subtree's value, its own part
    /// first (exactly its own part on a rank that leads no group). Each
    /// rank receives at most once, so the walk may reuse the tag of a
    /// [`MergeTreePlan::try_reduce`] it answers.
    pub(crate) fn try_fan_out<C: Communicator, V: Payload>(
        &self,
        comm: &C,
        tag: u64,
        value: Option<V>,
        mut split: impl FnMut(&V, Range<usize>) -> V,
    ) -> Result<V, CommError> {
        let (rank, size) = (comm.rank(), comm.size());
        let strides = self.strides();
        // The level at which this rank is a member rather than a leader;
        // rank 0 leads at every level.
        let joined = (0..self.depth()).find(|&l| !rank.is_multiple_of(strides[l + 1]));
        let held = match joined {
            None => value.expect("fan-out: rank 0 must supply the value"),
            Some(l) => comm.try_recv(rank - rank % strides[l + 1], tag)?,
        };
        for l in (0..joined.unwrap_or(self.depth())).rev() {
            let s = strides[l];
            for off in (1..self.fanouts[l]).map(|j| j * s).take_while(|&o| rank + o < size) {
                comm.try_send(split(&held, off..(off + s).min(size - rank)), rank + off, tag)?;
            }
        }
        Ok(held)
    }

    /// Gather one payload per rank at rank 0, in rank order: the walk up
    /// with concatenation.
    pub(crate) fn try_gather<C: Communicator, P: Payload>(
        &self,
        comm: &C,
        tag: u64,
        value: P,
    ) -> Result<Option<Vec<P>>, CommError> {
        let concat = |_, group: Vec<Vec<P>>| group.into_iter().flatten().collect();
        let root = self.try_reduce(comm, tag, vec![value], concat)?;
        Ok(root.map(|group| group.into_iter().flatten().collect()))
    }

    /// Broadcast rank 0's value: the walk down with `clone`.
    pub(crate) fn try_bcast<C: Communicator, P: Payload + Clone>(
        &self,
        comm: &C,
        tag: u64,
        value: Option<P>,
    ) -> Result<P, CommError> {
        self.try_fan_out(comm, tag, value, |v, _| v.clone())
    }
}

/// Diagnostics of a merge-tree round, reported on every rank (see
/// [`crate::ParallelStreamingSvd::tree_merge_info`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TreeMergeInfo {
    /// The executed plan's fanouts, leaf level first.
    pub fanouts: Vec<usize>,
    /// Sum over that level's merges of the discarded-σ Frobenius energy
    /// `sqrt(‖stack‖_F² − Σ_kept σ²)`; one entry per *interior* level
    /// (`depth − 1` entries, empty for the flat plan).
    pub per_level_bound: Vec<f64>,
    /// Discarded-σ energy of the root's final `r2` truncation — the
    /// truncation every plan, flat included, performs.
    pub root_tail: f64,
    /// Interior merges performed across the whole tree.
    pub merges: u64,
}

impl TreeMergeInfo {
    /// Number of levels in the executed plan.
    pub fn depth(&self) -> usize {
        self.fanouts.len()
    }

    /// Tracked upper bound (Weyl + Eckart–Young, see module docs) on how
    /// far any singular value can sit from the flat gather's result.
    pub fn interior_bound(&self) -> f64 {
        // fold from +0.0: the std float `Sum` identity is -0.0, which would
        // leak a negative zero for depth-1 (no interior levels) trees.
        self.per_level_bound.iter().fold(0.0, |acc, b| acc + b)
    }
}

/// Frobenius energy of the part a rank-`keep` truncation discards:
/// `sqrt(max(0, ‖w‖_F² − Σ_{j<keep} σ_j²))`. Exact for the deterministic
/// SVD (`‖w‖_F² = Σ σ²`); for the randomized path it additionally counts
/// whatever energy the sketch missed, so the bound stays an upper bound.
fn tail_energy<T: Scalar>(w: &Matrix<T>, s: &[T], keep: usize) -> f64 {
    let total: f64 = w
        .as_slice()
        .iter()
        .map(|v| {
            let x = v.to_f64();
            x * x
        })
        .sum();
    let kept: f64 = s
        .iter()
        .take(keep)
        .map(|v| {
            let x = v.to_f64();
            x * x
        })
        .sum();
    (total - kept).max(0.0).sqrt()
}

/// Interior-node factorization of a group stack. Tall stacks take the
/// shared factor-and-truncate step of [`crate::update`] (blocked thin QR
/// with scratch from `ws`, small SVD of `R`, `Q·U'`); wide stacks hand
/// over to the inner SVD directly. The randomized path is seeded per
/// merge, so results do not depend on how many merges a rank happened to
/// host.
fn interior_factorize<T: Scalar>(
    stack: &Matrix<T>,
    keep: usize,
    cfg: &SvdConfig,
    ws: &mut Workspace,
    q: &mut Matrix<T>,
    qr: &mut LocalQr<T>,
) -> (Matrix<T>, Vec<T>) {
    let seed = cfg.seed.wrapping_add(stack.cols() as u64);
    if stack.rows() < stack.cols() {
        let f = cfg.inner_svd(stack, keep, seed);
        return (f.u, f.s);
    }
    let mut x = Matrix::zeros(0, 0);
    let mut ctx = Ctx { cfg, seed, ws };
    let Ok(s) = factor_truncate(qr, &mut ctx, stack, keep, usize::MAX, q, &mut x);
    (x, s)
}

/// `m · diag(d)` in place: scales column `j` by `d[j]`.
fn scale_columns<T: Scalar>(m: &mut Matrix<T>, d: &[T]) {
    for i in 0..m.rows() {
        for (v, &dj) in m.row_mut(i).iter_mut().zip(d) {
            *v *= dj;
        }
    }
}

/// Charge the simulated clock for a factorization of a `rows x cols`
/// stack (the one flop model behind `fig1c_weak_scaling`: deterministic
/// `2·max·min² + 26·min³`, randomized `6·(keep+10)·rows·cols`).
fn charge_factorize<C: Communicator>(
    comm: &C,
    cfg: &SvdConfig,
    rows: usize,
    cols: usize,
    keep: usize,
    rate: f64,
) {
    let mn = rows.min(cols) as f64;
    let mx = rows.max(cols) as f64;
    let flops = if cfg.low_rank {
        6.0 * (keep + 10) as f64 * rows as f64 * cols as f64
    } else {
        2.0 * mx * mn * mn + 26.0 * mn * mn * mn
    };
    comm.advance(flops / rate);
}

/// One rank's contribution on the way up: its subtree's factor, the
/// subtree's per-level bound sums and its merge count.
type Part<T> = (Matrix<T>, Vec<f64>, u64);

/// A group's factors side by side, in rank order, with its subtrees'
/// bound sums and merge counts added up in the same order.
fn stack_group<T: Scalar>(group: Vec<Part<T>>) -> (Matrix<T>, Vec<f64>, u64) {
    let mut parts = group.into_iter();
    let (first, mut bounds, mut merges) = parts.next().expect("a group holds its leader's part");
    let mut blocks = vec![first];
    for (fac, child_bounds, child_merges) in parts {
        for (b, cb) in bounds.iter_mut().zip(&child_bounds) {
            *b += cb;
        }
        merges += child_merges;
        blocks.push(fac);
    }
    (Matrix::hstack_all(&blocks), bounds, merges)
}

/// APMOS over a merge tree, writing this rank's block of the `K` leading
/// global left singular vectors into `phi` and returning the singular
/// values plus the executed tree's diagnostics (both identical on all
/// ranks). The factors go up the plan in one [`MergeTreePlan::try_reduce`],
/// each interior group stacked, re-factorized and truncated back to `r1`;
/// the root's `(X̃, Λ̃)` and the diagnostics come back down in one
/// broadcast — two collective rounds at any depth.
///
/// `seed` seeds the root's randomized factorization (the streaming
/// driver passes its step's seed); `ws` backs the interior merges' QR
/// scratch; `compute_rate` (flop/s), when set, charges modeled local
/// compute to the communicator's simulated clock so weak-scaling sweeps
/// see compute and communication on one axis.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_merge_tree_svd_into<C: Communicator, T: Scalar + Payload>(
    comm: &C,
    cfg: SvdConfig,
    a_local: &Matrix<T>,
    plan: &MergeTreePlan,
    seed: u64,
    ws: &mut Workspace,
    compute_rate: Option<f64>,
    phi: &mut Matrix<T>,
) -> Result<(Vec<T>, TreeMergeInfo), CommError> {
    let cfg = cfg.validated();
    let n = a_local.cols();
    assert!(n > 0, "merge_tree_svd: empty snapshot set");
    let tag = comm.next_collective_tag();

    // Leaf: local right vectors by the method of snapshots, truncated to
    // r1 and scaled in place to Wᵢ = Ṽⁱ (Σ̃ⁱ)ᵀ (a column scaling, since
    // Σ̃ is diagonal).
    let r1 = cfg.r1.min(n);
    let (mut fac, slocal) = generate_right_vectors(a_local, r1);
    scale_columns(&mut fac, &slocal);
    if let Some(rate) = compute_rate {
        let (m, nn) = (a_local.rows() as f64, n as f64);
        comm.advance((2.0 * m * nn * nn + 25.0 * nn * nn * nn) / rate);
    }

    // QR factor buffers reused across merges; the kernels' transients come
    // from `ws`, so repeated merges are allocation-free once warm.
    let mut qbuf = Matrix::zeros(0, 0);
    let mut qr = LocalQr::new();
    let leaf = (fac, vec![0.0f64; plan.depth() - 1], 0);
    let root_group = plan.try_reduce(comm, tag, leaf, |l, group| {
        let (stack, mut bounds, merges) = stack_group(group);
        let keep = r1.min(stack.rows().min(stack.cols()));
        if let Some(rate) = compute_rate {
            charge_factorize(comm, &cfg, stack.rows(), stack.cols(), keep, rate);
        }
        let (x, s) = interior_factorize(&stack, keep, &cfg, ws, &mut qbuf, &mut qr);
        let kk = keep.min(s.len());
        bounds[l] += tail_energy(&stack, &s, kk);
        // Re-compressed group factor: X̃ · diag(σ̃), scaled in place on the
        // truncated copy.
        let mut xk = x.first_columns(kk);
        scale_columns(&mut xk, &s[..kk]);
        (xk, bounds, merges + 1)
    })?;

    // Rank 0 factorizes the root stack and truncates to r2; factors and
    // diagnostics come back down together.
    let factors = root_group.map(|group| {
        let (w, bounds, merges) = stack_group(group);
        let p = w.rows().min(w.cols());
        let r2 = cfg.r2.min(p);
        if let Some(rate) = compute_rate {
            charge_factorize(comm, &cfg, w.rows(), w.cols(), r2, rate);
        }
        let Svd { u: x, s, .. } = cfg.inner_svd(&w, r2, seed);
        let kept = r2.min(s.len());
        let tail = tail_energy(&w, &s, kept);
        (x.first_columns(r2), s[..kept].to_vec(), (bounds, tail, merges))
    });
    let (x, s, (per_level_bound, root_tail, merges)) =
        plan.try_bcast(comm, comm.next_collective_tag(), factors)?;

    // Local slice of the global modes: Ũⁱ_j = (1/Λ̃_j) Aⁱ X̃_j.
    let k = cfg.k.min(s.iter().filter(|&&v| v > T::ZERO).count());
    let inv_s: Vec<T> = s[..k].iter().map(|&v| T::ONE / v).collect();
    matmul_into(a_local.view(), x.block(0, x.rows(), 0, k), phi);
    scale_columns(phi, &inv_s);
    if let Some(rate) = compute_rate {
        let (m, nn, kk) = (a_local.rows() as f64, n as f64, k as f64);
        comm.advance(2.0 * m * nn * kk / rate);
    }

    let info = TreeMergeInfo { fanouts: plan.fanouts.clone(), per_level_bound, root_tail, merges };
    Ok((s[..k].to_vec(), info))
}

/// One-shot merge-tree SVD from `cfg.seed` and a fresh workspace (the convenience
/// entry point mirroring [`crate::parallel::parallel_svd_once`]).
/// `compute_rate`, when `Some(flop/s)`, charges modeled local compute to
/// the simulated clock, as `fig1c_weak_scaling` and the simulated-time
/// gate in `tests/tree_merge.rs` do.
pub fn try_merge_tree_svd<C: Communicator, T: Scalar + Payload>(
    comm: &C,
    cfg: SvdConfig,
    a_local: &Matrix<T>,
    plan: &MergeTreePlan,
    compute_rate: Option<f64>,
) -> Result<(Matrix<T>, Vec<T>, TreeMergeInfo), CommError> {
    let mut ws = Workspace::new();
    let mut phi = Matrix::zeros(0, 0);
    let (s, info) = try_merge_tree_svd_into(
        comm,
        cfg,
        a_local,
        plan,
        cfg.seed,
        &mut ws,
        compute_rate,
        &mut phi,
    )?;
    Ok((phi, s, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_comm::World;
    use psvd_data::partition::split_rows;
    use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
    use psvd_linalg::validate::{max_principal_angle, spectrum_error};

    use crate::serial::batch_truncated_svd;

    fn decaying(m: usize, n: usize, seed: u64) -> Matrix {
        let spec: Vec<f64> = (0..n.min(m)).map(|i| 8.0 * 0.6f64.powi(i as i32)).collect();
        matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
    }

    /// One round over the uniform plan of `fanout`; returns the stacked
    /// modes and rank 0's σ.
    fn run_tree(a: &Matrix, n_ranks: usize, fanout: usize, cfg: SvdConfig) -> (Matrix, Vec<f64>) {
        let plan = MergeTreePlan::uniform(fanout, n_ranks).unwrap();
        let blocks = split_rows(a, n_ranks);
        let world = World::new(n_ranks);
        let out = world.run(|comm| {
            try_merge_tree_svd(comm, cfg, &blocks[comm.rank()], &plan, None).expect("fault-free")
        });
        let modes = Matrix::vstack_all(&out.iter().map(|(p, _, _)| p.clone()).collect::<Vec<_>>());
        (modes, out[0].1.clone())
    }

    #[test]
    fn exact_without_truncation() {
        let a = decaying(96, 10, 1);
        let k = 4;
        let cfg = SvdConfig::new(k).with_r1(10).with_r2(10).with_forget_factor(1.0);
        let (modes, s) = run_tree(&a, 8, 4, cfg);
        let (u_ref, s_ref) = batch_truncated_svd(&a, k);
        assert!(spectrum_error(&s_ref, &s) < 1e-8, "{s_ref:?} vs {s:?}");
        assert!(max_principal_angle(&u_ref, &modes) < 1e-6);
    }

    #[test]
    fn every_plan_shape_matches_the_reference_without_truncation() {
        // Flat (one level spanning the world, or wider) and two-level
        // shapes ([2, 2], [3, 2]) must all match the batch reference at
        // r1 = N.
        let a = decaying(64, 12, 2);
        let k = 3;
        let cfg = SvdConfig::new(k).with_r1(12).with_r2(12);
        let (_, s_ref) = batch_truncated_svd(&a, k);
        for fanout in [4, 100, 2, 3] {
            let (_, s) = run_tree(&a, 4, fanout, cfg);
            assert!(spectrum_error(&s_ref, &s) < 1e-7, "fanout {fanout}: {s:?} vs {s_ref:?}");
        }
    }

    #[test]
    fn truncated_still_accurate_on_decaying_spectrum() {
        let a = decaying(120, 24, 3);
        let k = 4;
        let cfg = SvdConfig::new(k).with_r1(8).with_r2(8);
        let (_, s) = run_tree(&a, 6, 3, cfg);
        let (_, s_ref) = batch_truncated_svd(&a, k);
        for (got, want) in s.iter().zip(&s_ref) {
            assert!((got - want).abs() / want < 0.02, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn two_level_tree_matches_the_flat_exchange() {
        let a = decaying(80, 16, 4);
        let cfg = SvdConfig::new(3).with_r1(10).with_r2(8);
        let (tree_modes, tree_s) = run_tree(&a, 8, 2, cfg);
        let (flat_modes, flat_s) = run_tree(&a, 8, 8, cfg);
        assert!(spectrum_error(&flat_s, &tree_s) < 1e-4);
        assert!(max_principal_angle(&flat_modes, &tree_modes) < 1e-3);
    }

    #[test]
    fn rank0_receives_less_with_groups() {
        // The whole point: rank 0's receive volume shrinks when leaders
        // pre-compress.
        let a = decaying(128, 32, 5);
        let cfg = SvdConfig::new(3).with_r1(16).with_r2(8);
        let recv_bytes = |fanout: usize| {
            let plan = MergeTreePlan::uniform(fanout, 8).unwrap();
            let blocks = split_rows(&a, 8);
            let world = World::new(8);
            world.run(|comm| {
                let _ = try_merge_tree_svd(comm, cfg, &blocks[comm.rank()], &plan, None);
            });
            world.stats().recv_bytes(0)
        };
        // Rank 0 is itself a leader (receives its own group's raw blocks),
        // so the reduction is (g-1 raw + 1 compressed) vs (P-1 raw): with
        // P = 8, g = 4 that is 4/7 ≈ 0.57 of the flat volume.
        let flat = recv_bytes(8); // every rank sends its raw factor
        let grouped = recv_bytes(4); // [4, 2]: two leaders forward to rank 0
        assert!(grouped * 3 < flat * 2, "grouping must cut rank-0 volume: {grouped} vs {flat}");
    }

    // ---- the walks -----------------------------------------------------

    #[test]
    fn the_walks_match_the_flat_collectives_at_every_shape() {
        // Whatever the plan's shape: the gather is `Communicator::gather`
        // bit for bit, in rank order; the broadcast hands every rank rank
        // 0's value; the fan-out hands rank r its own block first, followed
        // by its subtree's (nothing more on a rank that leads no group).
        for size in 1usize..=9 {
            for fanout in [2, 3, 4, size] {
                let plan = MergeTreePlan::uniform(fanout, size).unwrap();
                let world = World::new(size);
                let out = world.run(|c| {
                    let mine: Vec<f64> = (0..4)
                        .map(|j| (c.rank() as f64 + 1.0).sqrt() * (j as f64 + 0.37).ln())
                        .collect();
                    let flat = c.gather(mine.clone(), 0);
                    let walked = plan.try_gather(c, c.next_collective_tag(), mine.clone()).unwrap();
                    let seed = (c.rank() == 0).then(|| mine.clone());
                    let bcast = plan.try_bcast(c, c.next_collective_tag(), seed).unwrap();
                    let blocks = (c.rank() == 0).then(|| (0..size).collect::<Vec<_>>());
                    let split = |v: &Vec<usize>, ranks: Range<usize>| v[ranks].to_vec();
                    let fanned =
                        plan.try_fan_out(c, c.next_collective_tag(), blocks, split).unwrap();
                    let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    (
                        flat.map(|g| g.iter().map(bits).collect::<Vec<_>>()),
                        walked.map(|g| g.iter().map(bits).collect::<Vec<_>>()),
                        bits(&bcast),
                        fanned,
                    )
                });
                let at = format!("size {size}, fanout {fanout}");
                let root_bits = out[0].2.clone();
                for (r, (flat, walked, bcast, fanned)) in out.into_iter().enumerate() {
                    assert_eq!(walked, flat, "gather at rank {r}, {at}");
                    assert_eq!(bcast, root_bits, "broadcast at rank {r}, {at}");
                    assert_eq!(fanned, (r..r + fanned.len()).collect::<Vec<_>>(), "rank {r}, {at}");
                    if !r.is_multiple_of(plan.fanouts()[0]) {
                        assert_eq!(fanned, vec![r], "a member holds its own block only, {at}");
                    }
                }
            }
        }
    }

    // ---- plan construction -------------------------------------------

    #[test]
    fn plan_uniform_shapes() {
        assert_eq!(MergeTreePlan::uniform(2, 9).unwrap().fanouts(), &[2, 2, 2, 2]);
        assert_eq!(MergeTreePlan::uniform(4, 5).unwrap().fanouts(), &[4, 2]);
        assert_eq!(MergeTreePlan::uniform(3, 27).unwrap().fanouts(), &[3, 3, 3]);
        assert_eq!(MergeTreePlan::uniform(4, 4).unwrap().depth(), 1);
        assert_eq!(MergeTreePlan::uniform(8, 3).unwrap().depth(), 1);
        assert_eq!(MergeTreePlan::uniform(1, 1).unwrap().depth(), 1);
    }

    #[test]
    fn plan_rejects_degenerate_shapes() {
        assert_eq!(MergeTreePlan::uniform(0, 8), Err(PlanError::ZeroFanout));
        assert_eq!(MergeTreePlan::uniform(1, 8), Err(PlanError::FanoutOne { world: 8 }));
        assert_eq!(MergeTreePlan::with_depth(0, 8), Err(PlanError::ZeroDepth));
    }

    #[test]
    fn plan_with_depth_covers_world() {
        for world in [2usize, 5, 9, 16, 100, 4096] {
            for depth in 1..=4 {
                let plan = MergeTreePlan::with_depth(depth, world).unwrap();
                assert!(plan.depth() <= depth.max(1), "world {world} depth {depth}");
                let capacity: usize = plan.fanouts().iter().product();
                assert!(capacity >= world, "world {world} depth {depth}: {plan:?}");
            }
        }
    }

    #[test]
    fn plan_resolution_precedence() {
        let world = 64;
        let flat = SvdConfig::new(2).with_tree_fanout(0);
        assert_eq!(MergeTreePlan::resolve(&flat, world).unwrap().depth(), 1);
        let fan = flat.with_tree_fanout(4);
        assert_eq!(MergeTreePlan::resolve(&fan, world).unwrap().fanouts(), &[4, 4, 4]);
    }

    // ---- degenerate worlds ---------------------------------------------

    #[test]
    fn world_of_one_works_at_any_fanout() {
        let a = decaying(24, 8, 8);
        let (_, s_ref) = batch_truncated_svd(&a, 3);
        for fanout in [1usize, 2, 17] {
            let plan = MergeTreePlan::uniform(fanout, 1).unwrap();
            let world = World::new(1);
            let cfg = SvdConfig::new(3).with_r1(8).with_r2(8);
            let out = world
                .run(|comm| try_merge_tree_svd(comm, cfg, &a, &plan, None).expect("degenerate"));
            assert!(spectrum_error(&s_ref, &out[0].1) < 1e-8, "fanout {fanout}");
        }
    }

    #[test]
    fn prime_worlds_with_ragged_groups_work() {
        // E.g. 7 ranks in groups of 3: {0,1,2}, {3,4,5}, {6}.
        for (ranks, group) in [(5usize, 2usize), (5, 3), (7, 2), (7, 3), (7, 4)] {
            let a = decaying(8 * ranks, 10, 9 + ranks as u64);
            let cfg = SvdConfig::new(3).with_r1(10).with_r2(10);
            let (_, s) = run_tree(&a, ranks, group, cfg);
            let (_, s_ref) = batch_truncated_svd(&a, 3);
            assert!(
                spectrum_error(&s_ref, &s) < 1e-7,
                "ranks {ranks} group {group}: {s:?} vs {s_ref:?}"
            );
        }
    }

    #[test]
    fn merge_info_reports_tree_shape_on_all_ranks() {
        let a = decaying(72, 12, 10);
        let blocks = split_rows(&a, 6);
        let plan = MergeTreePlan::uniform(2, 6).unwrap();
        let cfg = SvdConfig::new(3).with_r1(4).with_r2(4);
        let world = World::new(6);
        let out = world.run(|comm| {
            let (_, _, info) = try_merge_tree_svd(comm, cfg, &blocks[comm.rank()], &plan, None)
                .expect("fault-free");
            info
        });
        for info in &out {
            assert_eq!(info, &out[0], "diagnostics must agree on every rank");
        }
        assert_eq!(out[0].fanouts, vec![2, 2, 2]);
        assert_eq!(out[0].per_level_bound.len(), 2);
        // 6 ranks, fanout 2: 3 merges at level 0, {0,2,4} -> 1 merge at
        // level 1 ({0,2} merge; 4 forwards singleton... rank 4 pairs with 0
        // at level 1), then {0,4} at level 2.
        assert!(out[0].merges >= 4, "expected >= 4 interior merges, got {}", out[0].merges);
        assert!(out[0].interior_bound() >= 0.0);
    }
}
