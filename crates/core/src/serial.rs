//! Serial streaming SVD — Levy & Lindenbaum's sequential Karhunen–Loève
//! basis extraction (Algorithm 1 / Listing 1 of the paper).
//!
//! The `K` leading left singular vectors are updated batch by batch by the
//! shared tracker of `crate::update`, factoring with the local thin QR:
//!
//! 1. `initialize(A0)`: thin QR of the first batch, SVD of the small `R`,
//!    keep `K` columns of `Q·U'`.
//! 2. `incorporate_data(Ai)`: project the current modes out of the batch
//!    (twice), factor only the `M x B` residual (CholeskyQR2, or the thin
//!    QR when its Grams refuse), SVD the small core
//!    `[[ff·diag(s), UᵀAi], [0, R]]`, keep `K` columns of `[U | J]·U'`.
//!    This is algebraically the paper's update, which thin-QRs the whole
//!    `[ff·U·diag(s) | Ai]` stack; that full stack is still what an update
//!    factors when the Gram `UᵀU` of the modes it is handed cannot be
//!    trusted (not finite, or further than ½ from `I`).
//!
//! Cost per batch is `O(MKB + MB²)` (the full stack's is `O(M (K+B)²)`),
//! with `O(M K)` memory — never `O(M N)`.
//!
//! Divergence from the paper's Listing 1, documented per `DESIGN.md`: the
//! listing sorts `argsort(dtildei)[::-1]` but our SVD kernels already return
//! descending singular values, so no re-sorting is needed.
//!
//! "Serial" refers to the streaming algorithm, not the arithmetic: the
//! per-batch QR and `Q·U'` product run on `psvd_linalg`'s threaded kernels
//! when the batch is large enough, bitwise identical at any thread count.

use std::io;

use psvd_data::stream::{MatrixBatchSource, SnapshotSource};
use psvd_linalg::workspace::WorkspaceStats;
use psvd_linalg::{Matrix, Scalar};

use crate::checkpoint::SvdCheckpoint;
use crate::config::SvdConfig;
use crate::update::{forward_tracker_accessors, LocalQr, Tracker};

/// Streaming truncated SVD of a (conceptually unbounded) snapshot stream:
/// the shared `crate::update` tracker, advanced by the local thin QR —
/// of the first batch, and of a residual too ill-conditioned for
/// CholeskyQR2.
///
/// Every per-batch temporary lives in per-instance buffers reused across
/// updates, so a steady-state `incorporate_data` call performs no
/// transient matrix allocations (the `O((K+B)²)` core SVD still allocates
/// its small factors; see DESIGN.md) — verified via
/// [`SerialStreamingSvd::scratch_stats`].
///
/// Generic over the element dtype `T`, which is `f64` (DESIGN.md, "One
/// dtype"); bitwise reproducible at any thread count.
pub struct SerialStreamingSvd<T: Scalar = f64> {
    pub(crate) tracker: Tracker<T>,
    qr: LocalQr<T>,
}

impl<T: Scalar> SerialStreamingSvd<T> {
    /// New driver; call [`SerialStreamingSvd::initialize`] with the first
    /// batch before incorporating further data.
    pub fn new(cfg: SvdConfig) -> Self {
        Self { tracker: Tracker::new(cfg), qr: LocalQr::new() }
    }

    forward_tracker_accessors!();

    /// Current estimate of the `K` leading left singular vectors (`M x K`,
    /// fewer columns if fewer snapshots have been seen).
    pub fn modes(&self) -> &Matrix<T> {
        self.tracker.modes()
    }

    /// Ingest the first batch `A0` (`M x B`).
    pub fn initialize(&mut self, a0: &Matrix<T>) -> &mut Self {
        let Ok(()) = self.tracker.initialize(&mut self.qr, a0);
        self
    }

    /// Ingest a further batch `Ai` (`M x B`), down-weighting history by the
    /// forget factor.
    pub fn incorporate_data(&mut self, ai: &Matrix<T>) -> &mut Self {
        let Ok(()) = self.tracker.update(&mut self.qr, ai);
        self
    }

    /// Modal coefficients of a snapshot: `c = Uᵀ x` (length = mode count).
    pub fn project(&self, snapshot: &[T]) -> Vec<T> {
        assert!(self.is_initialized(), "project before initialize");
        assert_eq!(snapshot.len(), self.modes().rows(), "snapshot length mismatch");
        psvd_linalg::gemm::matvec_t(self.modes(), snapshot)
    }

    /// Reconstruct a snapshot from modal coefficients: `x ≈ U c`.
    pub fn reconstruct(&self, coefficients: &[T]) -> Vec<T> {
        assert!(self.is_initialized(), "reconstruct before initialize");
        psvd_linalg::gemm::matvec(self.modes(), coefficients)
    }

    /// How much of a snapshot the tracked subspace misses:
    /// `‖x − U Uᵀ x‖₂ / ‖x‖₂` — the online novelty signal (near zero for
    /// data resembling history, jumping on regime change).
    pub fn residual_fraction(&self, snapshot: &[T]) -> f64 {
        let coeffs = self.project(snapshot);
        let rec = self.reconstruct(&coeffs);
        let mut num = T::ZERO;
        let mut den = T::ZERO;
        for (x, r) in snapshot.iter().zip(&rec) {
            num += (*x - *r) * (*x - *r);
            den += *x * *x;
        }
        (num / den.max(T::MIN_POSITIVE)).sqrt().to_f64()
    }

    /// Stream an entire matrix in `batch`-column chunks: `initialize` on the
    /// first, `incorporate_data` on the rest.
    pub fn fit_batched(&mut self, data: &Matrix<T>, batch: usize) -> &mut Self {
        self.fit_source(&mut MatrixBatchSource::new(data, batch))
            .unwrap_or_else(|e| panic!("in-core sources cannot fail: {e}"))
    }

    /// Stream every batch a [`SnapshotSource`] yields — the pull-based
    /// ingestion path. With a
    /// [`psvd_data::prefetch::SnapshotPrefetcher`] source, batch `k+1`'s
    /// IO and decode run on the prefetch thread while this loop is inside
    /// `incorporate_data` on batch `k`; [`SerialStreamingSvd::fit_batched`]
    /// is this loop over an in-core
    /// [`psvd_data::stream::MatrixBatchSource`]. Batches land in one
    /// persistent buffer, so the steady-state loop keeps its zero
    /// transient O(M) allocation guarantee. IO failures surface as
    /// [`io::Error`] with the last successful update's factorization
    /// intact.
    pub fn fit_source<S: SnapshotSource<T>>(&mut self, source: &mut S) -> io::Result<&mut Self> {
        let Self { tracker, qr } = self;
        tracker.fit_source(source, |t, batch| {
            let Ok(()) = t.step(qr, batch);
            io::Result::Ok(())
        })?;
        Ok(self)
    }
}

impl SerialStreamingSvd {
    /// Capture the current state (must be initialized).
    pub fn checkpoint(&self) -> SvdCheckpoint {
        self.tracker.checkpoint()
    }

    /// Rebuild a tracker from a checkpoint; further `incorporate_data`
    /// calls continue the stream exactly where it stopped.
    pub fn restore(cfg: SvdConfig, ckpt: SvdCheckpoint) -> Self {
        Self { tracker: Tracker::restore(cfg, ckpt), qr: LocalQr::new() }
    }
}

/// One-shot K-truncated SVD of the full matrix — the reference the
/// streaming result converges to when `ff = 1`.
pub fn batch_truncated_svd<T: Scalar>(data: &Matrix<T>, k: usize) -> (Matrix<T>, Vec<T>) {
    let f = psvd_linalg::svd(data).truncated(k);
    (f.u, f.s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psvd_linalg::norms::orthogonality_error;
    use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
    use psvd_linalg::validate::{max_principal_angle, spectrum_error};

    fn config_exact(k: usize) -> SvdConfig {
        SvdConfig::new(k).with_forget_factor(1.0)
    }

    #[test]
    fn initialize_matches_batch_svd() {
        let mut rng = seeded_rng(1);
        let a = matrix_with_spectrum(60, 12, &[8.0, 4.0, 2.0, 1.0, 0.5], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(5));
        s.initialize(&a);
        let (u_ref, s_ref) = batch_truncated_svd(&a, 5);
        assert!(spectrum_error(&s_ref, s.singular_values()) < 1e-10);
        assert!(max_principal_angle(&u_ref, s.modes()) < 1e-6);
    }

    #[test]
    fn exact_recovery_for_low_rank_stream() {
        // Rank <= K data: streaming with ff = 1 is EXACT regardless of
        // batching, because no truncation ever discards energy.
        let mut rng = seeded_rng(2);
        let a = matrix_with_spectrum(80, 40, &[5.0, 3.0, 1.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(5));
        s.fit_batched(&a, 8);
        let (u_ref, s_ref) = batch_truncated_svd(&a, 3);
        assert!(spectrum_error(&s_ref, &s.singular_values()[..3]) < 1e-9);
        assert!(max_principal_angle(&u_ref, &s.modes().first_columns(3)) < 1e-6);
        assert_eq!(s.snapshots_seen(), 40);
        assert_eq!(s.iteration(), 4);
    }

    #[test]
    fn near_recovery_for_decaying_spectrum() {
        // General data with a decaying spectrum: streaming is approximate
        // but the leading triplets should agree to a few percent.
        let mut rng = seeded_rng(3);
        let spec: Vec<f64> = (0..30).map(|i| 4.0 * 0.7f64.powi(i)).collect();
        let a = matrix_with_spectrum(100, 30, &spec, &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(8));
        s.fit_batched(&a, 6);
        let (_, s_ref) = batch_truncated_svd(&a, 8);
        for (got, want) in s.singular_values()[..4].iter().zip(&s_ref[..4]) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn modes_stay_orthonormal() {
        let mut rng = seeded_rng(4);
        let a = matrix_with_spectrum(50, 24, &[5.0, 2.5, 1.2, 0.6, 0.3, 0.1], &mut rng);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(4));
        s.fit_batched(&a, 6);
        assert!(orthogonality_error(s.modes()) < 1e-10);
        for w in s.singular_values().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn forget_factor_discounts_history() {
        // Feed two phases with disjoint dominant subspaces; with small ff,
        // the final modes should align with the *recent* phase.
        let mut rng = seeded_rng(5);
        let m = 60;
        let phase1 = {
            let col: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.1).sin()).collect();
            Matrix::from_fn(m, 20, |i, j| col[i] * (1.0 + 0.01 * j as f64))
        };
        let phase2 = matrix_with_spectrum(m, 20, &[3.0], &mut rng);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(1).with_forget_factor(0.3));
        s.initialize(&phase1);
        for _ in 0..5 {
            s.incorporate_data(&phase2);
        }
        let (u2, _) = batch_truncated_svd(&phase2, 1);
        let angle = max_principal_angle(&u2, s.modes());
        assert!(angle < 0.05, "recent phase should dominate, angle = {angle}");
    }

    #[test]
    fn ff_one_beats_small_ff_on_stationary_data() {
        let mut rng = seeded_rng(6);
        let spec: Vec<f64> = (0..20).map(|i| 3.0 * 0.8f64.powi(i)).collect();
        let a = matrix_with_spectrum(80, 40, &spec, &mut rng);
        let (u_ref, _) = batch_truncated_svd(&a, 4);
        let angle = |ff: f64| {
            let mut s = SerialStreamingSvd::new(SvdConfig::new(4).with_forget_factor(ff));
            s.fit_batched(&a, 8);
            max_principal_angle(&u_ref, s.modes())
        };
        assert!(angle(1.0) <= angle(0.5) + 1e-9);
    }

    #[test]
    fn randomized_path_tracks_leading_modes() {
        let mut rng = seeded_rng(7);
        let spec = [10.0, 6.0, 3.0, 0.01, 0.005];
        let a = matrix_with_spectrum(70, 30, &spec, &mut rng);
        let mut s = SerialStreamingSvd::new(
            config_exact(3).with_low_rank(true).with_seed(1).with_power_iterations(2),
        );
        s.fit_batched(&a, 10);
        let (_, s_ref) = batch_truncated_svd(&a, 3);
        for (got, want) in s.singular_values().iter().zip(&s_ref) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn uneven_final_batch_handled() {
        let mut rng = seeded_rng(8);
        let a = matrix_with_spectrum(40, 17, &[2.0, 1.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(2));
        s.fit_batched(&a, 5); // batches of 5,5,5,2
        assert_eq!(s.snapshots_seen(), 17);
        let (_, s_ref) = batch_truncated_svd(&a, 2);
        assert!(spectrum_error(&s_ref, s.singular_values()) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "initialize called twice")]
    fn double_initialize_panics() {
        let a = Matrix::<f64>::identity(4);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(2));
        s.initialize(&a);
        s.initialize(&a);
    }

    #[test]
    #[should_panic(expected = "before initialize")]
    fn incorporate_before_initialize_panics() {
        let a = Matrix::<f64>::identity(4);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(2));
        s.incorporate_data(&a);
    }

    #[test]
    fn k_larger_than_data_clamps() {
        let a = Matrix::<f64>::identity(3);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(10).with_forget_factor(1.0));
        s.initialize(&a);
        assert_eq!(s.modes().cols(), 3);
        assert_eq!(s.singular_values().len(), 3);
    }

    #[test]
    fn projection_roundtrip_in_subspace() {
        let mut rng = seeded_rng(10);
        let a = matrix_with_spectrum(40, 20, &[5.0, 2.0, 1.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(3));
        s.fit_batched(&a, 5);
        // A column of the training data lies in the tracked rank-3 space.
        let x = a.col(7);
        let rec = s.reconstruct(&s.project(&x));
        let err: f64 = x.iter().zip(&rec).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-7 * norm, "in-subspace snapshot must reconstruct: {err}");
        assert!(s.residual_fraction(&x) < 1e-7);
    }

    #[test]
    fn residual_flags_novel_directions() {
        let mut rng = seeded_rng(11);
        let a = matrix_with_spectrum(50, 20, &[4.0, 2.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(2));
        s.fit_batched(&a, 10);
        // A random vector is mostly outside a 2-D subspace of R^50.
        let novel: Vec<f64> = (0..50).map(|i| ((i * 13 + 1) as f64 * 0.7).sin()).collect();
        assert!(
            s.residual_fraction(&novel) > 0.5,
            "novel input should leave a large residual: {}",
            s.residual_fraction(&novel)
        );
    }

    #[test]
    fn fit_source_is_bitwise_fit_batched() {
        use psvd_data::stream::MatrixBatchSource;
        let mut rng = seeded_rng(12);
        let a = matrix_with_spectrum(64, 28, &[6.0, 3.0, 1.5, 0.7], &mut rng);
        let mut by_slice = SerialStreamingSvd::new(config_exact(4));
        by_slice.fit_batched(&a, 5);
        let mut by_source = SerialStreamingSvd::new(config_exact(4));
        by_source.fit_source(&mut MatrixBatchSource::new(&a, 5)).unwrap();
        assert_eq!(by_slice.singular_values(), by_source.singular_values());
        assert_eq!(by_slice.modes(), by_source.modes());
        assert_eq!(by_source.snapshots_seen(), 28);
    }

    fn decaying(m: usize, n: usize, seed: u64) -> Matrix {
        let spec: Vec<f64> = (0..n.min(m)).map(|i| 6.0 * 0.7f64.powi(i as i32)).collect();
        matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
    }

    #[test]
    fn exact_on_low_rank_stream() {
        // Rank 3 < K = 5: every batch after the first lies in the span of
        // the modes, so each residual is round-off.
        let mut rng = seeded_rng(1);
        let a = matrix_with_spectrum(60, 32, &[5.0, 2.0, 1.0], &mut rng);
        let mut s = SerialStreamingSvd::new(config_exact(5));
        s.fit_batched(&a, 8);
        let (u_ref, s_ref) = batch_truncated_svd(&a, 3);
        assert!(spectrum_error(&s_ref, &s.singular_values()[..3]) < 1e-8);
        assert!(max_principal_angle(&u_ref, &s.modes().first_columns(3)) < 1e-5);
        assert_eq!(s.full_stack_updates(), 0, "orthonormal modes must project");
    }

    #[test]
    fn tracks_batch_svd_on_decaying_spectrum() {
        let a = decaying(80, 40, 2);
        let mut s = SerialStreamingSvd::new(config_exact(6));
        s.fit_batched(&a, 10);
        let (_, s_ref) = batch_truncated_svd(&a, 6);
        for (got, want) in s.singular_values()[..3].iter().zip(&s_ref[..3]) {
            assert!((got - want).abs() / want < 0.05, "sigma {got} vs {want}");
        }
    }

    #[test]
    fn basis_stays_orthonormal_over_many_updates() {
        let m = 40;
        let mut s = SerialStreamingSvd::new(SvdConfig::new(4).with_forget_factor(0.99));
        s.initialize(&decaying(m, 6, 100));
        for i in 0..100 {
            s.incorporate_data(&decaying(m, 6, i));
            let err = orthogonality_error(s.modes());
            assert!(err < 1e-8, "drift after {} updates: {err}", i + 1);
        }
        assert_eq!(s.full_stack_updates(), 0, "every update must have projected");
        assert!(s.ortho_drift() <= 1024.0 * f64::EPSILON);
    }

    #[test]
    fn empty_update_is_noop() {
        let a = Matrix::<f64>::identity(4);
        let mut s = SerialStreamingSvd::new(SvdConfig::new(2));
        s.initialize(&a);
        let before = s.modes().clone();
        s.incorporate_data(&Matrix::zeros(4, 0));
        assert_eq!(s.modes(), &before);
        assert_eq!(s.iteration(), 0);
    }
}
