//! Property-based tests of the streaming and distributed drivers'
//! invariants: whatever the data, batching, K, or rank count, the trackers
//! must keep their contracts.

use proptest::prelude::*;
use pyparsvd::core::SvdCheckpoint;
use pyparsvd::data::partition::split_rows;
use pyparsvd::linalg::gemm::{matmul, matmul_tn};
use pyparsvd::linalg::norms::orthogonality_error;
use pyparsvd::linalg::random::{gaussian_matrix, matrix_with_spectrum, seeded_rng};
use pyparsvd::linalg::validate::{max_principal_angle, spectrum_error};
use pyparsvd::linalg::{thin_qr, Matrix};
use pyparsvd::prelude::*;

/// Random tall snapshot matrices with a controlled decaying spectrum.
fn snapshot_strategy() -> impl Strategy<Value = Matrix> {
    (20usize..60, 8usize..24, 0u64..10_000).prop_map(|(m, n, seed)| {
        let p = m.min(n);
        let spec: Vec<f64> = (0..p).map(|i| 5.0 * 0.75f64.powi(i as i32)).collect();
        matrix_with_spectrum(m, n, &spec, &mut seeded_rng(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn streaming_invariants_hold_for_any_batching(
        a in snapshot_strategy(),
        batch in 2usize..10,
        k in 1usize..6,
        ff in 0.5f64..1.0,
    ) {
        let mut s = SerialStreamingSvd::new(SvdConfig::new(k).with_forget_factor(ff));
        s.fit_batched(&a, batch);
        // Mode count clamps to available data.
        prop_assert!(s.modes().cols() <= k);
        prop_assert_eq!(s.modes().cols(), s.singular_values().len());
        // Orthonormality and ordering always hold.
        prop_assert!(orthogonality_error(s.modes()) < 1e-9);
        for w in s.singular_values().windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        for &v in s.singular_values() {
            prop_assert!(v >= 0.0 && v.is_finite());
        }
        prop_assert_eq!(s.snapshots_seen(), a.cols());
    }

    #[test]
    fn exactness_on_rank_deficient_streams(
        m in 30usize..60,
        n_batches in 2usize..5,
        seed in 0u64..1000,
    ) {
        // Data of exact rank 3 streamed with ff = 1: the K=5 tracker must
        // recover the batch SVD exactly (no energy is ever truncated away).
        let n = n_batches * 7;
        let a = matrix_with_spectrum(m, n, &[4.0, 2.0, 1.0], &mut seeded_rng(seed));
        let mut s = SerialStreamingSvd::new(SvdConfig::new(5).with_forget_factor(1.0));
        s.fit_batched(&a, 7);
        let (u_ref, s_ref) = batch_truncated_svd(&a, 3);
        prop_assert!(spectrum_error(&s_ref, &s.singular_values()[..3]) < 1e-8);
        prop_assert!(max_principal_angle(&u_ref, &s.modes().first_columns(3)) < 1e-5);
    }

    #[test]
    fn parallel_singular_values_identical_on_all_ranks(
        a in snapshot_strategy(),
        n_ranks in 2usize..5,
        k in 1usize..4,
    ) {
        // Guard the TSQR tallness requirement: local rows >= stacked cols.
        let needed = (k + a.cols()).max(1);
        prop_assume!(a.rows() / n_ranks >= needed);
        let blocks = split_rows(&a, n_ranks);
        let cfg = SvdConfig::new(k).with_r1(a.cols()).with_r2(a.cols());
        let world = World::new(n_ranks);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&blocks[comm.rank()], a.cols());
            d.singular_values().to_vec()
        });
        for r in 1..n_ranks {
            prop_assert_eq!(&out[0], &out[r], "rank {} disagrees with rank 0", r);
        }
    }

    #[test]
    fn apmos_matches_batch_svd_without_truncation(
        a in snapshot_strategy(),
        n_ranks in 2usize..5,
    ) {
        prop_assume!(a.rows() >= n_ranks * 2);
        let k = 3.min(a.cols());
        let cfg = SvdConfig::new(k).with_r1(a.cols()).with_r2(a.cols());
        let blocks = split_rows(&a, n_ranks);
        let world = World::new(n_ranks);
        let out = world.run(|comm| parallel_svd_once(comm, cfg, &blocks[comm.rank()]));
        let (_, s_ref) = batch_truncated_svd(&a, k);
        prop_assert!(
            spectrum_error(&s_ref, &out[0].1) < 1e-7,
            "APMOS spectrum {:?} vs batch {:?}", out[0].1, s_ref
        );
    }

    #[test]
    fn gathered_modes_are_orthonormal(
        a in snapshot_strategy(),
        n_ranks in 2usize..4,
    ) {
        prop_assume!(a.rows() >= n_ranks * 2);
        let k = 2.min(a.cols());
        let cfg = SvdConfig::new(k).with_r1(a.cols()).with_r2(a.cols());
        let blocks = split_rows(&a, n_ranks);
        let world = World::new(n_ranks);
        let out = world.run(|comm| {
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.initialize(&blocks[comm.rank()]);
            d.gather_modes(0)
        });
        let modes = out[0].as_ref().unwrap();
        prop_assert!(orthogonality_error(modes) < 1e-8);
    }
}

/// One full-stack update from a driver's state, the projection's oracle:
/// thin-QR `[ff·U·diag(s) | A]`, SVD its `R`, keep `K` columns of `Q·U'`.
/// Returns those modes and the stack's whole spectrum.
fn full_stack_update(u: &Matrix, s: &[f64], a: &Matrix, ff: f64, k: usize) -> (Matrix, Vec<f64>) {
    let weighted: Vec<f64> = s.iter().map(|&x| x * ff).collect();
    let f = thin_qr(&u.mul_diag(&weighted).hstack(a));
    let g = svd(&f.r);
    (matmul(&f.q, &g.u.first_columns(k.min(g.s.len()))), g.s)
}

/// `‖V − U·UᵀV‖_F`, an upper bound on the sine of the largest principal
/// angle from span(V) to span(U). Unlike an arccosine it resolves angles
/// down to round-off.
fn subspace_sin(u: &Matrix, v: &Matrix) -> f64 {
    (v - &matmul(u, &matmul_tn(u, v))).frobenius_norm()
}

/// Agreement demanded of one projected update against the full stack,
/// relative to the stack's largest singular value, and the largest
/// `max|UᵀU − I|` the update may be handed.
#[derive(Clone, Copy)]
struct Tol {
    sigma: f64,
    angle: f64,
    drift: f64,
}

/// Feed `a` to the driver and hold its new state against the full-stack
/// oracle run from its previous state: every kept σ (a value either side
/// lacks counts as a zero), and the subspace of the leading
/// modes wherever the stack's spectrum separates them from the rest.
fn step_against_full_stack(
    d: &mut SerialStreamingSvd,
    a: &Matrix,
    tol: Tol,
) -> Result<(), TestCaseError> {
    let (ff, k) = (d.config().forget_factor, d.config().k);
    let (u_ref, s_ref) = full_stack_update(d.modes(), d.singular_values(), a, ff, k);
    let full_before = d.full_stack_updates();
    d.incorporate_data(a);
    prop_assert_eq!(d.full_stack_updates(), full_before, "the modes must project");
    let (u, s) = (d.modes(), d.singular_values());
    let s1 = s_ref[0].max(f64::MIN_POSITIVE);
    prop_assert!(s.len() <= k);
    for (j, want) in s_ref.iter().take(k).enumerate() {
        let got = s.get(j).copied().unwrap_or(0.0);
        let err = (got - want).abs() / s1;
        prop_assert!(
            err <= tol.sigma,
            "sigma_{} {} vs full stack {} (rel {:.2e})",
            j,
            got,
            want,
            err
        );
    }
    let gap = |j: usize| s_ref[j - 1] - s_ref.get(j).copied().unwrap_or(0.0);
    let separated = |j: &usize| s_ref[j - 1] > 1e-6 * s1 && gap(*j) > 1e-3 * s1;
    if let Some(j) = (1..=s.len()).rev().find(separated) {
        let sin = subspace_sin(&u_ref.first_columns(j), &u.first_columns(j));
        prop_assert!(sin <= tol.angle, "leading {} modes off the full stack by {:.2e}", j, sin);
    }
    prop_assert!(d.ortho_drift() <= tol.drift, "handed drift {:.2e}", d.ortho_drift());
    Ok(())
}

/// `u·(I + t·Z)` for a Gaussian `Z`, with `t` bisected so that the Gram
/// matrix of the result misses `I` by `dev` in its largest entry.
fn skewed_modes(u: &Matrix, dev: f64, seed: u64) -> Matrix {
    let k = u.cols();
    let z = gaussian_matrix(k, k, &mut seeded_rng(seed));
    let g = matmul_tn(u, u);
    let mix = |t: f64| &Matrix::identity(k) + &z.map(|x| t * x);
    let miss = |t: f64| {
        let e = mix(t);
        (&matmul_tn(&e, &matmul(&g, &e)) - &Matrix::identity(k)).max_abs()
    };
    let (mut lo, mut hi) = (0.0, 1.0);
    while miss(hi) < dev {
        hi *= 2.0;
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if miss(mid) < dev {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    matmul(u, &mix(hi))
}

/// Stream the adversarial batches through the projection update,
/// checking every update against the full stack: `b` columns per batch,
/// so `K` fills only after a few batches when `b < K`. Then restore the
/// state with its modes skewed to `max|UᵀU − I| = drift`, which must
/// still project, and with a mode duplicated, which must not.
fn projection_tracks_full_stack(
    m: usize,
    k: usize,
    b: usize,
    ff: f64,
    seed: u64,
    drift: f64,
    tol: Tol,
) -> Result<(), TestCaseError> {
    let spec: Vec<f64> = (0..4 * b).map(|i| 5.0 * 0.6f64.powi(i as i32)).collect();
    let data = matrix_with_spectrum(m, 4 * b, &spec, &mut seeded_rng(seed));
    let batch = |i: usize| data.submatrix(0, m, i * b, (i + 1) * b);
    let cfg = SvdConfig::new(k).with_forget_factor(ff);
    let mut d = SerialStreamingSvd::new(cfg);
    d.initialize(&batch(0));
    step_against_full_stack(&mut d, &batch(1), tol)?;
    // A batch inside span(U): its residual is round-off.
    let coef = gaussian_matrix(d.modes().cols(), b, &mut seeded_rng(seed + 1));
    let inside = matmul(d.modes(), &coef);
    step_against_full_stack(&mut d, &inside, tol)?;
    // A near-duplicate of the last fresh batch: a residual at 1e-8.
    let noise = gaussian_matrix(m, b, &mut seeded_rng(seed + 2));
    let near = &batch(1) + &noise.map(|x| x * 1e-8);
    step_against_full_stack(&mut d, &near, tol)?;
    // Its first column inside span(U), the rest fresh: a residual whose
    // leading column is zero, so unpivoted QR is not rank-revealing.
    let mixed = inside.submatrix(0, m, 0, 1).hstack(&batch(2).submatrix(0, m, 1, b));
    step_against_full_stack(&mut d, &mixed, tol)?;
    step_against_full_stack(&mut d, &Matrix::zeros(m, b), tol)?;
    step_against_full_stack(&mut d, &batch(2), tol)?;
    step_against_full_stack(&mut d, &batch(3), tol)?;
    // Restored from modes U·(I + E): the measured UᵀU is folded into the
    // core, so the update projects and matches the full stack, and the
    // modes it leaves are orthonormal again. Unless a Cholesky pivot of
    // UᵀU (|diag R| of a Householder QR of the modes) is at most ½: then
    // it re-factors the full stack.
    let ckpt = d.checkpoint();
    let skewed = skewed_modes(&ckpt.modes, drift, seed + 3);
    let planted = (&matmul_tn(&skewed, &skewed) - &Matrix::identity(skewed.cols())).max_abs();
    prop_assert!((1e-12..=0.4).contains(&planted), "planted drift {:.2e}", planted);
    let r = thin_qr(&skewed).r;
    let pivots_clear = (0..r.rows()).all(|i| r[(i, i)].abs() > 0.5);
    let mut d = SerialStreamingSvd::restore(cfg, SvdCheckpoint { modes: skewed, ..ckpt.clone() });
    let fresh = |s: u64| gaussian_matrix(m, b, &mut seeded_rng(s));
    if pivots_clear {
        step_against_full_stack(&mut d, &fresh(seed + 4), Tol { drift: 2.0 * planted, ..tol })?;
        prop_assert!(d.ortho_drift() >= 0.5 * planted, "handed {:.2e}", d.ortho_drift());
        step_against_full_stack(&mut d, &fresh(seed + 5), tol)?;
    } else {
        d.incorporate_data(&fresh(seed + 4));
        prop_assert_eq!(d.full_stack_updates(), 1, "a pivot at most ½ must take the full stack");
    }
    // A duplicated mode: UᵀU is singular and misses I by 1, so the
    // update re-factors the full stack.
    let mut dup = ckpt.modes.clone();
    for i in 0..m {
        dup[(i, 1)] = dup[(i, 0)];
    }
    let mut d = SerialStreamingSvd::restore(cfg, SvdCheckpoint { modes: dup, ..ckpt });
    d.incorporate_data(&fresh(seed + 4));
    prop_assert_eq!(d.full_stack_updates(), 1, "duplicated modes must take the full stack");
    prop_assert!(orthogonality_error(d.modes()) < 1e-12);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn projection_matches_the_full_stack(
        m in 30usize..60,
        k in 2usize..7,
        b in 2usize..6,
        ff_one in any::<bool>(),
        seed in 0u64..10_000,
        drift_exp in -12.0f64..-0.4,
    ) {
        let ff = if ff_one { 1.0 } else { 0.95 };
        let tol = Tol { sigma: 1e-10, angle: 1e-8, drift: 1024.0 * f64::EPSILON };
        projection_tracks_full_stack(m, k, b, ff, seed, 10f64.powf(drift_exp), tol)?;
    }
}

/// A long stream at a realistic shape: the projection's drift, as every
/// update measures it, stays within 1024 ulps, and no update re-factors
/// the full stack. Every tenth batch nearly duplicates the one before.
#[test]
#[ignore = "3000 updates at 6000 x (24 + 8); run in release with -- --ignored"]
fn projection_drift_never_reaches_the_gate() {
    let (m, k, b, updates) = (6000, 24, 8, 3000);
    let spec: Vec<f64> = (0..32).map(|i| 4.0 * 0.85f64.powi(i)).collect();
    let planted = matrix_with_spectrum(m, 32, &spec, &mut seeded_rng(11));
    for ff in [0.95, 1.0] {
        let mut rng = seeded_rng(12);
        let cfg = SvdConfig::new(k).with_forget_factor(ff);
        let gate = 1024.0 * f64::EPSILON;
        let mut d = SerialStreamingSvd::new(cfg);
        let mut last = &matmul(&planted, &gaussian_matrix(32, b, &mut rng))
            + &gaussian_matrix(m, b, &mut rng).map(|x| 1e-3 * x);
        d.initialize(&last);
        for i in 1..=updates {
            let fresh = if i % 10 == 0 { 1e-9 } else { 1.0 };
            let batch = &last.map(|x| (1.0 - fresh) * x)
                + &(&matmul(&planted, &gaussian_matrix(32, b, &mut rng))
                    + &gaussian_matrix(m, b, &mut rng).map(|x| 1e-3 * x))
                    .map(|x| fresh * x);
            d.incorporate_data(&batch);
            assert!(d.ortho_drift() <= gate, "ff {ff}, update {i}: drift {:e}", d.ortho_drift());
            last = batch;
        }
        assert_eq!(d.full_stack_updates(), 0, "ff {ff}: an update took the full stack");
        assert!(orthogonality_error(d.modes()) <= gate, "ff {ff}: final modes drifted");
    }
}
