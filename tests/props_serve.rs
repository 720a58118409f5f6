//! Property-based tests of the SVD service's invariants: however arrivals
//! are chopped, wherever eviction strikes, and whichever sends are
//! delayed, a session's committed model is a pure function of its column
//! stream. Shrunk proptest counterexamples are promoted to named tests
//! alongside the properties (see DESIGN.md, "Promoting proptest
//! regressions") — each named case calls the same shared property body.

use proptest::prelude::*;
use pyparsvd::linalg::Matrix;
use pyparsvd::prelude::*;
use pyparsvd::serve::{
    BatchQueue, ChaosSpec, CoalescedBatches, ServeError, SessionSpec, SessionState,
};

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

fn snapshots(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        ((i as f64 * 0.59 + j as f64 * 1.31 + seed as f64) * 0.29).sin()
            + 0.3 * ((i as f64 - j as f64 * 1.7) * 0.07).cos()
    })
}

fn spec(rows: usize, ranks: usize, batch: usize) -> SessionSpec {
    SessionSpec::new(2, rows)
        .with_svd(SvdConfig::new(2).with_r1(4).with_r2(4).with_tree_fanout(0))
        .with_ranks(ranks)
        .with_batch(batch)
}

/// Stream `a` into a session through arrival chunks whose widths are drawn
/// from `chop_seed`, draining ready rounds as they form; returns the
/// committed model. The property under test: `chop_seed` must not matter.
fn model_via_arrivals(
    a: &Matrix,
    sp: SessionSpec,
    chop_seed: u64,
) -> pyparsvd::serve::SessionModel {
    let mut q = BatchQueue::new(a.rows(), sp.batch, a.cols() + sp.batch);
    let mut st = SessionState::new(sp);
    let mut rng = chop_seed;
    let mut at = 0;
    while at < a.cols() {
        let w = (1 + lcg(&mut rng) as usize % 4).min(a.cols() - at);
        q.push(a.submatrix(0, a.rows(), at, at + w)).unwrap();
        at += w;
        // Drain with a chop-dependent round grouping too: neither arrival
        // widths nor round boundaries may leak into the model.
        while let Some(round) = q.take_round(1 + lcg(&mut rng) as usize % 3) {
            st.update(&round);
        }
    }
    if let Some(round) = q.take_flush(usize::MAX / 2) {
        st.update(&round);
    }
    st.model()
}

/// Shared body: two different chop seeds, bitwise-identical models.
fn check_arrival_pattern_independence(
    rows: usize,
    cols: usize,
    ranks: usize,
    batch: usize,
    data_seed: u64,
    chop_a: u64,
    chop_b: u64,
) {
    let a = snapshots(rows, cols, data_seed);
    let ma = model_via_arrivals(&a, spec(rows, ranks, batch), chop_a);
    let mb = model_via_arrivals(&a, spec(rows, ranks, batch), chop_b);
    assert_eq!(ma.singular_values, mb.singular_values, "σ depend on arrival chopping");
    assert_eq!(ma.modes, mb.modes, "modes depend on arrival chopping");
    assert_eq!(ma.snapshots_seen, cols);
}

/// Shared body: spill-to-bytes/rehydrate after `evict_after` rounds (0 =
/// before anything committed), bitwise equal to a never-evicted twin.
fn check_eviction_any_point(
    rows: usize,
    n_batches: usize,
    ranks: usize,
    batch: usize,
    data_seed: u64,
    evict_after: usize,
) {
    let a = snapshots(rows, n_batches * batch, data_seed);
    let sp = spec(rows, ranks, batch);
    let mut churned = SessionState::new(sp);
    let mut resident = SessionState::new(sp);
    for b in 0..n_batches {
        if b == evict_after {
            let blob = churned.to_bytes();
            churned = SessionState::from_bytes(sp, &blob).expect("own blob decodes");
        }
        let round =
            CoalescedBatches::from_batches(vec![a.submatrix(0, rows, b * batch, (b + 1) * batch)]);
        churned.update(&round);
        resident.update(&round);
    }
    let (mc, mr) = (churned.model(), resident.model());
    assert_eq!(
        mc.singular_values, mr.singular_values,
        "eviction at round {evict_after} leaked into σ"
    );
    assert_eq!(mc.modes, mr.modes, "eviction at round {evict_after} leaked into modes");
}

/// Shared body: delay-only chaos (no deaths) commits the same bits as an
/// unfaulted twin.
fn check_transient_chaos_bitwise(
    rows: usize,
    n_batches: usize,
    batch: usize,
    data_seed: u64,
    delay_p: f64,
) {
    let a = snapshots(rows, n_batches * batch, data_seed);
    let sp = spec(rows, 2, batch);
    let chaos = ChaosSpec::new(data_seed ^ 0xFA11).with_delay_prob(delay_p, 2);
    let mut faulted = SessionState::new(sp.with_chaos(chaos));
    let mut clean = SessionState::new(sp);
    for b in 0..n_batches {
        let round =
            CoalescedBatches::from_batches(vec![a.submatrix(0, rows, b * batch, (b + 1) * batch)]);
        let plan = chaos.plan_for("prop", faulted.rounds(), 2);
        faulted.update_chaos(&round, &plan);
        clean.update(&round);
    }
    let (mf, mc) = (faulted.model(), clean.model());
    assert_eq!(mf.singular_values, mc.singular_values, "delayed sends leaked into σ");
    assert_eq!(mf.modes, mc.modes, "delayed sends leaked into modes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arrival_pattern_independence(
        rows in 12usize..28,
        cols in 8usize..24,
        ranks in 1usize..3,
        batch in 2usize..5,
        data_seed in 0u64..1000,
        chop_a in 0u64..1000,
        chop_b in 0u64..1000,
    ) {
        // Guard the per-rank tallness requirement for the chosen world.
        prop_assume!(rows / ranks >= batch.max(4) + 2);
        check_arrival_pattern_independence(rows, cols, ranks, batch, data_seed, chop_a, chop_b);
    }

    #[test]
    fn eviction_at_any_round_is_bitwise_invisible(
        rows in 12usize..28,
        n_batches in 2usize..6,
        ranks in 1usize..3,
        batch in 2usize..5,
        data_seed in 0u64..1000,
        evict_frac in 0usize..6,
    ) {
        prop_assume!(rows / ranks >= batch.max(4) + 2);
        let evict_after = evict_frac % (n_batches + 1);
        check_eviction_any_point(rows, n_batches, ranks, batch, data_seed, evict_after);
    }

    #[test]
    fn transient_chaos_commits_bitwise(
        rows in 14usize..24,
        n_batches in 2usize..5,
        batch in 2usize..4,
        data_seed in 0u64..500,
        delay_p in 0.0f64..1.0,
    ) {
        prop_assume!(rows / 2 >= batch.max(4) + 2);
        check_transient_chaos_bitwise(rows, n_batches, batch, data_seed, delay_p);
    }

    #[test]
    fn queue_depth_is_respected(
        rows in 2usize..6,
        batch in 1usize..5,
        depth_extra in 0usize..12,
        ops in proptest::collection::vec((1usize..5, any::<bool>()), 1..40),
    ) {
        let depth = batch + depth_extra;
        let mut q = BatchQueue::new(rows, batch, depth);
        let mut accepted = 0u64;
        for (w, drain) in ops {
            match q.push(Matrix::zeros(rows, w)) {
                Ok(()) => accepted += w as u64,
                Err(full) => {
                    prop_assert_eq!(full.depth, depth);
                    // Rejection is exact: this chunk really would overflow.
                    prop_assert!(full.pending + w > depth);
                }
            }
            prop_assert!(q.pending_snapshots() <= depth, "backpressure breached");
            prop_assert_eq!(q.accepted(), accepted);
            if drain {
                let before = q.pending_snapshots();
                if let Some(round) = q.take_round(2) {
                    prop_assert_eq!(round.snapshots() % batch, 0, "rounds carry full batches");
                    prop_assert_eq!(q.pending_snapshots(), before - round.snapshots());
                }
            }
        }
    }
}

// --- Promoted regressions -------------------------------------------------
// Shrunk counterexamples from exploratory runs of the properties above,
// promoted per DESIGN.md so the cases survive strategy changes.

/// Promoted from `arrival_pattern_independence` (seed pinned by shrink:
/// rows=12, cols=9, ranks=1, batch=4, data_seed=0, chops 0 vs 7). cols=9
/// with batch=4 leaves a 1-column runt AND chop 7 produces an arrival
/// chunk that straddles the final full-batch boundary — the queue's
/// cross-chunk column cursor and the flush's runt cut are both on the
/// line.
#[test]
fn arrival_runt_boundary_case() {
    check_arrival_pattern_independence(12, 9, 1, 4, 0, 0, 7);
}

/// Promoted from `eviction_at_any_round_is_bitwise_invisible` (shrunk:
/// rows=12, n_batches=2, ranks=2, batch=2, data_seed=3, evict_after=0).
/// Eviction *before the first committed round* serializes a session whose
/// checkpoints are still uninitialized (zero snapshots seen) — the blob
/// round-trip must preserve "not yet initialized" rather than fabricating
/// an empty-but-initialized state.
#[test]
fn evict_before_first_batch_case() {
    check_eviction_any_point(12, 2, 2, 2, 3, 0);
}

/// The front door: a spec no session can run is a typed error from `open`
/// and a non-finite chunk a typed error from `submit` — never a panic or a
/// poisoned model — and the server goes on serving its other tenants.
#[test]
fn hostile_specs_are_typed_errors_not_panics() {
    let server = SvdServer::new(ServeConfig::default().with_workers(1));
    server.open("good", spec(12, 2, 4)).unwrap();
    for (why, hostile) in [
        ("ranks = 0", spec(12, 0, 4)),
        ("batch = 0", spec(12, 2, 0)),
        ("rows < ranks * batch", spec(7, 2, 4)),
        ("chaos on one rank", spec(12, 1, 4).with_chaos(ChaosSpec::new(1).with_delay_prob(0.1, 2))),
        ("K = 0", spec(12, 2, 4).with_svd(SvdConfig::new(0))),
        ("r2 < K", spec(12, 2, 4).with_svd(SvdConfig::new(2).with_r2(1))),
        ("r1 = 0", spec(12, 2, 4).with_svd(SvdConfig::new(2).with_r1(0))),
        ("forget factor > 1", spec(12, 2, 4).with_svd(SvdConfig::new(2).with_forget_factor(1.5))),
        ("fanout 1 on two ranks", spec(12, 2, 4).with_svd(SvdConfig::new(2).with_tree_fanout(1))),
    ] {
        let got = server.open("bad", hostile);
        assert!(matches!(got, Err(ServeError::InvalidSpec(_))), "{why}: {got:?}");
    }
    assert_eq!(server.session_count(), 1, "no hostile spec left a session behind");
    server.open("other", spec(12, 2, 4)).unwrap();
    server.submit("other", snapshots(12, 4, 1)).unwrap();
    for bad in [f64::NAN, f64::INFINITY] {
        let mut chunk = snapshots(12, 4, 0);
        chunk[(5, 2)] = bad;
        let got = server.submit("good", chunk);
        assert!(
            matches!(&got, Err(ServeError::NonFinite { tenant }) if tenant == "good"),
            "{bad}: {got:?}"
        );
    }
    assert_eq!(server.stats().snapshot().snapshots_rejected, 8, "both chunks' columns counted");
    server.submit("good", snapshots(12, 4, 0)).unwrap();
    server.drain();
    for tenant in ["good", "other"] {
        assert_eq!(server.singular_values(tenant).unwrap().len(), 2);
        let coeffs = server.project(tenant, snapshots(12, 1, 2).as_slice()).unwrap();
        assert!(coeffs.iter().all(|c| c.is_finite()), "{tenant}: {coeffs:?}");
    }
    server.shutdown();
}
