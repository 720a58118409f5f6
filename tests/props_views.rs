//! Property tests for the zero-copy view layer and the workspace-fed
//! `_into` kernels: every `_into` form must be **bitwise identical** to its
//! allocating counterpart — on contiguous matrices and on strided
//! sub-views — and a warmed-up streaming run must draw every temporary
//! from its workspace without touching the allocator.

use proptest::prelude::*;
use psvd_core::{SerialStreamingSvd, SvdConfig};
use psvd_linalg::gemm::{
    matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn, matmul_tn_into,
};
use psvd_linalg::qr::{qr_thin_into, thin_qr};
use psvd_linalg::random::{gaussian_matrix, seeded_rng};
use psvd_linalg::randomized::{randomized_range_finder, randomized_range_finder_into};
use psvd_linalg::{Matrix, RandomizedConfig, Workspace};

fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    gaussian_matrix(rows, cols, &mut seeded_rng(seed))
}

/// A strided interior block of a larger random matrix, returned both as a
/// copy (for the allocating kernel) and as the parent + bounds (for the
/// view-consuming kernel).
fn strided_case(rows: usize, cols: usize, pad: usize, seed: u64) -> (Matrix, usize, usize) {
    let parent = rand_mat(rows + 2 * pad, cols + 2 * pad, seed);
    (parent, pad, pad)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_into_bitwise_matches_matmul(
        m in 1usize..40,
        k in 1usize..50,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, k, seed);
        let b = rand_mat(k, n, seed.wrapping_add(1));
        let mut c = Matrix::zeros(0, 0);
        matmul_into(a.view(), b.view(), &mut c);
        prop_assert_eq!(c, matmul(&a, &b));
    }

    #[test]
    fn matmul_into_on_strided_views_bitwise_matches_contiguous(
        m in 1usize..32,
        k in 1usize..40,
        n in 1usize..32,
        pad in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let (pa, r0, c0) = strided_case(m, k, pad, seed);
        let (pb, s0, d0) = strided_case(k, n, pad, seed.wrapping_add(7));
        let va = pa.block(r0, r0 + m, c0, c0 + k);
        let vb = pb.block(s0, s0 + k, d0, d0 + n);
        let mut c = Matrix::zeros(0, 0);
        matmul_into(va, vb, &mut c);
        // Packing normalizes the layout, so the strided inputs must give
        // the same bits as dense copies of the same sub-blocks.
        prop_assert_eq!(c, matmul(&va.to_matrix(), &vb.to_matrix()));
    }

    #[test]
    fn matmul_tn_into_bitwise_matches(
        k in 1usize..50,
        m in 1usize..36,
        n in 1usize..36,
        pad in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let (pa, r0, c0) = strided_case(k, m, pad, seed);
        let (pb, s0, d0) = strided_case(k, n, pad, seed.wrapping_add(2));
        let va = pa.block(r0, r0 + k, c0, c0 + m);
        let vb = pb.block(s0, s0 + k, d0, d0 + n);
        let mut c = Matrix::zeros(0, 0);
        matmul_tn_into(va, vb, &mut c);
        prop_assert_eq!(c, matmul_tn(&va.to_matrix(), &vb.to_matrix()));
    }

    #[test]
    fn matmul_nt_into_bitwise_matches(
        m in 1usize..36,
        k in 1usize..50,
        n in 1usize..36,
        pad in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let (pa, r0, c0) = strided_case(m, k, pad, seed);
        let (pb, s0, d0) = strided_case(n, k, pad, seed.wrapping_add(3));
        let va = pa.block(r0, r0 + m, c0, c0 + k);
        let vb = pb.block(s0, s0 + n, d0, d0 + k);
        let mut c = Matrix::zeros(0, 0);
        matmul_nt_into(va, vb, &mut c);
        prop_assert_eq!(c, matmul_nt(&va.to_matrix(), &vb.to_matrix()));
    }

    #[test]
    fn transpose_into_bitwise_matches(
        m in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, n, seed);
        let mut t = Matrix::zeros(0, 0);
        a.transpose_into(&mut t);
        prop_assert_eq!(t, a.transpose());
    }

    #[test]
    fn qr_thin_into_bitwise_matches_thin_qr(
        m in 1usize..48,
        n in 1usize..24,
        pad in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let (pa, r0, c0) = strided_case(m, n, pad, seed);
        let va = pa.block(r0, r0 + m, c0, c0 + n);
        let mut ws = Workspace::new();
        let mut q = Matrix::zeros(0, 0);
        let mut r = Matrix::zeros(0, 0);
        // Twice through the same warm workspace: warm and cold buffers
        // must both give the allocating kernel's bits.
        for _ in 0..2 {
            qr_thin_into(va, &mut q, &mut r, &mut ws);
            let f = thin_qr(&va.to_matrix());
            prop_assert_eq!(&q, &f.q);
            prop_assert_eq!(&r, &f.r);
        }
    }

    #[test]
    fn range_finder_into_bitwise_matches(
        m in 4usize..40,
        n in 2usize..20,
        rank in 1usize..6,
        q_iters in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, n, seed);
        let cfg = RandomizedConfig::new(rank).with_power_iterations(q_iters);
        let reference = randomized_range_finder(&a, &cfg, &mut seeded_rng(seed ^ 0x5eed));
        let mut ws = Workspace::new();
        let mut q = Matrix::zeros(0, 0);
        randomized_range_finder_into(&a, &cfg, &mut seeded_rng(seed ^ 0x5eed), &mut q, &mut ws);
        prop_assert_eq!(&q, &reference);
        // Second pass on warm buffers: same RNG state, same bits, no misses.
        ws.reset_stats();
        randomized_range_finder_into(&a, &cfg, &mut seeded_rng(seed ^ 0x5eed), &mut q, &mut ws);
        prop_assert_eq!(&q, &reference);
        prop_assert_eq!(ws.stats().misses, 0);
    }

    #[test]
    fn vstack_owned_bitwise_matches_vstack_all(
        cols in 1usize..12,
        nblocks in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let blocks: Vec<Matrix> = (0..nblocks)
            .map(|i| {
                let h = ((seed as usize).wrapping_mul(31).wrapping_add(i * 7)) % 10;
                rand_mat(h, cols, seed.wrapping_add(i as u64))
            })
            .collect();
        prop_assert_eq!(Matrix::vstack_owned(blocks.clone()), Matrix::vstack_all(&blocks));
    }

    #[test]
    fn col_views_agree_with_col_copy(
        m in 1usize..30,
        n in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, n, seed);
        for j in 0..n {
            let copied = a.col(j);
            let via_iter: Vec<f64> = a.col_iter(j).collect();
            let via_view: Vec<f64> = (0..m).map(|i| a.col_view(j).at(i, 0)).collect();
            prop_assert_eq!(&via_iter, &copied);
            prop_assert_eq!(&via_view, &copied);
        }
    }

    #[test]
    fn block_view_matches_submatrix(
        m in 2usize..24,
        n in 2usize..24,
        seed in 0u64..1_000,
    ) {
        let a = rand_mat(m, n, seed);
        let (r0, r1, c0, c1) = (m / 4, m - m / 4, n / 4, n - n / 4);
        prop_assert_eq!(a.block(r0, r1, c0, c1).to_matrix(), a.submatrix(r0, r1, c0, c1));
    }
}

#[test]
#[should_panic(expected = "out of")]
fn block_out_of_range_panics() {
    let a = Matrix::<f64>::zeros(3, 3);
    let _ = a.block(1, 5, 0, 2);
}

#[test]
#[should_panic(expected = "inner dimensions mismatch")]
fn matmul_into_shape_mismatch_panics() {
    let a = Matrix::<f64>::zeros(3, 4);
    let b = Matrix::zeros(5, 2);
    let mut c = Matrix::zeros(0, 0);
    matmul_into(a.view(), b.view(), &mut c);
}

/// The tentpole acceptance check: after warm-up, a long streaming run must
/// never miss its workspace or grow a persistent buffer — every batch's
/// temporaries are recycled, so steady state performs zero transient
/// matrix allocations.
#[test]
fn fifty_batch_streaming_run_is_allocation_free_after_warmup() {
    let m = 2000;
    let batch = 6;
    let batches = 50;
    let data = Matrix::from_fn(m, batch * batches, |i, j| {
        ((i * 3 + j) as f64 * 0.013).sin() + 0.1 * ((i + 7 * j) as f64 * 0.031).cos()
    });
    // Materialize the batches up front so the measured window sees only the
    // driver's own allocations, not the test slicing its input.
    let chunks: Vec<Matrix> =
        (0..batches).map(|b| data.submatrix(0, m, b * batch, (b + 1) * batch)).collect();
    let mut svd = SerialStreamingSvd::new(SvdConfig::new(5).with_r1(8).with_r2(8));
    svd.initialize(&chunks[0]);
    // Two warm-up batches populate the workspace pool and size the
    // persistent stack/Q/R buffers.
    for chunk in &chunks[1..3] {
        svd.incorporate_data(chunk);
    }
    svd.reset_scratch_stats();
    let (_, bytes0) = psvd_linalg::alloc_stats::snapshot();
    for chunk in &chunks[3..] {
        svd.incorporate_data(chunk);
    }
    let stats = svd.scratch_stats();
    assert!(stats.takes > 0, "the hot loop must draw from the workspace");
    assert_eq!(stats.misses, 0, "steady state must never miss the workspace");
    assert_eq!(stats.fresh_bytes, 0, "steady state must not allocate scratch");
    // Cross-check with the global Matrix allocation ledger: only the small
    // O((K+B)^2) core-SVD factors may allocate, never anything O(M). The
    // ledger is process-wide and sibling tests run concurrently, so this
    // bound is enforced only in single-threaded runs.
    let (_, bytes1) = psvd_linalg::alloc_stats::snapshot();
    if std::env::var_os("RUST_TEST_THREADS").is_some_and(|v| v == *"1") {
        let per_update = (bytes1 - bytes0) / (batches as u64 - 3);
        assert!(
            per_update < (m as u64) * 8,
            "steady-state update allocated {per_update} bytes — an O(M) transient slipped in"
        );
    }
    assert_eq!(svd.singular_values().len(), 5);
    assert_eq!(svd.modes().shape(), (m, 5));
}
