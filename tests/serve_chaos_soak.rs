//! Chaos soak for the SVD service: many tenants stream snapshots through
//! a server whose every session runs under a seeded fault schedule —
//! delayed/reordered messages and periodic mid-stream rank deaths. The
//! conformance bar is the library's strongest guarantee: after the soak,
//! every surviving session's model (singular values AND modes) is
//! **bitwise identical** to an unfaulted twin replay of the same column
//! stream. Delays must leave no trace and deaths must be healed by
//! whole-round replay from checkpoints, with zero numeric residue — on the
//! randomized (`low_rank`) path too, which every fourth tenant takes.

use pyparsvd::prelude::*;
use pyparsvd::serve::{
    ChaosSpec, CoalescedBatches, ServeConfig, ServeError, SessionSpec, SessionState, SvdServer,
};

const SESSIONS: usize = 25;
const BATCHES_PER_SESSION: usize = 42;
const BATCH: usize = 3;
const ROWS: usize = 18;

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

fn svd_cfg(idx: usize) -> SvdConfig {
    SvdConfig::new(2).with_r1(4).with_r2(4).with_tree_fanout(0).with_low_rank(idx % 4 == 3)
}

fn tenant_ranks(idx: usize) -> usize {
    2 + idx % 2
}

fn stream_of(idx: usize) -> Matrix {
    Matrix::from_fn(ROWS, BATCHES_PER_SESSION * BATCH, |i, j| {
        ((i as f64 * 0.61 + j as f64 * 1.07 + idx as f64 * 5.0) * 0.23).sin()
            + 0.4 * ((i as f64 - 1.5 * j as f64 + idx as f64) * 0.13).cos()
    })
}

#[test]
fn chaos_soak_commits_bitwise_clean_models() {
    let chaos = ChaosSpec::new(0xC0FF_EE00_5EED).with_delay_prob(0.5, 2).with_death_every(7);
    let server = SvdServer::new(
        ServeConfig::default().with_workers(4).with_round_batches(3).with_queue_depth(256),
    );

    let mut tenants = Vec::new();
    for idx in 0..SESSIONS {
        let tenant = format!("tenant-{idx:02}");
        let spec = SessionSpec::new(2, ROWS)
            .with_svd(svd_cfg(idx))
            .with_ranks(tenant_ranks(idx))
            .with_batch(BATCH)
            .with_chaos(chaos);
        server.open(&tenant, spec).unwrap();
        tenants.push((tenant, stream_of(idx)));
    }

    // Interleave arrivals across tenants in seed-chopped chunk widths, so
    // sessions contend for workers while their columns stay in order.
    let mut rng = 0x5EED_0001;
    let mut cursor = [0usize; SESSIONS];
    let mut live = SESSIONS;
    while live > 0 {
        for (idx, (tenant, stream)) in tenants.iter().enumerate() {
            let at = cursor[idx];
            if at == stream.cols() {
                continue;
            }
            let width = (1 + lcg(&mut rng) as usize % 5).min(stream.cols() - at);
            let chunk = stream.submatrix(0, ROWS, at, at + width);
            match server.submit(tenant, chunk.clone()) {
                Ok(()) => {}
                Err(ServeError::QueueFull { .. }) => {
                    server.drain();
                    server.submit(tenant, chunk).expect("drained queue accepts");
                }
                Err(e) => panic!("submit failed: {e}"),
            }
            cursor[idx] += width;
            if cursor[idx] == stream.cols() {
                live -= 1;
            }
        }
    }
    server.flush_all();
    server.drain();

    // The soak must actually have soaked: >= 1000 batch updates committed
    // under live faults, with at least one permanent death healed.
    let snap = server.stats().snapshot();
    assert_eq!(snap.snapshots_processed as usize, SESSIONS * BATCHES_PER_SESSION * BATCH);
    assert!(snap.updates >= 1000, "only {} session-updates soaked", snap.updates);
    assert!(snap.faults_absorbed > 0, "fault schedules never fired");
    assert!(snap.replays > 0, "no rank death was ever replayed");

    // Every session must agree bitwise with a fault-free twin fed the same
    // column stream (round partitioning is irrelevant: checkpoint-in /
    // checkpoint-out rounds are invisible).
    for (idx, (tenant, stream)) in tenants.iter().enumerate() {
        let served = server.model(tenant).unwrap();
        let twin_spec = SessionSpec::new(2, ROWS)
            .with_svd(svd_cfg(idx))
            .with_ranks(tenant_ranks(idx))
            .with_batch(BATCH);
        let mut twin = SessionState::new(twin_spec);
        for b in 0..BATCHES_PER_SESSION {
            let batch = stream.submatrix(0, ROWS, b * BATCH, (b + 1) * BATCH);
            let report = twin.update(&CoalescedBatches::from_batches(vec![batch]));
            assert!(!report.replayed, "twin runs unfaulted");
        }
        let clean = twin.model();
        assert_eq!(
            served.singular_values, clean.singular_values,
            "{tenant}: singular values diverged under chaos"
        );
        assert_eq!(served.modes, clean.modes, "{tenant}: modes diverged under chaos");
        assert_eq!(served.snapshots_seen, clean.snapshots_seen);
    }
    server.shutdown();
}
