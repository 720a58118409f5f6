//! Property-based tests of the message-passing substrate: random world
//! sizes, roots, message schedules, and payload shapes.

use proptest::prelude::*;
use pyparsvd::comm::{Communicator, NetworkModel, World};

/// Elementwise sum over the world: gathered at rank 0, summed there in
/// rank order, broadcast back — the allreduce the drivers compose.
fn sum_everywhere<C: Communicator>(c: &C, x: Vec<f64>) -> Vec<f64> {
    let total = c.gather(x, 0).map(|parts| {
        let mut acc = vec![0.0; parts[0].len()];
        for part in parts {
            for (a, v) in acc.iter_mut().zip(part) {
                *a += v;
            }
        }
        acc
    });
    c.bcast(total, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gather_any_size_any_root(size in 1usize..10, root_seed in 0usize..100) {
        let root = root_seed % size;
        let w = World::new(size);
        let out = w.run(|c| c.gather(c.rank() as f64 * 3.0, root));
        for (r, o) in out.iter().enumerate() {
            if r == root {
                let expected: Vec<f64> = (0..size).map(|i| i as f64 * 3.0).collect();
                prop_assert_eq!(o.as_ref(), Some(&expected));
            } else {
                prop_assert!(o.is_none());
            }
        }
    }

    #[test]
    fn allreduce_matches_local_sum(size in 1usize..8, vals in proptest::collection::vec(-100.0f64..100.0, 1..6)) {
        let w = World::new(size);
        let vals_ref = &vals;
        let out = w.run(|c| {
            let mine: Vec<f64> = vals_ref.iter().map(|v| v * (c.rank() + 1) as f64).collect();
            sum_everywhere(c, mine)
        });
        // Expected: sum over ranks of v * (r+1) = v * size(size+1)/2.
        let factor = (size * (size + 1) / 2) as f64;
        for flat in out {
            for (j, v) in vals.iter().enumerate() {
                prop_assert!((flat[j] - v * factor).abs() < 1e-9 * (1.0 + v.abs() * factor));
            }
        }
    }

    #[test]
    fn interleaved_p2p_schedules_deliver(size in 2usize..6, n_msgs in 1usize..8) {
        // Every rank sends n_msgs tagged messages to every other rank, then
        // receives them in REVERSE tag order — exercising the out-of-order
        // buffering under arbitrary interleavings.
        let w = World::new(size);
        let out = w.run(|c| {
            for dst in 0..c.size() {
                if dst == c.rank() {
                    continue;
                }
                for m in 0..n_msgs {
                    c.send((c.rank() * 1000 + m) as u64, dst, m as u64);
                }
            }
            let mut sum = 0u64;
            for src in 0..c.size() {
                if src == c.rank() {
                    continue;
                }
                for m in (0..n_msgs).rev() {
                    let v: u64 = c.recv(src, m as u64);
                    prop_assert_eq!(v, (src * 1000 + m) as u64);
                    sum += v;
                }
            }
            Ok(sum)
        });
        for r in out {
            prop_assert!(r.is_ok());
        }
    }

    #[test]
    fn traffic_conservation(size in 2usize..8) {
        // Whatever the collective mix, total sent == total received.
        let w = World::new(size);
        w.run(|c| {
            let all = c.gather(vec![0.0f64; c.rank() + 1], 0);
            let _ = c.bcast(all, 0);
            let _ = sum_everywhere(c, vec![c.now()]);
        });
        let sent: u64 = (0..size).map(|r| w.stats().sent_bytes(r)).sum();
        let recv: u64 = (0..size).map(|r| w.stats().recv_bytes(r)).sum();
        prop_assert_eq!(sent, recv);
        let sent_m: u64 = (0..size).map(|r| w.stats().sent_messages(r)).sum();
        let recv_m: u64 = (0..size).map(|r| w.stats().recv_messages(r)).sum();
        prop_assert_eq!(sent_m, recv_m);
    }

    #[test]
    fn simulated_clocks_never_regress(size in 2usize..6) {
        let w = World::with_model(size, NetworkModel::slow_ethernet());
        let (_, clocks) = w.run_with_clocks(|c| {
            let before = c.now();
            let _ = sum_everywhere(c, vec![1.0; 10]);
            let mid = c.now();
            assert!(mid >= before, "clock regressed across a collective");
            let _ = c.bcast((c.rank() == 0).then_some(mid), 0);
            assert!(c.now() >= mid, "clock regressed across a broadcast");
        });
        for t in clocks {
            prop_assert!(t >= 0.0 && t.is_finite());
        }
    }
}
