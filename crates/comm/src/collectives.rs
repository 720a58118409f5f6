//! Tree-structured collectives.
//!
//! The paper's APMOS gathers every rank's `W` block *directly* at rank 0
//! (Listing 3) — a flat gather whose root-side cost grows linearly in the
//! world size and is the main deviation from ideal weak scaling at high
//! rank counts. These binomial-tree variants move the same payloads in
//! `O(log P)` rounds, spreading the per-message endpoint overhead across
//! internal nodes. They are drop-in alternatives built purely on the
//! [`Communicator`] point-to-point primitives, so traffic recording and the
//! simulated clocks apply unchanged.

use crate::communicator::Communicator;
use crate::error::CommError;
use crate::payload::Payload;

/// Binomial-tree gather: like [`Communicator::gather`] (one value per rank,
/// rank order, `Some` at root only) but in `O(log P)` rounds.
pub fn try_tree_gather<C: Communicator, T: Payload>(
    comm: &C,
    value: T,
    root: usize,
) -> Result<Option<Vec<T>>, CommError> {
    let tag = comm.next_collective_tag();
    let size = comm.size();
    let rank = comm.rank();
    let relative = (rank + size - root) % size;

    // Accumulate (original_rank, value) pairs up the tree.
    let mut acc: Vec<(usize, T)> = vec![(rank, value)];
    let mut step = 1usize;
    while step < size {
        if relative.is_multiple_of(2 * step) {
            let src_rel = relative + step;
            if src_rel < size {
                let src = (src_rel + root) % size;
                let mut received: Vec<(usize, T)> = comm.try_recv(src, tag)?;
                acc.append(&mut received);
            }
        } else {
            let dst_rel = relative - step;
            let dst = (dst_rel + root) % size;
            comm.try_send(acc, dst, tag)?;
            return Ok(None);
        }
        step *= 2;
    }
    // Root: order by original rank.
    acc.sort_by_key(|(r, _)| *r);
    debug_assert_eq!(acc.len(), size, "tree gather must collect every rank");
    Ok(Some(acc.into_iter().map(|(_, v)| v).collect()))
}

/// Binomial-tree broadcast: like [`Communicator::bcast`] but in
/// `O(log P)` rounds.
pub fn try_tree_bcast<C: Communicator, T: Payload + Clone>(
    comm: &C,
    value: Option<T>,
    root: usize,
) -> Result<T, CommError> {
    let tag = comm.next_collective_tag();
    let size = comm.size();
    let rank = comm.rank();
    let relative = (rank + size - root) % size;

    // Receive from the parent (clear the lowest set bit of `relative`).
    let (v, recv_mask) = if relative == 0 {
        let mut m = 1usize;
        while m < size {
            m <<= 1;
        }
        (value.expect("tree_bcast: root must supply a value"), m)
    } else {
        let mut mask = 1usize;
        while relative & mask == 0 {
            mask <<= 1;
        }
        let parent_rel = relative - mask;
        let parent = (parent_rel + root) % size;
        (comm.try_recv::<T>(parent, tag)?, mask)
    };

    // Forward to children: relative + m for every m below the receive bit.
    let mut m = recv_mask >> 1;
    while m > 0 {
        let child_rel = relative + m;
        if child_rel < size {
            let child = (child_rel + root) % size;
            comm.try_send(v.clone(), child, tag)?;
        }
        m >>= 1;
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkModel;
    use crate::thread_comm::World;

    #[test]
    fn try_tree_gather_matches_flat_gather() {
        for size in [1usize, 2, 3, 4, 5, 7, 8, 9, 16] {
            let w = World::new(size);
            let out = w.run(|c| try_tree_gather(c, c.rank() as f64 * 2.0, 0).unwrap());
            let expected: Vec<f64> = (0..size).map(|r| r as f64 * 2.0).collect();
            assert_eq!(out[0], Some(expected), "size {size}");
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn try_tree_gather_nonzero_root() {
        let w = World::new(6);
        let out = w.run(|c| try_tree_gather(c, c.rank(), 4).unwrap());
        assert_eq!(out[4], Some(vec![0, 1, 2, 3, 4, 5]));
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o.is_some(), r == 4);
        }
    }

    #[test]
    fn try_tree_bcast_matches_flat_bcast() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            let w = World::new(size);
            let out = w.run(|c| {
                let v = if c.rank() == 0 { Some(vec![1.5, 2.5]) } else { None };
                try_tree_bcast(c, v, 0).unwrap()
            });
            for v in out {
                assert_eq!(v, vec![1.5, 2.5], "size {size}");
            }
        }
    }

    #[test]
    fn try_tree_bcast_nonzero_root() {
        let w = World::new(7);
        let out = w.run(|c| {
            let v = if c.rank() == 3 { Some(c.rank() as f64) } else { None };
            try_tree_bcast(c, v, 3).unwrap()
        });
        for v in out {
            assert_eq!(v, 3.0);
        }
    }

    #[test]
    fn tree_and_flat_interleave_safely() {
        // Collective tag sequencing must keep tree and flat rounds separate.
        let w = World::new(4);
        let out = w.run(|c| {
            let a = try_tree_gather(c, c.rank(), 0).unwrap();
            let b = c.gather(c.rank() * 10, 0);
            let d = try_tree_bcast(c, a.map(|v| v.len()), 0).unwrap();
            (b, d)
        });
        assert_eq!(out[0].0, Some(vec![0, 10, 20, 30]));
        for (_, d) in out {
            assert_eq!(d, 4);
        }
    }

    #[test]
    fn try_tree_gather_reduces_root_overhead_at_scale() {
        // With per-message endpoint overhead only, the flat gather charges
        // the root O(P) overheads; the tree charges O(log P).
        let model = NetworkModel { latency: 0.0, bandwidth: f64::INFINITY, overhead: 1e-6 };
        let size = 32;

        let flat = World::with_model(size, model);
        let (_, flat_clocks) = flat.run_with_clocks(|c| {
            c.gather(0.0f64, 0);
        });
        let tree = World::with_model(size, model);
        let (_, tree_clocks) = tree.run_with_clocks(|c| {
            try_tree_gather(c, 0.0f64, 0).unwrap();
        });
        assert!(
            tree_clocks[0] < flat_clocks[0] / 2.0,
            "tree root clock {} should beat flat {}",
            tree_clocks[0],
            flat_clocks[0]
        );
    }

    #[test]
    fn tree_collectives_payload_volume() {
        // The tree moves each value ~once (plus pair envelope framing):
        // total messages = P - 1 for gather, same as flat; what changes is
        // *who* handles them.
        let size = 8;
        let w = World::new(size);
        w.run(|c| {
            try_tree_gather(c, vec![0.0f64; 100], 0).unwrap();
        });
        assert_eq!(w.stats().total_messages() as usize, size - 1);
    }
}
