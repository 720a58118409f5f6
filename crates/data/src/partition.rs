//! Row-block domain decomposition.
//!
//! APMOS assumes each rank holds a contiguous block of grid points (matrix
//! rows). These helpers produce balanced blocks: the first `m % n_ranks`
//! ranks receive one extra row.

use psvd_linalg::{Matrix, Scalar};

/// Half-open row range `[start, end)` owned by `rank` out of `n_ranks` when
/// distributing `m` rows. Balanced: sizes differ by at most one.
pub fn block_range(m: usize, n_ranks: usize, rank: usize) -> (usize, usize) {
    assert!(n_ranks > 0, "need at least one rank");
    assert!(rank < n_ranks, "rank {rank} out of range for {n_ranks} ranks");
    let base = m / n_ranks;
    let extra = m % n_ranks;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    (start, start + len)
}

/// Number of rows owned by `rank`.
pub fn block_len(m: usize, n_ranks: usize, rank: usize) -> usize {
    let (a, b) = block_range(m, n_ranks, rank);
    b - a
}

/// Split a matrix into per-rank row blocks (cloned).
pub fn split_rows<T: Scalar>(a: &Matrix<T>, n_ranks: usize) -> Vec<Matrix<T>> {
    (0..n_ranks)
        .map(|r| {
            let (start, end) = block_range(a.rows(), n_ranks, r);
            a.row_block(start, end)
        })
        .collect()
}

/// Reassemble per-rank row blocks into the global matrix.
pub fn join_rows<T: Scalar>(blocks: &[Matrix<T>]) -> Matrix<T> {
    Matrix::vstack_all(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_exactly() {
        for m in [0, 1, 7, 100, 101, 103] {
            for n in [1, 2, 3, 4, 7, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for r in 0..n {
                    let (s, e) = block_range(m, n, r);
                    assert_eq!(s, prev_end, "blocks must be contiguous");
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, m, "m={m} n={n}");
                assert_eq!(prev_end, m);
            }
        }
    }

    #[test]
    fn balance_within_one() {
        for m in [10, 11, 99] {
            for n in [3, 4, 7] {
                let lens: Vec<usize> = (0..n).map(|r| block_len(m, n, r)).collect();
                let mx = *lens.iter().max().unwrap();
                let mn = *lens.iter().min().unwrap();
                assert!(mx - mn <= 1, "m={m} n={n} lens={lens:?}");
            }
        }
    }

    #[test]
    fn split_join_roundtrip() {
        let a = Matrix::from_fn(23, 5, |i, j| (i * 5 + j) as f64);
        for n in [1, 2, 4, 5] {
            let blocks = split_rows(&a, n);
            assert_eq!(blocks.len(), n);
            assert_eq!(join_rows(&blocks), a);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_out_of_range_panics() {
        block_range(10, 2, 2);
    }
}
