//! Configuration shared by the serial and parallel drivers.

use psvd_linalg::randomized::randomized_svd;
use psvd_linalg::{svd, Matrix, Scalar, Svd};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Why an [`SvdConfig`] cannot drive a factorization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `k == 0`: there is nothing to track.
    ZeroK,
    /// The forget factor lies outside `(0, 1]` (or is NaN).
    ForgetFactor(f64),
    /// `r1 == 0`: no local right vectors would be communicated.
    ZeroR1,
    /// `r2 < k`: the driver reconstructs `K` modes from `r2` columns.
    R2BelowK { r2: usize, k: usize },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroK => write!(f, "K must be positive"),
            ConfigError::ForgetFactor(ff) => {
                write!(f, "forget factor must be in (0, 1], got {ff}")
            }
            ConfigError::ZeroR1 => write!(f, "r1 must be positive"),
            ConfigError::R2BelowK { r2, k } => write!(
                f,
                "r2 ({r2}) must be at least K ({k}): the driver reconstructs K modes from r2 columns"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of the streaming / distributed / randomized SVD.
///
/// Defaults follow the paper: `forget_factor = 0.95`, `r1 = 50`
/// local right-vector columns, `r2 = K` retained global columns, and
/// deterministic inner SVDs unless `low_rank` is set.
#[derive(Clone, Copy, Debug)]
pub struct SvdConfig {
    /// Number of leading modes `K` to track.
    pub k: usize,
    /// Forget factor `ff ∈ (0, 1]`; `1.0` weighs all batches equally.
    pub forget_factor: f64,
    /// APMOS local truncation: columns of `Vⁱ`/`Σⁱ` communicated to rank 0.
    pub r1: usize,
    /// APMOS global truncation: columns of `X`/`Λ` broadcast back.
    pub r2: usize,
    /// Use the randomized low-rank SVD for every inner factorization
    /// (serial update, TSQR's final `R`, the projection core, the APMOS
    /// root and merge-tree nodes).
    pub low_rank: bool,
    /// Oversampling for the randomized path (every driver honours it).
    pub oversampling: usize,
    /// Power iterations for the randomized path (every driver honours it).
    pub power_iterations: usize,
    /// Seed for the randomized path. A stream's first batch draws from it
    /// and each later step from a pure function of it and the step's
    /// ordinal; a merge-tree node draws from it plus its stack's width.
    pub seed: u64,
    /// Merge-tree fanout: children per interior merge node in the
    /// hierarchical APMOS exchange. `None` keeps the flat rank-0 gather;
    /// see [`crate::MergeTreePlan::resolve`].
    pub tree_fanout: Option<usize>,
}

impl SvdConfig {
    /// Paper defaults for `K` modes.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            forget_factor: 0.95,
            r1: 50,
            r2: k,
            low_rank: false,
            oversampling: 10,
            power_iterations: 1,
            seed: 0,
            tree_fanout: psvd_linalg::par::env_knob("PSVD_TREE_FANOUT").filter(|&f| f > 0),
        }
    }

    /// Builder: forget factor.
    pub fn with_forget_factor(mut self, ff: f64) -> Self {
        self.forget_factor = ff;
        self
    }

    /// Builder: local truncation `r1`.
    pub fn with_r1(mut self, r1: usize) -> Self {
        self.r1 = r1;
        self
    }

    /// Builder: global truncation `r2`.
    pub fn with_r2(mut self, r2: usize) -> Self {
        self.r2 = r2;
        self
    }

    /// Builder: enable the randomized inner SVD.
    pub fn with_low_rank(mut self, low_rank: bool) -> Self {
        self.low_rank = low_rank;
        self
    }

    /// Builder: randomized-path seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: merge-tree fanout (overrides the `PSVD_TREE_FANOUT` seed).
    /// `0` clears the knob back to "unset".
    pub fn with_tree_fanout(mut self, fanout: usize) -> Self {
        self.tree_fanout = if fanout == 0 { None } else { Some(fanout) };
        self
    }

    /// Builder: oversampling for the randomized path.
    pub fn with_oversampling(mut self, p: usize) -> Self {
        self.oversampling = p;
        self
    }

    /// Builder: power iterations for the randomized path.
    pub fn with_power_iterations(mut self, q: usize) -> Self {
        self.power_iterations = q;
        self
    }

    /// The configuration, or the first condition it violates.
    pub fn try_validated(self) -> Result<Self, ConfigError> {
        if self.k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if !(self.forget_factor > 0.0 && self.forget_factor <= 1.0) {
            return Err(ConfigError::ForgetFactor(self.forget_factor));
        }
        if self.r1 == 0 {
            return Err(ConfigError::ZeroR1);
        }
        if self.r2 < self.k {
            return Err(ConfigError::R2BelowK { r2: self.r2, k: self.k });
        }
        Ok(self)
    }

    /// Panics if the configuration is unusable; returns `self` otherwise.
    pub fn validated(self) -> Self {
        self.try_validated().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The randomized-range-finder configuration for rank `rank`.
    pub fn randomized(&self, rank: usize) -> psvd_linalg::RandomizedConfig {
        psvd_linalg::RandomizedConfig {
            rank,
            oversampling: self.oversampling,
            power_iterations: self.power_iterations,
        }
    }

    /// The one inner SVD of a small factor — the serial update's `R`,
    /// TSQR's final `R`, the projection core, the APMOS root stack and
    /// every merge-tree node all come here. Dense ([`svd()`], all
    /// triplets) unless `low_rank`, in which case the randomized SVD keeps
    /// `rank` triplets under this configuration's `oversampling` /
    /// `power_iterations`, its sketch drawn from a generator seeded with
    /// `seed`, built here and nowhere else.
    pub(crate) fn inner_svd<T: Scalar>(&self, a: &Matrix<T>, rank: usize, seed: u64) -> Svd<T> {
        if self.low_rank {
            randomized_svd(a, &self.randomized(rank), &mut StdRng::seed_from_u64(seed))
        } else {
            svd(a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SvdConfig::new(10);
        assert_eq!(c.k, 10);
        assert_eq!(c.forget_factor, 0.95);
        assert_eq!(c.r1, 50);
        assert_eq!(c.r2, 10);
        assert!(!c.low_rank);
    }

    #[test]
    fn builders_compose() {
        let c = SvdConfig::new(5)
            .with_forget_factor(1.0)
            .with_r1(20)
            .with_r2(8)
            .with_low_rank(true)
            .with_seed(99)
            .with_oversampling(4)
            .with_power_iterations(2);
        assert_eq!(c.forget_factor, 1.0);
        assert_eq!(c.r1, 20);
        assert_eq!(c.r2, 8);
        assert!(c.low_rank);
        assert_eq!(c.seed, 99);
        assert_eq!(c.oversampling, 4);
        assert_eq!(c.power_iterations, 2);
    }

    #[test]
    #[should_panic(expected = "forget factor")]
    fn bad_forget_factor_rejected() {
        let _ = SvdConfig::new(3).with_forget_factor(1.5).validated();
    }

    #[test]
    #[should_panic(expected = "r2")]
    fn r2_below_k_rejected() {
        let _ = SvdConfig::new(10).with_r2(3).validated();
    }

    #[test]
    fn tree_builders_set_and_clear() {
        let c = SvdConfig::new(3).with_tree_fanout(4);
        assert_eq!(c.tree_fanout, Some(4));
        assert_eq!(c.with_tree_fanout(0).tree_fanout, None);
    }

    #[test]
    fn randomized_config_inherits() {
        let c = SvdConfig::new(4).with_oversampling(7).with_power_iterations(3);
        let r = c.randomized(4);
        assert_eq!(r.rank, 4);
        assert_eq!(r.oversampling, 7);
        assert_eq!(r.power_iterations, 3);
    }
}
