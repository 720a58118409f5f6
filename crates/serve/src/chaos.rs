//! Per-tenant chaos schedules over the comm layer's fault injector.
//!
//! One master seed drives the whole soak: every `(tenant, round)` gets an
//! independent [`FaultPlan`] on a sub-seed mixed via
//! [`FaultPlan::derive_seed`], so a chaos run replays identically — the
//! same sessions see the same delayed sends and rank deaths at the same
//! rounds, regardless of worker scheduling or thread count. A failing
//! session is reproduced from `(master seed, tenant name, round)` alone.

use psvd_comm::FaultPlan;

/// A deterministic fault profile applied to every round of a session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosSpec {
    /// Master seed; sub-seeded per `(tenant, round)`.
    pub seed: u64,
    /// Probability a send is delayed for reordering.
    pub delay_prob: f64,
    /// Operations a delayed send is held back for.
    pub delay_ops: u64,
    /// Schedule a rank death every `n`-th round (`0` = never). Deaths are
    /// permanent for the round: the session replays it cleanly from its
    /// checkpoints, which is exactly the recovery path under test.
    pub death_every: u64,
}

impl ChaosSpec {
    /// A fault-free profile on `seed`; compose with the builders.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Builder: delay probability and hold-back window.
    pub fn with_delay_prob(mut self, p: f64, ops: u64) -> Self {
        self.delay_prob = p;
        self.delay_ops = ops;
        self
    }

    /// Builder: kill a (seed-chosen) rank every `n`-th round.
    pub fn with_death_every(mut self, n: u64) -> Self {
        self.death_every = n;
        self
    }

    /// The stable stream id of a tenant (FNV-1a over the name).
    pub fn tenant_stream(tenant: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tenant.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The fault plan for one `(tenant, round)` of a `ranks`-wide session.
    pub fn plan_for(&self, tenant: &str, round: u64, ranks: usize) -> FaultPlan {
        let stream = Self::tenant_stream(tenant);
        let mut plan = FaultPlan::new(FaultPlan::derive_seed(self.seed, stream, round))
            .with_delay_prob(self.delay_prob, self.delay_ops);
        if self.death_every > 0 && ranks >= 2 && (round + 1).is_multiple_of(self.death_every) {
            // Victim and collective round are themselves seed-derived, so
            // deaths sweep over ranks and phases across the soak.
            let h = FaultPlan::derive_seed(self.seed ^ 0xDEAD_DEAD_DEAD_DEAD, stream, round);
            plan = plan.with_death(h as usize % ranks, 1 + (h >> 32) % 3);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_distinct() {
        let spec = ChaosSpec::new(42).with_delay_prob(0.5, 2).with_death_every(3);
        let a = spec.plan_for("tenant-a", 0, 4);
        let b = spec.plan_for("tenant-a", 0, 4);
        assert_eq!(a.seed(), b.seed(), "same coordinates, same plan");
        assert_ne!(a.seed(), spec.plan_for("tenant-b", 0, 4).seed(), "tenants differ");
        assert_ne!(a.seed(), spec.plan_for("tenant-a", 1, 4).seed(), "rounds differ");
    }

    #[test]
    fn deaths_fire_on_schedule() {
        let spec = ChaosSpec::new(7).with_death_every(3);
        for round in 0..12 {
            let plan = spec.plan_for("t", round, 4);
            let due = (round + 1) % 3 == 0;
            assert_eq!(!plan.deaths().is_empty(), due, "round {round}");
            for d in plan.deaths() {
                assert!(d.rank < 4);
                assert!((1..=3).contains(&d.at_round));
            }
        }
        // Single-rank sessions never schedule deaths.
        assert!(spec.plan_for("t", 2, 1).deaths().is_empty());
    }
}
