//! Differential-oracle conformance suite.
//!
//! Every test here checks the paper's contracts — descending singular
//! values, orthonormal factors, serial ≡ parallel, checkpoint-restart
//! equivalence — by running the same stream through independent
//! implementations (serial vs APMOS/TSQR vs randomized) over different
//! communicators (`SelfComm`, `ThreadComm`, `FaultComm` replaying seeded
//! fault schedules) and diffing the results. See DESIGN.md, "Fault model
//! & conformance testing".

mod contracts;
mod fault_injection;
mod harness;
mod rank_death;
mod tree;
