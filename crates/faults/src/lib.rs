//! # rfh-faults
//!
//! The chaos layer: everything the paper's resilience claims are tested
//! *against*. RFH's §IV experiments remove 30 random servers at epoch
//! 290 and watch the replica population heal — one
//! [`FaultAction::FailRandom`] entry here. This crate generalises that
//! event into a deterministic fault model covering the full failure
//! taxonomy of a geo-distributed deployment:
//!
//! * **Correlated machine failures** over the topology hierarchy — a
//!   rack losing power, a room flooding, a datacenter going dark — plus
//!   their recoveries.
//! * **WAN link faults** — links going down, latency inflation (brownout
//!   routing), and graph-splitting network partitions. These ride on
//!   [`rfh_topology::Topology`]'s generation counter, so every
//!   generation-keyed route cache recomputes automatically.
//! * **Gray failures** — probabilistic per-hop message loss and
//!   bandwidth cuts that degrade rather than kill.
//! * **Background churn** — a seeded MTBF/MTTR renewal process failing
//!   and reviving individual servers for the whole run.
//!
//! Three submodules:
//!
//! * [`plan`] — [`FaultPlan`]: the declarative schedule (scheduled
//!   one-shot faults + optional stochastic churn), with a small
//!   TOML-subset parser so plans live in files next to experiment
//!   configs.
//! * [`inject`] — [`FaultInjector`]: replays a plan against a live
//!   [`rfh_topology::Topology`] epoch by epoch. Fully deterministic:
//!   the same `(plan, seed)` produces the same faults at the same
//!   epochs, bit for bit. An empty plan produces *no injector at all*
//!   ([`FaultInjector::new`] returns `None`), so the fault path costs
//!   nothing when unused — the same zero-cost contract as
//!   `rfh_obs::NullRecorder`.
//! * [`audit`] — [`InvariantAuditor`]: the per-epoch safety/liveness
//!   checker. Safety: no partition sits below its replication floor
//!   without a recorded fault cause, and no replica sits on a dead
//!   server (outside the explicitly pinned awaiting-restore set).
//!   Liveness: replica populations reconverge within a bounded window
//!   once faults heal.

#![warn(missing_docs)]

pub mod audit;
pub mod inject;
pub mod plan;

pub use audit::{InvariantAuditor, Violation, ViolationKind};
pub use inject::{EpochFaultReport, FaultInjector, PLAN_SEED_SALT};
pub use plan::{ChurnConfig, FaultAction, FaultPlan, ScheduledFault};
