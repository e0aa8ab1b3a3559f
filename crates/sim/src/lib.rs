//! # rfh-sim
//!
//! The epoch-driven cloud-storage simulator of §III: the paper's
//! evaluation environment, rebuilt. Each epoch it
//!
//! 1. drives the fault plan: every failure and recovery, the Fig. 10
//!    mass failure among them, enters here,
//! 2. generates (or replays) the `q_ijt` query matrix,
//! 3. runs the traffic pass (absorption along WAN routes),
//! 4. folds the observations into the EWMA state,
//! 5. lets the policy under test decide and executes its actions under
//!    the storage/bandwidth limits, and
//! 6. records every metric the paper's figures plot.
//!
//! * [`pipeline`] — the epoch itself (steps 1 and 3–5), written once
//!   and shared with the live control loop in `rfh-serve` through the
//!   [`EpochHost`] trait.
//! * [`simulation`] — the offline run: a pipeline plus a workload
//!   source and the metric history.
//! * [`metrics`] — per-epoch series: replica utilization (eqs. 20–23),
//!   replica counts, replication/migration costs (eq. 1), migration
//!   times, load imbalance (eqs. 24–26), lookup path length, unserved
//!   demand, alive servers.
//! * [`planner`] / [`repair`] — per-link admission control for an
//!   epoch's transfers, and the deferred lane behind it.
//! * [`runner`] — run the four policies over identical workloads, in
//!   parallel (crossbeam scoped threads; each run is independent and
//!   deterministic, so parallelism cannot change results).
//! * [`report`] — CSV rendering of results and per-policy phase-budget
//!   tables.
//!
//! Observability (the `rfh-obs` crate) threads through without touching
//! semantics: [`Simulation::with_recorder`] streams decision events,
//! [`Simulation::with_profiling`] times each epoch phase, and
//! [`runner::run_comparison_observed`] does both across all four
//! policies — none of which can change a run's results.

#![warn(missing_docs)]

pub mod metrics;
pub mod pipeline;
pub mod planner;
pub mod repair;
pub mod report;
pub mod runner;
pub mod simulation;

pub use metrics::{recovery_epochs, EpochSnapshot, Metrics};
pub use pipeline::{initial_placement, EngineMode, EpochHost, EpochPipeline, NoHost};
pub use planner::{
    link_between, LinkKey, MoveClass, MoveReq, PlanOutcome, PlannerConfig, TransferPlanner,
};
pub use repair::{destination_unreachable, RepairQueue};
pub use rfh_faults::{FaultAction, FaultPlan};
pub use runner::{run_comparison, run_comparison_observed, ComparisonResult, ObsOptions};
pub use simulation::{sim_seeded_plan, SimParams, SimResult, Simulation};
