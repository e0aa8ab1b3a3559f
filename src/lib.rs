//! # rfh — Resilient, Fault-tolerant, High-efficient replication
//!
//! A full reproduction of **"RFH: A Resilient, Fault-Tolerant and
//! High-efficient Replication Algorithm for Distributed Cloud Storage"**
//! (Qu & Xiong, ICPP 2012) as a Rust library: the RFH decision agent,
//! the three baseline algorithms it is evaluated against, the
//! geo-distributed cloud-storage simulator the paper evaluates in, and
//! an experiment harness that regenerates every table and figure.
//!
//! This crate is an umbrella re-exporting the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `rfh-types` | ids, geography, labels, Table I config |
//! | [`topology`] | `rfh-topology` | datacenters, WAN routing, the Fig. 1 preset |
//! | [`ring`] | `rfh-ring` | consistent hashing, prefix-overlay routing |
//! | [`stats`] | `rfh-stats` | EWMA, Erlang-B, availability bound, metrics math |
//! | [`obs`] | `rfh-obs` | decision tracing (JSONL), metrics registry, per-phase epoch profiler |
//! | [`workload`] | `rfh-workload` | Poisson/Zipf query generation, scenarios, traces |
//! | [`traffic`] | `rfh-traffic` | the traffic-determination pass (eqs. 2–11) and the reusable, route-cached [`TrafficEngine`](rfh_traffic::TrafficEngine) |
//! | [`core`] | `rfh-core` | the RFH decision tree + the three baselines |
//! | [`net`] | `rfh-net` | the §II-B control plane: traffic reports over the WAN |
//! | [`faults`] | `rfh-faults` | deterministic fault plans, chaos injection, invariant auditing |
//! | [`sim`] | `rfh-sim` | the epoch simulator and the four-way comparison runner |
//! | [`experiments`] | `rfh-experiments` | the paper's figures and the extension experiments behind `rfh experiments <name>` |
//!
//! ## Quickstart
//!
//! Run the four algorithms of the paper over an identical workload on
//! the paper's 10-datacenter deployment and compare their steady-state
//! replica utilization:
//!
//! ```
//! use rfh::prelude::*;
//!
//! let params = SimParams {
//!     config: SimConfig { partitions: 16, ..SimConfig::default() },
//!     scenario: Scenario::RandomEven,
//!     policy: PolicyKind::Rfh, // replaced per-policy by the runner
//!     epochs: 50,
//!     seed: 7,
//!     events: EventSchedule::new(), // no effect: failures go in `faults`
//!     faults: FaultPlan::default(),
//!     threads: 1,
//! };
//! let cmp = run_comparison(&params).unwrap();
//! let util = |k| {
//!     let s = cmp.of(k).expect("policy ran").metrics.series("utilization").unwrap();
//!     s.mean_over(40, 50)
//! };
//! assert!(util(PolicyKind::Rfh) > util(PolicyKind::Random));
//! ```
//!
//! Failures and recoveries are [`FaultPlan`](rfh_faults::FaultPlan)
//! entries in `SimParams::faults`, the simulator's only fault path: the
//! paper's Fig. 10 is `sim_seeded_plan(seed).at(290,
//! FaultAction::FailRandom(30))` (see `examples/failure_recovery.rs`).
//!
//! See `examples/` for larger scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment inventory.

#![warn(missing_docs)]

pub use rfh_core as core;
pub use rfh_experiments as experiments;
pub use rfh_faults as faults;
pub use rfh_net as net;
pub use rfh_obs as obs;
pub use rfh_ring as ring;
pub use rfh_sim as sim;
pub use rfh_stats as stats;
pub use rfh_topology as topology;
pub use rfh_traffic as traffic;
pub use rfh_types as types;
pub use rfh_workload as workload;

/// The names most programs need, in one import.
pub mod prelude {
    pub use rfh_core::{
        Action, EpochContext, OwnerOrientedPolicy, PolicyKind, RandomPolicy, ReplicaManager,
        ReplicationPolicy, RequestOrientedPolicy, RfhPolicy,
    };
    pub use rfh_faults::{
        FaultAction, FaultInjector, FaultPlan, InvariantAuditor, Violation, ViolationKind,
    };
    pub use rfh_net::{DistributedRfhPolicy, Network, NetworkFaults};
    pub use rfh_obs::{
        DecisionEvent, MetricsRegistry, NullRecorder, ProfileReport, Profiler, Recorder,
        TraceRecorder,
    };
    pub use rfh_ring::ConsistentHashRing;
    pub use rfh_sim::{
        run_comparison, run_comparison_observed, sim_seeded_plan, ComparisonResult, ObsOptions,
        SimParams, SimResult, Simulation,
    };
    pub use rfh_topology::{paper_topology, paper_topology_spec, Topology, TopologyBuilder};
    pub use rfh_types::{
        Bandwidth, Bytes, Continent, DatacenterId, Epoch, FlashCrowdConfig, GeoPoint, PartitionId,
        Result, RfhError, ServerId, SimConfig, Thresholds,
    };
    pub use rfh_workload::{EventSchedule, QueryLoad, Scenario, Trace, WorkloadGenerator};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let cfg = SimConfig::default();
        assert_eq!(cfg.partitions, 64);
        let topo = paper_topology(0.0, 0).unwrap();
        assert_eq!(topo.server_count(), 100);
        assert_eq!(PolicyKind::ALL.len(), 4);
    }

    /// The lock file is the list of what the workspace builds: the
    /// retired measurement crates and the version-vector crate must
    /// not come back through a stray manifest.
    #[test]
    fn workspace_builds_no_retired_crate() {
        let lock = include_str!("../Cargo.lock");
        for gone in ["rfh-bench", "rfh-consistency", "criterion"] {
            assert!(!lock.contains(&format!("name = \"{gone}\"")), "{gone} is back in Cargo.lock");
        }
    }
}
