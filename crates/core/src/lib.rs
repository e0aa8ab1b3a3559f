//! # rfh-core
//!
//! The paper's primary contribution: the RFH decision agent (Fig. 2) —
//! plus the three baseline algorithms it is evaluated against and the
//! replica manager that executes their decisions.
//!
//! * [`manager`] — the authoritative replica map: who holds which
//!   partition, storage occupancy (eq. 19's `φ` cap), per-epoch transfer
//!   budgets, and the replication / migration cost model (eq. 1).
//! * [`policy`] — the `ReplicationPolicy` trait: once per epoch each
//!   policy reads the traffic accounts and emits replicate / migrate /
//!   suicide actions.
//! * [`thresholds`] — the decision predicates: holder overload (eq. 12),
//!   traffic hub (eq. 13), suicide (eq. 15), migration benefit (eq. 16).
//! * [`blocking`] — the per-server Erlang-B blocking probabilities
//!   (eq. 18) RFH uses to pick a concrete server inside a datacenter.
//! * [`rfh`] — the RFH decision tree itself.
//! * [`decision_state`] — its per-replica idle streaks and birth grace,
//!   one row per partition.
//! * [`random`] — the random baseline (Dynamo-style ring successors,
//!   geographically random; refs [4][21][22]).
//! * [`owner`] — the owner-oriented baseline (maximize availability
//!   level per replication cost near the holder; refs [7][11][12][13]).
//! * [`request`] — the request-oriented baseline (replicate near the
//!   top-3 requesters, Gnutella-style; refs [16][5]).

#![warn(missing_docs)]

pub mod blocking;
pub mod decision_state;
pub mod manager;
pub mod owner;
pub mod policy;
pub mod random;
pub mod request;
pub mod rfh;
mod selection;
#[cfg(test)]
mod test_support;
pub mod thresholds;

pub use blocking::server_blocking_probabilities;
pub use decision_state::DecisionState;
pub use manager::{AppliedAction, PruneOutcome, ReplicaManager};
pub use owner::OwnerOrientedPolicy;
pub use policy::{Action, EpochContext, PolicyKind, ReplicationPolicy};
pub use random::RandomPolicy;
pub use request::RequestOrientedPolicy;
pub use rfh::{best_candidate_in_dc, PlacementMode, RfhDecisionCore, RfhPolicy, TrafficView};
