//! # rfh-traffic
//!
//! Traffic determination (§II-C): the paper's equations (2)–(11) turned
//! into an epoch-level accounting pass.
//!
//! The model: every query for partition `B_i` from requester datacenter
//! `j` travels the WAN routing path `A_ij` toward the partition holder.
//! Replicas sitting *on that path* absorb queries up to their processing
//! capacity; the residual flows to the next hop (eqs. 2–4). The traffic
//! of a node is the residual arriving at it, summed over requesters
//! (eqs. 6–8); the requester node itself sees the full query load
//! (eq. 5). Replicas *off* the path serve nothing — which is exactly why
//! randomly-placed replicas achieve poor utilization and why placing
//! replicas at high-traffic path conjunctions ("traffic hubs") works.
//!
//! The epoch state comes in two shapes. Per-datacenter rows (arrival
//! and forwarding traffic, their EWMAs) are dense: one cell per
//! datacenter. Per-replica state (the placement view's capacities, the
//! queries each replica served) is kept per *replica slot*, so it grows
//! with the replicas a partition has, not with the servers the cluster
//! has.
//!
//! * [`grid`] — dense 2-D arrays for the per-datacenter rows.
//! * [`slots`] — replica-slot rows: a few inline slots per partition,
//!   spilled when a partition has more.
//! * [`placement`] — the per-epoch view of where replicas are and how
//!   much capacity each offers, one slot per hosting server.
//! * [`absorption`] — the traffic pass semantics and the one-shot
//!   [`compute_traffic`] entry point.
//! * [`engine`] — the reusable [`TrafficEngine`]: route-cached
//!   accounting for callers that run the pass every epoch; a sparse
//!   pass over an unchanged placement allocates nothing (checked by
//!   `rfh-sim`'s allocation ledger).
//! * [`smoothing`] — the EWMA state of eqs. (9)–(11): smoothed system
//!   query averages `q̄_it` and smoothed per-node traffic `t̄r_ikt`.

#![warn(missing_docs)]

pub mod absorption;
pub mod engine;
pub mod grid;
pub mod placement;
pub mod slots;
pub mod smoothing;

pub use absorption::{compute_traffic, TrafficAccounts};
pub use engine::{EngineStats, TrafficEngine};
pub use grid::Grid;
pub use placement::{PlacementView, Slot};
pub use slots::SlotRows;
pub use smoothing::TrafficSmoother;
