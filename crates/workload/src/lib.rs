//! # rfh-workload
//!
//! Query workload generation for the RFH evaluation (§III-A):
//!
//! * [`sampler`] — Poisson and Zipf samplers implemented from scratch on
//!   top of `rand`'s uniform source ("the number of generated queries
//!   follows a Poisson distribution with a mean rate λ").
//! * [`load`] — the per-epoch query matrix `q_ijt` (queries for
//!   partition *i* from requester *j* during epoch *t*) that the traffic
//!   equations consume.
//! * [`scenario`] — where queries originate over time: uniform random,
//!   the paper's four-stage flash crowd, a gradual location shift, and a
//!   partition-popularity shift.
//! * [`generator`] — ties sampler + scenario into an epoch-by-epoch
//!   workload stream, deterministic under a seed.
//! * [`events`] — an empty placeholder kept for `SimParams` struct
//!   literals; failures are `rfh_faults::FaultPlan` entries.
//! * [`trace`] — record a generated workload and replay it, so the four
//!   competing algorithms see byte-identical query streams.
//! * [`live`] — the atomic-counter variant of the query matrix that the
//!   serving runtime's request threads increment concurrently.

#![warn(missing_docs)]

pub mod events;
pub mod generator;
pub mod live;
pub mod load;
pub mod sampler;
pub mod scenario;
pub mod trace;

pub use events::EventSchedule;
pub use generator::WorkloadGenerator;
pub use live::SharedLoad;
pub use load::QueryLoad;
pub use sampler::{Poisson, Zipf};
pub use scenario::Scenario;
pub use trace::Trace;
