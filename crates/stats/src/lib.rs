//! # rfh-stats
//!
//! Numerical substrate for the RFH simulator: the statistical formulas
//! the paper's model equations rely on, implemented once and shared by
//! the traffic accounting, the decision agents and the metrics pipeline.
//!
//! * [`ewma`] — exponential smoothing of queries and traffic
//!   (paper eqs. 10–11, factor α).
//! * [`erlang`] — Erlang-B blocking probability for the M/G/c server
//!   model (paper eq. 18).
//! * [`availability`] — the replica-count availability bound
//!   (paper eq. 14) and its inverse `r_min`.
//! * [`welford`] — streaming mean/variance for load-imbalance
//!   (paper eqs. 24–26).
//! * [`timeseries`] — per-epoch metric series with windowed summaries.
//! * [`histogram`] — fixed-width histograms and percentiles for
//!   distributional reporting.

#![warn(missing_docs)]

pub mod availability;
pub mod erlang;
pub mod ewma;
pub mod histogram;
pub mod timeseries;
pub mod welford;

pub use availability::{eq14_availability, eq14_sum_form, min_replica_count, read_availability};
pub use erlang::{erlang_b, offered_load};
pub use ewma::{decay_zeros, ewma_step};
pub use histogram::{Histogram, LATENCY_BUCKETS, LATENCY_HI_US, LATENCY_LO_US};
pub use timeseries::TimeSeries;
pub use welford::{load_imbalance, Welford};
