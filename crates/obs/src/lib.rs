//! # rfh-obs
//!
//! Observability for the RFH simulator stack, in three parts:
//!
//! * **Decision tracing** — a [`Recorder`] trait with a zero-cost
//!   [`NullRecorder`] default and a [`TraceRecorder`] that captures one
//!   structured [`DecisionEvent`] per replicate/migrate/suicide decision
//!   (with the eq. (1)–(26) model inputs that triggered it) into a
//!   bounded ring buffer, streamed out as JSONL.
//! * **Metrics registry** — [`MetricsRegistry`], an insertion-ordered
//!   bag of counters, gauges and histogram summaries (reusing
//!   [`rfh_stats::Histogram`]) that subsystems fill via their
//!   `collect_metrics` hooks.
//! * **Per-phase profiler** — [`Profiler`], wall-clock accounting of
//!   the epoch loop's phases (workload gen, traffic accounting,
//!   decision pass, network tick, metrics) with near-zero disabled
//!   overhead, rendered as a shared timing table by [`ProfileReport`].
//! * **Request spans** — [`SpanLog`], a bounded ring of [`SpanEvent`]s
//!   recording each hop (client → coordinator → forward target) of a
//!   sampled serve request, keyed by the op-ID the wire carries.
//!
//! Everything here is observation-only: recorders receive copies of
//! decision data and can never feed back into a run, so a traced run is
//! bit-identical to an untraced one (verified by test in `rfh-sim`).

#![warn(missing_docs)]

mod event;
mod profiler;
mod recorder;
mod registry;
mod span;

pub use event::{DecisionEvent, DecisionKind, Trigger};
pub use profiler::{
    PhaseStat, ProfileReport, Profiler, PHASE_APPLY, PHASE_DECIDE, PHASE_EVENTS, PHASE_METRICS,
    PHASE_NETWORK, PHASE_SPARSE, PHASE_TRAFFIC, PHASE_WORKLOAD,
};
pub use recorder::{NullRecorder, Recorder, TraceRecorder};
pub use registry::{prometheus_name, Metric, MetricsRegistry};
pub use span::{SpanEvent, SpanLog};
