//! # vdap-obs — platform-wide observability
//!
//! The measurement vocabulary for the OpenVDAP reproduction: typed
//! request spans ([`RequestSpan`], [`SpanLog`]), a registry of named
//! counters/gauges/per-epoch time series ([`MetricsRegistry`]), a
//! Chrome trace-event JSON exporter ([`chrome_trace`], loadable in
//! `about://tracing` and Perfetto), and a wall-clock barrier profiler
//! for the fleet engine's parallel tick ([`BarrierProfiler`]).
//!
//! ## The determinism boundary
//!
//! Everything except the profiler is *sim-time* telemetry: spans and
//! series are derived from values the deterministic serving path
//! already computes, sampled at epoch barriers or ordered by the
//! canonical `(generated, vehicle, seq)` request key. Turning telemetry
//! on therefore cannot perturb a run, and the byte-identity invariant
//! across executor width and chunk size extends to the telemetry
//! itself. The profiler is the one
//! *wall-clock* component; it lives on the other side of the boundary
//! and is only ever reported in a separate diagnostics block, never in
//! a deterministic summary.
//!
//! ```
//! use vdap_obs::{chrome_trace, MetricsRegistry, RequestSpan, SpanLog, SpanOutcome};
//! use vdap_sim::SimTime;
//!
//! let mut spans = SpanLog::new();
//! spans.push(RequestSpan {
//!     vehicle: 0, seq: 0, tenant: 0, region: 0,
//!     class: "detection",
//!     generated: SimTime::ZERO,
//!     admitted: None,
//!     serve_start: None,
//!     completed: SimTime::from_nanos(8_000_000),
//!     outcome: SpanOutcome::CollabHit,
//!     retries: 0, requeues: 0, handoff: false,
//! });
//! let doc = chrome_trace(&spans, &MetricsRegistry::new());
//! let text = serde_json::to_string(&doc).unwrap();
//! assert!(text.contains("traceEvents"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod histogram;
mod profile;
mod registry;
mod sink;
mod span;

pub use chrome::{chrome_trace, span_event, span_json, spans_jsonl};
pub use histogram::{HistogramState, StreamingHistogram};
pub use profile::{BarrierProfiler, EngineProfile, WorkerSample};
pub use registry::{intern_name, MetricsRegistry, SeriesPoint};
pub use sink::{
    sample_keeps, JsonlSpillSink, MemorySpanSink, SamplingSpanSink, SpanSink,
    DEFAULT_SEGMENT_BYTES, SPAN_RESIDENT_BYTES,
};
pub use span::{RequestSpan, SpanLog, SpanOutcome};
