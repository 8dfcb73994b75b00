#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Zero-dependency observability substrate for the Stellaris training stack.
//!
//! Two halves, both safe to call from any thread at any time, plus two
//! consumers layered on top: the [`recorder`] flight recorder (bounded
//! ring of recent events with postmortem dumps) and the [`attribution`]
//! per-round critical-path analyzer (DESIGN.md §13):
//!
//! * **Tracing** ([`trace`]): spans with parent IDs, monotonic microsecond
//!   timestamps, and key/value fields. Events are recorded through a
//!   per-thread buffer (no cross-thread synchronisation on the hot path)
//!   and flushed into a global sink that can be serialised as JSONL event
//!   logs (read back by [`read_jsonl`], the one span reader) or a
//!   chrome://tracing-compatible trace file. Tracing is off by
//!   default; when disabled, [`span`] and [`instant`] are a single relaxed
//!   atomic load.
//! * **Metrics** ([`metrics`]): counters, gauges, and log2-bucketed
//!   histograms with p50/p90/p99 quantile estimation, collected in a named
//!   [`Registry`] and rendered in Prometheus text exposition format.
//!   Metrics are always on — every instrument is a handful of relaxed
//!   atomics.
//!
//! Metric names follow the `stellaris_<crate>_<name>` convention
//! (DESIGN.md §8). Span names follow `<crate>.<operation>`.
//!
//! The crate is panic-free by construction: poisoned locks are recovered
//! with [`std::sync::PoisonError::into_inner`], thread-local access during
//! teardown is tolerated, and the global sink is bounded (overflow events
//! are counted, not grown without bound).

pub mod attribution;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use attribution::{attribute, stage_of, AttrEvent, RunAttribution, Stage};
pub use json::escape_into;
pub use metrics::{
    global, validate_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
};
pub use recorder::RecorderConfig;
pub use trace::{
    artefact, disable, drain, dropped_events, enable, enabled, flush_thread, ingest_events,
    instant, intern_name, now_us, read_jsonl, set_span_id_base, span, span_closed, span_with,
    span_with_parent, write_artefacts, write_chrome_trace, write_jsonl, Event, EventKind,
    FieldValue, SpanGuard,
};
