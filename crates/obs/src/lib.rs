//! # hc-obs — deterministic sim-time observability
//!
//! Spans, structured events and a metrics registry for the
//! human-computation workspace, keyed on **sim-time** (microsecond
//! ticks), never wall-clock — so the layer itself keeps the library
//! ban on wall-clock time and a recorded trace is a pure function of the
//! simulation seed.
//!
//! ## Model
//!
//! * Instrumented code *emits* — [`span`], [`event`], [`counter`],
//!   [`gauge`], [`observe`] — and never reads anything back: events are
//!   observed, never consulted, so recording cannot perturb results.
//! * A *recording scope* ([`record_scope`]) installs a collector on the
//!   **current thread**; without one every emit call is a no-op that
//!   returns before allocating. Call sites on hot paths additionally
//!   guard with [`active`] so field construction is skipped too.
//! * Scopes nest (a thread-local stack) and compose across threads: the
//!   parallel replication pool runs each task inside its own scope and
//!   merges the per-task traces back **in index order** via
//!   [`merge_trace`], so the merged trace is byte-identical at any
//!   `--threads` value.
//! * Machine-dependent facts (worker counts, wall time)
//!   go through [`machine_stat`] into a separate section that
//!   determinism comparisons exclude.
//!
//! ## Span trees
//!
//! [`enter`] opens a scope span and parents everything emitted until
//! the returned [`SpanScope`] closes; the flat [`span`] stays the leaf
//! emitter. Ids are assigned per collector, so merged traces keep
//! byte-identical trees at any `--threads` / `--shards` value.
//!
//! ## Analysis
//!
//! [`analyze`] turns a record stream into reports: span trees with
//! self times, critical-path extraction, flamegraph folded stacks,
//! windowed sim-time timeseries, and a derived-metrics summary with a
//! thresholded diff — the deterministic core of the CI trace gate.
//!
//! ## Sinks
//!
//! [`sink::jsonl`] renders/parses the line-oriented trace format (the
//! machine section is the final line, so deterministic comparisons drop
//! it trivially); [`sink::chrome`] converts a trace to Chrome
//! trace-event JSON loadable in Perfetto / `chrome://tracing`, mapping
//! sim-time microseconds directly onto the `ts` axis.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod collector;
pub mod metrics;
pub mod record;
pub mod sink;

pub use collector::{
    active, counter, counter_now, enter, event, gauge, machine_stat, merge_trace, name_track,
    observe, record_scope, span, span_on_track, SpanScope, Trace,
};
pub use metrics::{GaugeStat, HistStat, MetricsRegistry};
pub use record::{fields_from, FieldValue, Fields, Record, RecordData};
