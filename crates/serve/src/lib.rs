//! # hc-serve — the task-lifecycle service API
//!
//! This crate exposes the production surface the paper's systems ran
//! behind: publish task batches, open and assign two-player sessions,
//! ingest answers, query label status, and export or aggregate
//! results — all through one typed [`Request`]/[`Response`] protocol
//! handled by a [`Service`] state machine over the platform.
//!
//! ## Determinism boundary
//!
//! The crate is split in two along a hard determinism boundary:
//!
//! * [`service`] (plus [`wire`]) is the **pure core**: no clock, no
//!   I/O, no ambient randomness. Time arrives inside requests as
//!   [`hc_sim::SimTime`]; pairing and gold-injection randomness come
//!   from seeded streams derived from [`ServiceConfig::seed`]. Feeding
//!   the same request sequence to a service built from the same config
//!   reproduces the response sequence byte for byte — which is what
//!   the `hc-load` harness and the `serve-load` CI job assert.
//! * [`front`] is a **thin socket shim** — line-delimited JSON over
//!   TCP — that decodes requests, calls [`Service::handle`], and
//!   encodes responses. It is the only home for nondeterminism
//!   (sockets and blocking reads); it serves one connection at a time on
//!   the caller's thread, under the same library lints as the core.
//!
//! ## Example
//!
//! ```
//! use hc_core::jobs::JobGoal;
//! use hc_core::Stimulus;
//! use hc_serve::{Request, Response, Service, ServiceConfig};
//!
//! let mut svc = Service::new(ServiceConfig::default()).unwrap();
//! let resp = svc.handle(&Request::PublishBatch {
//!     name: "demo".into(),
//!     goal: JobGoal::OutputsPerTask(1),
//!     stimuli: vec![Stimulus::Image(7)],
//! });
//! let Response::BatchPublished { job, tasks } = resp else {
//!     panic!("publish failed");
//! };
//! assert_eq!(tasks.len(), 1);
//! let status = svc.handle(&Request::JobStatus { job });
//! assert!(matches!(status, Response::JobStatusReport { .. }));
//! ```

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

pub mod front;
pub mod service;
pub mod wire;

pub use service::{Service, ServiceConfig};
pub use wire::{
    AggregateRow, ExportedLabel, Request, Response, RoundOutcome, ServeError, SessionPhase,
};

/// Convenience re-exports for service consumers.
pub mod prelude {
    pub use crate::front::Front;
    pub use crate::service::{Service, ServiceConfig};
    pub use crate::wire::{
        AggregateRow, ExportedLabel, Request, Response, RoundOutcome, ServeError, SessionPhase,
    };
}
