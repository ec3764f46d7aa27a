//! # hc-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate under every experiment in the
//! `human-computation` workspace. The systems surveyed by the target paper
//! ("Human Computation", DAC 2009) were deployed as live web services with
//! real players; reproducing their *behavioural* results does not require
//! HTTP plumbing, only a faithful model of **when** players arrive, **how
//! long** they stay, and **in what order** platform events fire. A
//! discrete-event simulation (DES) kernel provides exactly that, with two
//! properties a live deployment cannot offer:
//!
//! * **Determinism** — every run is a pure function of its seed, so every
//!   table and figure in `EXPERIMENTS.md` regenerates bit-identically.
//! * **Time compression** — months of simulated play complete in seconds,
//!   which is what makes lifetime-play (ALP) measurements tractable.
//!
//! ## Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`time`] | [`SimTime`]/[`SimDuration`] — microsecond-resolution virtual clock types |
//! | [`wheel`] | [`WheelQueue`] — a hierarchical timing-wheel future-event list: stable `(time, seq)` order, O(1) amortized push/pop |
//! | [`rng`] | [`RngFactory`] — deterministic derivation of independent RNG streams |
//! | [`dist`] | Distributions not in `rand` core: exponential, log-normal, Zipf, geometric, discrete |
//! | [`arrival`] | [`DiurnalProcess`] — a diurnal (24-hour sinusoidal) Poisson arrival process |
//! | [`stats`] | [`OnlineStats`] (Welford mean/variance) and a confidence interval for a mean |
//! | [`par`] | Deterministic replication grids on the one run-long worker pool of both engines: same bytes at any `--threads` |
//! | [`shard`] | Deterministic sharded single-run engine: lock-stepped windows, shard steps and jobs on the worker pool, a message exchange; same bytes at any `--shards`/`--threads` |
//! | [`timeseries`] | [`RateSeries`] — windowed event rates for timeline experiments |
//!
//! ## Example
//!
//! ```
//! use hc_sim::prelude::*;
//!
//! // Deterministic two-stream simulation: arrivals + a measurement.
//! let factory = RngFactory::new(42);
//! let mut rng = factory.stream("arrivals");
//! // 2 events per simulated second, no day/night swing.
//! let arrivals = DiurnalProcess::new(2.0, 0.0, SimDuration::ZERO);
//! let mut queue: WheelQueue<&'static str> = WheelQueue::new();
//!
//! let mut t = SimTime::ZERO;
//! for _ in 0..10 {
//!     t = arrivals.next_after(t, &mut rng);
//!     queue.push(t, "player-arrival");
//! }
//! let mut stats = OnlineStats::new();
//! let mut last = SimTime::ZERO;
//! while let Some((when, _ev)) = queue.pop() {
//!     stats.push((when - last).as_secs_f64());
//!     last = when;
//! }
//! // Inter-arrival mean is ~1/rate.
//! assert!(stats.mean() > 0.0);
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
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod dist;
pub mod par;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod timeseries;
pub mod wheel;

pub use arrival::DiurnalProcess;
pub use dist::{DiscreteDist, Exponential, Geometric, LogNormal, Zipf};
pub use par::{run_replications, ReplicationError};
pub use rng::{RngFactory, SimRng};
pub use stats::{ConfidenceInterval, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use timeseries::RateSeries;
pub use wheel::WheelQueue;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::arrival::DiurnalProcess;
    pub use crate::dist::{DiscreteDist, Exponential, Geometric, LogNormal, Zipf};
    pub use crate::par::{run_replications, ReplicationError};
    pub use crate::rng::{RngFactory, SimRng};
    pub use crate::stats::{ConfidenceInterval, OnlineStats};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::timeseries::RateSeries;
    pub use crate::wheel::WheelQueue;
    pub use rand::Rng;
}
