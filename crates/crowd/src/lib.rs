//! # hc-crowd — the simulated crowd substrate
//!
//! The deployed systems surveyed by the target paper ran on live web
//! traffic: hundreds of thousands of players with wildly varying skill,
//! vocabulary, patience and honesty. Reproducing the paper's *measurable*
//! results (label quality, throughput, ALP, attack resistance) requires a
//! population whose **statistics** match, not the humans themselves. This
//! crate is that population:
//!
//! * [`vocabulary`] — a Zipf-weighted global label vocabulary and per-task
//!   ground-truth [`LabelDistribution`]s players perceive through.
//! * [`behavior`] — answer policies: honest, noisy, lazy, random,
//!   colluding, spamming. Each maps a ground-truth distribution to the
//!   stream of answers a player of that type would produce.
//! * [`player`] — the per-player bundle: skill, speed, behaviour.
//! * [`population`] — mixes of archetypes ("85% honest, 10% noisy, 5%
//!   colluders") built reproducibly from a seed.
//! * [`engagement`] — session-length and lifetime models; this is where
//!   ALP (average lifetime play) comes from, calibrated to the published
//!   ESP Game numbers (mean lifetime ≈ 91 minutes).
//! * [`response`] — per-answer latency models (think time + typing).
//!
//! Everything is deterministic given an [`RngFactory`](hc_sim::RngFactory)
//! stream.

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

pub mod behavior;
pub mod engagement;
pub mod learning;
pub mod player;
pub mod population;
pub mod response;
pub mod vocabulary;

pub use behavior::Behavior;
pub use engagement::{EngagementModel, LifetimePlan};
pub use learning::{SkillDynamics, SkillState};
pub use player::PlayerProfile;
pub use population::{ArchetypeMix, Population, PopulationBuilder};
pub use response::ResponseTimeModel;
pub use vocabulary::{LabelDistribution, Vocabulary};
