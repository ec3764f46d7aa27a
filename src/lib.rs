//! # human-computation
//!
//! A Games-With-A-Purpose (GWAP) human-computation platform in Rust — a
//! from-scratch reproduction of the systems surveyed by the invited paper
//! *"Human Computation"* (DAC 2009): the three GWAP templates
//! (output-agreement / input-agreement / inversion-problem), the deployed
//! games built on them (ESP Game, TagATune, Verbosity, Peekaboom,
//! Matchin), CAPTCHA and the book-digitizing reCAPTCHA protocol, the
//! verification and anti-cheat mechanisms, and the paper's GWAP metrics
//! (throughput, ALP, expected contribution) — all driven by a
//! deterministic simulated crowd.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `hc-core` | templates, sessions, scoring, verification, anti-cheat, metrics, platform |
//! | [`crowd`] | `hc-crowd` | simulated players: behaviours, skill, engagement (ALP), latency |
//! | [`games`] | `hc-games` | ESP, TagATune, Verbosity, Peekaboom, Matchin + synthetic worlds |
//! | [`captcha`] | `hc-captcha` | CAPTCHA, OCR attacker, human reader, reCAPTCHA digitization |
//! | [`aggregate`] | `hc-aggregate` | majority/weighted voting, agreement threshold, Dawid–Skene EM |
//! | [`serve`] | `hc-serve` | task-lifecycle service: request/response state machine + socket front |
//! | [`sim`] | `hc-sim` | DES kernel: virtual time, event queue, RNG streams, distributions, stats |
//! | [`obs`] | `hc-obs` | sim-time tracing: recording scopes, spans/events, metrics, trace sinks |
//!
//! ## Quickstart
//!
//! ```
//! use human_computation::prelude::*;
//! use rand::SeedableRng;
//!
//! // Build an image world and a platform with 2-agreement verification.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
//! let mut platform = Platform::new(PlatformConfig::default()).unwrap();
//! world.register_tasks(&mut platform);
//!
//! // Seat two simulated honest players and play one ESP session.
//! let mut population = PopulationBuilder::new(2)
//!     .mix(ArchetypeMix::all_honest())
//!     .build(&mut rng);
//! platform.register_player();
//! platform.register_player();
//! let transcript = play_session(
//!     &mut platform, &world, &mut population,
//!     SessionParams::pair(
//!         PlayerId::new(0), PlayerId::new(1),
//!         SessionId::new(0), SimTime::ZERO,
//!     ),
//!     &mut rng,
//! );
//! println!(
//!     "{} rounds, {} verified labels",
//!     transcript.rounds(),
//!     platform.verified_labels().len(),
//! );
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

/// The core platform: templates, sessions, verification, metrics.
pub mod core {
    pub use hc_core::*;
}

/// The simulated crowd substrate.
pub mod crowd {
    pub use hc_crowd::*;
}

/// The concrete games and their worlds.
pub mod games {
    pub use hc_games::*;
}

/// CAPTCHA and reCAPTCHA.
pub mod captcha {
    pub use hc_captcha::*;
}

/// Label-aggregation baselines.
pub mod aggregate {
    pub use hc_aggregate::*;
}

/// The task-lifecycle service: a deterministic request/response state
/// machine over the platform, plus the TCP line-JSON front shim.
pub mod serve {
    pub use hc_serve::*;
}

/// The discrete-event simulation kernel.
pub mod sim {
    pub use hc_sim::*;
}

/// Deterministic sim-time observability: recording scopes, spans,
/// events, the metrics registry, and the JSONL / Chrome trace sinks.
pub mod obs {
    pub use hc_obs::*;
}

/// One-stop imports for examples and downstream applications.
pub mod prelude {
    pub use hc_aggregate::prelude::*;
    pub use hc_captcha::{
        Captcha, CaptchaOutcome, DigitizationPipeline, HumanReader, OcrEngine, ReCaptcha,
        ReCaptchaConfig, ScannedCorpus,
    };
    pub use hc_core::prelude::*;
    pub use hc_crowd::{
        ArchetypeMix, Behavior, EngagementModel, LabelDistribution, PlayerProfile, Population,
        PopulationBuilder, ResponseTimeModel, SkillDynamics, SkillState, Vocabulary,
    };
    pub use hc_games::{
        matchin::play_matchin_session, peekaboom::play_peekaboom_session, play_session,
        squigl::play_squigl_session, BradleyTerryRanking, Campaign, CampaignConfig, CampaignReport,
        EspWorld, MatchinWorld, PeekaboomWorld, SessionDriver, SessionParams, SquiglWorld,
        TagATuneDriver, TagATuneWorld, VerbosityWorld, WorldConfig,
    };
    pub use hc_sim::prelude::*;
}
