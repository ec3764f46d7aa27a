//! # hc-games — the concrete Games With A Purpose
//!
//! The target paper surveys five deployed games, one (or two) per
//! template; this crate implements all of them on top of the `hc-core`
//! templates, driven by `hc-crowd` players over synthetic stimulus worlds:
//!
//! | Game | Template | Output |
//! |---|---|---|
//! | [`esp`] (ESP Game) | output-agreement | image labels |
//! | [`tagatune`] (TagATune) | input-agreement | audio-clip tags |
//! | [`verbosity`] (Verbosity) | inversion-problem | commonsense facts |
//! | [`peekaboom`] (Peekaboom) | inversion-problem | object locations |
//! | [`squigl`] (Squigl) | output-agreement | object segmentations |
//! | [`matchin`] (Matchin) | two-player preference | image ranking |
//!
//! [`world`] holds the synthetic ground truth each game plays over. The
//! three campaign games — [`EspWorld`], [`VerbosityWorld`] and
//! [`TagATuneDriver`] (the clip world plus its same-clip probability) —
//! each implement [`SessionDriver`], whose one required method plays a
//! round: [`play_session`] drives one session between the seats of a
//! [`SessionParams`] round by round against the
//! [`Platform`](hc_core::Platform) pipeline. Peekaboom, Squigl and
//! Matchin have their own `play_*_session` functions, and every game
//! keeps its clock and score in the one session loop in [`params`].
//! [`campaign`] runs ESP, TagATune or Verbosity as a full event-driven
//! deployment with arrivals, matchmaking and (for ESP) replay-bot
//! fallback — the machinery experiments T1 and F3–F6 run on — and
//! [`shard`] runs the same dynamics across cores, playing hub-planned
//! rounds with the same round method ([`ShardGame`]).
//!
//! ## Example: one ESP session end to end
//!
//! ```
//! use hc_core::prelude::*;
//! use hc_crowd::{ArchetypeMix, PopulationBuilder};
//! use hc_games::{play_session, EspWorld, SessionParams};
//! use hc_games::world::WorldConfig;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
//! let mut platform = Platform::new(PlatformConfig::default()).unwrap();
//! world.register_tasks(&mut platform);
//!
//! let mut pop = PopulationBuilder::new(2)
//!     .mix(ArchetypeMix::all_honest())
//!     .build(&mut rng);
//! let (a, b) = (PlayerId::new(0), PlayerId::new(1));
//! let transcript = play_session(
//!     &mut platform, &world, &mut pop,
//!     SessionParams::pair(a, b, SessionId::new(0), SimTime::ZERO),
//!     &mut rng,
//! );
//! assert!(transcript.rounds() > 0);
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

pub mod campaign;
mod deploy;
pub mod esp;
pub mod matchin;
pub mod params;
pub mod peekaboom;
pub mod shard;
pub mod squigl;
pub mod tagatune;
pub mod verbosity;
pub mod world;

pub use campaign::{Campaign, CampaignConfig, CampaignReport};
pub use esp::EspWorld;
pub use matchin::{play_matchin_session, BradleyTerryRanking, MatchinWorld};
pub use params::{play_session, SessionDriver, SessionParams};
pub use peekaboom::{play_peekaboom_session, PeekaboomWorld};
pub use shard::{ShardGame, ShardedCampaign, ShardedCampaignConfig};
pub use squigl::{play_squigl_session, SquiglWorld};
pub use tagatune::{TagATuneDriver, TagATuneWorld};
pub use verbosity::{fact_label, parse_fact, Relation, VerbosityWorld};
pub use world::WorldConfig;
