//! The session loop every game plays through.
//!
//! Every session takes a [`SessionParams`] (who plays and when; the
//! platform, world, population and RNG stay separate because they are
//! borrowed, not copied) and keeps its timed rounds, points and streak
//! in one [`SessionPlay`]: ask `can_play_more` and [`SessionPlay::now`],
//! play the round, then [`SessionPlay::record`] it.
//!
//! The three campaign games (ESP, TagATune and Verbosity) implement
//! [`SessionDriver`], whose one required method plays a round. Two loops
//! drive it: [`play_session`] plans each round from the platform just
//! before playing it, and the sharded campaign plays the rounds its hub
//! planned ([`crate::shard`]). Peekaboom, Squigl and Matchin keep their
//! own `play_*_session` functions on the same `SessionPlay`.

use crate::deploy::close_session;
use crate::shard::{apply_round, plan_round, PlannedRound, PlayedRound, ShardGame};
use hc_core::prelude::*;
use hc_crowd::{PlayerProfile, Population};
use rand::Rng;

/// A campaign game's round, played by both the serial [`play_session`]
/// and the sharded campaign's jobs. Registration, precision and the
/// report name come from [`ShardGame`].
pub trait SessionDriver: ShardGame {
    /// Whether a waiter who times out plays a solo session against
    /// replays (the ESP Game's replay bot). A game without one sends the
    /// waiter home to return at a later sitting.
    const SOLO_MODE: bool = false;

    /// Puts a campaign session's seats, `[waiter, arriver]`, in the order
    /// the game plays them. Both campaign engines apply it; a direct
    /// [`play_session`] call keeps the seats it is given. The default
    /// keeps the order.
    fn campaign_seats<T>(_session: SessionId, seats: [T; 2]) -> [T; 2] {
        seats
    }

    /// Plays one planned round on the seated profiles and records it in
    /// `play`. `right` is `None` when `left` plays alone against the
    /// planned recording. Returns the round's platform effects, or `None`
    /// when the world cannot play the planned task or the game cannot
    /// seat a lone player; the session then ends.
    fn play_round<R: Rng + ?Sized>(
        &self,
        play: &mut SessionPlay,
        planned: PlannedRound,
        left: &mut PlayerProfile,
        right: Option<&mut PlayerProfile>,
        rng: &mut R,
    ) -> Option<PlayedRound>;
}

/// Plays one session of `game` against the platform and returns its
/// transcript: each round is planned just before it is played, then
/// played with [`SessionDriver::play_round`] and applied to the platform.
/// A session whose seats are equal is solo: its player plays against
/// replays, and the session clears the player's seen tasks instead of
/// being recorded (a campaign credits the play time to its own ledger).
///
/// # Panics
///
/// Panics when a seat is not in `population`.
pub fn play_session<D: SessionDriver, R: Rng + ?Sized>(
    platform: &mut Platform,
    game: &D,
    population: &mut Population,
    params: SessionParams,
    rng: &mut R,
) -> SessionTranscript {
    let [left, right] = params.seats;
    let solo = left == right;
    let seats = if solo {
        &params.seats[..1]
    } else {
        &params.seats[..]
    };
    let (left_profile, mut right_profile) = if solo {
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract for unregistered seats"
        )]
        let profile = population.get_mut(left).expect("player exists");
        (profile, None)
    } else {
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract for unregistered seats"
        )]
        let (l, r) = population
            .get_pair_mut(left, right)
            .expect("both players exist");
        (l, Some(r))
    };
    let cfg = platform.config().session;
    let mut play = SessionPlay::begin(params, cfg, cfg.score_rule);
    while play.can_play_more() {
        let Some(planned) = plan_round(platform, seats, rng) else {
            break;
        };
        let right = right_profile.as_deref_mut();
        let Some(round) = game.play_round(&mut play, planned, left_profile, right, rng) else {
            break;
        };
        apply_round(platform, round);
    }
    let transcript = play.finish();
    close_session(platform, &transcript);
    if hc_obs::active() {
        let kind = if solo { "replay_session" } else { "session" };
        hc_obs::span(
            "games",
            &format!("{}.{kind}", game.name()),
            transcript.started.ticks(),
            transcript.ended.ticks(),
            &[
                ("rounds", transcript.rounds().into()),
                ("matched", transcript.matched_count().into()),
            ],
        );
    }
    transcript
}

/// Who plays a session and when it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionParams {
    /// The two seats. A solo (replay) session repeats the same id, which
    /// matches how [`Session`] records single-player transcripts.
    pub seats: [PlayerId; 2],
    /// Id the session is recorded under.
    pub session_id: SessionId,
    /// Simulated time of the first round.
    pub start: SimTime,
}

impl SessionParams {
    /// A live two-player session.
    #[must_use]
    pub fn pair(left: PlayerId, right: PlayerId, session_id: SessionId, start: SimTime) -> Self {
        SessionParams {
            seats: [left, right],
            session_id,
            start,
        }
    }

    /// A single-player (replay/bot) session.
    #[must_use]
    pub fn solo(player: PlayerId, session_id: SessionId, start: SimTime) -> Self {
        SessionParams {
            seats: [player, player],
            session_id,
            start,
        }
    }

    /// The left seat.
    #[must_use]
    pub fn left(&self) -> PlayerId {
        self.seats[0]
    }

    /// The right seat.
    #[must_use]
    pub fn right(&self) -> PlayerId {
        self.seats[1]
    }
}

/// A session being played round by round: the transcript so far, the
/// clock, and the seats' win streak. Both seats of a live round score
/// alike, so one streak serves both; a solo session seats its player
/// twice and the replayed partner scores nothing. A
/// [`SessionDriver::play_round`] reads the round's start and limit here
/// and records the played round.
#[derive(Debug)]
pub struct SessionPlay {
    session: Session,
    now: SimTime,
    streak: u32,
    rule: ScoreRule,
}

impl SessionPlay {
    /// Starts a session; its first round starts at `params.start`.
    pub(crate) fn begin(params: SessionParams, cfg: SessionConfig, rule: ScoreRule) -> Self {
        let SessionParams {
            seats,
            session_id,
            start,
        } = params;
        SessionPlay {
            session: Session::new(session_id, seats, start, cfg),
            now: start,
            streak: 0,
            rule,
        }
    }

    /// The session's id.
    #[must_use]
    pub fn session_id(&self) -> SessionId {
        self.session.id()
    }

    /// When the next round starts.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A round's time limit.
    #[must_use]
    pub fn round_limit(&self) -> SimDuration {
        self.session.config().round_time_limit
    }

    pub(crate) fn can_play_more(&self) -> bool {
        self.session.can_play_more(self.now)
    }

    /// Scores and records one finished round; the next round starts at
    /// `next`.
    pub fn record(
        &mut self,
        template: TemplateKind,
        task: TaskId,
        matched: bool,
        candidate_outputs: u32,
        duration: SimDuration,
        next: SimTime,
    ) {
        let score = self
            .rule
            .round_score(matched, duration.as_secs_f64(), self.streak);
        let [left, right] = self.session.players();
        self.streak = if matched { self.streak + 1 } else { 0 };
        self.session.record_round(RoundRecord {
            template,
            task,
            matched,
            candidate_outputs,
            duration,
            points: [score, if left == right { 0 } else { score }],
        });
        self.now = next;
    }

    pub(crate) fn finish(self) -> SessionTranscript {
        self.session.finish(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_and_solo_constructors() {
        let p = SessionParams::pair(
            PlayerId::new(1),
            PlayerId::new(2),
            SessionId::new(9),
            SimTime::from_secs(5),
        );
        assert_eq!(p.left(), PlayerId::new(1));
        assert_eq!(p.right(), PlayerId::new(2));
        let s = SessionParams::solo(PlayerId::new(3), SessionId::new(10), SimTime::ZERO);
        assert_eq!(s.left(), s.right());
    }
}
