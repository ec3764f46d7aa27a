//! The session loop every game plays through.
//!
//! Every `play_*_session` function takes a [`SessionParams`] (who plays
//! and when; the platform, world, population and RNG stay separate
//! because they are borrowed, not copied). All seven of them, and the
//! sharded campaign's players, keep their timed rounds, points and
//! streak in one `SessionPlay`: ask `can_play_more` and `now`, play the
//! round, then `record` it.

use hc_core::prelude::*;

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
/// twice and the replayed partner scores nothing.
#[derive(Debug)]
pub(crate) struct SessionPlay {
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

    /// When the next round starts.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// A round's time limit.
    pub(crate) fn round_limit(&self) -> SimDuration {
        self.session.config().round_time_limit
    }

    pub(crate) fn can_play_more(&self) -> bool {
        self.session.can_play_more(self.now)
    }

    /// Scores and records one finished round; the next round starts at
    /// `next`.
    pub(crate) fn record(
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

/// Emits a finished serial session's span when a trace is recording.
pub(crate) fn trace_session(name: &str, transcript: &SessionTranscript) {
    if hc_obs::active() {
        hc_obs::span(
            "games",
            name,
            transcript.started.ticks(),
            transcript.ended.ticks(),
            &[
                ("rounds", transcript.rounds().into()),
                ("matched", transcript.matched_count().into()),
            ],
        );
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
