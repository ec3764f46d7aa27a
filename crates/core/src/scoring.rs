//! Scoring, skill levels and leaderboards.
//!
//! The paper lists the retention mechanics that turn a labeling chore into
//! a game people *choose* to play: timed response, score keeping, skill
//! levels, and high-score lists. These directly drive ALP (average lifetime
//! play) and therefore expected contribution, so they are first-class
//! library objects here — experiment F6 sweeps their effect.

use crate::id::PlayerId;
use hc_collect::PlayerStore;
use serde::{Deserialize, Serialize};

/// How round events convert into points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoreRule {
    /// Points for a matched/guessed round.
    pub match_points: u32,
    /// Extra points per consecutive match beyond the first (streak bonus),
    /// capped by `max_streak_bonus`.
    pub streak_bonus: u32,
    /// Cap on the total streak bonus per round.
    pub max_streak_bonus: u32,
    /// Points for completing a round at all (participation).
    pub round_points: u32,
    /// Bonus for finishing a round quickly: awarded when the round took at
    /// most `fast_threshold_secs`.
    pub fast_bonus: u32,
    /// Threshold (seconds) for the fast bonus.
    pub fast_threshold_secs: f64,
}

impl Default for ScoreRule {
    /// Values modeled on the deployed ESP Game economy.
    fn default() -> Self {
        ScoreRule {
            match_points: 100,
            streak_bonus: 20,
            max_streak_bonus: 100,
            round_points: 5,
            fast_bonus: 25,
            fast_threshold_secs: 20.0,
        }
    }
}

impl ScoreRule {
    /// Points for one round given whether it matched, the time it took and
    /// the player's current streak (consecutive matches *before* this
    /// round).
    #[must_use]
    pub fn round_score(&self, matched: bool, round_secs: f64, streak_before: u32) -> u32 {
        let mut points = self.round_points;
        if matched {
            points += self.match_points;
            let bonus = self
                .streak_bonus
                .saturating_mul(streak_before)
                .min(self.max_streak_bonus);
            points += bonus;
            if round_secs <= self.fast_threshold_secs {
                points += self.fast_bonus;
            }
        }
        points
    }
}

/// Discrete skill tiers unlocked by cumulative score. Thresholds follow the
/// ESP Game's published ladder shape (geometric-ish growth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SkillLevel {
    /// 0+ points.
    Newcomer,
    /// 5,000+ points.
    Apprentice,
    /// 25,000+ points.
    Expert,
    /// 100,000+ points.
    Master,
    /// 500,000+ points.
    Grandmaster,
}

impl SkillLevel {
    /// The level earned by a cumulative score.
    #[must_use]
    pub fn for_score(score: u64) -> SkillLevel {
        match score {
            0..=4_999 => SkillLevel::Newcomer,
            5_000..=24_999 => SkillLevel::Apprentice,
            25_000..=99_999 => SkillLevel::Expert,
            100_000..=499_999 => SkillLevel::Master,
            _ => SkillLevel::Grandmaster,
        }
    }
}

impl std::fmt::Display for SkillLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SkillLevel::Newcomer => "newcomer",
            SkillLevel::Apprentice => "apprentice",
            SkillLevel::Expert => "expert",
            SkillLevel::Master => "master",
            SkillLevel::Grandmaster => "grandmaster",
        };
        f.write_str(name)
    }
}

/// One player's running score state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlayerScore {
    /// Cumulative points across all sessions.
    pub total: u64,
    /// Current consecutive-match streak.
    pub streak: u32,
    /// Best streak ever.
    pub best_streak: u32,
    /// Rounds played.
    pub rounds: u64,
    /// Rounds that matched.
    pub matches: u64,
}

impl PlayerScore {
    /// Current skill level.
    #[must_use]
    pub fn level(&self) -> SkillLevel {
        SkillLevel::for_score(self.total)
    }

    /// Match rate in `[0, 1]`, or 0 before any round.
    #[must_use]
    pub fn match_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.matches as f64 / self.rounds as f64
        }
    }
}

/// The platform's score book: per-player totals, streaks and levels.
///
/// # Examples
///
/// ```
/// use hc_core::{Scoreboard, ScoreRule, PlayerId, SkillLevel};
///
/// let mut board = Scoreboard::new(ScoreRule::default());
/// let p = PlayerId::new(1);
/// let pts = board.record_round(p, true, 10.0);
/// assert!(pts >= 100);
/// assert_eq!(board.score(p).unwrap().level(), SkillLevel::Newcomer);
/// ```
#[derive(Debug, Clone)]
pub struct Scoreboard {
    rule: ScoreRule,
    // Dense per-player store; `iter()` yields id order, which is the
    // BTreeMap key order the leaderboard always saw.
    scores: PlayerStore<PlayerScore>,
}

impl Scoreboard {
    /// Creates a scoreboard with the given rule.
    #[must_use]
    pub fn new(rule: ScoreRule) -> Self {
        Scoreboard {
            rule,
            scores: PlayerStore::new(),
        }
    }

    /// The active rule.
    #[must_use]
    pub fn rule(&self) -> &ScoreRule {
        &self.rule
    }

    /// Records one round for `player`; returns the points awarded.
    pub fn record_round(&mut self, player: PlayerId, matched: bool, round_secs: f64) -> u32 {
        let entry = self
            .scores
            .get_or_insert_with(player.raw(), PlayerScore::default);
        let points = self.rule.round_score(matched, round_secs, entry.streak);
        entry.total += u64::from(points);
        entry.rounds += 1;
        if matched {
            entry.matches += 1;
            entry.streak += 1;
            entry.best_streak = entry.best_streak.max(entry.streak);
        } else {
            entry.streak = 0;
        }
        points
    }

    /// A player's score state.
    #[must_use]
    pub fn score(&self, player: PlayerId) -> Option<&PlayerScore> {
        self.scores.get(player.raw())
    }

    /// Number of players with any recorded round.
    #[must_use]
    pub fn player_count(&self) -> usize {
        self.scores.len()
    }

    /// Builds the top-`n` leaderboard.
    #[must_use]
    pub fn leaderboard(&self, n: usize) -> Leaderboard {
        let mut entries: Vec<(PlayerId, u64)> = self
            .scores
            .iter()
            .map(|(p, s)| (PlayerId::new(p), s.total))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(n);
        Leaderboard { entries }
    }
}

/// A ranked high-score list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Leaderboard {
    entries: Vec<(PlayerId, u64)>,
}

impl Leaderboard {
    /// Ranked entries, best first.
    #[must_use]
    pub fn entries(&self) -> &[(PlayerId, u64)] {
        &self.entries
    }

    /// 1-based rank of a player, if present.
    #[must_use]
    pub fn rank_of(&self, player: PlayerId) -> Option<usize> {
        self.entries
            .iter()
            .position(|(p, _)| *p == player)
            .map(|i| i + 1)
    }

    /// Number of listed players.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nobody has scored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_score_components() {
        let rule = ScoreRule::default();
        // Non-match: participation only.
        assert_eq!(rule.round_score(false, 5.0, 3), 5);
        // Match, slow, no streak.
        assert_eq!(rule.round_score(true, 100.0, 0), 105);
        // Match, fast, no streak.
        assert_eq!(rule.round_score(true, 10.0, 0), 130);
        // Match, fast, streak 2 => +40 bonus.
        assert_eq!(rule.round_score(true, 10.0, 2), 170);
        // Streak bonus caps at 100.
        assert_eq!(rule.round_score(true, 100.0, 50), 205);
    }

    #[test]
    fn skill_ladder_thresholds() {
        assert_eq!(SkillLevel::for_score(0), SkillLevel::Newcomer);
        assert_eq!(SkillLevel::for_score(4_999), SkillLevel::Newcomer);
        assert_eq!(SkillLevel::for_score(5_000), SkillLevel::Apprentice);
        assert_eq!(SkillLevel::for_score(25_000), SkillLevel::Expert);
        assert_eq!(SkillLevel::for_score(100_000), SkillLevel::Master);
        assert_eq!(SkillLevel::for_score(1_000_000), SkillLevel::Grandmaster);
        assert!(SkillLevel::Newcomer < SkillLevel::Grandmaster);
    }

    #[test]
    fn skill_display() {
        assert_eq!(SkillLevel::Expert.to_string(), "expert");
    }

    #[test]
    fn streaks_build_and_break() {
        let mut b = Scoreboard::new(ScoreRule::default());
        let p = PlayerId::new(1);
        b.record_round(p, true, 10.0);
        b.record_round(p, true, 10.0);
        b.record_round(p, true, 10.0);
        assert_eq!(b.score(p).unwrap().streak, 3);
        b.record_round(p, false, 10.0);
        let s = b.score(p).unwrap();
        assert_eq!(s.streak, 0);
        assert_eq!(s.best_streak, 3);
        assert_eq!(s.rounds, 4);
        assert_eq!(s.matches, 3);
        assert!((s.match_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn streak_bonus_grows_across_rounds() {
        let mut b = Scoreboard::new(ScoreRule::default());
        let p = PlayerId::new(1);
        let first = b.record_round(p, true, 10.0);
        let second = b.record_round(p, true, 10.0);
        assert!(second > first, "streak bonus should raise per-round points");
    }

    #[test]
    fn leaderboard_ranks_by_total_then_id() {
        let mut b = Scoreboard::new(ScoreRule::default());
        for _ in 0..3 {
            b.record_round(PlayerId::new(1), true, 10.0);
        }
        b.record_round(PlayerId::new(2), true, 10.0);
        b.record_round(PlayerId::new(3), false, 10.0);
        let lb = b.leaderboard(10);
        assert_eq!(lb.rank_of(PlayerId::new(1)), Some(1));
        assert_eq!(lb.rank_of(PlayerId::new(2)), Some(2));
        assert_eq!(lb.rank_of(PlayerId::new(3)), Some(3));
        assert_eq!(lb.rank_of(PlayerId::new(99)), None);
        assert_eq!(lb.len(), 3);

        let top1 = b.leaderboard(1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1.entries()[0].0, PlayerId::new(1));
    }

    #[test]
    fn empty_scoreboard() {
        let b = Scoreboard::new(ScoreRule::default());
        assert_eq!(b.player_count(), 0);
        assert!(b.leaderboard(5).is_empty());
        assert!(b.score(PlayerId::new(1)).is_none());
        assert_eq!(b.rule().match_points, 100);
    }

    #[test]
    fn match_rate_zero_before_rounds() {
        let s = PlayerScore::default();
        assert_eq!(s.match_rate(), 0.0);
        assert_eq!(s.level(), SkillLevel::Newcomer);
    }
}
