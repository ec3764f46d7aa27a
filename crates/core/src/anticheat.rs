//! Anti-cheat: collusion detection and spam detection.
//!
//! Agreement-based verification has a known attack surface: two colluders
//! who coordinate out-of-band (e.g. "always type `a`") can flood the label
//! store, and a single spammer can poison inversion games. The deployed
//! systems defended in depth — random matching makes colluders unlikely to
//! be paired, taboo lists break constant strategies, gold tasks catch
//! consistently-wrong players. This module adds the platform-side
//! *detection* layer the paper describes: [`CheatDetector`] flags
//! (a) **pair anomaly**: players who end up paired together far more
//! often than random matching predicts, and (b) **low answer entropy**:
//! players whose output distribution is degenerate (the "always type
//! `a`" strategy).

use crate::answer::Label;
use crate::id::PlayerId;
use hc_collect::PlayerStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Verdict produced by [`CheatDetector::assess`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheatAssessment {
    /// The player assessed.
    pub player: PlayerId,
    /// Highest fraction of this player's games shared with a single
    /// partner (`None` before any games).
    pub max_pair_share: Option<f64>,
    /// Shannon entropy (bits) of the player's answer distribution
    /// (`None` before any answers).
    pub answer_entropy: Option<f64>,
    /// Whether the pair-share test fired.
    pub pair_anomaly: bool,
    /// Whether the entropy test fired.
    pub low_entropy: bool,
}

impl CheatAssessment {
    /// `true` when any detector fired.
    #[must_use]
    pub fn is_suspicious(&self) -> bool {
        self.pair_anomaly || self.low_entropy
    }
}

/// Streaming collusion/spam detector.
///
/// # Examples
///
/// ```
/// use hc_core::anticheat::CheatDetector;
/// use hc_core::{Label, PlayerId};
///
/// let mut det = CheatDetector::new(0.5, 1.0, 10);
/// let (a, b) = (PlayerId::new(1), PlayerId::new(2));
/// for _ in 0..20 {
///     det.record_pairing(a, b);           // always the same partner…
///     det.record_answer(a, &Label::new("x")); // …always the same answer
/// }
/// let assessment = det.assess(a);
/// assert!(assessment.pair_anomaly);
/// assert!(assessment.low_entropy);
/// assert!(assessment.is_suspicious());
/// ```
#[derive(Debug, Clone)]
pub struct CheatDetector {
    /// partner -> count, per player. Outer layer is a dense id-indexed
    /// store (id-order iteration == the old BTreeMap key order).
    pairings: PlayerStore<BTreeMap<PlayerId, u32>>,
    /// label -> count, per player.
    answers: PlayerStore<BTreeMap<Label, u32>>,
    /// Pair-share threshold above which the pair test fires.
    max_pair_share: f64,
    /// Entropy (bits) below which the entropy test fires.
    min_entropy_bits: f64,
    /// Minimum evidence (games resp. answers) before either test may fire.
    min_evidence: u32,
}

impl CheatDetector {
    /// Creates a detector.
    ///
    /// * `max_pair_share` — flag when one partner accounts for more than
    ///   this fraction of a player's games (clamped to `[0, 1]`).
    /// * `min_entropy_bits` — flag when the answer entropy is below this.
    /// * `min_evidence` — both tests stay silent until this many games or
    ///   answers exist (at least 1).
    #[must_use]
    pub fn new(max_pair_share: f64, min_entropy_bits: f64, min_evidence: u32) -> Self {
        CheatDetector {
            pairings: PlayerStore::new(),
            answers: PlayerStore::new(),
            max_pair_share: max_pair_share.clamp(0.0, 1.0),
            min_entropy_bits: min_entropy_bits.max(0.0),
            min_evidence: min_evidence.max(1),
        }
    }

    /// Records that `a` and `b` played a session together.
    pub fn record_pairing(&mut self, a: PlayerId, b: PlayerId) {
        *self
            .pairings
            .get_or_insert_with(a.raw(), BTreeMap::new)
            .entry(b)
            .or_insert(0) += 1;
        *self
            .pairings
            .get_or_insert_with(b.raw(), BTreeMap::new)
            .entry(a)
            .or_insert(0) += 1;
    }

    /// Records one answer by `player`.
    pub fn record_answer(&mut self, player: PlayerId, label: &Label) {
        *self
            .answers
            .get_or_insert_with(player.raw(), BTreeMap::new)
            .entry(label.clone())
            .or_insert(0) += 1;
    }

    /// Total games recorded for `player`.
    #[must_use]
    pub fn games_of(&self, player: PlayerId) -> u32 {
        self.pairings
            .get(player.raw())
            .map_or(0, |m| m.values().sum())
    }

    /// Shannon entropy (bits) of the player's answer distribution.
    #[must_use]
    pub fn answer_entropy(&self, player: PlayerId) -> Option<f64> {
        let counts = self.answers.get(player.raw())?;
        let total: u32 = counts.values().sum();
        if total == 0 {
            return None;
        }
        let total = f64::from(total);
        let mut h = 0.0;
        for &c in counts.values() {
            let p = f64::from(c) / total;
            if p > 0.0 {
                h -= p * p.log2();
            }
        }
        Some(h)
    }

    /// Runs both tests for `player`.
    #[must_use]
    pub fn assess(&self, player: PlayerId) -> CheatAssessment {
        let games = self.games_of(player);
        let max_pair_share = self.pairings.get(player.raw()).and_then(|m| {
            let total: u32 = m.values().sum();
            if total == 0 {
                return None;
            }
            let max = m.values().copied().max().unwrap_or(0);
            Some(f64::from(max) / f64::from(total))
        });
        let pair_anomaly =
            games >= self.min_evidence && max_pair_share.is_some_and(|s| s > self.max_pair_share);

        let answer_total: u32 = self
            .answers
            .get(player.raw())
            .map_or(0, |m| m.values().sum());
        let answer_entropy = self.answer_entropy(player);
        let low_entropy = answer_total >= self.min_evidence
            && answer_entropy.is_some_and(|h| h < self.min_entropy_bits);

        if (pair_anomaly || low_entropy) && hc_obs::active() {
            // Counts *assessments that fired*, one per `assess` call —
            // observed only, never read back by the detector.
            hc_obs::counter_now("core.cheat_flags", 1);
        }
        CheatAssessment {
            player,
            max_pair_share,
            answer_entropy,
            pair_anomaly,
            low_entropy,
        }
    }

    /// All players with at least one recorded game or answer that assess as
    /// suspicious.
    #[must_use]
    pub fn suspicious_players(&self) -> Vec<PlayerId> {
        let mut ids: Vec<PlayerId> = self
            .pairings
            .ids()
            .chain(self.answers.ids())
            .map(PlayerId::new)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter(|p| self.assess(*p).is_suspicious())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_anomaly_needs_evidence() {
        let mut det = CheatDetector::new(0.5, 1.0, 10);
        let (a, b) = (PlayerId::new(1), PlayerId::new(2));
        for _ in 0..5 {
            det.record_pairing(a, b);
        }
        assert!(!det.assess(a).pair_anomaly, "below evidence threshold");
        for _ in 0..5 {
            det.record_pairing(a, b);
        }
        assert!(det.assess(a).pair_anomaly);
        assert_eq!(det.games_of(a), 10);
    }

    #[test]
    fn random_matching_pattern_is_clean() {
        let mut det = CheatDetector::new(0.5, 1.0, 10);
        let a = PlayerId::new(1);
        for i in 2..30 {
            det.record_pairing(a, PlayerId::new(i));
        }
        let assessment = det.assess(a);
        assert!(!assessment.pair_anomaly);
        assert!(assessment.max_pair_share.unwrap() < 0.1);
    }

    #[test]
    fn entropy_flags_constant_answers() {
        let mut det = CheatDetector::new(0.5, 1.5, 10);
        let a = PlayerId::new(1);
        for _ in 0..20 {
            det.record_answer(a, &Label::new("x"));
        }
        let assessment = det.assess(a);
        assert_eq!(assessment.answer_entropy, Some(0.0));
        assert!(assessment.low_entropy);
    }

    #[test]
    fn entropy_of_uniform_answers_is_high() {
        let mut det = CheatDetector::new(0.5, 1.5, 4);
        let a = PlayerId::new(1);
        for w in ["a", "b", "c", "d"] {
            det.record_answer(a, &Label::new(w));
        }
        let h = det.answer_entropy(a).unwrap();
        assert!((h - 2.0).abs() < 1e-12, "uniform over 4 = 2 bits, got {h}");
        assert!(!det.assess(a).low_entropy);
    }

    #[test]
    fn unknown_players_assess_clean() {
        let det = CheatDetector::new(0.5, 1.0, 1);
        let a = det.assess(PlayerId::new(42));
        assert_eq!(a.max_pair_share, None);
        assert_eq!(a.answer_entropy, None);
        assert!(!a.is_suspicious());
    }

    #[test]
    fn suspicious_players_lists_only_flagged() {
        let mut det = CheatDetector::new(0.5, 1.0, 5);
        let (a, b) = (PlayerId::new(1), PlayerId::new(2));
        // a & b collude; c plays randomly.
        for _ in 0..10 {
            det.record_pairing(a, b);
        }
        let c = PlayerId::new(3);
        for i in 10..20 {
            det.record_pairing(c, PlayerId::new(i));
        }
        let sus = det.suspicious_players();
        assert!(sus.contains(&a));
        assert!(sus.contains(&b));
        assert!(!sus.contains(&c));
    }

    #[test]
    fn pairing_is_recorded_symmetrically() {
        let mut det = CheatDetector::new(0.9, 0.0, 1);
        det.record_pairing(PlayerId::new(1), PlayerId::new(2));
        assert_eq!(det.games_of(PlayerId::new(1)), 1);
        assert_eq!(det.games_of(PlayerId::new(2)), 1);
    }
}
