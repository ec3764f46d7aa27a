//! Skill dynamics: practice and fatigue.
//!
//! The deployed games' skill ladders exist because players *improve* —
//! ESP throughput rises over a player's first sessions as they learn the
//! "obvious label first" strategy — and sag *within* a long sitting as
//! attention fades. [`SkillDynamics`] models both as a multiplicative
//! adjustment applied to a player's base skill:
//!
//! `effective = base × learning(rounds_lifetime) × fatigue(minutes_in_sitting)`
//!
//! * learning: `1 + gain × (1 − exp(−rounds/τ))` — saturating practice
//!   curve;
//! * fatigue: `1 − slope × max(0, minutes − onset)` (floored) — linear
//!   decline after an onset.
//!
//! The T1 throughput measurement and the F6 engagement sweeps compose
//! with this model; it is also reusable on its own for ablations.

use serde::{Deserialize, Serialize};

/// Parameters of the practice/fatigue adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkillDynamics {
    /// Maximum relative improvement from practice (e.g. 0.25 = +25%).
    pub learning_gain: f64,
    /// Rounds to reach ~63% of the learning gain.
    pub learning_tau_rounds: f64,
    /// Minutes into a sitting before fatigue starts.
    pub fatigue_onset_mins: f64,
    /// Relative skill lost per minute past the onset.
    pub fatigue_slope_per_min: f64,
    /// Floor on the fatigue multiplier.
    pub fatigue_floor: f64,
}

impl Default for SkillDynamics {
    /// Mild practice gain (+20% saturating over ~60 rounds), fatigue
    /// setting in after 20 minutes at 1%/min, floored at 60%.
    fn default() -> Self {
        SkillDynamics {
            learning_gain: 0.20,
            learning_tau_rounds: 60.0,
            fatigue_onset_mins: 20.0,
            fatigue_slope_per_min: 0.01,
            fatigue_floor: 0.6,
        }
    }
}

impl SkillDynamics {
    /// A static model: no practice effect, no fatigue.
    #[must_use]
    pub fn none() -> Self {
        SkillDynamics {
            learning_gain: 0.0,
            learning_tau_rounds: 1.0,
            fatigue_onset_mins: f64::INFINITY,
            fatigue_slope_per_min: 0.0,
            fatigue_floor: 1.0,
        }
    }

    /// The practice multiplier after a lifetime total of `rounds` rounds.
    #[must_use]
    pub fn learning_multiplier(&self, rounds: u64) -> f64 {
        if self.learning_tau_rounds <= 0.0 {
            return 1.0 + self.learning_gain.max(0.0);
        }
        1.0 + self.learning_gain.max(0.0)
            * (1.0 - (-(rounds as f64) / self.learning_tau_rounds).exp())
    }

    /// The fatigue multiplier `minutes` into the current sitting.
    #[must_use]
    pub fn fatigue_multiplier(&self, minutes: f64) -> f64 {
        let past = (minutes - self.fatigue_onset_mins).max(0.0);
        (1.0 - self.fatigue_slope_per_min.max(0.0) * past).max(self.fatigue_floor.clamp(0.0, 1.0))
    }

    /// Effective skill (clamped to `[0, 1]`).
    #[must_use]
    pub fn effective_skill(&self, base: f64, lifetime_rounds: u64, sitting_minutes: f64) -> f64 {
        (base
            * self.learning_multiplier(lifetime_rounds)
            * self.fatigue_multiplier(sitting_minutes))
        .clamp(0.0, 1.0)
    }
}

/// Per-player running state for the dynamics: rounds played over the
/// lifetime and minutes into the current sitting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SkillState {
    /// Rounds played across all sittings.
    pub lifetime_rounds: u64,
    /// Minutes into the current sitting.
    pub sitting_minutes: f64,
}

impl SkillState {
    /// Records `rounds` more rounds taking `minutes` within the sitting.
    pub fn advance(&mut self, rounds: u64, minutes: f64) {
        self.lifetime_rounds += rounds;
        self.sitting_minutes += minutes.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learning_saturates_at_the_gain() {
        let d = SkillDynamics::default();
        assert!((d.learning_multiplier(0) - 1.0).abs() < 1e-12);
        let early = d.learning_multiplier(30);
        let late = d.learning_multiplier(600);
        assert!(early > 1.0 && early < late);
        assert!((late - 1.20).abs() < 0.01, "saturates near 1.2: {late}");
    }

    #[test]
    fn fatigue_kicks_in_after_onset_and_floors() {
        let d = SkillDynamics::default();
        assert_eq!(d.fatigue_multiplier(0.0), 1.0);
        assert_eq!(d.fatigue_multiplier(20.0), 1.0);
        assert!((d.fatigue_multiplier(30.0) - 0.9).abs() < 1e-12);
        assert_eq!(d.fatigue_multiplier(1e6), 0.6, "floored");
    }

    #[test]
    fn effective_skill_is_clamped() {
        let d = SkillDynamics {
            learning_gain: 10.0,
            ..SkillDynamics::default()
        };
        assert_eq!(d.effective_skill(0.9, 10_000, 0.0), 1.0);
        assert_eq!(d.effective_skill(0.0, 10_000, 0.0), 0.0);
    }

    #[test]
    fn none_is_the_identity() {
        let d = SkillDynamics::none();
        for rounds in [0u64, 10, 1000] {
            for mins in [0.0, 30.0, 500.0] {
                assert!((d.effective_skill(0.7, rounds, mins) - 0.7).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn practice_beats_fatigue_early_then_loses() {
        let d = SkillDynamics::default();
        // Fresh player, fresh sitting.
        let fresh = d.effective_skill(0.7, 0, 0.0);
        // Veteran in minute 10 of a sitting: learning only.
        let veteran = d.effective_skill(0.7, 500, 10.0);
        // Veteran deep in a marathon sitting: fatigue dominates.
        let tired = d.effective_skill(0.7, 500, 70.0);
        assert!(veteran > fresh);
        assert!(tired < veteran);
    }

    #[test]
    fn state_advances_and_ignores_negative_minutes() {
        let mut s = SkillState::default();
        s.advance(10, 5.0);
        s.advance(5, -3.0); // negative minutes ignored
        assert_eq!(s.lifetime_rounds, 15);
        assert!((s.sitting_minutes - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_tau_jumps_to_full_gain() {
        let d = SkillDynamics {
            learning_tau_rounds: 0.0,
            ..SkillDynamics::default()
        };
        assert!((d.learning_multiplier(0) - 1.2).abs() < 1e-12);
    }
}
