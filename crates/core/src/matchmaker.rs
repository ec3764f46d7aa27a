//! Random matching and the replay-bot fallback.
//!
//! Output-agreement verification rests on partners being **strangers**:
//! "random matching" is itself one of the paper's verification mechanisms,
//! because colluders cannot agree out-of-band if they are never paired.
//! The wait pool itself is [`BucketPool`](crate::BucketPool): arrivals are
//! paired with a *uniformly random* waiting player (optionally refusing
//! immediate rematches), and a player who waits too long is handed to a
//! **replay bot** — a recorded past session played back as the partner,
//! exactly the single-player fallback the deployed ESP Game used at
//! low-traffic hours (experiment F5 measures the fallback share as a
//! function of arrival rate). This module holds the pool's configuration,
//! decision and statistics types, the hub-side [`trace_pairing`] record,
//! and the epoch-based [`BatchMatcher`].

use crate::id::PlayerId;
use hc_sim::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for the matchmaker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchmakerConfig {
    /// How long a player may wait before falling back to a replay bot.
    pub bot_fallback_wait: SimDuration,
    /// Refuse to pair a player with the same partner twice in a row.
    pub avoid_rematch: bool,
}

impl Default for MatchmakerConfig {
    fn default() -> Self {
        MatchmakerConfig {
            bot_fallback_wait: SimDuration::from_secs(10),
            avoid_rematch: true,
        }
    }
}

/// Result of an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchDecision {
    /// Paired immediately with a waiting player (who waited `waited`).
    Paired {
        /// The partner drawn from the waiting pool.
        partner: PlayerId,
        /// How long that partner had been waiting.
        waited: SimDuration,
    },
    /// Nobody suitable is waiting; the player was queued.
    Queued,
}

/// Pairing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchmakerStats {
    /// Live pairs formed.
    pub live_pairs: u64,
    /// Replay-bot pairs formed.
    pub replay_pairs: u64,
    /// Players who abandoned the queue before being paired.
    pub abandonments: u64,
}

impl MatchmakerStats {
    /// Accumulates another pool's statistics (bucket-order reduction of a
    /// sharded run's per-bucket pools).
    pub fn merge(&mut self, other: &MatchmakerStats) {
        self.live_pairs += other.live_pairs;
        self.replay_pairs += other.replay_pairs;
        self.abandonments += other.abandonments;
    }

    /// Fraction of all pairs that needed the replay fallback.
    #[must_use]
    pub fn replay_share(&self) -> f64 {
        let total = self.live_pairs + self.replay_pairs;
        if total == 0 {
            0.0
        } else {
            self.replay_pairs as f64 / total as f64
        }
    }
}

/// Records one resolved wait on the `hc-obs` trace: a live pair when
/// `partner` is `Some`, a replay-bot fallback when it is `None`.
///
/// [`BucketPool`](crate::BucketPool) is reachable from shard workers and
/// therefore stays telemetry-free; every serial caller that resolves a
/// wait — the serial campaign loop, the task service and the sharded
/// hub — emits through this one function instead.
pub fn trace_pairing(
    at: SimTime,
    player: PlayerId,
    partner: Option<PlayerId>,
    waited: SimDuration,
) {
    if !hc_obs::active() {
        return;
    }
    let t = at.ticks();
    let player = ("player", u64::from(player).into());
    let waited_us = ("waited_us", waited.ticks().into());
    match partner {
        Some(partner) => {
            hc_obs::counter("core.pairs_live", t, 1);
            hc_obs::observe("core.pair_wait_secs", t, waited.as_secs_f64());
            let partner = ("partner", u64::from(partner).into());
            hc_obs::event("core", "pair", t, &[player, partner, waited_us]);
        }
        None => {
            hc_obs::counter("core.pairs_replay", t, 1);
            hc_obs::observe("core.pair_wait_secs", t, waited.as_secs_f64());
            hc_obs::event("core", "replay_fallback", t, &[player, waited_us]);
        }
    }
}

/// How a [`BatchMatcher`] pairs the players of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairingPolicy {
    /// Pair players in arrival order (what a naive queue does). Two
    /// colluders who press "play" at the same moment sit adjacent and get
    /// each other with near-certainty — the attack surface the paper's
    /// *random matching* exists to close.
    Adjacent,
    /// Shuffle the epoch before pairing (the deployed defense): a
    /// colluder's chance of drawing their partner is `1/(n-1)` regardless
    /// of arrival timing.
    Random,
}

/// Epoch-based matchmaking: arrivals accumulate, then one call pairs the
/// whole batch under a [`PairingPolicy`]. This is the matching model of
/// busy portals (the deployed ESP Game matched in rounds); the streaming
/// [`BucketPool`](crate::BucketPool) models thin traffic.
///
/// # Examples
///
/// ```
/// use hc_core::matchmaker::{BatchMatcher, PairingPolicy};
/// use hc_core::PlayerId;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut m = BatchMatcher::new(PairingPolicy::Random);
/// for i in 0..5 {
///     m.join(PlayerId::new(i));
/// }
/// let pairs = m.pair_epoch(&mut rng);
/// assert_eq!(pairs.len(), 2);
/// assert_eq!(m.waiting(), 1); // odd player out carries to the next epoch
/// ```
#[derive(Debug, Clone)]
pub struct BatchMatcher {
    policy: PairingPolicy,
    waiting: Vec<PlayerId>,
    epochs: u64,
    pairs_formed: u64,
}

impl BatchMatcher {
    /// Creates an empty matcher with the given policy.
    #[must_use]
    pub fn new(policy: PairingPolicy) -> Self {
        BatchMatcher {
            policy,
            waiting: Vec::new(),
            epochs: 0,
            pairs_formed: 0,
        }
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> PairingPolicy {
        self.policy
    }

    /// Adds a player to the current epoch (arrival order is preserved).
    pub fn join(&mut self, player: PlayerId) {
        self.waiting.push(player);
    }

    /// Players waiting for the next epoch.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.waiting.len()
    }

    /// Epochs run so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Pairs formed so far.
    #[must_use]
    pub fn pairs_formed(&self) -> u64 {
        self.pairs_formed
    }

    /// Closes the epoch: pairs everyone waiting (per policy); an odd
    /// player remains queued for the next epoch.
    pub fn pair_epoch<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<(PlayerId, PlayerId)> {
        self.epochs += 1;
        if self.policy == PairingPolicy::Random {
            // Fisher–Yates shuffle of the epoch.
            for i in (1..self.waiting.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.waiting.swap(i, j);
            }
        }
        let mut pairs = Vec::with_capacity(self.waiting.len() / 2);
        let mut iter = std::mem::take(&mut self.waiting).into_iter();
        loop {
            match (iter.next(), iter.next()) {
                (Some(a), Some(b)) => pairs.push((a, b)),
                (Some(last), None) => {
                    self.waiting.push(last);
                    break;
                }
                _ => break,
            }
        }
        self.pairs_formed += pairs.len() as u64;
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn replay_share_zero_when_no_pairs() {
        assert_eq!(MatchmakerStats::default().replay_share(), 0.0);
    }

    #[test]
    fn batch_adjacent_pairs_in_arrival_order() {
        let mut r = rng();
        let mut m = BatchMatcher::new(PairingPolicy::Adjacent);
        for i in 0..4 {
            m.join(PlayerId::new(i));
        }
        let pairs = m.pair_epoch(&mut r);
        assert_eq!(
            pairs,
            vec![
                (PlayerId::new(0), PlayerId::new(1)),
                (PlayerId::new(2), PlayerId::new(3)),
            ]
        );
        assert_eq!(m.waiting(), 0);
        assert_eq!(m.pairs_formed(), 2);
        assert_eq!(m.epochs(), 1);
        assert_eq!(m.policy(), PairingPolicy::Adjacent);
    }

    #[test]
    fn batch_odd_player_carries_over() {
        let mut r = rng();
        let mut m = BatchMatcher::new(PairingPolicy::Adjacent);
        for i in 0..5 {
            m.join(PlayerId::new(i));
        }
        let pairs = m.pair_epoch(&mut r);
        assert_eq!(pairs.len(), 2);
        assert_eq!(m.waiting(), 1);
        // The leftover joins the next epoch's pairing.
        m.join(PlayerId::new(9));
        let pairs = m.pair_epoch(&mut r);
        assert_eq!(pairs, vec![(PlayerId::new(4), PlayerId::new(9))]);
    }

    #[test]
    fn batch_random_breaks_adjacency() {
        // Colluders always arrive adjacent (slots 0 and 1) in a 10-player
        // epoch; random pairing should pair them ~1/9 of the time,
        // adjacent pairing 100%.
        let mut r = rng();
        let trials = 2_000;
        let mut together = [0u32; 2];
        for (pi, policy) in [PairingPolicy::Adjacent, PairingPolicy::Random]
            .into_iter()
            .enumerate()
        {
            for _ in 0..trials {
                let mut m = BatchMatcher::new(policy);
                for i in 0..10 {
                    m.join(PlayerId::new(i));
                }
                let pairs = m.pair_epoch(&mut r);
                let colluders_paired = pairs
                    .iter()
                    .any(|(a, b)| (a.raw(), b.raw()) == (0, 1) || (a.raw(), b.raw()) == (1, 0));
                if colluders_paired {
                    together[pi] += 1;
                }
            }
        }
        assert_eq!(together[0], trials, "adjacent always pairs colluders");
        let random_rate = f64::from(together[1]) / f64::from(trials);
        assert!(
            (random_rate - 1.0 / 9.0).abs() < 0.03,
            "random colluder-pair rate {random_rate}"
        );
    }

    #[test]
    fn batch_empty_epoch_is_fine() {
        let mut r = rng();
        let mut m = BatchMatcher::new(PairingPolicy::Random);
        assert!(m.pair_epoch(&mut r).is_empty());
        m.join(PlayerId::new(1));
        assert!(m.pair_epoch(&mut r).is_empty());
        assert_eq!(m.waiting(), 1);
    }
}
