//! The wait pool: random matching with a replay-bot fallback.
//!
//! [`BucketPool`] is the one pairing pool in the workspace. The serial
//! campaign loop and the task service each own a single pool; a sharded
//! run partitions its wait pool by a **deterministic skill tier** (a pure
//! function of the player's profile, never of the shard layout), each
//! bucket is owned by one shard (`bucket % shards`), and pairing runs
//! inside the shard window on worker threads. Only matched pairs and
//! replay-fallback spillover reduce through the hub, via the key-ordered
//! exchange.
//!
//! Two properties make the sharded form byte-identical at any
//! `--shards×--threads`:
//!
//! 1. A bucket's pairing outcome depends only on its own arrival
//!    subsequence (delivered in `(time, player)` exchange-key order) and its
//!    own counter-indexed RNG stream — never on which shard hosts it.
//! 2. Replay-fallback sweeps fire at the bucket's own deadline windows
//!    ([`BucketPool::next_deadline`] feeds the shard wake), so sweep timing
//!    is a pure function of pool contents, not of co-scheduled shard work.
//!
//! The pairing algorithm is a uniform draw over eligible waiters with
//! optional strict rematch avoidance, and replay-bot fallback on timeout;
//! `tests/bucket_props.rs` pins it draw for draw against a reference
//! implementation of the same policy.
//!
//! This type is shard-reachable: it must not emit `hc-obs` telemetry (worker
//! threads carry no collector, so emissions would vary with `--threads`) and
//! every RNG it consumes must come from an indexed stream (analyzer rule R1).
//! Serial callers record each resolved wait through
//! [`trace_pairing`](crate::matchmaker::trace_pairing).

use crate::id::PlayerId;
use crate::matchmaker::{MatchDecision, MatchmakerConfig, MatchmakerStats};
use hc_collect::DetMap;
use hc_sim::{OnlineStats, SimDuration, SimTime};
use rand::Rng;

/// Number of skill tiers a campaign partitions its wait pool into.
///
/// This is a **semantic** parameter (it narrows who can pair with whom), so
/// it must never be derived from the shard count: the same population must
/// produce the same pairings at any layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketLayout {
    buckets: u32,
}

impl BucketLayout {
    /// Creates a layout with `buckets` skill tiers (clamped to at least 1).
    #[must_use]
    pub fn new(buckets: u32) -> Self {
        BucketLayout {
            buckets: buckets.max(1),
        }
    }

    /// Number of buckets.
    #[must_use]
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Maps a skill in `[0, 1]` to its tier — a pure function of the
    /// profile, shared by every shard layout.
    #[must_use]
    pub fn bucket_of(&self, skill: f64) -> u32 {
        let s = if skill.is_finite() {
            skill.clamp(0.0, 1.0)
        } else {
            0.5
        };
        // `s == 1.0` would index one past the end; clamp into range.
        ((s * f64::from(self.buckets)) as u32).min(self.buckets - 1)
    }
}

/// A wait pool: one skill tier of a sharded run, or the whole population
/// of a serial one.
///
/// # Examples
///
/// ```
/// use hc_core::bucket::BucketPool;
/// use hc_core::prelude::*;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut pool = BucketPool::new(MatchmakerConfig::default());
/// assert_eq!(
///     pool.on_arrival(SimTime::ZERO, PlayerId::new(1), &mut rng),
///     MatchDecision::Queued
/// );
/// let decision = pool.on_arrival(SimTime::from_secs(2), PlayerId::new(2), &mut rng);
/// assert!(matches!(decision, MatchDecision::Paired { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct BucketPool {
    waiting: Vec<(SimTime, PlayerId)>,
    // Buckets hold arbitrary id subsets, so rematch bookkeeping uses the
    // deterministic map rather than a dense per-id store.
    last_partner: DetMap<u64, PlayerId>,
    config: MatchmakerConfig,
    stats: MatchmakerStats,
    wait_stats: OnlineStats,
}

impl BucketPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new(config: MatchmakerConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an empty pool with room for `capacity` waiters, so the
    /// steady-state arrival path never grows the wait vector or the
    /// rematch map.
    #[must_use]
    pub fn with_capacity(config: MatchmakerConfig, capacity: usize) -> Self {
        BucketPool {
            waiting: Vec::with_capacity(capacity),
            last_partner: DetMap::with_capacity(capacity),
            config,
            stats: MatchmakerStats::default(),
            wait_stats: OnlineStats::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MatchmakerConfig {
        &self.config
    }

    /// Handles an arriving player: pairs with a uniformly random eligible
    /// waiter or queues them.
    ///
    /// Eligible waiters are everyone except the player themself and —
    /// under strict rematch avoidance — their previous partner; a player
    /// whose only possible partner is their last one queues instead, and
    /// the replay-bot fallback rescues them if nobody else shows up. One
    /// `gen_range` draw over the eligible count picks the partner, and the
    /// k-th candidate is re-found in place, so an arrival allocates
    /// nothing.
    pub fn on_arrival<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        player: PlayerId,
        rng: &mut R,
    ) -> MatchDecision {
        let last = self.last_partner.get(&player.raw()).copied();
        let eligible = |candidate: PlayerId| {
            candidate != player && !(self.config.avoid_rematch && Some(candidate) == last)
        };
        let count = self.waiting.iter().filter(|&&(_, c)| eligible(c)).count();
        if count == 0 {
            self.waiting.push((now, player));
            return MatchDecision::Queued;
        }
        let k = rng.gen_range(0..count);
        let pick = self
            .waiting
            .iter()
            .enumerate()
            .filter(|&(_, &(_, c))| eligible(c))
            .nth(k)
            .map(|(i, _)| i)
            .unwrap_or_default();
        let (entered, partner) = self.waiting.swap_remove(pick);
        let waited = now.saturating_since(entered);
        self.wait_stats.push(waited.as_secs_f64());
        self.last_partner.insert(player.raw(), partner);
        self.last_partner.insert(partner.raw(), player);
        self.stats.live_pairs += 1;
        MatchDecision::Paired { partner, waited }
    }

    /// Appends every player whose wait exceeds the bot-fallback threshold
    /// as of `now` to `out` (in queue order), with how long they waited,
    /// and removes them from the pool; returns how many timed out. The
    /// caller pairs each with a replay bot (or sends them home when the
    /// game has none; the pool counts both as replay pairs). `out` is
    /// caller-owned scratch so steady-state sweeps allocate nothing.
    pub fn take_timed_out_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<(PlayerId, SimDuration)>,
    ) -> usize {
        let threshold = self.config.bot_fallback_wait;
        let before = out.len();
        let mut write = 0;
        for read in 0..self.waiting.len() {
            let (entered, player) = self.waiting[read];
            let waited = now.saturating_since(entered);
            if waited >= threshold {
                self.wait_stats.push(waited.as_secs_f64());
                self.stats.replay_pairs += 1;
                out.push((player, waited));
            } else {
                self.waiting[write] = (entered, player);
                write += 1;
            }
        }
        self.waiting.truncate(write);
        out.len() - before
    }

    /// Drains the entire pool (end-of-run abandonment), counting every
    /// stranded player as an abandonment; yields them in queue order.
    pub fn abandon_all(&mut self) -> impl Iterator<Item = PlayerId> + '_ {
        self.stats.abandonments += self.waiting.len() as u64;
        self.waiting.drain(..).map(|(_, p)| p)
    }

    /// The earliest instant any current waiter crosses the bot-fallback
    /// threshold. Feeding this into the shard wake guarantees the sweep
    /// window is a pure function of pool contents (layout-invariant).
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.waiting
            .iter()
            .map(|&(entered, _)| entered + self.config.bot_fallback_wait)
            .min()
    }

    /// Number of players currently waiting.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Pairing statistics so far.
    #[must_use]
    pub fn stats(&self) -> MatchmakerStats {
        self.stats
    }

    /// Waiting-time statistics (seconds) over all resolved waits.
    #[must_use]
    pub fn wait_stats(&self) -> &OnlineStats {
        &self.wait_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn lenient() -> MatchmakerConfig {
        MatchmakerConfig {
            avoid_rematch: false,
            ..MatchmakerConfig::default()
        }
    }

    #[test]
    fn bucket_of_is_a_pure_clamped_tier() {
        let layout = BucketLayout::new(4);
        assert_eq!(layout.bucket_of(0.0), 0);
        assert_eq!(layout.bucket_of(0.26), 1);
        assert_eq!(layout.bucket_of(0.99), 3);
        assert_eq!(layout.bucket_of(1.0), 3);
        assert_eq!(layout.bucket_of(f64::NAN), 2);
        assert_eq!(BucketLayout::new(0).buckets(), 1);
        assert_eq!(BucketLayout::new(1).bucket_of(0.9), 0);
    }

    #[test]
    fn first_arrival_queues_second_pairs() {
        let mut r = rng();
        let mut pool = BucketPool::new(MatchmakerConfig::default());
        assert_eq!(
            pool.on_arrival(t(0), PlayerId::new(1), &mut r),
            MatchDecision::Queued
        );
        assert_eq!(pool.queue_len(), 1);
        assert_eq!(
            pool.on_arrival(t(4), PlayerId::new(2), &mut r),
            MatchDecision::Paired {
                partner: PlayerId::new(1),
                waited: SimDuration::from_secs(4),
            }
        );
        assert_eq!(pool.queue_len(), 0);
        assert_eq!(pool.stats().live_pairs, 1);
        assert_eq!(pool.wait_stats().count(), 1);
    }

    #[test]
    fn player_never_paired_with_self() {
        let mut r = rng();
        let mut pool = BucketPool::new(MatchmakerConfig::default());
        pool.on_arrival(t(0), PlayerId::new(1), &mut r);
        // The same player arriving again (e.g. a re-queue) must not
        // self-pair.
        assert_eq!(
            pool.on_arrival(t(1), PlayerId::new(1), &mut r),
            MatchDecision::Queued
        );
        assert_eq!(pool.queue_len(), 2);
    }

    #[test]
    fn strict_rematch_avoidance_queues_instead() {
        let mut r = rng();
        let mut pool = BucketPool::new(MatchmakerConfig::default());
        // 1 and 2 get paired.
        pool.on_arrival(t(0), PlayerId::new(1), &mut r);
        pool.on_arrival(t(0), PlayerId::new(2), &mut r);
        // 1 re-queues; 2 arrives but may not rematch — queues too.
        assert_eq!(
            pool.on_arrival(t(1), PlayerId::new(1), &mut r),
            MatchDecision::Queued
        );
        assert_eq!(
            pool.on_arrival(t(2), PlayerId::new(2), &mut r),
            MatchDecision::Queued
        );
        assert_eq!(pool.queue_len(), 2);
        // A third player pairs with either waiter.
        assert!(matches!(
            pool.on_arrival(t(3), PlayerId::new(3), &mut r),
            MatchDecision::Paired { .. }
        ));
        assert_eq!(pool.queue_len(), 1);
    }

    #[test]
    fn rematch_allowed_when_avoidance_disabled() {
        let mut r = rng();
        let mut pool = BucketPool::new(lenient());
        pool.on_arrival(t(0), PlayerId::new(1), &mut r);
        pool.on_arrival(t(0), PlayerId::new(2), &mut r);
        pool.on_arrival(t(1), PlayerId::new(1), &mut r);
        match pool.on_arrival(t(2), PlayerId::new(2), &mut r) {
            MatchDecision::Paired { partner, .. } => assert_eq!(partner, PlayerId::new(1)),
            MatchDecision::Queued => panic!("expected pairing"),
        }
    }

    #[test]
    fn random_pairing_spreads_partners() {
        let mut r = rng();
        let mut pool = BucketPool::new(lenient());
        // Refill 10 waiters, pair 10 fresh arrivals against them, 200
        // times over, and count partner diversity.
        let mut partner_hist: std::collections::BTreeMap<PlayerId, u32> =
            std::collections::BTreeMap::new();
        for trial in 0..200u64 {
            for i in 0..10 {
                pool.on_arrival(t(trial), PlayerId::new(100 + i), &mut r);
            }
            for i in 0..10 {
                let arriver = PlayerId::new(200 + trial * 10 + i);
                if let MatchDecision::Paired { partner, .. } =
                    pool.on_arrival(t(trial), arriver, &mut r)
                {
                    *partner_hist.entry(partner).or_insert(0) += 1;
                }
            }
        }
        assert!(
            partner_hist.len() >= 9,
            "partners drawn: {}",
            partner_hist.len()
        );
    }

    #[test]
    fn timeout_sweep_reports_waits_in_queue_order_and_reuses_scratch() {
        let cfg = MatchmakerConfig {
            bot_fallback_wait: SimDuration::from_secs(10),
            avoid_rematch: false,
        };
        let mut pool = BucketPool::new(cfg);
        let mut r = rng();
        pool.on_arrival(t(0), PlayerId::new(1), &mut r);
        pool.on_arrival(t(1), PlayerId::new(1), &mut r); // re-queue, self-pair refused
        pool.on_arrival(t(5), PlayerId::new(1), &mut r);
        let mut out = Vec::new();
        assert_eq!(pool.take_timed_out_into(t(9), &mut out), 0);
        assert_eq!(pool.take_timed_out_into(t(11), &mut out), 2);
        assert_eq!(
            out,
            vec![
                (PlayerId::new(1), SimDuration::from_secs(11)),
                (PlayerId::new(1), SimDuration::from_secs(10)),
            ]
        );
        assert_eq!(
            pool.queue_len(),
            1,
            "the t=5 entry is still within threshold"
        );
        assert_eq!(pool.next_deadline(), Some(t(15)));
        assert_eq!(pool.stats().replay_pairs, 2);
        assert_eq!(pool.wait_stats().count(), 2);
        assert!((pool.stats().replay_share() - 1.0).abs() < 1e-12);
        assert_eq!(
            pool.abandon_all().collect::<Vec<_>>(),
            vec![PlayerId::new(1)]
        );
        assert_eq!(pool.stats().abandonments, 1);
        assert_eq!(pool.next_deadline(), None);
    }
}
