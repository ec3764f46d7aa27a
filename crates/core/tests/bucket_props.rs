//! Partition-boundary properties for sharded matchmaking.
//!
//! Two equivalences pin the bucketed design:
//!
//! 1. **Pool vs hub-global matchmaker** — fed the same arrivals and the same
//!    RNG stream, a single [`BucketPool`] reproduces the pairing sequence of
//!    the streaming [`Matchmaker`] it replaced (decisions, timeouts, waits,
//!    stats). That matchmaker's arrival and timeout logic is kept below as
//!    the oracle.
//! 2. **Sharded vs serial reduction** — distributing buckets over any
//!    `--shards` layout, stepping shards only when they hold arrivals or a
//!    sweep deadline is due (the engine's wake discipline), produces the
//!    exact per-bucket pair/timeout sequences of a serial hub-global run
//!    that owns every bucket and sweeps every window. This is the property
//!    that makes campaign results byte-identical at any layout.

use hc_core::bucket::{BucketLayout, BucketPool};
use hc_core::matchmaker::{MatchDecision, MatchmakerConfig, MatchmakerStats};
use hc_core::PlayerId;
use hc_sim::{RngFactory, SimDuration, SimTime};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The oracle: the hub-global streaming matchmaker's wait pool, as it
/// paired players before [`BucketPool`] replaced it.
#[derive(Debug)]
struct Matchmaker {
    waiting: Vec<(SimTime, PlayerId)>,
    last_partner: BTreeMap<PlayerId, PlayerId>,
    config: MatchmakerConfig,
    stats: MatchmakerStats,
    waits: u64,
}

impl Matchmaker {
    fn new(config: MatchmakerConfig) -> Self {
        Matchmaker {
            waiting: Vec::new(),
            last_partner: BTreeMap::new(),
            config,
            stats: MatchmakerStats::default(),
            waits: 0,
        }
    }

    /// Pairs with a uniformly random eligible waiter (one `gen_range`
    /// draw over the eligible count) or queues.
    fn on_arrival(&mut self, now: SimTime, player: PlayerId, rng: &mut impl Rng) -> MatchDecision {
        let last = self.last_partner.get(&player).copied();
        let eligible = |candidate: PlayerId| {
            candidate != player && !(self.config.avoid_rematch && Some(candidate) == last)
        };
        let candidates: Vec<usize> = (0..self.waiting.len())
            .filter(|&i| eligible(self.waiting[i].1))
            .collect();
        if candidates.is_empty() {
            self.waiting.push((now, player));
            return MatchDecision::Queued;
        }
        let pick = candidates[rng.gen_range(0..candidates.len())];
        let (entered, partner) = self.waiting.swap_remove(pick);
        self.last_partner.insert(player, partner);
        self.last_partner.insert(partner, player);
        self.stats.live_pairs += 1;
        self.waits += 1;
        MatchDecision::Paired {
            partner,
            waited: now.saturating_since(entered),
        }
    }

    /// Removes every waiter at or past the bot-fallback threshold, in
    /// queue order, with their waits.
    fn take_timed_out(&mut self, now: SimTime) -> Vec<(PlayerId, SimDuration)> {
        let threshold = self.config.bot_fallback_wait;
        let (out, kept): (Vec<_>, Vec<_>) = self
            .waiting
            .drain(..)
            .partition(|&(entered, _)| now.saturating_since(entered) >= threshold);
        self.waiting = kept;
        self.stats.replay_pairs += out.len() as u64;
        self.waits += out.len() as u64;
        out.into_iter()
            .map(|(entered, p)| (p, now.saturating_since(entered)))
            .collect()
    }
}

const WINDOW_SECS: u64 = 10;

#[derive(Debug, Clone, PartialEq)]
enum PoolEvent {
    Paired {
        at: SimTime,
        player: PlayerId,
        partner: PlayerId,
        waited: SimDuration,
    },
    Queued {
        at: SimTime,
        player: PlayerId,
    },
    TimedOut {
        at: SimTime,
        player: PlayerId,
    },
}

/// One arrival after generation: delivery-windowed and bucketed.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    player: PlayerId,
    bucket: u32,
}

fn window_of(at: SimTime) -> u64 {
    at.ticks() / SimDuration::from_secs(WINDOW_SECS).ticks()
}

fn last_tick(window: u64) -> SimTime {
    SimTime::from_ticks((window + 1) * SimDuration::from_secs(WINDOW_SECS).ticks() - 1)
}

/// Runs `arrivals` through `buckets` pools hosted on `shards` shards.
///
/// `serial` mode models the hub-global reference: every bucket lives on one
/// "shard" that is stepped (and swept) every window. Sharded mode steps a
/// shard only when it has deliveries or a previously-reported pool deadline
/// falls inside the window — the engine's wake discipline — so divergence
/// here would mean sweep timing depends on co-scheduled work.
fn run_layout(
    arrivals: &[Arrival],
    cfg: MatchmakerConfig,
    buckets: u32,
    shards: usize,
    seed: u64,
    serial: bool,
) -> Vec<Vec<PoolEvent>> {
    let factory = RngFactory::new(seed);
    let mut pools: Vec<BucketPool> = (0..buckets).map(|_| BucketPool::new(cfg)).collect();
    let mut draws: Vec<u64> = vec![0; buckets as usize];
    let mut events: Vec<Vec<PoolEvent>> = vec![Vec::new(); buckets as usize];
    let mut scratch: Vec<(PlayerId, SimDuration)> = Vec::new();

    // Deliveries grouped by (delivery window, bucket), in (time, player) key
    // order — the exchange guarantees exactly this order per destination.
    let mut deliveries: Vec<(u64, Arrival)> =
        arrivals.iter().map(|&a| (window_of(a.at) + 1, a)).collect();
    deliveries.sort_by_key(|&(w, a)| (w, a.at, a.player.raw()));
    let last_window = deliveries.iter().map(|&(w, _)| w).max().unwrap_or(0) + 64;

    // Per-shard wake (next deadline over its pools), None = idle.
    let mut wakes: Vec<Option<SimTime>> = vec![Some(SimTime::ZERO); shards];
    let mut cursor = 0usize;
    for window in 0..=last_window {
        let end = last_tick(window);
        let mut delivered: Vec<Vec<Arrival>> = vec![Vec::new(); shards];
        while cursor < deliveries.len() && deliveries[cursor].0 == window {
            let a = deliveries[cursor].1;
            delivered[a.bucket as usize % shards].push(a);
            cursor += 1;
        }
        for shard in 0..shards {
            let due = wakes[shard].is_some_and(|w| w <= end);
            if !serial && delivered[shard].is_empty() && !due {
                continue;
            }
            for &a in &delivered[shard] {
                let b = a.bucket as usize;
                let mut rng =
                    factory.indexed_stream("match", (u64::from(a.bucket) << 40) | draws[b]);
                draws[b] += 1;
                match pools[b].on_arrival(a.at, a.player, &mut rng) {
                    MatchDecision::Paired { partner, waited } => {
                        events[b].push(PoolEvent::Paired {
                            at: a.at,
                            player: a.player,
                            partner,
                            waited,
                        });
                    }
                    MatchDecision::Queued => {
                        events[b].push(PoolEvent::Queued {
                            at: a.at,
                            player: a.player,
                        });
                    }
                }
            }
            let mut wake: Option<SimTime> = None;
            for b in (0..buckets as usize).filter(|b| b % shards == shard) {
                scratch.clear();
                pools[b].take_timed_out_into(end, &mut scratch);
                for &(p, _) in &scratch {
                    events[b].push(PoolEvent::TimedOut { at: end, player: p });
                }
                if let Some(d) = pools[b].next_deadline() {
                    wake = Some(wake.map_or(d, |w| w.min(d)));
                }
            }
            wakes[shard] = wake;
        }
    }
    events
}

proptest! {
    #[test]
    fn sharded_layouts_match_the_serial_reference(
        seed in 0u64..1_000,
        buckets in 1u32..5,
        shards_a in 1usize..5,
        shards_b in 1usize..5,
        raw in prop::collection::vec((0u64..240, 1u64..40, 0u32..1_000), 1..120),
    ) {
        let layout = BucketLayout::new(buckets);
        let mut arrivals: Vec<Arrival> = raw
            .iter()
            .map(|&(sec, id, skill_raw)| Arrival {
                at: SimTime::from_secs(sec),
                player: PlayerId::new(id),
                bucket: layout.bucket_of(f64::from(skill_raw) / 1_000.0),
            })
            .collect();
        arrivals.sort_by_key(|a| (a.at, a.player.raw()));
        let cfg = MatchmakerConfig {
            bot_fallback_wait: SimDuration::from_secs(15),
            avoid_rematch: true,
        };
        let reference = run_layout(&arrivals, cfg, buckets, 1, seed, true);
        let lay_a = run_layout(&arrivals, cfg, buckets, shards_a, seed, false);
        let lay_b = run_layout(&arrivals, cfg, buckets, shards_b, seed, false);
        prop_assert_eq!(&lay_a, &reference);
        prop_assert_eq!(&lay_b, &reference);
    }

    #[test]
    fn single_pool_reproduces_hub_global_matchmaker(
        seed in 0u64..1_000,
        raw in prop::collection::vec((0u64..120, 1u64..25), 1..150),
    ) {
        let cfg = MatchmakerConfig::default();
        let mut pool = BucketPool::new(cfg);
        let mut hub = Matchmaker::new(cfg);
        let mut r_pool = rand::rngs::StdRng::seed_from_u64(seed);
        let mut r_hub = rand::rngs::StdRng::seed_from_u64(seed);
        let mut arrivals = raw.clone();
        arrivals.sort_unstable();
        for (i, &(sec, id)) in arrivals.iter().enumerate() {
            let at = SimTime::from_secs(sec);
            let p = PlayerId::new(id);
            prop_assert_eq!(
                pool.on_arrival(at, p, &mut r_pool),
                hub.on_arrival(at, p, &mut r_hub)
            );
            // Interleave sweeps so timeout paths are compared too.
            if i % 7 == 6 {
                let mut spill = Vec::new();
                pool.take_timed_out_into(at, &mut spill);
                prop_assert_eq!(spill, hub.take_timed_out(at));
            }
        }
        let horizon = SimTime::from_secs(10_000);
        let mut spill = Vec::new();
        pool.take_timed_out_into(horizon, &mut spill);
        prop_assert_eq!(spill, hub.take_timed_out(horizon));
        prop_assert_eq!(pool.stats(), hub.stats);
        prop_assert_eq!(pool.queue_len(), hub.waiting.len());
        prop_assert_eq!(pool.wait_stats().count(), hub.waits);
    }
}
