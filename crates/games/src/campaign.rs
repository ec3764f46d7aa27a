//! The serial event-driven campaign — any game, full deployment dynamics.
//!
//! [`Campaign`] runs one deployment on one core: Poisson first arrivals,
//! engagement-driven sittings and return visits, random matching through
//! one [`BucketPool`], and a sweep every [`SWEEP_INTERVAL`] that hands each
//! timed-out waiter to the game's solo mode — the ESP Game's replay bot —
//! or, for a game without one, sends them home to come back after a
//! return gap. A [`SessionDriver`] plugs in the concrete game: the same
//! type that drives it on the sharded engine ([`ShardGame`]), here
//! playing whole sessions against the platform with [`play_session`].
//! [`EspWorld`](crate::esp::EspWorld),
//! [`VerbosityWorld`](crate::verbosity::VerbosityWorld) and
//! [`TagATuneDriver`](crate::tagatune::TagATuneDriver) are the three. This
//! is the machinery experiments T1, F5 and F10 run on; [`crate::shard`]
//! runs the same dynamics across cores.
//!
//! Setup, the sitting policy, the arrival and gap draws, the session
//! close-out and the report are the crate-private `deploy` rules, which
//! the sharded engine applies too; this module adds the serial loop.

use crate::deploy::{deploy, exponential_delay, SessionTally, Sitting};
use crate::params::{play_session, SessionDriver, SessionParams};
use crate::shard::ShardGame;
use hc_collect::DetMap;
use hc_core::matchmaker::{trace_pairing, MatchmakerStats};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, Population};
use hc_sim::{OnlineStats, RngFactory, SimRng, WheelQueue};

/// How often the campaign sweeps its wait pool for timed-out waiters.
pub const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Campaign configuration shared by every game.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Platform/verification parameters; `platform.matchmaker` configures
    /// the wait pool.
    pub platform: PlatformConfig,
    /// Population size.
    pub players: usize,
    /// Behaviour mix.
    pub mix: ArchetypeMix,
    /// Engagement (sitting length / churn) model.
    pub engagement: EngagementModel,
    /// Mean gap between a player's sittings (also after a give-up).
    pub mean_return_gap: SimDuration,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Spread of first arrivals.
    pub arrival_spread: SimDuration,
}

impl CampaignConfig {
    /// A small test-sized configuration.
    #[must_use]
    pub fn small() -> Self {
        CampaignConfig {
            platform: PlatformConfig {
                gold_injection_rate: 0.0,
                ..PlatformConfig::default()
            },
            players: 40,
            mix: ArchetypeMix::realistic(),
            engagement: EngagementModel::esp_calibrated(),
            mean_return_gap: SimDuration::from_mins(60),
            horizon: SimTime::from_secs(4 * 3600),
            arrival_spread: SimDuration::from_mins(30),
        }
    }
}

/// What a campaign run produced (serial or sharded). Engine statistics
/// (window and step counts) are deliberately absent: a sharded report
/// must be the same at any shard and thread layout.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Which game ran.
    pub game: &'static str,
    /// The paper's three metrics over the campaign.
    pub metrics: GwapMetrics,
    /// Verified outputs: `(correct, total)` against world truth.
    pub precision: (usize, usize),
    /// Pairing statistics. For a game without a solo mode,
    /// `replay_pairs` counts the waiters who timed out and went home.
    pub matchmaker: MatchmakerStats,
    /// Live two-player sessions completed.
    pub live_sessions: u64,
    /// Solo (replay-bot) sessions completed.
    pub solo_sessions: u64,
    /// Mean matchmaking wait (seconds).
    pub mean_wait_secs: f64,
}

impl CampaignReport {
    /// `game`'s report: metrics over the platform's ledger plus the
    /// tallied solo play, precision, and the wait pool's statistics.
    pub(crate) fn new<G: ShardGame>(
        game: &G,
        platform: &Platform,
        tally: &SessionTally,
        matchmaker: MatchmakerStats,
        waits: &OnlineStats,
    ) -> Self {
        CampaignReport {
            game: game.name(),
            metrics: GwapMetrics::with_solo_play(&platform.metrics(), &tally.solo_play),
            precision: game.precision(platform),
            matchmaker,
            live_sessions: tally.live,
            solo_sessions: tally.solo,
            mean_wait_secs: waits.mean(),
        }
    }

    /// Precision as a fraction (1.0 when nothing verified).
    #[must_use]
    pub fn precision_rate(&self) -> f64 {
        if self.precision.1 == 0 {
            1.0
        } else {
            self.precision.0 as f64 / self.precision.1 as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(PlayerId),
    Sweep,
}

#[derive(Debug)]
struct Plan {
    sittings: Vec<SimDuration>,
    sitting: Sitting,
}

/// The serial campaign runner.
#[derive(Debug)]
pub struct Campaign<D: SessionDriver> {
    driver: D,
    config: CampaignConfig,
    platform: Platform,
    population: Population,
    pool: BucketPool,
    // Per-player session plans: keyed lookups only (never iterated).
    plans: DetMap<PlayerId, Plan>,
    session_ids: hc_core::id::IdAllocator<SessionId>,
    rng: SimRng,
    tally: SessionTally,
    /// Reused timeout-sweep output.
    timed_out: Vec<(PlayerId, SimDuration)>,
}

impl<D: SessionDriver> Campaign<D> {
    /// Builds a campaign for `driver` from a config and seed.
    ///
    /// # Panics
    ///
    /// Panics when the platform config is invalid.
    pub fn new(driver: D, config: CampaignConfig, seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let (platform, population) = deploy(
            &driver,
            config.platform,
            config.players,
            &config.mix,
            &factory,
        );
        let mut plan_rng = factory.stream("plans");
        let plans = population
            .players()
            .iter()
            .map(|p| {
                let lifetime = config.engagement.sample_lifetime(&mut plan_rng);
                (
                    p.id,
                    Plan {
                        sittings: lifetime.session_lengths,
                        sitting: Sitting::default(),
                    },
                )
            })
            .collect();
        Campaign {
            driver,
            pool: BucketPool::new(config.platform.matchmaker),
            config,
            platform,
            population,
            plans,
            session_ids: hc_core::id::IdAllocator::new(),
            rng: factory.stream("campaign"),
            tally: SessionTally::default(),
            timed_out: Vec::new(),
        }
    }

    /// Runs to the horizon and reports.
    pub fn run(&mut self) -> CampaignReport {
        // Every player gets an opening arrival (plus the sweep tick), so
        // the queue's working set is at least the population.
        let mut queue: WheelQueue<Ev> = WheelQueue::with_capacity(self.config.players.max(16) + 1);
        for p in self.population.players() {
            let at = SimTime::ZERO + exponential_delay(self.config.arrival_spread, &mut self.rng);
            queue.push(at, Ev::Arrival(p.id));
        }
        queue.push(SimTime::ZERO + SWEEP_INTERVAL, Ev::Sweep);

        // Captured once: the loop must not change shape when a recording
        // subscriber appears mid-run on another layer.
        let tracing = hc_obs::active();
        let mut arrivals = 0u64;
        let mut sweeps = 0u64;
        let mut queue_high_water = 0usize;
        let mut last_now = SimTime::ZERO;

        while let Some((now, ev)) = queue.pop() {
            if now > self.config.horizon {
                break;
            }
            self.platform.set_time(now);
            match ev {
                Ev::Arrival(p) => {
                    self.arrive(&mut queue, now, p);
                    arrivals += 1;
                }
                Ev::Sweep => {
                    self.sweep(&mut queue, now);
                    queue.push(now + SWEEP_INTERVAL, Ev::Sweep);
                    sweeps += 1;
                }
            }
            if tracing {
                queue_high_water = queue_high_water.max(queue.len());
                last_now = now;
            }
        }
        if tracing {
            hc_obs::counter("games.arrivals", last_now.ticks(), arrivals);
            hc_obs::counter("games.sweeps", last_now.ticks(), sweeps);
            hc_obs::gauge(
                "games.queue_high_water",
                last_now.ticks(),
                queue_high_water as f64,
            );
            hc_obs::span(
                "games",
                &format!("{}.campaign", self.driver.name()),
                0,
                last_now.ticks(),
                &[
                    ("live_sessions", self.tally.live.into()),
                    ("replay_sessions", self.tally.solo.into()),
                ],
            );
        }
        CampaignReport::new(
            &self.driver,
            &self.platform,
            &self.tally,
            self.pool.stats(),
            self.pool.wait_stats(),
        )
    }

    fn arrive(&mut self, queue: &mut WheelQueue<Ev>, now: SimTime, player: PlayerId) {
        #[expect(
            clippy::expect_used,
            reason = "every registered player gets a plan at construction"
        )]
        let plan = self.plans.get_mut(&player).expect("planned player");
        if !plan.sitting.sit(&plan.sittings) {
            return; // churned for good
        }
        if let MatchDecision::Paired { partner, waited } =
            self.pool.on_arrival(now, player, &mut self.rng)
        {
            trace_pairing(now, player, Some(partner), waited);
            let sid = self.session_ids.next();
            let [left, right] = D::campaign_seats(sid, [partner, player]);
            let t = play_session(
                &mut self.platform,
                &self.driver,
                &mut self.population,
                SessionParams::pair(left, right, sid, now),
                &mut self.rng,
            );
            self.tally.count(&t);
            for p in [partner, player] {
                self.schedule_next(queue, t.ended, p, Some(t.duration()));
            }
        }
    }

    /// Hands every timed-out waiter to the game's solo mode, or sends
    /// them home to return after a gap with their sitting unchanged.
    fn sweep(&mut self, queue: &mut WheelQueue<Ev>, now: SimTime) {
        let mut timed_out = std::mem::take(&mut self.timed_out);
        timed_out.clear();
        self.pool.take_timed_out_into(now, &mut timed_out);
        for &(player, waited) in &timed_out {
            if !D::SOLO_MODE {
                self.schedule_next(queue, now, player, None);
                continue;
            }
            let sid = self.session_ids.next();
            let t = play_session(
                &mut self.platform,
                &self.driver,
                &mut self.population,
                SessionParams::solo(player, sid, now),
                &mut self.rng,
            );
            trace_pairing(now, player, None, waited);
            self.tally.count(&t);
            self.schedule_next(queue, t.ended, player, Some(t.duration()));
        }
        self.timed_out = timed_out;
    }

    /// Schedules `player`'s next arrival after a session that ended at
    /// `end` having played `played`, or after a give-up at `end`.
    fn schedule_next(
        &mut self,
        queue: &mut WheelQueue<Ev>,
        end: SimTime,
        player: PlayerId,
        played: Option<SimDuration>,
    ) {
        #[expect(
            clippy::expect_used,
            reason = "every registered player gets a plan at construction"
        )]
        let plan = self.plans.get_mut(&player).expect("planned player");
        let (mean, rng) = (self.config.mean_return_gap, &mut self.rng);
        if let Some(at) = plan
            .sitting
            .next_arrival(end, played, &plan.sittings, || exponential_delay(mean, rng))
        {
            queue.push(at, Ev::Arrival(player));
        }
    }

    /// Post-run access to the platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esp::EspWorld;
    use crate::params::SessionPlay;
    use crate::shard::{
        play_planned, PlannedRound, PlayedRound, PlayedSession, SessionJob, ShardGame,
        ShardedCampaign, ShardedCampaignConfig,
    };
    use crate::tagatune::TagATuneDriver;
    use crate::verbosity::VerbosityWorld;
    use crate::world::WorldConfig;
    use hc_crowd::{PlayerProfile, PopulationBuilder};
    use rand::Rng;
    use std::sync::{Arc, Mutex, PoisonError};

    fn small(players: usize, hours: u64) -> CampaignConfig {
        let mut config = CampaignConfig::small();
        config.players = players;
        config.horizon = SimTime::from_secs(hours * 3600);
        config
    }

    fn world_rng(seed: u64) -> SimRng {
        RngFactory::new(seed).stream("world")
    }

    #[test]
    fn esp_campaign_runs_to_horizon_and_reports() {
        let driver = EspWorld::generate(&WorldConfig::small(), &mut world_rng(7));
        let report = Campaign::new(driver, small(40, 2), 7).run();
        assert_eq!(report.game, "esp");
        assert!(report.live_sessions > 0 && report.solo_sessions > 0);
        assert_eq!(report.matchmaker.replay_pairs, report.solo_sessions);
        assert!(report.metrics.throughput_per_human_hour > 0.0);
        assert!(
            report.precision_rate() > 0.8,
            "precision {}",
            report.precision_rate()
        );
    }

    #[test]
    fn tagatune_campaign_produces_verified_tags() {
        let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut world_rng(3));
        let report = Campaign::new(driver, small(24, 2), 3).run();
        assert_eq!(report.game, "tagatune");
        assert!(report.live_sessions > 0, "no sessions ran");
        assert_eq!(report.solo_sessions, 0, "tagatune has no solo mode");
        assert!(report.precision.1 > 0, "no tags verified");
        assert!(report.metrics.total_human_hours > 0.0);
    }

    #[test]
    fn verbosity_campaign_collects_facts() {
        let driver = VerbosityWorld::generate(&WorldConfig::small(), &mut world_rng(4));
        let report = Campaign::new(driver, small(24, 2), 4).run();
        assert_eq!(report.game, "verbosity");
        assert!(report.live_sessions > 0);
        assert!(report.precision.1 > 0, "no facts verified");
    }

    #[test]
    fn lone_verbosity_player_gives_up_and_returns_at_a_later_sitting() {
        let driver = VerbosityWorld::generate(&WorldConfig::small(), &mut world_rng(6));
        let mut config = small(1, 48);
        config.mean_return_gap = SimDuration::from_mins(5);
        let mut campaign = Campaign::new(driver, config, 6);
        let (report, trace) = hc_obs::record_scope(0, || campaign.run());
        // Nobody to pair with: every wait ends in a timeout, no solo
        // session runs (none is even allocated an id), and the player
        // keeps coming back.
        assert_eq!(report.live_sessions, 0);
        assert_eq!(report.solo_sessions, 0);
        assert_eq!(campaign.session_ids.allocated(), 0);
        let timeouts = report.matchmaker.replay_pairs;
        assert!(timeouts >= 2, "timeouts: {timeouts}");
        // Each arrival but possibly the last (still waiting at the
        // horizon) timed out; a give-up is no replay fallback.
        let arrivals = trace.metrics.counter("games.arrivals");
        assert!(arrivals == timeouts || arrivals == timeouts + 1);
        assert_eq!(trace.metrics.counter("core.pairs_replay"), 0);
        // The sweep runs every `SWEEP_INTERVAL`, so every timeout lands
        // within one interval of the fallback threshold.
        let fallback = campaign.platform().config().matchmaker.bot_fallback_wait;
        let wait = report.mean_wait_secs;
        assert!(wait >= fallback.as_secs_f64());
        assert!(wait < (fallback + SWEEP_INTERVAL).as_secs_f64());
        assert_eq!(report.metrics.total_human_hours, 0.0);
        assert_eq!(report.precision, (0, 0));
        assert_eq!(report.precision_rate(), 1.0);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let run = |seed| {
            let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut world_rng(seed));
            let r = Campaign::new(driver, small(24, 2), seed).run();
            (r.live_sessions, r.precision, r.metrics.total_outputs)
        };
        assert_eq!(run(5), run(5));
    }

    type SeatRecord = (SessionId, PlayerId, PlayerId);

    /// Verbosity that logs every round's `(session, left, right)` seats.
    /// `NARRATOR_RULE` says whether campaign sessions seat the narrator
    /// by Verbosity's rule or keep the seats as paired.
    #[derive(Debug)]
    struct SeatLog<const NARRATOR_RULE: bool> {
        world: VerbosityWorld,
        rounds: Arc<Mutex<Vec<SeatRecord>>>,
    }

    impl<const NARRATOR_RULE: bool> SeatLog<NARRATOR_RULE> {
        fn generate(seed: u64) -> Self {
            SeatLog {
                world: VerbosityWorld::generate(&WorldConfig::small(), &mut world_rng(seed)),
                rounds: Arc::default(),
            }
        }
    }

    fn logged(rounds: &Mutex<Vec<SeatRecord>>) -> Vec<SeatRecord> {
        rounds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    impl<const NARRATOR_RULE: bool> ShardGame for SeatLog<NARRATOR_RULE> {
        fn register(&self, platform: &mut Platform) {
            self.world.register(platform);
        }

        fn play(
            &self,
            job: &mut SessionJob,
            cfg: SessionConfig,
            rule: ScoreRule,
            rng: &mut SimRng,
        ) -> PlayedSession {
            play_planned(self, job, cfg, rule, rng)
        }

        fn precision(&self, platform: &Platform) -> (usize, usize) {
            self.world.precision(platform)
        }

        fn name(&self) -> &'static str {
            "verbosity"
        }
    }

    impl<const NARRATOR_RULE: bool> SessionDriver for SeatLog<NARRATOR_RULE> {
        fn campaign_seats<T>(session: SessionId, seats: [T; 2]) -> [T; 2] {
            if NARRATOR_RULE {
                VerbosityWorld::campaign_seats(session, seats)
            } else {
                seats
            }
        }

        fn play_round<R: Rng + ?Sized>(
            &self,
            play: &mut SessionPlay,
            planned: PlannedRound,
            left: &mut PlayerProfile,
            right: Option<&mut PlayerProfile>,
            rng: &mut R,
        ) -> Option<PlayedRound> {
            let seats = (play.session_id(), left.id, right.as_ref()?.id);
            self.rounds
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(seats);
            self.world.play_round(play, planned, left, right, rng)
        }
    }

    /// The seats of every round a serial and a sharded Verbosity campaign
    /// played, in that order.
    fn campaign_seat_logs<const NARRATOR_RULE: bool>(seed: u64) -> [Vec<SeatRecord>; 2] {
        let mut serial =
            Campaign::new(SeatLog::<NARRATOR_RULE>::generate(seed), small(24, 1), seed);
        serial.run();
        let game = SeatLog::<NARRATOR_RULE>::generate(seed);
        let rounds = Arc::clone(&game.rounds);
        let mut config = ShardedCampaignConfig::small();
        config.players = 24;
        config.horizon = SimTime::from_secs(3600);
        ShardedCampaign::new(game, config, seed)
            .run()
            .expect("runs");
        [logged(&serial.driver.rounds), logged(&rounds)]
    }

    #[test]
    fn campaign_sessions_seat_the_verbosity_narrator_by_session_parity_on_both_engines() {
        let ruled = campaign_seat_logs::<true>(8);
        let paired = campaign_seat_logs::<false>(8);
        for (engine, (ruled, paired)) in ["serial", "sharded"].iter().zip(ruled.iter().zip(&paired))
        {
            // Both runs play alike until the first odd session, whose
            // first round the narrator rule plays with the arriver (the
            // right seat as paired) narrating.
            let odd = paired
                .iter()
                .position(|(sid, ..)| sid.raw() % 2 == 1)
                .expect("an odd session played");
            assert!(odd > 0, "{engine}: no even session played first");
            assert_eq!(ruled[..odd], paired[..odd], "{engine}");
            let (sid, waiter, arriver) = paired[odd];
            assert_eq!(ruled[odd], (sid, arriver, waiter), "{engine}");
        }
    }

    #[test]
    fn a_direct_verbosity_session_keeps_its_seats_at_an_odd_session_id() {
        let game = SeatLog::<true>::generate(9);
        let mut platform = Platform::new(PlatformConfig::default()).expect("valid config");
        game.register(&mut platform);
        let mut rng = world_rng(9);
        let mut population = PopulationBuilder::new(2).build(&mut rng);
        let (a, b) = (PlayerId::new(1), PlayerId::new(0));
        let sid = SessionId::new(1);
        let transcript = play_session(
            &mut platform,
            &game,
            &mut population,
            SessionParams::pair(a, b, sid, SimTime::ZERO),
            &mut rng,
        );
        assert_eq!(transcript.players, [a, b]);
        let rounds = logged(&game.rounds);
        assert!(!rounds.is_empty());
        assert!(
            rounds.iter().all(|&seats| seats == (sid, a, b)),
            "{rounds:?}"
        );
    }

    #[test]
    fn a_timed_out_waiter_without_a_solo_mode_touches_no_task_and_no_session_id() {
        let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut world_rng(2));
        let mut campaign = Campaign::new(driver, small(1, 6), 2);
        let report = campaign.run();
        assert!(report.matchmaker.replay_pairs > 0, "nobody timed out");
        assert_eq!(campaign.session_ids.allocated(), 0);
        let served: Vec<u32> = campaign
            .platform()
            .tasks()
            .iter()
            .map(|t| t.times_served)
            .collect();
        assert!(!served.is_empty());
        assert!(served.iter().all(|&n| n == 0), "served counts {served:?}");
    }
}
