//! Cross-game consistency: all six games drive the same platform
//! pipeline and the same metrics accounting, so invariants that hold for
//! one template must hold for all.

use human_computation::prelude::*;
use rand::SeedableRng;

const PLAYERS: usize = 10;

fn pair(s: u64) -> (PlayerId, PlayerId) {
    let a = PlayerId::new((2 * s) % PLAYERS as u64);
    let mut b = PlayerId::new((2 * s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
    if a == b {
        b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
    }
    (a, b)
}

fn fresh(seed: u64) -> (Platform, Population, rand::rngs::StdRng) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    let pop = PopulationBuilder::new(PLAYERS)
        .mix(ArchetypeMix::all_honest())
        .skill_range(0.85, 0.95)
        .build(&mut rng);
    for _ in 0..PLAYERS {
        platform.register_player();
    }
    (platform, pop, rng)
}

/// Invariants every game session must maintain.
fn check_transcript(t: &SessionTranscript, platform: &Platform) {
    assert!(t.rounds() <= platform.config().session.max_rounds as usize);
    assert!(t.ended >= t.started);
    assert_eq!(t.total_points.len(), 2);
    let two_seats = t.players[0] != t.players[1];
    for r in &t.records {
        assert!(r.duration <= platform.config().session.round_time_limit);
        if two_seats {
            // Both seats score alike, which is why one streak serves both.
            assert_eq!(r.points[0], r.points[1]);
        }
        if !r.matched {
            // Participation-only points on unmatched rounds.
            assert_eq!(r.points[0], platform.score_rule().round_points);
        }
    }
}

#[test]
fn esp_sessions_respect_shared_invariants() {
    let (mut platform, mut pop, mut rng) = fresh(1);
    let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
    // Register AFTER platform exists but worlds must come first for id
    // mapping — rebuild the platform to keep the mapping contract.
    let mut platform2 = Platform::new(*platform.config()).unwrap();
    world.register_tasks(&mut platform2);
    for _ in 0..PLAYERS {
        platform2.register_player();
    }
    platform = platform2;
    for s in 0..5 {
        let (a, b) = pair(s);
        let t = play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut rng,
        );
        check_transcript(&t, &platform);
    }
    assert_eq!(platform.metrics().player_count as usize, PLAYERS.min(10));
}

#[test]
fn tagatune_sessions_respect_shared_invariants() {
    let (mut platform, mut pop, mut rng) = fresh(2);
    let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut rng);
    driver.world.register_tasks(&mut platform);
    for s in 0..5 {
        let (a, b) = pair(s);
        let t = play_session(
            &mut platform,
            &driver,
            &mut pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut rng,
        );
        check_transcript(&t, &platform);
    }
}

#[test]
fn verbosity_sessions_respect_shared_invariants() {
    let (mut platform, mut pop, mut rng) = fresh(3);
    let world = VerbosityWorld::generate(&WorldConfig::small(), &mut rng);
    world.register_tasks(&mut platform);
    for s in 0..5 {
        let (a, b) = pair(s);
        let t = play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut rng,
        );
        check_transcript(&t, &platform);
    }
}

#[test]
fn peekaboom_sessions_respect_shared_invariants() {
    let (mut platform, mut pop, mut rng) = fresh(4);
    let world = PeekaboomWorld::generate(&WorldConfig::small(), &mut rng);
    world.register_tasks(&mut platform);
    for s in 0..5 {
        let (a, b) = pair(s);
        let (t, out) = play_peekaboom_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut rng,
        );
        check_transcript(&t, &platform);
        for (_, region, iou) in &out.locations {
            assert!(region.area() > 0);
            assert!((0.0..=1.0).contains(iou));
        }
    }
}

#[test]
fn squigl_sessions_respect_shared_invariants() {
    let (mut platform, mut pop, mut rng) = fresh(7);
    let world = SquiglWorld::generate(&WorldConfig::small(), &mut rng);
    world.register_tasks(&mut platform);
    for s in 0..5 {
        let (a, b) = pair(s);
        let (t, out) = play_squigl_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut rng,
        );
        check_transcript(&t, &platform);
        assert_eq!(out.segmentations.len(), t.matched_count());
        for (_, region, iou) in &out.segmentations {
            assert!(region.area() > 0);
            assert!((0.0..=1.0).contains(iou));
        }
    }
}

#[test]
fn matchin_sessions_respect_shared_invariants() {
    let (mut platform, mut pop, mut rng) = fresh(5);
    let mut cfg = WorldConfig::small();
    cfg.stimuli = 40;
    let world = MatchinWorld::generate(&cfg, &mut rng);
    let mut ranking = BradleyTerryRanking::new(world.len());
    for s in 0..5 {
        let (a, b) = pair(s);
        let t = play_matchin_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut ranking,
            &mut rng,
        );
        check_transcript(&t, &platform);
    }
    assert!(ranking.comparisons() > 0.0);
}

#[test]
fn ledger_time_accounting_is_consistent_across_games() {
    // Play one session of each game on one platform family and verify the
    // ledger counts two player-sides of wall time per session.
    let (mut platform, mut pop, mut rng) = fresh(6);
    let driver = TagATuneDriver::generate(&WorldConfig::small(), 0.5, &mut rng);
    driver.world.register_tasks(&mut platform);
    let (a, b) = pair(0);
    let t = play_session(
        &mut platform,
        &driver,
        &mut pop,
        SessionParams::pair(a, b, SessionId::new(0), SimTime::ZERO),
        &mut rng,
    );
    let expected_hours = t.duration().as_hours_f64() * 2.0;
    assert!(
        (platform.metrics().total_human_hours - expected_hours).abs() < 1e-9,
        "ledger hours {} vs session duration × 2 = {}",
        platform.metrics().total_human_hours,
        expected_hours
    );
}
