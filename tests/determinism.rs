//! Reproducibility: every simulation in the workspace is a pure function
//! of its seed. These tests pin that property across crate boundaries —
//! the foundation every number in EXPERIMENTS.md rests on.

use human_computation::games::{ShardedCampaign, ShardedCampaignConfig};
use human_computation::prelude::*;
use rand::SeedableRng;

#[test]
fn esp_campaigns_are_bit_identical_per_seed() {
    let run = |seed: u64| {
        let mut config = CampaignConfig::small();
        config.players = 24;
        config.horizon = SimTime::from_secs(3_600);
        let driver = EspWorld::generate(
            &WorldConfig::small(),
            &mut RngFactory::new(seed).stream("world"),
        );
        let r = Campaign::new(driver, config, seed).run();
        (
            r.metrics.total_outputs,
            r.live_sessions,
            r.solo_sessions,
            r.precision,
            r.matchmaker.live_pairs,
        )
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6), "different seeds should diverge");
}

/// Everything a serial ESP campaign reports, with floats as raw bits and
/// the verified `(task, label, at)` sequence folded into an FNV-1a hash.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    total_outputs: u64,
    live_sessions: u64,
    solo_sessions: u64,
    precision: (usize, usize),
    live_pairs: u64,
    replay_pairs: u64,
    throughput_bits: u64,
    alp_bits: u64,
    mean_wait_bits: u64,
    verified_fnv: u64,
}

fn fnv1a(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one serial ESP campaign: `players` over `hours`, on the small
/// world or (with `f5_cell`) on experiment F5's 600-image world and
/// 45-minute arrival spread.
fn esp_fingerprint(players: usize, hours: u64, f5_cell: bool, seed: u64) -> Fingerprint {
    let mut world = WorldConfig::small();
    let mut config = CampaignConfig::small();
    config.players = players;
    config.horizon = SimTime::from_secs(hours * 3600);
    if f5_cell {
        world.stimuli = 600;
        config.arrival_spread = SimDuration::from_mins(45);
    }
    let driver = EspWorld::generate(&world, &mut RngFactory::new(seed).stream("world"));
    let mut campaign = Campaign::new(driver, config, seed);
    let r = campaign.run();
    fingerprint(&r, campaign.platform().verified_labels())
}

/// Fingerprints a finished campaign from its report and verified labels.
fn fingerprint(r: &CampaignReport, labels: &[VerifiedLabel]) -> Fingerprint {
    Fingerprint {
        total_outputs: r.metrics.total_outputs,
        live_sessions: r.live_sessions,
        solo_sessions: r.solo_sessions,
        precision: r.precision,
        live_pairs: r.matchmaker.live_pairs,
        replay_pairs: r.matchmaker.replay_pairs,
        throughput_bits: r.metrics.throughput_per_human_hour.to_bits(),
        alp_bits: r.metrics.alp_hours.to_bits(),
        mean_wait_bits: r.mean_wait_secs.to_bits(),
        verified_fnv: verified_fnv(labels),
    }
}

/// Folds the verified `(task, label, at)` sequence into an FNV-1a hash.
fn verified_fnv(labels: &[VerifiedLabel]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        let h = fnv1a(h, v.task.raw().to_le_bytes());
        let h = fnv1a(h, v.label.as_str().bytes().chain([0xff]));
        fnv1a(h, v.at.ticks().to_le_bytes())
    })
}

/// Golden fingerprints of the serial ESP campaign at seeds 1, 7 and 12:
/// 24 players over one hour, and one F5-sized cell of 64 players over a
/// day, as `(players, hours, f5_cell, seed, fingerprint)`. The literals
/// were captured from the serial loop before it moved onto the timing
/// wheel and the shared wait pool; any drift in event order, RNG draws,
/// pairing or report arithmetic fails here.
#[rustfmt::skip]
const GOLDEN: [(usize, u64, bool, u64, Fingerprint); 6] = [
    (24, 1, false, 1, Fingerprint { total_outputs: 219, live_sessions: 30, solo_sessions: 86, precision: (219, 219), live_pairs: 30, replay_pairs: 86, throughput_bits: 4631008964227945245, alp_bits: 4598220639416706359, mean_wait_bits: 4622420650783061648, verified_fnv: 1714167158042765803 }),
    (24, 1, false, 7, Fingerprint { total_outputs: 184, live_sessions: 35, solo_sessions: 110, precision: (182, 184), live_pairs: 35, replay_pairs: 110, throughput_bits: 4628763911343057997, alp_bits: 4599176491889117627, mean_wait_bits: 4622524409407056099, verified_fnv: 7559611469328204805 }),
    (24, 1, false, 12, Fingerprint { total_outputs: 203, live_sessions: 18, solo_sessions: 67, precision: (203, 203), live_pairs: 18, replay_pairs: 67, throughput_bits: 4632369153872513146, alp_bits: 4595691393926689433, mean_wait_bits: 4622556391128312763, verified_fnv: 3160704139833250396 }),
    (64, 24, true, 1, Fingerprint { total_outputs: 2268, live_sessions: 560, solo_sessions: 1761, precision: (2253, 2268), live_pairs: 560, replay_pairs: 1761, throughput_bits: 4626940367290924511, alp_bits: 4609869677557459700, mean_wait_bits: 4622451267364771823, verified_fnv: 10734632168222906756 }),
    (64, 24, true, 7, Fingerprint { total_outputs: 2255, live_sessions: 592, solo_sessions: 1767, precision: (2244, 2255), live_pairs: 592, replay_pairs: 1767, throughput_bits: 4626746196714210415, alp_bits: 4610057809977123069, mean_wait_bits: 4622424113122502283, verified_fnv: 3705937143067848295 }),
    (64, 24, true, 12, Fingerprint { total_outputs: 2281, live_sessions: 458, solo_sessions: 1663, precision: (2263, 2281), live_pairs: 458, replay_pairs: 1663, throughput_bits: 4627518453068280134, alp_bits: 4609403422458363457, mean_wait_bits: 4622559605652855795, verified_fnv: 14236767939848507978 }),
];

#[test]
fn serial_esp_campaign_matches_golden_fingerprints() {
    for (players, hours, f5_cell, seed, want) in GOLDEN {
        assert_eq!(
            esp_fingerprint(players, hours, f5_cell, seed),
            want,
            "players={players} hours={hours} seed={seed}"
        );
    }
}

/// Runs one ESP campaign on the sharded engine: 48 players over two
/// hours on the small world, at `shards` x `threads`.
fn sharded_esp_fingerprint(seed: u64, shards: usize, threads: usize) -> Fingerprint {
    let config = ShardedCampaignConfig {
        players: 48,
        horizon: SimTime::from_secs(2 * 3600),
        shards,
        threads,
        ..ShardedCampaignConfig::small()
    };
    let game = EspWorld::generate(
        &WorldConfig::small(),
        &mut RngFactory::new(seed).stream("world"),
    );
    let mut campaign = ShardedCampaign::new(game, config, seed);
    let r = campaign.run().expect("sharded campaign runs");
    fingerprint(&r, campaign.platform().verified_labels())
}

/// Golden fingerprints of the sharded ESP campaign at seeds 1, 7 and 12,
/// as `(seed, fingerprint)`. Every layout must report the same campaign,
/// so 1x1 and 2x2 share one literal. Hub planning (task choice, served
/// marks, taboo snapshots) feeds every field; a change to its order or
/// its snapshots fails here.
#[rustfmt::skip]
const SHARDED_GOLDEN: [(u64, Fingerprint); 3] = [
    (1, Fingerprint { total_outputs: 225, live_sessions: 72, solo_sessions: 268, precision: (219, 225), live_pairs: 72, replay_pairs: 268, throughput_bits: 4624715146927187158, alp_bits: 4599489877046772385, mean_wait_bits: 4622365706324241132, verified_fnv: 12952275731960647940 }),
    (7, Fingerprint { total_outputs: 185, live_sessions: 69, solo_sessions: 300, precision: (182, 185), live_pairs: 69, replay_pairs: 300, throughput_bits: 4622682146921240442, alp_bits: 4599819841833187929, mean_wait_bits: 4622445389219554790, verified_fnv: 13057919984462836524 }),
    (12, Fingerprint { total_outputs: 225, live_sessions: 96, solo_sessions: 308, precision: (221, 225), live_pairs: 96, replay_pairs: 308, throughput_bits: 4623360557595372467, alp_bits: 4600441767760436357, mean_wait_bits: 4622132937675992444, verified_fnv: 674581805557864212 }),
];

#[test]
fn sharded_esp_campaign_matches_golden_fingerprints() {
    for (seed, want) in SHARDED_GOLDEN {
        for (shards, threads) in [(1, 1), (2, 2)] {
            assert_eq!(
                sharded_esp_fingerprint(seed, shards, threads),
                want,
                "seed={seed} layout={shards}x{threads}"
            );
        }
    }
}

/// Runs one serial Verbosity campaign: 24 players over two hours on the
/// small world. Verbosity has no solo mode, so timed-out waiters go home.
fn verbosity_fingerprint(seed: u64) -> Fingerprint {
    let mut config = CampaignConfig::small();
    config.players = 24;
    config.horizon = SimTime::from_secs(2 * 3600);
    let driver = VerbosityWorld::generate(
        &WorldConfig::small(),
        &mut RngFactory::new(seed).stream("world"),
    );
    let mut campaign = Campaign::new(driver, config, seed);
    let r = campaign.run();
    fingerprint(&r, campaign.platform().verified_labels())
}

/// Runs one Verbosity campaign on the sharded engine: 48 players over two
/// hours on the small world, at `shards` x `threads`.
fn sharded_verbosity_fingerprint(seed: u64, shards: usize, threads: usize) -> Fingerprint {
    let config = ShardedCampaignConfig {
        players: 48,
        horizon: SimTime::from_secs(2 * 3600),
        shards,
        threads,
        ..ShardedCampaignConfig::small()
    };
    let game = VerbosityWorld::generate(
        &WorldConfig::small(),
        &mut RngFactory::new(seed).stream("world"),
    );
    let mut campaign = ShardedCampaign::new(game, config, seed);
    let r = campaign.run().expect("sharded campaign runs");
    fingerprint(&r, campaign.platform().verified_labels())
}

/// Golden fingerprints of the serial and the sharded Verbosity campaign
/// at seeds 1, 7 and 12, as `(seed, serial, sharded)`. Both were captured
/// while each engine still carried its own copy of the hint/guess round,
/// so they pin the narrator/guesser roles, the round rules and every RNG
/// draw across the move to one shared round function.
#[rustfmt::skip]
const VERBOSITY_GOLDEN: [(u64, Fingerprint, Fingerprint); 3] = [
    (1, Fingerprint { total_outputs: 94, live_sessions: 10, solo_sessions: 0, precision: (90, 94), live_pairs: 10, replay_pairs: 69, throughput_bits: 4637183122400162393, alp_bits: 4589972623558762251, mean_wait_bits: 4622829588691033754, verified_fnv: 8323876591790125442 }, Fingerprint { total_outputs: 98, live_sessions: 10, solo_sessions: 0, precision: (91, 98), live_pairs: 10, replay_pairs: 111, throughput_bits: 4637492888046294065, alp_bits: 4587246278956389015, mean_wait_bits: 4622852407338720955, verified_fnv: 1718472539861133979 }),
    (7, Fingerprint { total_outputs: 88, live_sessions: 8, solo_sessions: 0, precision: (77, 88), live_pairs: 8, replay_pairs: 70, throughput_bits: 4638461991753500538, alp_bits: 4588648888166400608, mean_wait_bits: 4622715569386679535, verified_fnv: 2414902201364918728 }, Fingerprint { total_outputs: 138, live_sessions: 16, solo_sessions: 0, precision: (125, 138), live_pairs: 16, replay_pairs: 111, throughput_bits: 4636475232735557755, alp_bits: 4589142206009056698, mean_wait_bits: 4622534576877224152, verified_fnv: 11449343566267885939 }),
    (12, Fingerprint { total_outputs: 94, live_sessions: 10, solo_sessions: 0, precision: (91, 94), live_pairs: 10, replay_pairs: 64, throughput_bits: 4637099079863018013, alp_bits: 4588750420362834995, mean_wait_bits: 4622901891870207374, verified_fnv: 17418350063897279134 }, Fingerprint { total_outputs: 170, live_sessions: 28, solo_sessions: 0, precision: (146, 170), live_pairs: 28, replay_pairs: 117, throughput_bits: 4634432732476699828, alp_bits: 4590356681677488140, mean_wait_bits: 4622471411217467399, verified_fnv: 5746113859293793165 }),
];

#[test]
fn serial_verbosity_campaign_matches_golden_fingerprints() {
    for (seed, want, _) in VERBOSITY_GOLDEN {
        assert_eq!(verbosity_fingerprint(seed), want, "seed={seed}");
    }
}

#[test]
fn sharded_verbosity_campaign_matches_golden_fingerprints() {
    for (seed, _, want) in VERBOSITY_GOLDEN {
        for (shards, threads) in [(1, 1), (2, 2)] {
            assert_eq!(
                sharded_verbosity_fingerprint(seed, shards, threads),
                want,
                "seed={seed} layout={shards}x{threads}"
            );
        }
    }
}

/// Runs one serial TagATune campaign: 24 players over two hours on the
/// small world, half the rounds on the same clip.
fn tagatune_fingerprint(seed: u64) -> Fingerprint {
    let mut config = CampaignConfig::small();
    config.players = 24;
    config.horizon = SimTime::from_secs(2 * 3600);
    let driver = TagATuneDriver::generate(
        &WorldConfig::small(),
        0.5,
        &mut RngFactory::new(seed).stream("world"),
    );
    let mut campaign = Campaign::new(driver, config, seed);
    let r = campaign.run();
    fingerprint(&r, campaign.platform().verified_labels())
}

/// Golden fingerprints of the serial TagATune campaign at seeds 1, 7 and
/// 12, captured while the TagATune session kept its own copy of the
/// session bookkeeping (streaks, scoring, transcript).
#[rustfmt::skip]
const TAGATUNE_GOLDEN: [(u64, Fingerprint); 3] = [
    (1, Fingerprint { total_outputs: 73, live_sessions: 5, solo_sessions: 0, precision: (69, 73), live_pairs: 5, replay_pairs: 63, throughput_bits: 4640026846854829645, alp_bits: 4589205093899792511, mean_wait_bits: 4622884686083076575, verified_fnv: 10437667972814047223 }),
    (7, Fingerprint { total_outputs: 148, live_sessions: 13, solo_sessions: 0, precision: (138, 148), live_pairs: 13, replay_pairs: 70, throughput_bits: 4638325513891018596, alp_bits: 4590879250639027590, mean_wait_bits: 4622675955823312551, verified_fnv: 7068951068120889180 }),
    (12, Fingerprint { total_outputs: 75, live_sessions: 6, solo_sessions: 0, precision: (72, 75), live_pairs: 6, replay_pairs: 54, throughput_bits: 4638778053804187316, alp_bits: 4589283427657530576, mean_wait_bits: 4622993121672541486, verified_fnv: 7169512773744226225 }),
];

#[test]
fn serial_tagatune_campaign_matches_golden_fingerprints() {
    for (seed, want) in TAGATUNE_GOLDEN {
        assert_eq!(tagatune_fingerprint(seed), want, "seed={seed}");
    }
}

/// Runs one TagATune campaign on the sharded engine: 48 players over two
/// hours on the small world, half the rounds on the same clip, at
/// `shards` x `threads`.
fn sharded_tagatune_fingerprint(seed: u64, shards: usize, threads: usize) -> Fingerprint {
    let config = ShardedCampaignConfig {
        players: 48,
        horizon: SimTime::from_secs(2 * 3600),
        shards,
        threads,
        ..ShardedCampaignConfig::small()
    };
    let game = TagATuneDriver::generate(
        &WorldConfig::small(),
        0.5,
        &mut RngFactory::new(seed).stream("world"),
    );
    let mut campaign = ShardedCampaign::new(game, config, seed);
    let r = campaign.run().expect("sharded campaign runs");
    fingerprint(&r, campaign.platform().verified_labels())
}

/// Golden fingerprints of the sharded TagATune campaign at seeds 1, 7 and
/// 12, as `(seed, fingerprint)`; 1x1, 2x2 and 3x2 layouts all reported
/// these. The hub plans each round's left clip, and the shard draws
/// same/different and the right clip from the session's own stream, so
/// both the two-clip agreements and that split of the RNG draws feed
/// every field.
#[rustfmt::skip]
const SHARDED_TAGATUNE_GOLDEN: [(u64, Fingerprint); 3] = [
    (1, Fingerprint { total_outputs: 145, live_sessions: 13, solo_sessions: 0, precision: (141, 145), live_pairs: 13, replay_pairs: 108, throughput_bits: 4638287373316334851, alp_bits: 4588315352337652344, mean_wait_bits: 4622755565254203954, verified_fnv: 327332280875810934 }),
    (7, Fingerprint { total_outputs: 124, live_sessions: 12, solo_sessions: 0, precision: (117, 124), live_pairs: 12, replay_pairs: 113, throughput_bits: 4637745868326159656, alp_bits: 4587603709804213909, mean_wait_bits: 4622608483329513507, verified_fnv: 889792001655691265 }),
    (12, Fingerprint { total_outputs: 198, live_sessions: 24, solo_sessions: 0, precision: (176, 198), live_pairs: 24, replay_pairs: 121, throughput_bits: 4636007940120564868, alp_bits: 4590786409657904366, mean_wait_bits: 4622385611110464120, verified_fnv: 9461956593063101092 }),
];

#[test]
fn sharded_tagatune_campaign_matches_golden_fingerprints() {
    for (seed, want) in SHARDED_TAGATUNE_GOLDEN {
        for (shards, threads) in [(1, 1), (2, 2)] {
            assert_eq!(
                sharded_tagatune_fingerprint(seed, shards, threads),
                want,
                "seed={seed} layout={shards}x{threads}"
            );
        }
    }
}

/// What a run of standalone sessions leaves behind: every transcript
/// (as JSON), every per-session output (as `Debug`) and every verified
/// label, each folded into an FNV-1a hash, plus the ledger's hours.
#[derive(Debug, PartialEq, Eq)]
struct SessionsFingerprint {
    rounds: usize,
    outputs: u64,
    human_hours_bits: u64,
    transcripts_fnv: u64,
    outputs_fnv: u64,
    verified_fnv: u64,
}

const T1_PLAYERS: u64 = 30;
const T1_SESSIONS: u64 = 150;

/// Experiment T1's setup: 30 players of the realistic mix on the standard
/// world, drawn from the game's own stream of `seed`, and no gold tasks.
fn t1_setup(seed: u64, game: &str) -> (Platform, SimRng) {
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    for _ in 0..T1_PLAYERS {
        platform.register_player();
    }
    (platform, RngFactory::new(seed).stream(game))
}

fn t1_population(rng: &mut SimRng) -> Population {
    PopulationBuilder::new(T1_PLAYERS as usize)
        .mix(ArchetypeMix::realistic())
        .build(rng)
}

/// Plays T1's 150 sessions with its pairing and start times. `play` returns a
/// session's transcript, its output count and its outputs' `Debug` text.
fn t1_sessions(
    platform: &mut Platform,
    rng: &mut SimRng,
    mut play: impl FnMut(&mut Platform, SessionParams, &mut SimRng) -> (SessionTranscript, u64, String),
) -> SessionsFingerprint {
    let mut fp = SessionsFingerprint {
        rounds: 0,
        outputs: 0,
        human_hours_bits: 0,
        transcripts_fnv: 0xcbf2_9ce4_8422_2325,
        outputs_fnv: 0xcbf2_9ce4_8422_2325,
        verified_fnv: 0,
    };
    for s in 0..T1_SESSIONS {
        let a = PlayerId::new((2 * s) % T1_PLAYERS);
        let mut b = PlayerId::new((2 * s + 1 + s / T1_PLAYERS) % T1_PLAYERS);
        if a == b {
            b = PlayerId::new((b.raw() + 1) % T1_PLAYERS);
        }
        let params = SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000));
        let (t, outputs, debug) = play(platform, params, rng);
        let json = serde_json::to_string(&t).expect("serializable transcript");
        fp.rounds += t.rounds();
        fp.outputs += outputs;
        fp.transcripts_fnv = fnv1a(fp.transcripts_fnv, json.bytes());
        fp.outputs_fnv = fnv1a(fp.outputs_fnv, debug.bytes());
    }
    fp.human_hours_bits = platform.metrics().total_human_hours.to_bits();
    fp.verified_fnv = verified_fnv(platform.verified_labels());
    fp
}

fn tagatune_sessions(seed: u64) -> SessionsFingerprint {
    let (mut platform, mut rng) = t1_setup(seed, "tagatune");
    let driver = TagATuneDriver::generate(&WorldConfig::standard(), 0.5, &mut rng);
    driver.world.register_tasks(&mut platform);
    let mut pop = t1_population(&mut rng);
    t1_sessions(&mut platform, &mut rng, |pf, p, r| {
        let t = play_session(pf, &driver, &mut pop, p, r);
        let outputs = t.candidate_outputs();
        (t, outputs, String::new())
    })
}

fn peekaboom_sessions(seed: u64) -> SessionsFingerprint {
    let (mut platform, mut rng) = t1_setup(seed, "peekaboom");
    let world = PeekaboomWorld::generate(&WorldConfig::standard(), &mut rng);
    world.register_tasks(&mut platform);
    let mut pop = t1_population(&mut rng);
    t1_sessions(&mut platform, &mut rng, |pf, p, r| {
        let (t, out) = play_peekaboom_session(pf, &world, &mut pop, p, r);
        (t, out.locations.len() as u64, format!("{out:?}"))
    })
}

fn squigl_sessions(seed: u64) -> SessionsFingerprint {
    let (mut platform, mut rng) = t1_setup(seed, "squigl");
    let world = SquiglWorld::generate(&WorldConfig::standard(), &mut rng);
    world.register_tasks(&mut platform);
    let mut pop = t1_population(&mut rng);
    t1_sessions(&mut platform, &mut rng, |pf, p, r| {
        let (t, out) = play_squigl_session(pf, &world, &mut pop, p, r);
        (t, out.segmentations.len() as u64, format!("{out:?}"))
    })
}

/// Matchin's output is the ranking every session feeds, so its `Debug`
/// text is taken once, after the last session.
fn matchin_sessions(seed: u64) -> SessionsFingerprint {
    let (mut platform, mut rng) = t1_setup(seed, "matchin");
    let world = MatchinWorld::generate(
        &WorldConfig {
            stimuli: 300,
            ..WorldConfig::standard()
        },
        &mut rng,
    );
    let mut pop = t1_population(&mut rng);
    let mut ranking = BradleyTerryRanking::new(world.len());
    let mut fp = t1_sessions(&mut platform, &mut rng, |pf, p, r| {
        let t = play_matchin_session(pf, &world, &mut pop, p, &mut ranking, r);
        let outputs = t.candidate_outputs();
        (t, outputs, String::new())
    });
    fp.outputs_fnv = fnv1a(fp.outputs_fnv, format!("{ranking:?}").bytes());
    fp
}

fn esp_sessions(seed: u64) -> SessionsFingerprint {
    let (mut platform, mut rng) = t1_setup(seed, "esp");
    let world = EspWorld::generate(&WorldConfig::standard(), &mut rng);
    world.register_tasks(&mut platform);
    let mut pop = t1_population(&mut rng);
    t1_sessions(&mut platform, &mut rng, |pf, p, r| {
        let t = play_session(pf, &world, &mut pop, p, r);
        let outputs = t.candidate_outputs();
        (t, outputs, String::new())
    })
}

fn verbosity_sessions(seed: u64) -> SessionsFingerprint {
    let (mut platform, mut rng) = t1_setup(seed, "verbosity");
    let world = VerbosityWorld::generate(&WorldConfig::standard(), &mut rng);
    world.register_tasks(&mut platform);
    let mut pop = t1_population(&mut rng);
    t1_sessions(&mut platform, &mut rng, |pf, p, r| {
        let t = play_session(pf, &world, &mut pop, p, r);
        let outputs = t.candidate_outputs();
        (t, outputs, String::new())
    })
}

/// T1's pairings on the small world, with every third session handed to its
/// left player alone, against the recordings the live sessions before it
/// left (the small world is covered within a few sessions). Each replay
/// session's output text is its rounds' coverage at session start, so the
/// fingerprint pins which rounds replayed a recording and which seeded one;
/// both kinds must occur.
fn esp_replay_sessions(seed: u64) -> SessionsFingerprint {
    let (mut platform, mut rng) = t1_setup(seed, "esp_replay");
    let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
    world.register_tasks(&mut platform);
    let mut pop = t1_population(&mut rng);
    let mut kinds = [0u32; 2];
    let fp = t1_sessions(&mut platform, &mut rng, |pf, p, r| {
        if p.session_id.raw() % 3 != 2 {
            let t = play_session(pf, &world, &mut pop, p, r);
            let outputs = t.candidate_outputs();
            return (t, outputs, String::new());
        }
        let covered: Vec<bool> = (0..world.len() as u64)
            .map(|i| pf.replay().has_recording(TaskId::new(i)))
            .collect();
        let solo = SessionParams::solo(p.left(), p.session_id, p.start);
        let t = play_session(pf, &world, &mut pop, solo, r);
        let replayed: Vec<bool> = t
            .records
            .iter()
            .map(|rec| covered[rec.task.raw() as usize])
            .collect();
        for &k in &replayed {
            kinds[usize::from(k)] += 1;
        }
        let outputs = t.candidate_outputs();
        (t, outputs, format!("{replayed:?}"))
    });
    assert!(
        kinds[0] > 0 && kinds[1] > 0,
        "seed={seed}: seeding and replayed rounds {kinds:?}"
    );
    fp
}

/// Golden fingerprints of 150 standalone TagATune, Peekaboom, Squigl and
/// Matchin sessions in T1's setup at seeds 1, 7 and 12, as
/// `(seed, [tagatune, peekaboom, squigl, matchin])`. They were captured
/// while each of these games kept its own copy of the session loop, so
/// they pin every RNG draw, score, streak and duration across its move
/// onto the shared one.
#[rustfmt::skip]
const SESSIONS_GOLDEN: [(u64, [SessionsFingerprint; 4]); 3] = [
    (1, [
        SessionsFingerprint { rounds: 860, outputs: 2436, human_hours_bits: 4623931050664022394, transcripts_fnv: 6398948835075067488, outputs_fnv: 14695981039346656037, verified_fnv: 11907645137519620673 },
        SessionsFingerprint { rounds: 1099, outputs: 1097, human_hours_bits: 4623976191235130447, transcripts_fnv: 1625484863191927412, outputs_fnv: 2788061902479689265, verified_fnv: 6437696699995702255 },
        SessionsFingerprint { rounds: 1273, outputs: 1015, human_hours_bits: 4623807476207447992, transcripts_fnv: 3709794331900591229, outputs_fnv: 2014188851485713036, verified_fnv: 6661137593572903173 },
        SessionsFingerprint { rounds: 2250, outputs: 1787, human_hours_bits: 4621007263001905421, transcripts_fnv: 617320789895043499, outputs_fnv: 17582311131740203967, verified_fnv: 14695981039346656037 },
    ]),
    (7, [
        SessionsFingerprint { rounds: 871, outputs: 2472, human_hours_bits: 4623981546143314879, transcripts_fnv: 3764966931117548461, outputs_fnv: 14695981039346656037, verified_fnv: 331245110125769228 },
        SessionsFingerprint { rounds: 1133, outputs: 1127, human_hours_bits: 4623861155403602303, transcripts_fnv: 15529825695955498486, outputs_fnv: 453970390461591719, verified_fnv: 9926261121324193903 },
        SessionsFingerprint { rounds: 1280, outputs: 985, human_hours_bits: 4623827380298221618, transcripts_fnv: 6728031112234924769, outputs_fnv: 2342491889723999864, verified_fnv: 2581854006039840124 },
        SessionsFingerprint { rounds: 2250, outputs: 1693, human_hours_bits: 4621003503758162711, transcripts_fnv: 17649289024872872796, outputs_fnv: 3117843025368495153, verified_fnv: 14695981039346656037 },
    ]),
    (12, [
        SessionsFingerprint { rounds: 877, outputs: 2646, human_hours_bits: 4623952046596543434, transcripts_fnv: 10678298792724691704, outputs_fnv: 14695981039346656037, verified_fnv: 8337376074345593181 },
        SessionsFingerprint { rounds: 1104, outputs: 1099, human_hours_bits: 4623961411701551811, transcripts_fnv: 2127476464037572475, outputs_fnv: 12558242687203953898, verified_fnv: 5622434340629427376 },
        SessionsFingerprint { rounds: 1288, outputs: 1026, human_hours_bits: 4623782823695428998, transcripts_fnv: 11266696573149950898, outputs_fnv: 15652078021394541792, verified_fnv: 12894861546239422057 },
        SessionsFingerprint { rounds: 2250, outputs: 1680, human_hours_bits: 4621131492450437879, transcripts_fnv: 13499000004752645344, outputs_fnv: 1393434155808576858, verified_fnv: 14695981039346656037 },
    ]),
];

/// Golden fingerprints of 150 standalone ESP, Verbosity and mixed ESP
/// live/replay sessions in T1's setup at seeds 1, 7 and 12, as
/// `(seed, [esp, verbosity, esp_replay])`. They were captured while the
/// ESP live and replay rounds were two functions and every session planned
/// its rounds by hand, so they pin every RNG draw across the move onto one
/// round function and one round planner.
#[rustfmt::skip]
const ROUND_SESSIONS_GOLDEN: [(u64, [SessionsFingerprint; 3]); 3] = [
    (1, [
        SessionsFingerprint { rounds: 2103, outputs: 2097, human_hours_bits: 4622835041455339854, transcripts_fnv: 8323884815011550064, outputs_fnv: 14695981039346656037, verified_fnv: 14151529501732823605 },
        SessionsFingerprint { rounds: 1253, outputs: 1719, human_hours_bits: 4623748429811409761, transcripts_fnv: 13381693645205139953, outputs_fnv: 14695981039346656037, verified_fnv: 2402270844157026147 },
        SessionsFingerprint { rounds: 1554, outputs: 218, human_hours_bits: 4616867394091748460, transcripts_fnv: 12637062315718109692, outputs_fnv: 11717818072329734784, verified_fnv: 9722885396813900957 },
    ]),
    (7, [
        SessionsFingerprint { rounds: 2016, outputs: 1993, human_hours_bits: 4622607860914030604, transcripts_fnv: 10593480539783512835, outputs_fnv: 14695981039346656037, verified_fnv: 1548693416651638860 },
        SessionsFingerprint { rounds: 1339, outputs: 1865, human_hours_bits: 4623711018427757441, transcripts_fnv: 3155819330663126695, outputs_fnv: 14695981039346656037, verified_fnv: 9359948875994553360 },
        SessionsFingerprint { rounds: 1552, outputs: 184, human_hours_bits: 4616831755878789678, transcripts_fnv: 2540891280052018876, outputs_fnv: 289177477589205544, verified_fnv: 10057091078029664339 },
    ]),
    (12, [
        SessionsFingerprint { rounds: 2143, outputs: 2137, human_hours_bits: 4622412767981198166, transcripts_fnv: 10827499913986429584, outputs_fnv: 14695981039346656037, verified_fnv: 15327337884463420920 },
        SessionsFingerprint { rounds: 1316, outputs: 1788, human_hours_bits: 4623722197881059199, transcripts_fnv: 5887792521202363446, outputs_fnv: 14695981039346656037, verified_fnv: 8406490303309709687 },
        SessionsFingerprint { rounds: 1507, outputs: 223, human_hours_bits: 4617185582877993399, transcripts_fnv: 12740108126722581950, outputs_fnv: 4069598326689098900, verified_fnv: 15487875379386796099 },
    ]),
];

#[test]
fn standalone_sessions_match_golden_fingerprints() {
    for (seed, [tagatune, peekaboom, squigl, matchin]) in SESSIONS_GOLDEN {
        assert_eq!(tagatune_sessions(seed), tagatune, "tagatune seed={seed}");
        assert_eq!(peekaboom_sessions(seed), peekaboom, "peekaboom seed={seed}");
        assert_eq!(squigl_sessions(seed), squigl, "squigl seed={seed}");
        assert_eq!(matchin_sessions(seed), matchin, "matchin seed={seed}");
    }
    for (seed, [esp, verbosity, esp_replay]) in ROUND_SESSIONS_GOLDEN {
        assert_eq!(esp_sessions(seed), esp, "esp seed={seed}");
        assert_eq!(verbosity_sessions(seed), verbosity, "verbosity seed={seed}");
        assert_eq!(
            esp_replay_sessions(seed),
            esp_replay,
            "esp_replay seed={seed}"
        );
    }
}

/// The regression locked in by the BTreeMap conversion in `hc-core`:
/// label-store snapshots of two same-seed runs must be *byte*-identical,
/// not merely equal as multisets. Iterating a `HashMap` anywhere on the
/// serving or verification path would scramble insertion order between
/// processes and break this.
#[test]
fn same_seed_runs_emit_byte_identical_label_snapshots() {
    let snapshot = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cfg = WorldConfig::small();
        cfg.stimuli = 120;
        let world = EspWorld::generate(&cfg, &mut rng);
        let mut platform = Platform::new(PlatformConfig::default()).expect("valid config");
        world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(8)
            .mix(ArchetypeMix::realistic())
            .build(&mut rng);
        for _ in 0..8 {
            platform.register_player();
        }
        for s in 0..60u64 {
            let a = PlayerId::new(s % 8);
            let b = PlayerId::new((s + 1 + s / 8) % 8);
            let b = if a == b {
                PlayerId::new((b.raw() + 1) % 8)
            } else {
                b
            };
            play_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 500)),
                &mut rng,
            );
        }
        serde_json::to_string(platform.verified_labels()).expect("serializable labels")
    };
    let a = snapshot(17);
    let b = snapshot(17);
    assert!(!a.is_empty() && a != "[]", "campaign produced no labels");
    assert_eq!(a, b, "same-seed label snapshots differ byte-for-byte");
}

#[test]
fn recaptcha_pipelines_are_deterministic() {
    let run = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let corpus = ScannedCorpus::generate(500, 0.0, 0.1, &mut rng);
        let service = ReCaptcha::new(
            corpus,
            OcrEngine::commercial(),
            ReCaptchaConfig::default(),
            &mut rng,
        );
        let mut pipeline = DigitizationPipeline::new(
            service,
            HumanReader::typical(),
            0.2,
            OcrEngine::commercial(),
        );
        pipeline.run(5_000, &mut rng);
        let p = pipeline.progress();
        (
            p.answers,
            p.digitized_fraction.to_bits(),
            p.digitized_accuracy.to_bits(),
        )
    };
    assert_eq!(run(9), run(9));
}

#[test]
fn worlds_and_populations_are_deterministic() {
    let mk_world = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        EspWorld::generate(&WorldConfig::small(), &mut rng)
    };
    let a = mk_world(3);
    let b = mk_world(3);
    for t in 0..a.len() {
        let ta = a.truth_for_task(TaskId::new(t as u64)).unwrap();
        let tb = b.truth_for_task(TaskId::new(t as u64)).unwrap();
        assert_eq!(ta.labels(), tb.labels());
    }

    let mk_pop = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        PopulationBuilder::new(50).build(&mut rng)
    };
    assert_eq!(mk_pop(4).players(), mk_pop(4).players());
}

#[test]
fn rng_factory_streams_are_stable_across_calls() {
    use rand::Rng;
    let f = RngFactory::new(1234);
    let first: Vec<u64> = (0..4)
        .map(|i| f.indexed_stream("worker", i).gen::<u64>())
        .collect();
    let second: Vec<u64> = (0..4)
        .map(|i| f.indexed_stream("worker", i).gen::<u64>())
        .collect();
    assert_eq!(first, second);
    // All four streams distinct.
    let mut sorted = first.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 4);
}

#[test]
fn aggregation_is_deterministic_given_the_matrix() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let world = SyntheticCrowd::new(100, 3, 15, 0.7)
        .with_adversarial_share(0.2)
        .generate(5, &mut rng);
    let a = DawidSkene::default().aggregate(&world.matrix);
    let b = DawidSkene::default().aggregate(&world.matrix);
    assert_eq!(a, b);
}
