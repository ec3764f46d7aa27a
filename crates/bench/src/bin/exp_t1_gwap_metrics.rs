//! Experiment T1 — the GWAP metrics table.
//!
//! Regenerates the throughput / ALP / expected-contribution comparison
//! across the surveyed games (CACM'08 Table 1, summarized by the DAC'09
//! paper). Throughput is **measured** from simulated sessions; ALP comes
//! from each game's calibrated engagement model (enjoyability is an input
//! of the simulation, not something a simulator can discover); expected
//! contribution is their product, as the paper defines it.

use hc_bench::{f1, paper, seed_from_args, Table};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, EngagementModel, Population, PopulationBuilder};
use hc_games::{
    matchin::{play_matchin_session, BradleyTerryRanking},
    peekaboom::play_peekaboom_session,
    play_session,
    squigl::play_squigl_session,
    EspWorld, MatchinWorld, PeekaboomWorld, SessionParams, SquiglWorld, TagATuneDriver,
    VerbosityWorld, WorldConfig,
};
use hc_sim::{RngFactory, SimRng};
use serde::Serialize;

const PLAYERS: usize = 30;
const SESSIONS: u64 = 150;

#[derive(Serialize)]
struct Row {
    game: String,
    template: String,
    throughput_per_human_hour: f64,
    alp_minutes: f64,
    expected_contribution: f64,
    sessions: u64,
    outputs: u64,
}

fn fresh_platform(players: usize) -> Platform {
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    for _ in 0..players {
        platform.register_player();
    }
    platform
}

fn population(rng: &mut SimRng) -> Population {
    PopulationBuilder::new(PLAYERS)
        .mix(ArchetypeMix::realistic())
        .build(rng)
}

/// Runs `SESSIONS` sessions of one game; `play` plays one session and
/// returns its output count. Returns `(outputs, human_hours)`.
fn run_game(
    platform: &mut Platform,
    mut play: impl FnMut(&mut Platform, SessionParams) -> u64,
) -> (u64, f64) {
    let mut outputs = 0u64;
    for s in 0..SESSIONS {
        let a = PlayerId::new((2 * s) % PLAYERS as u64);
        let mut b = PlayerId::new((2 * s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
        if a == b {
            b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
        }
        let start = SimTime::from_secs(s * 1_000);
        outputs += play(
            platform,
            SessionParams::pair(a, b, SessionId::new(s), start),
        );
    }
    (outputs, platform.metrics().total_human_hours)
}

fn main() {
    let seed = seed_from_args();
    let factory = RngFactory::new(seed);
    let mut table = Table::new(
        "T1 — GWAP metrics (throughput, ALP, expected contribution)",
        &[
            "game",
            "template",
            "thr/hh",
            "ALP(min)",
            "E[contrib]",
            "outputs",
        ],
    );

    // Per-game engagement calibrations (mean sitting minutes via the
    // log-normal, churn via the geometric). ESP matches the published
    // 91-minute ALP; the others are plausible relative enjoyabilities.
    let engagement = |median_min: f64, sigma: f64, churn: f64| {
        EngagementModel::new(median_min.ln(), sigma, churn).expect("valid engagement")
    };
    let cfg = WorldConfig::standard();

    // ---- ESP ----
    {
        let mut rng = factory.stream("esp");
        let world = EspWorld::generate(&cfg, &mut rng);
        let mut platform = fresh_platform(PLAYERS);
        world.register_tasks(&mut platform);
        let mut pop = population(&mut rng);
        let (outputs, hours) = run_game(&mut platform, |pf, params| {
            play_session(pf, &world, &mut pop, params, &mut rng).candidate_outputs()
        });
        emit(
            &mut table,
            "ESP Game",
            "output-agreement",
            outputs,
            hours,
            engagement(6.5, 0.82, 0.1),
        );
    }

    // ---- TagATune ----
    {
        let mut rng = factory.stream("tagatune");
        let driver = TagATuneDriver::generate(&cfg, 0.5, &mut rng);
        let mut platform = fresh_platform(PLAYERS);
        driver.world.register_tasks(&mut platform);
        let mut pop = population(&mut rng);
        let (outputs, hours) = run_game(&mut platform, |pf, params| {
            play_session(pf, &driver, &mut pop, params, &mut rng).candidate_outputs()
        });
        emit(
            &mut table,
            "TagATune",
            "input-agreement",
            outputs,
            hours,
            engagement(5.0, 0.8, 0.12),
        );
    }

    // ---- Verbosity ----
    {
        let mut rng = factory.stream("verbosity");
        let world = VerbosityWorld::generate(&cfg, &mut rng);
        let mut platform = fresh_platform(PLAYERS);
        world.register_tasks(&mut platform);
        let mut pop = population(&mut rng);
        let (outputs, hours) = run_game(&mut platform, |pf, params| {
            play_session(pf, &world, &mut pop, params, &mut rng).candidate_outputs()
        });
        emit(
            &mut table,
            "Verbosity",
            "inversion-problem",
            outputs,
            hours,
            engagement(5.5, 0.8, 0.13),
        );
    }

    // ---- Peekaboom ----
    {
        let mut rng = factory.stream("peekaboom");
        let world = PeekaboomWorld::generate(&cfg, &mut rng);
        let mut platform = fresh_platform(PLAYERS);
        world.register_tasks(&mut platform);
        let mut pop = population(&mut rng);
        let (outputs, hours) = run_game(&mut platform, |pf, params| {
            let (_, out) = play_peekaboom_session(pf, &world, &mut pop, params, &mut rng);
            out.locations.len() as u64
        });
        emit(
            &mut table,
            "Peekaboom",
            "inversion-problem",
            outputs,
            hours,
            engagement(7.5, 0.85, 0.08),
        );
    }

    // ---- Squigl ----
    {
        let mut rng = factory.stream("squigl");
        let world = SquiglWorld::generate(&cfg, &mut rng);
        let mut platform = fresh_platform(PLAYERS);
        world.register_tasks(&mut platform);
        let mut pop = population(&mut rng);
        let (outputs, hours) = run_game(&mut platform, |pf, params| {
            let (_, out) = play_squigl_session(pf, &world, &mut pop, params, &mut rng);
            out.segmentations.len() as u64
        });
        emit(
            &mut table,
            "Squigl",
            "output-agreement",
            outputs,
            hours,
            engagement(4.5, 0.8, 0.15),
        );
    }

    // ---- Matchin ----
    {
        let mut rng = factory.stream("matchin");
        let mut cfg_m = cfg;
        cfg_m.stimuli = 300;
        let world = MatchinWorld::generate(&cfg_m, &mut rng);
        let mut platform = fresh_platform(PLAYERS);
        let mut pop = population(&mut rng);
        let mut ranking = BradleyTerryRanking::new(world.len());
        let (outputs, hours) = run_game(&mut platform, |pf, params| {
            play_matchin_session(pf, &world, &mut pop, params, &mut ranking, &mut rng)
                .candidate_outputs()
        });
        emit(
            &mut table,
            "Matchin",
            "output-agreement*",
            outputs,
            hours,
            engagement(9.0, 0.9, 0.07),
        );
    }

    table.print();
    println!(
        "\npaper reference: ESP throughput ≈ {} labels/human-hour, ALP ≈ {} min, E[contribution] ≈ {:.0}",
        paper::ESP_THROUGHPUT,
        paper::ESP_ALP_HOURS * 60.0,
        paper::ESP_EXPECTED_CONTRIBUTION
    );
}

fn emit(
    table: &mut Table,
    game: &str,
    template: &str,
    outputs: u64,
    hours: f64,
    engagement: EngagementModel,
) {
    let throughput = if hours > 0.0 {
        outputs as f64 / hours
    } else {
        0.0
    };
    let alp_hours = engagement.expected_alp_hours();
    let row = Row {
        game: game.to_string(),
        template: template.to_string(),
        throughput_per_human_hour: throughput,
        alp_minutes: alp_hours * 60.0,
        expected_contribution: throughput * alp_hours,
        sessions: SESSIONS,
        outputs,
    };
    table.row(
        &[
            game.to_string(),
            template.to_string(),
            f1(throughput),
            f1(alp_hours * 60.0),
            f1(throughput * alp_hours),
            outputs.to_string(),
        ],
        &row,
    );
}
