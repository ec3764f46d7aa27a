//! A full ESP Game deployment: arrivals, random matching, replay-bot
//! fallback, engagement-driven return visits — the paper's flagship
//! system running for a simulated day.
//!
//! ```text
//! cargo run --release --example esp_campaign
//! ```

use human_computation::prelude::*;

fn main() {
    let seed = 2009;
    let world = WorldConfig {
        stimuli: 1_500,
        ..WorldConfig::small()
    };
    let mut config = CampaignConfig::small();
    config.players = 120;
    config.horizon = SimTime::from_secs(24 * 3600); // one simulated day
    config.platform.agreement_threshold = 1;

    println!(
        "running a 24h ESP campaign: {} players, {} images...",
        config.players, world.stimuli
    );
    let driver = EspWorld::generate(&world, &mut RngFactory::new(seed).stream("world"));
    let mut campaign = Campaign::new(driver, config, seed);
    let report = campaign.run();

    println!("\n-- campaign report --");
    println!("live sessions:    {}", report.live_sessions);
    println!(
        "replay sessions:  {} ({:.1}% of pairs)",
        report.solo_sessions,
        report.matchmaker.replay_share() * 100.0
    );
    println!("mean pairing wait: {:.1}s", report.mean_wait_secs);
    println!(
        "verified labels:  {} (precision {:.1}%)",
        report.precision.1,
        report.precision_rate() * 100.0
    );
    println!("metrics:          {}", report.metrics);

    // The retention machinery the paper credits for ALP: leaderboard.
    println!("\n-- top 5 players --");
    let board = campaign.platform().scoreboard().leaderboard(5);
    for (rank, (player, points)) in board.entries().iter().enumerate() {
        let score = campaign
            .platform()
            .scoreboard()
            .score(*player)
            .expect("listed player scored");
        println!(
            "  #{} {player}: {points} points, level {}, best streak {}",
            rank + 1,
            score.level(),
            score.best_streak
        );
    }

    // Coverage of the image world.
    let tasks = campaign.platform().tasks();
    let labeled = tasks.iter().filter(|t| t.verified_outputs > 0).count();
    println!(
        "\nworld coverage: {labeled}/{} images have at least one verified label",
        tasks.len()
    );
}
