//! Compare GWAPs head-to-head under identical deployment conditions.
//!
//! Runs the ESP Game (with its replay-bot fallback), TagATune and
//! Verbosity through the same arrival/engagement regime on the serial
//! [`Campaign`] runner, and prints the paper's three metrics side by
//! side — the DAC'09 comparison table, live.
//!
//! ```text
//! cargo run --release --example gwap_comparison
//! ```

use human_computation::prelude::*;

fn main() {
    let seed = 1492;
    println!("running three campaigns under identical traffic...\n");

    let mut config = CampaignConfig::small();
    config.players = 60;
    config.horizon = SimTime::from_secs(8 * 3600);

    // ---- ESP (with its replay-bot fallback) ----
    let esp_world = WorldConfig {
        stimuli: 2_000,
        ..WorldConfig::small()
    };
    let esp_driver = EspWorld::generate(&esp_world, &mut RngFactory::new(seed).stream("world"));
    let esp = Campaign::new(esp_driver, config.clone(), seed).run();

    // ---- TagATune / Verbosity (timed-out waiters give up) ----
    let factory = RngFactory::new(seed);
    let mut world_rng = factory.stream("worlds");
    let mut world_cfg = WorldConfig::standard();
    world_cfg.stimuli = 2_000;

    let tagatune = Campaign::new(
        TagATuneDriver::generate(&world_cfg, 0.5, &mut world_rng),
        config.clone(),
        seed,
    )
    .run();
    let verbosity = Campaign::new(
        VerbosityWorld::generate(&world_cfg, &mut world_rng),
        config,
        seed,
    )
    .run();

    println!(
        "{:<11} {:>9} {:>10} {:>9} {:>11} {:>10}",
        "game", "sessions", "verified", "thr/hh", "ALP(min)", "E[contrib]"
    );
    println!("{}", "-".repeat(65));
    for report in [&esp, &tagatune, &verbosity] {
        let m = &report.metrics;
        println!(
            "{:<11} {:>9} {:>10} {:>9.1} {:>11.1} {:>10.1}",
            report.game,
            report.live_sessions + report.solo_sessions,
            report.precision.1,
            m.throughput_per_human_hour,
            m.alp_hours * 60.0,
            m.expected_contribution
        );
    }

    println!(
        "\nesp extras: replay share {:.1}%, label precision {:.1}%",
        esp.matchmaker.replay_share() * 100.0,
        esp.precision_rate() * 100.0
    );
    println!(
        "mean pairing waits: esp {:.1}s, tagatune {:.1}s, verbosity {:.1}s",
        esp.mean_wait_secs, tagatune.mean_wait_secs, verbosity.mean_wait_secs
    );
    println!("\n(the ALP column reflects the campaign's *realized* play per player within the horizon, not lifetime ALP — see exp_t1 for the lifetime metric)");
}
