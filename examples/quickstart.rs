//! Quickstart: one ESP Game session, end to end.
//!
//! Builds a tiny synthetic image world, seats two simulated honest
//! players, plays one output-agreement session through the full
//! verification pipeline, and prints what the crowd just taught the
//! platform.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use human_computation::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // 1. A world of 50 synthetic images, each with known true labels.
    let world = EspWorld::generate(&WorldConfig::small(), &mut rng);

    // 2. A platform with default ESP-style verification (agreement
    //    promotes labels; promoted labels become taboo).
    let mut platform = Platform::new(PlatformConfig::default()).expect("valid default config");
    world.register_tasks(&mut platform);

    // 3. Two honest simulated players.
    let mut population = PopulationBuilder::new(2)
        .mix(ArchetypeMix::all_honest())
        .build(&mut rng);
    let a = platform.register_player();
    let b = platform.register_player();

    // 4. Play one session.
    let transcript = play_session(
        &mut platform,
        &world,
        &mut population,
        SessionParams::pair(a, b, SessionId::new(0), SimTime::ZERO),
        &mut rng,
    );

    println!("session {} between {a} and {b}", transcript.id);
    println!(
        "  rounds: {}  matched: {}  duration: {}",
        transcript.rounds(),
        transcript.matched_count(),
        transcript.duration(),
    );
    println!(
        "  points: left {} / right {}",
        transcript.total_points[0], transcript.total_points[1]
    );

    println!("\nverified labels ({}):", platform.verified_labels().len());
    for v in platform.verified_labels() {
        let truth = if world.is_correct(v.task, &v.label) {
            "correct"
        } else {
            "WRONG"
        };
        println!("  {}  ->  {:20}  [{truth}]", v.task, v.label.as_str());
    }

    let m = platform.metrics();
    println!("\nGWAP metrics so far: {m}");
}
