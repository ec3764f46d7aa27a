//! Auditing a poisoned crowd.
//!
//! Seeds the population with colluders running the "always type X"
//! attack, runs ESP sessions with the full defense stack (k-agreement,
//! gold-answer testing, entropy/pair-share detection), and prints the
//! audit: how much poison got through, who got caught, and what it cost
//! honest throughput.
//!
//! ```text
//! cargo run --release --example anti_cheat_audit
//! ```

use human_computation::core::anticheat::CheatDetector;
use human_computation::prelude::*;
use rand::SeedableRng;

const ATTACK: &str = "poison";
const PLAYERS: usize = 30;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
    let mut world_cfg = WorldConfig::standard();
    world_cfg.stimuli = 400;
    let mut world = EspWorld::generate(&world_cfg, &mut rng);

    let mut platform = Platform::new(PlatformConfig {
        agreement_threshold: 2,
        gold_injection_rate: 0.2,
        gold_min_accuracy: 0.5,
        gold_min_evidence: 3,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    world.register_tasks(&mut platform);
    world.register_gold_tasks(&mut platform, &world_cfg, 25, &mut rng);
    platform.set_cheat_detector(CheatDetector::new(0.5, 0.8, 15));

    // 25% of the crowd colludes on a fixed label.
    let mut population = PopulationBuilder::new(PLAYERS)
        .mix(ArchetypeMix::with_colluders(0.75, 0.25, ATTACK))
        .build(&mut rng);
    for _ in 0..PLAYERS {
        platform.register_player();
    }
    let colluders: Vec<PlayerId> = population
        .players()
        .iter()
        .filter(|p| p.is_adversarial())
        .map(|p| p.id)
        .collect();
    println!(
        "crowd: {} players, {} colluders on label {ATTACK:?}",
        PLAYERS,
        colluders.len()
    );

    for s in 0..200u64 {
        let a = PlayerId::new((2 * s) % PLAYERS as u64);
        let mut b = PlayerId::new((2 * s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
        if a == b {
            b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
        }
        play_session(
            &mut platform,
            &world,
            &mut population,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut rng,
        );
    }

    let attack = Label::new(ATTACK);
    let verified = platform.verified_labels();
    let poisoned = verified.iter().filter(|v| v.label == attack).count();
    let (correct, total) = world.verified_precision(&platform);
    println!("\n-- audit --");
    println!("verified labels:        {total}");
    println!("poisoned labels:        {poisoned}");
    println!(
        "precision vs truth:     {:.1}%",
        correct as f64 / total.max(1) as f64 * 100.0
    );
    println!("agreements rejected:    {}", platform.rejected_agreements());

    println!("\n-- detector verdicts --");
    let flagged = platform.cheat_detector().suspicious_players();
    let caught = colluders.iter().filter(|c| flagged.contains(c)).count();
    let false_alarms = flagged.iter().filter(|f| !colluders.contains(f)).count();
    println!(
        "flagged {} players: {caught}/{} true colluders, {false_alarms} false alarms",
        flagged.len(),
        colluders.len()
    );
    for p in &flagged {
        let a = platform.cheat_detector().assess(*p);
        println!(
            "  {p}: pair-share {:?}, answer entropy {:?} bits{}",
            a.max_pair_share.map(|x| format!("{x:.2}")),
            a.answer_entropy.map(|x| format!("{x:.2}")),
            if colluders.contains(p) {
                "  [colluder]"
            } else {
                "  [honest!]"
            }
        );
    }

    println!("\n-- gold-task trust gate --");
    for c in &colluders {
        let trusted = platform.gold().is_trusted(*c);
        let record = platform.gold().record(*c);
        println!("  {c}: trusted={trusted} gold record {record:?}");
    }
}
