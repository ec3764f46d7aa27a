//! Experiment F9 — random matching as a collusion defense (ablation).
//!
//! The paper lists *random matching* first among the GWAP verification
//! mechanisms: colluders cannot exploit an out-of-band agreement if they
//! are never paired. We isolate that mechanism with the epoch
//! [`BatchMatcher`]: colluders coordinate their arrivals (always joining
//! back-to-back), and we compare naive arrival-order pairing against
//! randomized pairing across epoch sizes — measuring how often colluders
//! get each other and how much poison reaches the verified store
//! (k = 1, no gold: random matching is the *only* active defense).

use hc_bench::{f3, pct, seed_from_args, Table};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, Behavior, PopulationBuilder};
use hc_games::{play_session, EspWorld, SessionParams, WorldConfig};
use hc_sim::RngFactory;
use serde::Serialize;

const EPOCHS: u64 = 400;
const ATTACK: &str = "poisonword";

#[derive(Serialize)]
struct Row {
    policy: String,
    epoch_size: usize,
    colluder_pair_rate: f64,
    poisoned: usize,
    poisoned_rate: f64,
    verified: usize,
}

fn main() {
    let seed = seed_from_args();
    let factory = RngFactory::new(seed);
    let mut table = Table::new(
        "F9 — random matching vs coordinated colluder arrivals (k=1, no gold)",
        &[
            "policy",
            "epoch",
            "colluder pairs",
            "poison count",
            "poison rate",
            "verified",
        ],
    );

    for &epoch_size in &[4usize, 8, 16] {
        for policy in [PairingPolicy::Adjacent, PairingPolicy::Random] {
            let mut rng = factory.indexed_stream(
                "f9",
                epoch_size as u64 * 10 + u64::from(policy == PairingPolicy::Random),
            );
            let mut world_cfg = WorldConfig::standard();
            world_cfg.stimuli = 2_000;
            let world = EspWorld::generate(&world_cfg, &mut rng);
            let mut platform = Platform::new(PlatformConfig {
                agreement_threshold: 1,
                gold_injection_rate: 0.0,
                matchmaker: MatchmakerConfig {
                    avoid_rematch: false,
                    ..MatchmakerConfig::default()
                },
                ..PlatformConfig::default()
            })
            .expect("valid config");
            world.register_tasks(&mut platform);

            // Population: 2 colluders + honest fill, one epoch's worth.
            let honest = epoch_size - 2;
            let mut pop = PopulationBuilder::new(honest)
                .mix(ArchetypeMix::all_honest())
                .build(&mut rng);
            // Hand-build the colluders with the next ids.
            let mut all = pop.players().to_vec();
            for i in 0..2 {
                all.push(hc_crowd::PlayerProfile::new(
                    PlayerId::new((honest + i) as u64),
                    0.9,
                    Behavior::Colluder {
                        strategy_label: Label::new(ATTACK),
                    },
                    hc_crowd::ResponseTimeModel::default(),
                ));
            }
            pop = hc_crowd::Population::from_profiles(all);
            for _ in 0..epoch_size {
                platform.register_player();
            }
            let colluders = [
                PlayerId::new(honest as u64),
                PlayerId::new((honest + 1) as u64),
            ];

            let mut matcher = BatchMatcher::new(policy);
            let mut colluder_pairs = 0u64;
            let mut sessions = 0u64;
            for e in 0..EPOCHS {
                // Honest players trickle in; the two colluders always join
                // back-to-back (their coordinated-arrival attack).
                for i in 0..honest {
                    matcher.join(PlayerId::new(i as u64));
                }
                matcher.join(colluders[0]);
                matcher.join(colluders[1]);
                for (a, b) in matcher.pair_epoch(&mut rng) {
                    let both_colluders = colluders.contains(&a) && colluders.contains(&b);
                    if both_colluders {
                        colluder_pairs += 1;
                    }
                    play_session(
                        &mut platform,
                        &world,
                        &mut pop,
                        SessionParams::pair(
                            a,
                            b,
                            SessionId::new(sessions),
                            SimTime::from_secs(e * 1_000),
                        ),
                        &mut rng,
                    );
                    sessions += 1;
                }
            }

            let attack = Label::new(ATTACK);
            let verified = platform.verified_labels().len();
            let poisoned = platform
                .verified_labels()
                .iter()
                .filter(|v| v.label == attack)
                .count();
            let row = Row {
                policy: format!("{policy:?}").to_lowercase(),
                epoch_size,
                colluder_pair_rate: colluder_pairs as f64 / EPOCHS as f64,
                poisoned,
                poisoned_rate: poisoned as f64 / verified.max(1) as f64,
                verified,
            };
            table.row(
                &[
                    row.policy.clone(),
                    epoch_size.to_string(),
                    pct(row.colluder_pair_rate),
                    poisoned.to_string(),
                    f3(row.poisoned_rate),
                    verified.to_string(),
                ],
                &row,
            );
        }
    }
    table.print();
    println!("\nexpected shape: adjacent pairing lets coordinated colluders pair ~100% of epochs; random matching cuts that to ~1/(n-1) and the absolute poison volume with it (at tiny epochs the poison *rate* is confounded by mixed colluder-honest sessions also destroying honest throughput)");
}
