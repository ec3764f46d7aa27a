//! Experiment F3 — ESP label precision vs verification strength.
//!
//! The CHI'04 claim the DAC'09 paper repeats: ≥ 85% of ESP labels are
//! judged useful. We regenerate the quality story with a mixed crowd
//! (honest + noisy + random) and sweep the two verification levers: the
//! k-agreement promotion threshold and the taboo-word mechanism (a real
//! platform flag — with taboo off, pairs keep re-verifying the same
//! obvious label, so coverage depth per image collapses even though raw
//! precision stays similar; with taboo on, each image accumulates many
//! *distinct* correct labels, which is the ESP Game's actual product).

use hc_bench::{f1, f3, paper, seed_from_args, Table};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, Behavior, PopulationBuilder};
use hc_games::{play_session, EspWorld, SessionParams, WorldConfig};
use hc_sim::RngFactory;
use serde::Serialize;

const PLAYERS: usize = 40;
const SESSIONS: u64 = 250;

#[derive(Serialize)]
struct Row {
    agreement_k: u32,
    taboo_enabled: bool,
    precision: f64,
    verified: usize,
    distinct_labels_per_task: f64,
    labels_per_human_hour: f64,
}

fn crowd_mix() -> ArchetypeMix {
    ArchetypeMix::custom()
        .with(Behavior::Honest, 0.6)
        .with(Behavior::Noisy { error_rate: 0.25 }, 0.3)
        .with(Behavior::Random, 0.1)
}

fn main() {
    let seed = seed_from_args();
    let factory = RngFactory::new(seed);
    let mut table = Table::new(
        "F3 — ESP label precision vs k-agreement and taboo words",
        &[
            "k",
            "taboo",
            "precision",
            "verified",
            "labels/task",
            "labels/hh",
        ],
    );

    let mut world_cfg = WorldConfig::standard();
    world_cfg.stimuli = 120; // small world => tasks are revisited, taboo matters

    for k in [1u32, 2, 3] {
        for taboo in [true, false] {
            let mut rng = factory.indexed_stream("f3", u64::from(k) * 2 + u64::from(taboo));
            let world = EspWorld::generate(&world_cfg, &mut rng);
            let mut platform = Platform::new(PlatformConfig {
                agreement_threshold: k,
                taboo_words_enabled: taboo,
                gold_injection_rate: 0.0,
                ..PlatformConfig::default()
            })
            .expect("valid config");
            world.register_tasks(&mut platform);
            let mut pop = PopulationBuilder::new(PLAYERS)
                .mix(crowd_mix())
                .build(&mut rng);
            for _ in 0..PLAYERS {
                platform.register_player();
            }
            for s in 0..SESSIONS {
                let a = PlayerId::new((2 * s) % PLAYERS as u64);
                let mut b = PlayerId::new((2 * s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
                if a == b {
                    b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
                }
                play_session(
                    &mut platform,
                    &world,
                    &mut pop,
                    SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
                    &mut rng,
                );
            }
            let (correct, total) = world.verified_precision(&platform);
            let precision = if total == 0 {
                1.0
            } else {
                correct as f64 / total as f64
            };
            let distinct: f64 = {
                let mut per_task = std::collections::HashMap::new();
                for v in platform.verified_labels() {
                    per_task
                        .entry(v.task)
                        .or_insert_with(std::collections::HashSet::new)
                        .insert(v.label.clone());
                }
                if per_task.is_empty() {
                    0.0
                } else {
                    per_task.values().map(|s| s.len() as f64).sum::<f64>() / per_task.len() as f64
                }
            };
            let hours = platform.metrics().total_human_hours;
            let lhh = if hours > 0.0 {
                total as f64 / hours
            } else {
                0.0
            };
            table.row(
                &[
                    k.to_string(),
                    taboo.to_string(),
                    f3(precision),
                    total.to_string(),
                    f1(distinct),
                    f1(lhh),
                ],
                &Row {
                    agreement_k: k,
                    taboo_enabled: taboo,
                    precision,
                    verified: total,
                    distinct_labels_per_task: distinct,
                    labels_per_human_hour: lhh,
                },
            );
        }
    }
    table.print();
    println!(
        "\npaper reference: ≥ {:.0}% of ESP labels judged useful",
        paper::ESP_LABEL_PRECISION * 100.0
    );
}
