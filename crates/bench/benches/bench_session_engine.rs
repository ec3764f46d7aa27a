//! Micro-benchmark: one full ESP session through the round state machine,
//! verification pipeline and platform bookkeeping — the unit of work the
//! campaign simulator repeats hundreds of thousands of times.
//!
//! `esp/full_session` plays a fresh world. `esp/saturated_session` first
//! promotes every truth label, so every label is taboo and each honest
//! answer draws against a fully taboo support: the regime of a world near
//! capacity, where most rounds end in passes. `esp/no_taboo_session` turns
//! taboo words off, so honest players always type and rounds end in
//! matches: the regime where every round grows its guess buffers.
//! `esp/replay_session` seats a third player against the recordings that
//! live sessions between the other two left: the replay half of the ESP
//! round, where the right seat's answers come from a recording.
//!
//! `queue/serve_verify_60k` plans one session's rounds at a time through a
//! 60,000-task `TaskQueue`, serving each task and verifying every third:
//! a big world, where every task starts on the same level.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, PopulationBuilder};
use hc_games::{play_session, EspWorld, SessionParams, WorldConfig};
use rand::SeedableRng;
use std::hint::black_box;

/// What the timed sessions play against.
#[derive(Clone, Copy, PartialEq)]
enum Regime {
    Fresh,
    Saturated,
    NoTaboo,
    Replay,
}

/// Live sessions between the two players that seed the replay store
/// before `esp/replay_session` times anything.
const SEEDING_SESSIONS: u64 = 8;

fn bench_esp_sessions(c: &mut Criterion, name: &str, regime: Regime) {
    c.bench_function(name, |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let world = EspWorld::generate(&WorldConfig::small(), &mut rng);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            taboo_words_enabled: regime != Regime::NoTaboo,
            ..PlatformConfig::default()
        })
        .unwrap();
        let tasks = world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(3)
            .mix(ArchetypeMix::all_honest())
            .build(&mut rng);
        let (left, right) = (platform.register_player(), platform.register_player());
        let third = platform.register_player();
        if regime == Regime::Saturated {
            for &task in &tasks {
                let truth = world.truth_for_task(task).unwrap();
                for label in truth.labels() {
                    platform
                        .ingest_agreement(task, label.clone(), left, right)
                        .unwrap();
                }
                assert!(truth
                    .labels()
                    .iter()
                    .all(|l| platform.taboo_for(task).contains(l)));
            }
        }
        let mut sid = 0u64;
        let mut t0 = 0u64;
        let mut live = |platform: &mut Platform, rng: &mut rand::rngs::StdRng| {
            sid += 1;
            t0 += 1_000;
            let params =
                SessionParams::pair(left, right, SessionId::new(sid), SimTime::from_secs(t0));
            play_session(platform, &world, &mut pop, params, rng)
        };
        if regime != Regime::Replay {
            b.iter(|| black_box(live(&mut platform, &mut rng)));
            return;
        }
        for _ in 0..SEEDING_SESSIONS {
            live(&mut platform, &mut rng);
        }
        assert!(tasks.iter().all(|&t| platform.replay().has_recording(t)));
        b.iter(|| {
            sid += 1;
            t0 += 1_000;
            let params = SessionParams::solo(third, SessionId::new(sid), SimTime::from_secs(t0));
            black_box(play_session(
                &mut platform,
                &world,
                &mut pop,
                params,
                &mut rng,
            ))
        });
    });
}

/// Tasks in the `queue/serve_verify_60k` world.
const BIG_WORLD_TASKS: u64 = 60_000;

fn bench_big_task_queue(c: &mut Criterion) {
    c.bench_function("queue/serve_verify_60k", |b| {
        let mut queue = TaskQueue::new();
        for i in 0..BIG_WORLD_TASKS {
            queue.insert(Task::new(TaskId::new(i), Stimulus::Image(i)));
        }
        let players = [PlayerId::new(1), PlayerId::new(2)];
        b.iter(|| {
            let mut served = 0u32;
            for round in 0..15 {
                let Some(task) = queue.next_for(&players) else {
                    break;
                };
                queue.record_served(task, &players);
                if round % 3 == 0 {
                    queue.record_verified(task, 0);
                }
                served += 1;
            }
            for p in players {
                queue.clear_seen(p);
            }
            black_box(served)
        });
    });
}

fn bench_session(c: &mut Criterion) {
    bench_esp_sessions(c, "esp/full_session", Regime::Fresh);
    bench_esp_sessions(c, "esp/saturated_session", Regime::Saturated);
    bench_esp_sessions(c, "esp/no_taboo_session", Regime::NoTaboo);
    bench_esp_sessions(c, "esp/replay_session", Regime::Replay);
    bench_big_task_queue(c);
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
