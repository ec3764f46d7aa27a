//! End-to-end ESP pipeline tests spanning hc-core, hc-crowd and hc-games:
//! verified-label quality, gold gating, replay verification, and the
//! taboo mechanism's coverage effect.

use human_computation::prelude::*;
use rand::SeedableRng;

const PLAYERS: usize = 20;

fn run_sessions(
    platform: &mut Platform,
    world: &EspWorld,
    pop: &mut Population,
    sessions: u64,
    rng: &mut rand::rngs::StdRng,
) {
    for s in 0..sessions {
        // Rotate every id through the left seat and sweep the partner
        // offset so all circular pairings occur; a fixed even/odd split
        // here would make some player subsets (e.g. colluders landing on
        // odd ids only) unable to ever meet each other.
        let a = PlayerId::new(s % PLAYERS as u64);
        let mut b = PlayerId::new((s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
        if a == b {
            b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
        }
        play_session(
            platform,
            world,
            pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            rng,
        );
    }
}

fn setup(
    mix: ArchetypeMix,
    config: PlatformConfig,
    seed: u64,
) -> (Platform, EspWorld, Population, rand::rngs::StdRng) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cfg = WorldConfig::standard();
    cfg.stimuli = 250;
    let world = EspWorld::generate(&cfg, &mut rng);
    let mut platform = Platform::new(config).expect("valid config");
    world.register_tasks(&mut platform);
    let pop = PopulationBuilder::new(PLAYERS).mix(mix).build(&mut rng);
    for _ in 0..PLAYERS {
        platform.register_player();
    }
    (platform, world, pop, rng)
}

#[test]
fn mixed_crowd_labels_exceed_paper_precision_claim() {
    let (mut platform, world, mut pop, mut rng) = setup(
        ArchetypeMix::realistic(),
        PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        },
        1,
    );
    run_sessions(&mut platform, &world, &mut pop, 80, &mut rng);
    let (correct, total) = world.verified_precision(&platform);
    assert!(total > 100, "campaign too small: {total} labels");
    let precision = correct as f64 / total as f64;
    // The paper reports >= 85% of ESP labels judged useful; the agreement
    // mechanism on a mixed crowd should clear that bar comfortably.
    assert!(precision >= 0.85, "precision {precision:.3}");
}

#[test]
fn higher_agreement_threshold_never_lowers_precision() {
    let mut results = Vec::new();
    for k in [1u32, 2, 3] {
        let (mut platform, world, mut pop, mut rng) = setup(
            ArchetypeMix::custom()
                .with(Behavior::Honest, 0.5)
                .with(Behavior::Noisy { error_rate: 0.4 }, 0.5),
            PlatformConfig {
                agreement_threshold: k,
                gold_injection_rate: 0.0,
                ..PlatformConfig::default()
            },
            7,
        );
        run_sessions(&mut platform, &world, &mut pop, 120, &mut rng);
        let (correct, total) = world.verified_precision(&platform);
        results.push((k, correct as f64 / total.max(1) as f64, total));
    }
    // Precision at k=3 must not fall below k=1 (small tolerance for the
    // shrinking sample).
    assert!(
        results[2].1 >= results[0].1 - 0.03,
        "precision not monotone-ish: {results:?}"
    );
    // Volume must shrink with k.
    assert!(
        results[0].2 > results[2].2,
        "k=3 should verify fewer: {results:?}"
    );
}

#[test]
fn gold_tasks_quarantine_bad_players() {
    let world_cfg = {
        let mut c = WorldConfig::standard();
        c.stimuli = 250;
        c
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut world = EspWorld::generate(&world_cfg, &mut rng);
    let mut platform = Platform::new(PlatformConfig {
        agreement_threshold: 1,
        gold_injection_rate: 0.3,
        gold_min_accuracy: 0.5,
        gold_min_evidence: 3,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    world.register_tasks(&mut platform);
    world.register_gold_tasks(&mut platform, &world_cfg, 20, &mut rng);
    let mut pop = PopulationBuilder::new(PLAYERS)
        .mix(ArchetypeMix::with_colluders(0.7, 0.3, "zap"))
        .build(&mut rng);
    for _ in 0..PLAYERS {
        platform.register_player();
    }
    run_sessions(&mut platform, &world, &mut pop, 150, &mut rng);

    // Every colluder with enough gold exposure must be distrusted.
    let mut distrusted = 0;
    let mut exposed = 0;
    for p in pop.players().iter().filter(|p| p.is_adversarial()) {
        if let Some(r) = platform.gold().record(p.id) {
            if r.total() >= 3 {
                exposed += 1;
                if !platform.gold().is_trusted(p.id) {
                    distrusted += 1;
                }
            }
        }
    }
    assert!(exposed > 0, "no colluder ever saw a gold task");
    assert_eq!(distrusted, exposed, "exposed colluders must be distrusted");
    // Poison can only land during the cold-start window before colluders
    // accumulate `gold_min_evidence` exposures; after that the gate holds,
    // so the total poisoned share must stay marginal.
    let poison = Label::new("zap");
    let poisoned = platform
        .verified_labels()
        .iter()
        .filter(|v| v.label == poison)
        .count();
    let total = platform.verified_labels().len().max(1);
    // With 30% colluders and no gate at all, roughly 9% of pairings are
    // colluder-colluder and every one poisons; the gate must hold the
    // realized share well below that.
    assert!(
        (poisoned as f64) / (total as f64) < 0.06,
        "poison share too high: {poisoned}/{total}"
    );
    assert!(
        platform.rejected_agreements() > 0,
        "gate never rejected a distrusted agreement"
    );
}

#[test]
fn taboo_mechanism_deepens_coverage() {
    let run = |taboo: bool| {
        let (mut platform, world, mut pop, mut rng) = setup(
            ArchetypeMix::all_honest(),
            PlatformConfig {
                taboo_words_enabled: taboo,
                gold_injection_rate: 0.0,
                ..PlatformConfig::default()
            },
            21,
        );
        run_sessions(&mut platform, &world, &mut pop, 100, &mut rng);
        // Mean distinct verified labels per labeled task.
        let mut per_task: std::collections::HashMap<TaskId, std::collections::HashSet<&Label>> =
            std::collections::HashMap::new();
        for v in platform.verified_labels() {
            per_task.entry(v.task).or_default().insert(&v.label);
        }
        let total_distinct: usize = per_task.values().map(|s| s.len()).sum();
        (total_distinct, per_task.len())
    };
    let (with_taboo, _) = run(true);
    let (without_taboo, _) = run(false);
    assert!(
        with_taboo > without_taboo,
        "taboo should deepen distinct coverage: {with_taboo} vs {without_taboo}"
    );
}

#[test]
fn replay_fallback_preserves_label_quality() {
    let (mut platform, world, mut pop, mut rng) = setup(
        ArchetypeMix::all_honest(),
        PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        },
        33,
    );
    // Seed recordings with live sessions.
    run_sessions(&mut platform, &world, &mut pop, 30, &mut rng);
    let live_labels = platform.verified_labels().len();
    // Lone players verify against recordings.
    for s in 0..30u64 {
        let p = PlayerId::new(s % PLAYERS as u64);
        play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::solo(
                p,
                SessionId::new(1_000 + s),
                SimTime::from_secs(100_000 + s * 1_000),
            ),
            &mut rng,
        );
    }
    let (correct, total) = world.verified_precision(&platform);
    assert!(
        total > live_labels,
        "replay sessions should add verified labels ({total} vs {live_labels})"
    );
    assert!(
        correct as f64 / total as f64 > 0.9,
        "replay-verified precision degraded: {correct}/{total}"
    );
}
