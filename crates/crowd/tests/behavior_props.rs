//! Property tests over the crowd substrate: behaviours, populations and
//! engagement must satisfy their contracts for *all* parameters.

use hc_core::{Answer, Label, PlayerId, TabooList};
use hc_crowd::{
    ArchetypeMix, Behavior, EngagementModel, LabelDistribution, PlayerProfile, Population,
    PopulationBuilder, ResponseTimeModel, SkillDynamics, Vocabulary,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Reference lookup: the first slot holding `id`, by a front-to-back scan.
fn scan_slot(players: &[PlayerProfile], id: u64) -> Option<usize> {
    players.iter().position(|p| p.id.raw() == id)
}

/// Checks `get`, `get_mut` and `get_pair_mut` against [`scan_slot`] for
/// every query pair, and for each query paired with itself.
fn lookups_match_scan(pop: &mut Population, queries: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let players = pop.players().to_vec();
    let at = |slot: Option<usize>| slot.map(|i| players[i].clone());
    for &(a, b) in queries {
        for (a, b) in [(a, b), (a, a)] {
            let want = at(scan_slot(&players, a));
            prop_assert_eq!(pop.get(PlayerId::new(a)).cloned(), want.clone());
            prop_assert_eq!(pop.get_mut(PlayerId::new(a)).map(|p| p.clone()), want);
            let want_pair = if a == b {
                None
            } else {
                at(scan_slot(&players, a)).zip(at(scan_slot(&players, b)))
            };
            let got_pair = pop
                .get_pair_mut(PlayerId::new(a), PlayerId::new(b))
                .map(|(x, y)| (x.clone(), y.clone()));
            prop_assert_eq!(got_pair, want_pair);
        }
    }
    Ok(())
}

/// Profiles with the given ids, each with a distinct skill so that two
/// profiles sharing an id still compare unequal.
fn profiles(ids: &[u64]) -> Vec<PlayerProfile> {
    ids.iter()
        .enumerate()
        .map(|(i, &id)| {
            PlayerProfile::new(
                PlayerId::new(id),
                i as f64 / 100.0,
                Behavior::Honest,
                ResponseTimeModel::default(),
            )
        })
        .collect()
}

fn truth() -> LabelDistribution {
    LabelDistribution::new(vec![
        (Label::new("alpha"), 0.5),
        (Label::new("beta"), 0.3),
        (Label::new("gamma"), 0.2),
    ])
    .unwrap()
}

proptest! {
    #[test]
    fn honest_answers_never_violate_taboo(seed in 0u64..500) {
        let mut b = Behavior::Honest;
        let t = truth();
        let vocab = Vocabulary::new(50, 1.0);
        let taboo = TabooList::from_labels([Label::new("alpha")]);
        let mut r = rng(seed);
        for _ in 0..50 {
            if let Answer::Text(l) = b.next_answer(&t, &vocab, &taboo, &mut r) {
                prop_assert!(!taboo.contains(&l));
                prop_assert!(t.contains(&l), "honest answers stay truthful");
            }
        }
    }

    #[test]
    fn colluders_are_perfectly_predictable(seed in 0u64..100, word in "[a-z]{1,8}") {
        let mut b = Behavior::Colluder { strategy_label: Label::new(&word) };
        let t = truth();
        let vocab = Vocabulary::new(50, 1.0);
        let mut r = rng(seed);
        for _ in 0..10 {
            prop_assert_eq!(
                b.next_answer(&t, &vocab, &TabooList::new(), &mut r),
                Answer::Text(Label::new(&word))
            );
        }
    }

    #[test]
    fn verdict_is_always_a_verdict_or_deterministically_shaped(
        seed in 0u64..100,
        p_same in 0.0f64..1.0,
        skill in 0.0f64..1.0,
    ) {
        let mut r = rng(seed);
        for mut b in [
            Behavior::Honest,
            Behavior::Random,
            Behavior::Noisy { error_rate: 0.5 },
        ] {
            let v = b.verdict(p_same, skill, &mut r);
            prop_assert!(matches!(v, Answer::Verdict(_)));
        }
    }

    #[test]
    fn population_sizes_and_ids_are_exact(n in 0usize..200, first in 0u64..1000) {
        let pop = PopulationBuilder::new(n).first_id(first).build(&mut rng(1));
        prop_assert_eq!(pop.len(), n);
        for (i, p) in pop.players().iter().enumerate() {
            prop_assert_eq!(p.id.raw(), first + i as u64);
            prop_assert!((0.0..=1.0).contains(&p.skill));
        }
    }

    #[test]
    fn colluder_share_matches_mix(share in 0.0f64..1.0, seed in 0u64..50) {
        let mix = ArchetypeMix::with_colluders(1.0 - share, share, "x");
        let pop = PopulationBuilder::new(500).mix(mix).build(&mut rng(seed));
        let measured = pop.adversarial_share();
        prop_assert!((measured - share).abs() < 0.08, "share {share} measured {measured}");
    }

    #[test]
    fn engagement_lifetimes_are_positive_and_finite(
        median in 0.5f64..30.0,
        sigma in 0.0f64..1.5,
        churn in 0.01f64..1.0,
        seed in 0u64..50,
    ) {
        let m = EngagementModel::new(median.ln(), sigma, churn).unwrap();
        let mut r = rng(seed);
        let plan = m.sample_lifetime(&mut r);
        prop_assert!(!plan.session_lengths.is_empty());
        prop_assert!(plan.total_play().as_secs_f64() > 0.0);
        prop_assert!(m.expected_alp_hours() > 0.0);
    }

    #[test]
    fn response_latency_is_bounded_below(seed in 0u64..200) {
        let m = ResponseTimeModel::default();
        let mut r = rng(seed);
        let l = m.sample(Some(&Label::new("word")), &mut r);
        prop_assert!(l.as_secs_f64() >= 0.05);
    }

    #[test]
    fn effective_skill_is_always_in_unit_interval(
        base in -0.5f64..1.5,
        rounds in 0u64..100_000,
        minutes in 0.0f64..10_000.0,
    ) {
        let d = SkillDynamics::default();
        let e = d.effective_skill(base.clamp(0.0, 1.0), rounds, minutes);
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn learning_multiplier_is_monotone_in_rounds(r1 in 0u64..10_000, r2 in 0u64..10_000) {
        let d = SkillDynamics::default();
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(d.learning_multiplier(lo) <= d.learning_multiplier(hi) + 1e-12);
    }

    #[test]
    fn fatigue_multiplier_is_monotone_in_minutes(m1 in 0.0f64..1000.0, m2 in 0.0f64..1000.0) {
        let d = SkillDynamics::default();
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        prop_assert!(d.fatigue_multiplier(lo) >= d.fatigue_multiplier(hi) - 1e-12);
    }

    #[test]
    fn builder_population_lookups_match_a_scan(
        size in 0usize..40,
        first in 0u64..1_000,
        seed in 0u64..100,
        offsets in prop::collection::vec((0u64..50, 0u64..50), 1..20),
    ) {
        let mut pop = PopulationBuilder::new(size).first_id(first).build(&mut rng(seed));
        // Offsets straddle both ends of the id range, so misses are covered.
        let low = first.saturating_sub(3);
        let queries: Vec<(u64, u64)> = offsets.iter().map(|&(a, b)| (low + a, low + b)).collect();
        lookups_match_scan(&mut pop, &queries)?;
    }

    #[test]
    fn from_profiles_lookups_match_a_scan(
        ids in prop::collection::vec(0u64..60, 0..40),
        base in 0u64..100,
        keys in prop::collection::vec(0u64..1_000, 0..30),
        queries in prop::collection::vec((0u64..160, 0u64..160), 1..20),
    ) {
        // Arbitrary ids: unordered, gapped, possibly repeated.
        lookups_match_scan(&mut Population::from_profiles(profiles(&ids)), &queries)?;
        // Contiguous ids `base..base + n` in shuffled order.
        let mut order: Vec<(u64, u64)> = keys.iter().copied().zip(base..).collect();
        order.sort_unstable();
        let shuffled: Vec<u64> = order.iter().map(|&(_, id)| id).collect();
        lookups_match_scan(&mut Population::from_profiles(profiles(&shuffled)), &queries)?;
        // The same ids in order: the indexed path.
        let sorted: Vec<u64> = (base..base + keys.len() as u64).collect();
        lookups_match_scan(&mut Population::from_profiles(profiles(&sorted)), &queries)?;
    }
}
