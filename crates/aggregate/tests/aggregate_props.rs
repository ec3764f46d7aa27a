//! Property tests over the aggregation algorithms.

use hc_aggregate::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

fn synthetic(
    seed: u64,
    tasks: usize,
    classes: usize,
    workers: usize,
    accuracy: f64,
    redundancy: usize,
) -> SyntheticWorld {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    SyntheticCrowd::new(tasks, classes, workers, accuracy).generate(redundancy, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dawid_skene_posteriors_are_distributions(
        seed in 0u64..100,
        tasks in 5usize..40,
        classes in 2usize..5,
        accuracy in 0.3f64..1.0,
    ) {
        let world = synthetic(seed, tasks, classes, 10, accuracy, 4);
        let fit = DawidSkene::default().fit(&world.matrix);
        for post in &fit.posteriors {
            let sum: f64 = post.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "posterior sums to {sum}");
            prop_assert!(post.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)));
        }
        // Priors are a distribution too.
        let prior_sum: f64 = fit.priors.iter().sum();
        prop_assert!((prior_sum - 1.0).abs() < 1e-6);
        // Confusion rows are stochastic.
        for w in &fit.confusion {
            for row in w {
                let s: f64 = row.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn majority_answers_every_labeled_task(
        seed in 0u64..100,
        tasks in 5usize..40,
    ) {
        let world = synthetic(seed, tasks, 3, 8, 0.7, 3);
        let est = MajorityVote.aggregate(&world.matrix);
        prop_assert_eq!(est.len(), tasks);
        prop_assert!(est.iter().all(|e| e.is_some()), "redundancy 3 labels everything");
    }

    #[test]
    fn threshold_coverage_is_antitone_in_k(seed in 0u64..100, tasks in 5usize..40) {
        let world = synthetic(seed, tasks, 3, 10, 0.7, 5);
        let mut last_coverage = f64::INFINITY;
        for k in 1..=5 {
            let est = AgreementThreshold::new(k).aggregate(&world.matrix);
            let q = score(&est, &world.gold);
            prop_assert!(q.coverage <= last_coverage + 1e-12);
            last_coverage = q.coverage;
        }
    }

    #[test]
    fn score_identities_hold(
        estimates in prop::collection::vec(prop::option::of(0usize..4), 1..60),
    ) {
        let gold: Vec<usize> = (0..estimates.len()).map(|i| i % 4).collect();
        let q = score(&estimates, &gold);
        prop_assert!((q.yield_rate - q.accuracy * q.coverage).abs() < 1e-12);
        prop_assert!(q.correct <= q.answered);
        prop_assert!(q.answered <= q.total);
        prop_assert!((0.0..=1.0).contains(&q.accuracy));
        prop_assert!((0.0..=1.0).contains(&q.coverage));
    }

    #[test]
    fn perfect_workers_make_every_method_perfect(seed in 0u64..50, tasks in 5usize..30) {
        let world = synthetic(seed, tasks, 4, 8, 1.0, 3);
        for est in [
            MajorityVote.aggregate(&world.matrix),
            AgreementThreshold::new(2).aggregate(&world.matrix),
            DawidSkene::default().aggregate(&world.matrix),
        ] {
            let q = score(&est, &world.gold);
            prop_assert!((q.accuracy - 1.0).abs() < 1e-12, "accuracy {}", q.accuracy);
        }
    }
}
