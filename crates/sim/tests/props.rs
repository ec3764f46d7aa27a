//! Property tests over the simulation kernel's distributions and
//! statistics — the numerical foundation every experiment rests on.

use hc_sim::dist::{DiscreteDist, Exponential, Geometric, LogNormal, Zipf};
use hc_sim::{OnlineStats, RateSeries, SimDuration, SimTime};
use proptest::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #[test]
    fn discrete_dist_pmf_sums_to_one(weights in prop::collection::vec(0.0f64..100.0, 1..20)) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = DiscreteDist::new(&weights).unwrap();
        let total: f64 = (0..d.len()).map(|i| d.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Zero-weight outcomes have zero mass.
        for (i, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                prop_assert!(d.pmf(i).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn discrete_dist_never_samples_zero_weight(
        seed in 0u64..1000,
        nonzero in 1usize..6,
    ) {
        // Weights: `nonzero` ones followed by three zeros.
        let mut weights = vec![1.0; nonzero];
        weights.extend([0.0, 0.0, 0.0]);
        let d = DiscreteDist::new(&weights).unwrap();
        let mut r = rng(seed);
        for _ in 0..200 {
            prop_assert!(d.sample(&mut r) < nonzero);
        }
    }

    #[test]
    fn zipf_pmf_is_monotone_nonincreasing(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        for k in 1..n {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_samples_are_positive(rate in 0.001f64..1000.0, seed in 0u64..100) {
        let e = Exponential::new(rate).unwrap();
        let mut r = rng(seed);
        for _ in 0..100 {
            prop_assert!(e.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn lognormal_samples_are_positive(mu in -5.0f64..5.0, sigma in 0.0f64..2.0, seed in 0u64..100) {
        let ln = LogNormal::new(mu, sigma).unwrap();
        let mut r = rng(seed);
        for _ in 0..100 {
            prop_assert!(ln.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn geometric_support_is_positive_ints(p in 0.01f64..1.0, seed in 0u64..100) {
        let g = Geometric::new(p).unwrap();
        let mut r = rng(seed);
        for _ in 0..100 {
            prop_assert!(g.sample(&mut r) >= 1);
        }
    }

    #[test]
    fn online_stats_bounds_hold(values in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        prop_assert!(min <= s.mean() + 1e-6 && s.mean() <= max + 1e-6);
        prop_assert!(s.sample_variance() >= 0.0);
    }

    #[test]
    fn rate_series_conserves_mass(
        events in prop::collection::vec((0u64..10_000, 1u64..5), 0..100),
    ) {
        let mut s = RateSeries::new(SimDuration::from_secs(60));
        let mut expected = 0;
        for &(at, n) in &events {
            s.record(SimTime::from_secs(at), n);
            expected += n;
        }
        prop_assert_eq!(s.total(), expected);
        let summed: u64 = (0..s.len()).map(|i| s.window_count(i)).sum();
        prop_assert_eq!(summed, expected);
    }
}
