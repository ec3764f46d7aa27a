//! Property tests for the parallel replication pool: for *any* job
//! count and thread count, the parallel path must produce byte-identical
//! serialized statistics to the serial path, and a panicking replication
//! must surface as a typed error without poisoning later runs.

use hc_sim::{run_replications, OnlineStats, ReplicationError, RngFactory, SimRng};
use proptest::prelude::*;
use rand::Rng;

/// A replication job with data-dependent cost: draws a per-index number
/// of samples and serializes the resulting summary statistics, so equal
/// outputs really mean equal streams, not just equal lengths.
fn stats_job(index: usize, mut rng: SimRng) -> String {
    let mut stats = OnlineStats::new();
    let draws = 8 + (index % 7) * 5;
    for _ in 0..draws {
        stats.push(rng.gen::<f64>());
    }
    let summary = vec![
        stats.count() as f64,
        stats.mean(),
        stats.std_dev(),
        stats.min().unwrap_or(f64::NAN),
        stats.max().unwrap_or(f64::NAN),
    ];
    serde_json::to_string(&summary).expect("stats serialize")
}

proptest! {
    #[test]
    fn parallel_matches_serial_for_any_grid_shape(
        jobs in 0usize..48,
        threads in 1usize..10,
        seed in 0u64..500,
    ) {
        let factory = RngFactory::new(seed);
        let job = |i: usize| stats_job(i, factory.indexed_stream("equiv", i as u64));
        let serial = run_replications(jobs, 1, job).expect("serial path never panics");
        let parallel = run_replications(jobs, threads, job).expect("parallel path never panics");
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn unseeded_results_keep_index_order(
        jobs in 0usize..64,
        threads in 1usize..10,
    ) {
        let out = run_replications(jobs, threads, |i| i.wrapping_mul(2_654_435_761))
            .expect("pure jobs never panic");
        let expected: Vec<usize> = (0..jobs).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn the_lowest_panicking_index_wins_at_any_thread_count(
        jobs in 1usize..40,
        threads in 1usize..10,
        salt in 0usize..1_000,
        every in 2usize..9,
    ) {
        // A pseudo-random set of replications panics; the pool must name
        // the lowest of them, exactly as a serial loop would.
        let rigged = |i: usize| (i.wrapping_mul(2_654_435_761) ^ salt).is_multiple_of(every);
        let outcome = run_replications(jobs, threads, |i| {
            assert!(!rigged(i), "replication {i} is rigged to fail");
            i
        });
        match (0..jobs).find(|&i| rigged(i)) {
            Some(lowest) => match outcome {
                Err(ReplicationError::Panicked { index, message }) => {
                    prop_assert_eq!(index, lowest);
                    prop_assert_eq!(message, format!("replication {lowest} is rigged to fail"));
                }
                other => prop_assert!(false, "expected a panic at {}, got {:?}", lowest, other),
            },
            None => prop_assert_eq!(outcome, Ok((0..jobs).collect::<Vec<_>>())),
        }
    }
}

#[test]
fn a_panic_surfaces_as_error_and_does_not_poison_the_pool() {
    let err = run_replications(10, 4, |i| {
        assert!(i != 3, "replication 3 is rigged to fail");
        i
    })
    .expect_err("job 3 panics");
    match err {
        ReplicationError::Panicked { index, message } => {
            assert_eq!(index, 3);
            assert!(message.contains("rigged"), "unexpected message: {message}");
        }
        other => panic!("wrong variant: {other}"),
    }

    // The pool is a pure function — a failed batch must not affect the
    // next one (nothing is poisoned, no worker state leaks).
    let ok = run_replications(10, 4, |i| i).expect("clean batch succeeds after a failed one");
    assert_eq!(ok, (0..10).collect::<Vec<_>>());
}
