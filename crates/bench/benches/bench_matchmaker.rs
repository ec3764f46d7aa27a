//! Micro-benchmark: wait-pool arrival handling (pairing decision cost)
//! at several standing queue depths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_core::{BucketPool, MatchmakerConfig, PlayerId};
use hc_sim::SimTime;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matchmaker(c: &mut Criterion) {
    let mut group = c.benchmark_group("matchmaker");
    for &waiting in &[2usize, 64, 1024] {
        group.bench_with_input(
            BenchmarkId::new("arrival", waiting),
            &waiting,
            |b, &waiting| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                let mut mm = BucketPool::new(MatchmakerConfig {
                    avoid_rematch: false,
                    ..MatchmakerConfig::default()
                });
                for i in 0..waiting {
                    mm.on_arrival(SimTime::ZERO, PlayerId::new(i as u64), &mut rng);
                }
                let mut next = waiting as u64;
                b.iter(|| {
                    // One pairing + one refill keeps the pool size stable.
                    let d = mm.on_arrival(SimTime::from_secs(1), PlayerId::new(next), &mut rng);
                    next += 1;
                    mm.on_arrival(SimTime::from_secs(1), PlayerId::new(next), &mut rng);
                    next += 1;
                    black_box(d)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_matchmaker);
criterion_main!(benches);
