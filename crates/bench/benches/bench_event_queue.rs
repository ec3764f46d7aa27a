//! Micro-benchmark: the DES kernel's timing-wheel event queue (push/pop
//! throughput at several queue depths) — the hot loop of every campaign
//! simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_sim::{SimTime, WheelQueue};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &depth in &[100usize, 10_000, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("push_pop_cycle", depth),
            &depth,
            |b, &depth| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                let mut q: WheelQueue<u64> = WheelQueue::with_capacity(depth);
                for i in 0..depth {
                    q.push(SimTime::from_ticks(u64::from(rng.gen::<u32>())), i as u64);
                }
                b.iter(|| {
                    let (t, ev) = q.pop().expect("non-empty");
                    q.push(t + hc_sim::SimDuration::from_secs(1), black_box(ev));
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
