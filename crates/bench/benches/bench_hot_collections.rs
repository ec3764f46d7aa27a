//! Micro-benchmarks: the four collection hot paths that PR 5 moved from
//! `BTreeMap`/`BTreeSet` to `hc_collect`'s deterministic open-addressing
//! types. Every group runs the *same* operation sequence twice — once on
//! the old std B-tree structure ("btree") and once on the new structure
//! ("det") — so `det` vs `btree` per group is a direct speedup readout.
//! The ESP tag group also runs it on `DetSet<Label>` ("det_label").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hc_collect::{DetMap, DetSet, Interner, Sym};
use hc_core::Label;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

/// Deterministic xorshift id stream, so both variants replay identical
/// key sequences without pulling in an RNG crate.
fn id_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push(x);
    }
    out
}

/// Wait-pool rematch storm: every arrival does one `get` on the
/// last-partner map and every pairing two inserts — keyed by player id
/// over a bounded population, exactly the `BucketPool::on_arrival` shape.
fn bench_matchmaker_rematch(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_matchmaker_rematch");
    const POP: u64 = 512;
    let arrivals: Vec<(u64, u64)> = id_stream(0xA5A5, 4096)
        .iter()
        .map(|&x| (x % POP, (x >> 32) % POP))
        .collect();
    group.bench_with_input(BenchmarkId::new("btree", POP), &arrivals, |b, arrivals| {
        b.iter(|| {
            let mut last: BTreeMap<u64, u64> = BTreeMap::new();
            let mut hits = 0u64;
            for &(p, q) in arrivals {
                if last.get(&p) == Some(&q) {
                    hits += 1;
                }
                last.insert(p, q);
                last.insert(q, p);
            }
            black_box(hits)
        });
    });
    group.bench_with_input(BenchmarkId::new("det", POP), &arrivals, |b, arrivals| {
        b.iter(|| {
            let mut last: DetMap<u64, u64> = DetMap::with_capacity(POP as usize);
            let mut hits = 0u64;
            for &(p, q) in arrivals {
                if last.get(&p) == Some(&q) {
                    hits += 1;
                }
                last.insert(p, q);
                last.insert(q, p);
            }
            black_box(hits)
        });
    });
    group.finish();
}

/// ESP session: taboo-list membership plus cross-seat agreement checks
/// on a label vocabulary — one `contains` + one `insert` per guess.
fn bench_esp_tags(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_esp_tags");
    let vocab: Vec<String> = (0..256).map(|i| format!("label-{i:03}")).collect();
    let guesses: Vec<&str> = id_stream(0x1234, 4096)
        .iter()
        .map(|&x| vocab[(x % 256) as usize].as_str())
        .collect();
    group.bench_with_input(BenchmarkId::new("btree", vocab.len()), &guesses, |b, gs| {
        b.iter(|| {
            let mut taboo: BTreeSet<String> = BTreeSet::new();
            let mut agreed = 0u64;
            for g in gs {
                if taboo.contains(*g) {
                    agreed += 1;
                } else {
                    taboo.insert((*g).to_string());
                }
            }
            black_box(agreed)
        });
    });
    group.bench_with_input(BenchmarkId::new("det", vocab.len()), &guesses, |b, gs| {
        b.iter(|| {
            let mut taboo: DetSet<String> = DetSet::new();
            let mut agreed = 0u64;
            for g in gs {
                if taboo.contains(*g) {
                    agreed += 1;
                } else {
                    taboo.insert((*g).to_string());
                }
            }
            black_box(agreed)
        });
    });
    // The same sequence over `Label`s, the type taboo lists and guess sets
    // hold. Guesses are clones of one vocabulary's labels, as a world's are.
    let labels: Vec<Label> = vocab.iter().map(|w| Label::new(w)).collect();
    let label_guesses: Vec<Label> = id_stream(0x1234, 4096)
        .iter()
        .map(|&x| labels[(x % 256) as usize].clone())
        .collect();
    group.bench_with_input(
        BenchmarkId::new("det_label", vocab.len()),
        &label_guesses,
        |b, gs| {
            b.iter(|| {
                let mut taboo: DetSet<Label> = DetSet::new();
                let mut agreed = 0u64;
                for g in gs {
                    if taboo.contains(g) {
                        agreed += 1;
                    } else {
                        taboo.insert(g.clone());
                    }
                }
                black_box(agreed)
            });
        },
    );
    group.finish();
}

/// reCAPTCHA tally: per-word vote maps keyed by transcription strings —
/// entry-or-insert plus an f64 accumulate per vote.
fn bench_recaptcha_tally(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_recaptcha_tally");
    const WORDS: usize = 256;
    let votes: Vec<(usize, String)> = id_stream(0xBEEF, 4096)
        .iter()
        .map(|&x| {
            (
                (x % WORDS as u64) as usize,
                format!("w{:04}", (x >> 16) % 6),
            )
        })
        .collect();
    // The service builds its per-word tallies once at construction and
    // votes on them for the rest of its life; build outside the timed
    // loop and clear per iteration to measure the steady state.
    group.bench_with_input(BenchmarkId::new("btree", WORDS), &votes, |b, votes| {
        let mut tallies: Vec<BTreeMap<String, f64>> = vec![BTreeMap::new(); WORDS];
        b.iter(|| {
            for t in &mut tallies {
                t.clear();
            }
            let mut promoted = 0u64;
            for (w, vote) in votes {
                let mass = tallies[*w].entry(vote.clone()).or_insert(0.0);
                *mass += 1.0;
                if *mass >= 2.5 {
                    promoted += 1;
                }
            }
            black_box(promoted)
        });
    });
    group.bench_with_input(BenchmarkId::new("det", WORDS), &votes, |b, votes| {
        let mut tallies: Vec<DetMap<String, f64>> = vec![DetMap::with_capacity(4); WORDS];
        b.iter(|| {
            for t in &mut tallies {
                t.clear();
            }
            let mut promoted = 0u64;
            for (w, vote) in votes {
                let mass = tallies[*w].entry(vote.clone()).or_insert(0.0);
                *mass += 1.0;
                if *mass >= 2.5 {
                    promoted += 1;
                }
            }
            black_box(promoted)
        });
    });
    group.finish();
}

/// Metrics increment: the registry's counter path. The old shape clones
/// the `String` name into a B-tree entry per record; the new shape
/// interns the name to a `Sym` and bumps a symbol-keyed slot.
fn bench_metrics_increment(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_metrics_increment");
    let names: Vec<String> = (0..24).map(|i| format!("metrics.counter_{i:02}")).collect();
    let stream: Vec<&str> = id_stream(0x77, 8192)
        .iter()
        .map(|&x| names[(x % 24) as usize].as_str())
        .collect();
    group.bench_with_input(BenchmarkId::new("btree", names.len()), &stream, |b, st| {
        b.iter(|| {
            let mut counters: BTreeMap<String, u64> = BTreeMap::new();
            for name in st {
                let slot = counters.entry((*name).to_string()).or_insert(0);
                *slot = slot.saturating_add(1);
            }
            black_box(counters.len())
        });
    });
    group.bench_with_input(BenchmarkId::new("det", names.len()), &stream, |b, st| {
        b.iter(|| {
            let mut interner = Interner::new();
            let mut counters: DetMap<Sym, u64> = DetMap::new();
            for name in st {
                let sym = interner.intern(name);
                let slot = counters.entry(sym).or_insert(0);
                *slot = slot.saturating_add(1);
            }
            black_box(counters.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matchmaker_rematch,
    bench_esp_tags,
    bench_recaptcha_tally,
    bench_metrics_increment
);
criterion_main!(benches);
