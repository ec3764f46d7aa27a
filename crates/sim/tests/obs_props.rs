//! Property tests for the observability layer's determinism contract:
//! recording must never change what a replication run computes, the
//! deterministic part of a merged trace must be byte-identical at any
//! `--threads` value (only the machine section may differ), the
//! sharded engine's derived-metrics summary must be byte-identical at
//! any shard layout, and span trees built through the scope API must
//! be structurally sound (children inside parents, critical path
//! bounded by its root).

use hc_obs::analyze::{critical_path, DeriveAcc, SpanTree};
use hc_sim::shard::{
    run as run_shards, Addr, HubDecision, Mailbox, ShardConfig, ShardWorkload, WindowInfo,
};
use hc_sim::{run_replications, OnlineStats, RngFactory, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeMap;

/// A replication job with data-dependent cost that also emits a scope
/// span, leaf spans, counters and histogram observations — collected
/// under a recording scope, no-ops otherwise. Serializing the summary
/// makes "equal results" mean equal RNG streams, not just equal
/// lengths.
fn stats_job(index: usize, mut rng: SimRng) -> String {
    let mut stats = OnlineStats::new();
    let draws = 8 + (index % 7) * 5;
    let base_us = index as u64 * 1_000;
    let scope = hc_obs::enter("test", "job.scope", base_us);
    for _ in 0..draws {
        let x = rng.gen::<f64>();
        stats.push(x);
        hc_obs::observe("job.samples", base_us, x);
    }
    hc_obs::counter("job.draws", base_us + draws as u64, draws as u64);
    hc_obs::span(
        "test",
        "job",
        base_us,
        base_us + draws as u64,
        &[("index", index.into())],
    );
    scope.exit(base_us + draws as u64, &[]);
    let summary = vec![
        stats.count() as f64,
        stats.mean(),
        stats.std_dev(),
        stats.min().unwrap_or(f64::NAN),
        stats.max().unwrap_or(f64::NAN),
    ];
    serde_json::to_string(&summary).expect("stats serialize")
}

/// The shard module's toy token-passing workload, reduced to what the
/// layout-invariance property needs: every entity with tokens sends one
/// to the hub each window, which forwards it to a derived entity. All
/// hub decisions depend only on entity ids, never on the shard layout.
struct Toy {
    n: u64,
    k: usize,
    horizon: u64,
}

#[derive(Debug)]
enum ToyMsg {
    ToHub { from: u64 },
    Grant { to: u64 },
}

struct ToyShard {
    ids: Vec<u64>,
    tokens: BTreeMap<u64, u64>,
}

impl ShardWorkload for Toy {
    type Shard = ToyShard;
    type Msg = ToyMsg;
    type Hub = ();

    fn shard_step(
        &self,
        _shard: usize,
        state: &mut ToyShard,
        win: &WindowInfo,
        inbox: Vec<(SimTime, ToyMsg)>,
        mail: &mut Mailbox<ToyMsg>,
    ) -> Option<SimTime> {
        for (_, msg) in inbox {
            if let ToyMsg::Grant { to } = msg {
                *state.tokens.entry(to).or_insert(0) += 1;
            }
        }
        if win.index < self.horizon {
            for &id in &state.ids {
                if state.tokens.get(&id).copied().unwrap_or(0) > 0 {
                    *state.tokens.get_mut(&id).expect("present") -= 1;
                    mail.send(
                        Addr::Hub,
                        win.start,
                        u128::from(id),
                        ToyMsg::ToHub { from: id },
                    );
                }
            }
        }
        (win.index + 1 < self.horizon).then_some(win.end)
    }

    fn run_job(&self, _: SimTime, _: ToyMsg, _: &mut Mailbox<ToyMsg>) {}

    fn hub_step(
        &self,
        (): &mut (),
        win: &WindowInfo,
        inbox: Vec<(SimTime, ToyMsg)>,
        mail: &mut Mailbox<ToyMsg>,
    ) -> HubDecision {
        for (at, msg) in inbox {
            if let ToyMsg::ToHub { from } = msg {
                let to = (from * 31 + 17) % self.n;
                #[allow(clippy::cast_possible_truncation)] // toy entity counts are small
                mail.send(
                    Addr::Shard(to as usize % self.k),
                    at,
                    (u128::from(to) << 64) | u128::from(from),
                    ToyMsg::Grant { to },
                );
            }
        }
        HubDecision::running((win.index + 1 < self.horizon).then_some(win.end))
    }
}

/// Runs the toy under a recording scope at one shard layout and folds
/// the trace into its derived-metrics summary JSON.
fn toy_derived_summary(n: u64, k: usize, threads: usize, horizon: u64) -> String {
    let mut shards: Vec<ToyShard> = (0..k)
        .map(|s| {
            let ids: Vec<u64> = (0..n).filter(|i| (*i as usize) % k == s).collect();
            let tokens = ids.iter().map(|&i| (i, i % 7 + 1)).collect();
            ToyShard { ids, tokens }
        })
        .collect();
    let toy = Toy { n, k, horizon };
    let cfg = ShardConfig::new(threads, SimDuration::from_secs(10));
    let ((), trace) = hc_obs::record_scope(0, || {
        run_shards(&cfg, &toy, &mut (), &mut shards).expect("toy runs");
    });
    let mut acc = DeriveAcc::new();
    for r in &trace.records {
        acc.add(r);
    }
    acc.finish().to_json()
}

proptest! {
    #[test]
    fn recording_never_perturbs_results(
        jobs in 0usize..32,
        threads in 1usize..8,
        seed in 0u64..300,
    ) {
        let factory = RngFactory::new(seed);
        let job = |i: usize| stats_job(i, factory.indexed_stream("obs", i as u64));
        let plain = run_replications(jobs, threads, job).expect("plain run succeeds");
        let (recorded, trace) = hc_obs::record_scope(0, || run_replications(jobs, threads, job));
        let recorded = recorded.expect("recorded run succeeds");
        prop_assert_eq!(plain, recorded, "a subscriber changed the results");
        // The trace really observed the jobs (per-task span + merged records).
        prop_assert_eq!(trace.metrics.counter("par.tasks"), jobs as u64);
    }

    #[test]
    fn merged_trace_is_thread_invariant(
        jobs in 0usize..32,
        threads in 2usize..8,
        seed in 0u64..300,
    ) {
        let factory = RngFactory::new(seed);
        let job = |i: usize| stats_job(i, factory.indexed_stream("obs", i as u64));
        let record = |t: usize| {
            let (out, trace) = hc_obs::record_scope(0, || run_replications(jobs, t, job));
            out.expect("run succeeds");
            trace
        };
        let serial = record(1);
        let parallel = record(threads);
        // Byte-identical deterministic sections at any thread count…
        prop_assert_eq!(
            hc_obs::sink::jsonl::render_deterministic(&serial),
            hc_obs::sink::jsonl::render_deterministic(&parallel)
        );
        // …while worker counts land in the machine section, which
        // is allowed to differ.
        prop_assert_eq!(serial.machine.get("par.workers"), Some(&1.0));
        if jobs > 0 {
            prop_assert!(parallel.machine.get("par.workers").copied().unwrap_or(0.0) >= 1.0);
        }
    }

    #[test]
    fn shard_derived_summary_is_layout_invariant(
        n in 2u64..32,
        k in 1usize..5,
        threads in 1usize..4,
        horizon in 1u64..6,
    ) {
        let baseline = toy_derived_summary(n, 1, 1, horizon);
        let layout = toy_derived_summary(n, k, threads, horizon);
        prop_assert_eq!(baseline, layout, "derived summary depends on the shard layout");
    }

    #[test]
    fn span_trees_nest_and_bound_the_critical_path(
        ops in proptest::collection::vec((0u8..3, 1u64..1_000), 0..48),
    ) {
        // Random well-formed scope programs: enter a scope, emit a leaf,
        // or exit the innermost scope, with a forward-only clock.
        let ((), trace) = hc_obs::record_scope(0, || {
            let mut clock = 0u64;
            let mut stack: Vec<hc_obs::SpanScope> = Vec::new();
            for &(op, advance) in &ops {
                match op {
                    0 => stack.push(hc_obs::enter("prop", "scope", clock)),
                    1 => hc_obs::span("prop", "leaf", clock, clock + advance, &[]),
                    _ => {
                        if let Some(scope) = stack.pop() {
                            scope.exit(clock, &[]);
                        }
                    }
                }
                clock += advance;
            }
            while let Some(scope) = stack.pop() {
                scope.exit(clock, &[]);
            }
        });
        let tree = SpanTree::from_records(&trace.records);
        // Every child interval lies inside its parent's.
        let mut by_key: BTreeMap<(u32, u64), usize> = BTreeMap::new();
        for (i, s) in tree.spans.iter().enumerate() {
            by_key.insert((s.track, s.id), i);
        }
        for s in &tree.spans {
            if s.parent != 0 {
                let parent = by_key.get(&(s.track, s.parent)).map(|&i| &tree.spans[i]);
                prop_assert!(parent.is_some(), "parent {} missing on track {}", s.parent, s.track);
                let parent = parent.expect("checked above");
                prop_assert!(
                    s.start_us >= parent.start_us && s.end_us() <= parent.end_us(),
                    "child {}..{} escapes parent {}..{}",
                    s.start_us, s.end_us(), parent.start_us, parent.end_us()
                );
            }
        }
        // The critical path starts at a root, descends one child at a
        // time, and never claims more time than its root covers.
        if let Some(cp) = critical_path(&tree) {
            let max_root = tree
                .roots()
                .iter()
                .map(|&r| tree.spans[r].dur_us)
                .max()
                .unwrap_or(0);
            prop_assert!(cp.total_us <= max_root);
            let mut self_sum = 0u64;
            for (depth, step) in cp.steps.iter().enumerate() {
                prop_assert_eq!(step.depth, depth);
                self_sum += step.self_us;
            }
            prop_assert!(self_sum <= cp.total_us, "self times overrun the root");
            for pair in cp.steps.windows(2) {
                prop_assert!(tree.children(pair[0].span).contains(&pair[1].span));
            }
        } else {
            prop_assert!(tree.spans.is_empty());
        }
    }
}
