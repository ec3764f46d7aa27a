//! Property tests for the observability layer's determinism contract:
//! recording must never change what a replication run computes, the
//! deterministic part of a merged trace must be byte-identical at any
//! `--threads` value (only the machine section may differ), the
//! sharded engine's derived-metrics summary must be byte-identical at
//! any shard layout, and span trees built through the scope API must
//! be structurally sound (children inside parents, critical path
//! bounded by its root). On the same span trees, the one tree, the one
//! self-time fold and the one per-frame aggregate must give what the
//! passes gave when each linked or folded spans on its own.

use hc_obs::analyze::{
    critical_path, folded_stacks, render_flame_top, DeriveAcc, SpanDerived, SpanTree, LAYOUT_PREFIX,
};
use hc_obs::{FieldValue, Fields, RecordData};
use hc_sim::shard::{run as run_shards, Addr, Mailbox, ShardConfig, ShardWorkload, WindowInfo};
use hc_sim::{run_replications, OnlineStats, RngFactory, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use rand::Rng;
use serde_json::{Number, Value};
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
        _: &WindowInfo,
        inbox: Vec<(SimTime, ToyMsg)>,
        mail: &mut Mailbox<ToyMsg>,
    ) {
        for (at, msg) in inbox {
            if let ToyMsg::ToHub { from } = msg {
                let to = (from * 31 + 17) % self.n;
                mail.send(
                    Addr::Shard(to as usize % self.k),
                    at,
                    (u128::from(to) << 64) | u128::from(from),
                    ToyMsg::Grant { to },
                );
            }
        }
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

/// One step of a scope program: (kind, raw clock advance, selector).
type Op = (u8, u64, u32);

fn scope_programs() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0u64..2_000, 0u32..3), 0..48)
}

/// Records a well-formed scope program: enter a scope, emit a leaf (on
/// target `prop` or `prop.io`), exit the innermost scope, or emit a
/// `layout.` lane on track 0–2, with a forward-only clock. The clock
/// stands still about half the time (raw advances up to 1,000 count as
/// 0), so sibling and root start times often tie.
fn record_program(ops: &[Op]) -> hc_obs::Trace {
    let ((), trace) = hc_obs::record_scope(0, || {
        let mut clock = 0u64;
        let mut stack: Vec<hc_obs::SpanScope> = Vec::new();
        for (i, &(op, raw_advance, k)) in ops.iter().enumerate() {
            let advance = raw_advance.saturating_sub(1_000);
            let fields = [("op", i.into())];
            match op {
                0 => stack.push(hc_obs::enter("prop", "scope", clock)),
                1 => {
                    let target = if k == 1 { "prop.io" } else { "prop" };
                    hc_obs::span(target, "leaf", clock, clock + advance, &fields);
                }
                2 => {
                    if let Some(scope) = stack.pop() {
                        scope.exit(clock, &fields);
                    }
                }
                _ => {
                    hc_obs::span_on_track(k, "layout.prop", "lane", clock, clock + advance, &fields)
                }
            }
            clock += advance;
        }
        while let Some(scope) = stack.pop() {
            scope.exit(clock, &[]);
        }
    });
    trace
}

// Reference copies of the analysis passes as they were when each one
// linked or folded spans on its own: per-span child coverage, the flame
// table's fold, folded stacks carrying cloned labels, and the Chrome
// export's per-track linker.

fn reference_coverage(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .filter_map(|&(a, b)| {
            let (a, b) = (a.max(lo), b.min(hi));
            (a < b).then_some((a, b))
        })
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

fn reference_self_times(tree: &SpanTree) -> Vec<u64> {
    tree.spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let intervals: Vec<(u64, u64)> = tree
                .children(i)
                .iter()
                .map(|&c| (tree.spans[c].start_us, tree.spans[c].end_us()))
                .collect();
            span.dur_us
                .saturating_sub(reference_coverage(&intervals, span.start_us, span.end_us()))
        })
        .collect()
}

fn reference_folded_stacks(tree: &SpanTree, self_times: &[u64]) -> Vec<(String, u64)> {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut work: Vec<(usize, String)> = tree
        .roots()
        .iter()
        .rev()
        .map(|&i| (i, tree.spans[i].frame()))
        .collect();
    while let Some((node, stack)) = work.pop() {
        if self_times[node] > 0 {
            *folded.entry(stack.clone()).or_insert(0) += self_times[node];
        }
        for &child in tree.children(node).iter().rev() {
            work.push((child, format!("{stack};{}", tree.spans[child].frame())));
        }
    }
    folded.into_iter().collect()
}

fn reference_frames(tree: &SpanTree, self_times: &[u64]) -> BTreeMap<String, SpanDerived> {
    let mut by_frame: BTreeMap<String, SpanDerived> = BTreeMap::new();
    for (i, span) in tree.spans.iter().enumerate() {
        let slot = by_frame.entry(span.frame()).or_default();
        slot.count += 1;
        slot.total_us += span.dur_us;
        slot.self_us += self_times[i];
        slot.max_us = slot.max_us.max(span.dur_us);
    }
    by_frame
}

fn reference_flame_top(frames: &BTreeMap<String, SpanDerived>, n: usize) -> String {
    let mut rows: Vec<(&String, &SpanDerived)> = frames.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<36} {:>10} {:>14} {:>14}\n",
        "span", "count", "total_us", "self_us"
    );
    for (frame, agg) in rows.into_iter().take(n) {
        out.push_str(&format!(
            "{:<36} {:>10} {:>14} {:>14}\n",
            frame, agg.count, agg.total_us, agg.self_us
        ));
    }
    out
}

fn json_obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn json_u(x: u64) -> Value {
    Value::Number(Number::from_u64(x))
}

fn json_s(x: &str) -> Value {
    Value::String(x.to_string())
}

fn json_fields(fields: &Fields) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    FieldValue::Bool(b) => Value::Bool(*b),
                    FieldValue::U64(x) => json_u(*x),
                    FieldValue::I64(x) => Value::Number(Number::from_i64(*x)),
                    FieldValue::F64(x) => Value::Number(Number::from_f64(*x)),
                    FieldValue::Str(x) => json_s(x),
                };
                (k.clone(), v)
            })
            .collect(),
    )
}

/// The Chrome export of a spans-only trace with no track names, its
/// spans linked per track: roots and children by (start, emission
/// order), depth-first.
fn reference_chrome(trace: &hc_obs::Trace) -> String {
    struct Node<'t> {
        target: &'t str,
        name: &'t str,
        start_us: u64,
        end_us: u64,
        id: u64,
        parent: u64,
        fields: &'t Fields,
    }
    let mut by_track: BTreeMap<u32, Vec<Node<'_>>> = BTreeMap::new();
    for r in &trace.records {
        if let RecordData::Span {
            target,
            name,
            dur_us,
            id,
            parent,
            fields,
        } = &r.data
        {
            by_track.entry(r.track).or_default().push(Node {
                target,
                name,
                start_us: r.t_us,
                end_us: r.t_us.saturating_add(*dur_us),
                id: *id,
                parent: *parent,
                fields,
            });
        }
    }
    let mut events = Vec::new();
    for (track, nodes) in &by_track {
        let tid = json_u(u64::from(*track));
        let begin = |n: &Node<'_>| {
            json_obj(vec![
                ("name", json_s(n.name)),
                ("cat", json_s(n.target)),
                ("ph", json_s("B")),
                ("ts", json_u(n.start_us)),
                ("pid", json_u(0)),
                ("tid", tid.clone()),
                ("args", json_fields(n.fields)),
            ])
        };
        let end = |n: &Node<'_>| {
            json_obj(vec![
                ("ph", json_s("E")),
                ("ts", json_u(n.end_us)),
                ("pid", json_u(0)),
                ("tid", tid.clone()),
            ])
        };
        let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.id != 0 {
                index_of.insert(n.id, i);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            match index_of.get(&n.parent) {
                Some(&p) if n.parent != 0 && p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        roots.sort_by_key(|&i| (nodes[i].start_us, i));
        for kids in &mut children {
            kids.sort_by_key(|&i| (nodes[i].start_us, i));
        }
        for root in roots {
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            events.push(begin(&nodes[root]));
            while let Some((node, cursor)) = stack.pop() {
                if let Some(&child) = children[node].get(cursor) {
                    stack.push((node, cursor + 1));
                    stack.push((child, 0));
                    events.push(begin(&nodes[child]));
                } else {
                    events.push(end(&nodes[node]));
                }
            }
        }
    }
    let doc = json_obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", json_s("ms")),
    ]);
    format!("{doc}\n")
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
    fn span_trees_nest_and_bound_the_critical_path(ops in scope_programs()) {
        let trace = record_program(&ops);
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
    #[test]
    fn one_tree_and_one_fold_match_the_reference_passes(ops in scope_programs()) {
        let trace = record_program(&ops);
        let tree = SpanTree::from_records(&trace.records);
        let self_times = reference_self_times(&tree);
        prop_assert_eq!(tree.self_times(), self_times.as_slice());
        prop_assert_eq!(folded_stacks(&tree), reference_folded_stacks(&tree, &self_times));
        let mut acc = DeriveAcc::new();
        for r in &trace.records {
            acc.add(r);
        }
        let frames = reference_frames(&tree, &self_times);
        prop_assert_eq!(&acc.frames(), &frames);
        for n in [3, 100] {
            prop_assert_eq!(render_flame_top(&acc, n), reference_flame_top(&frames, n));
        }
        let derived = acc.finish();
        let kept: BTreeMap<String, SpanDerived> = frames
            .into_iter()
            .filter(|(frame, _)| !frame.starts_with(LAYOUT_PREFIX))
            .collect();
        prop_assert_eq!(derived.spans, kept);
        prop_assert_eq!(hc_obs::sink::chrome::render(&trace), reference_chrome(&trace));
    }
}
