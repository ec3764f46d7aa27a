//! Trace analysis passes: span trees, critical path, flame folding,
//! sim-time timeseries and derived-metrics diffing.
//!
//! Everything here is a pure function of the record stream, so every
//! report is deterministic: byte-identical for the same seed at any
//! `--threads` value. Accumulators ([`DeriveAcc`], [`TimeSeriesAcc`])
//! consume records one at a time, so callers can fold a JSONL trace
//! line-by-line in bounded memory; [`SpanTree`] retains the span
//! records (only) because critical-path and flame analysis need random
//! access to the tree.
//!
//! Each fact has one source: parent links come from
//! [`TreeBuilder::finish`] and are walked by `SpanTree::walk` (folded
//! stacks and the Chrome export), self times from one streaming fold
//! shared by [`TreeBuilder`] and [`DeriveAcc`], per-frame span
//! aggregates from [`DeriveAcc`], and counter/gauge/histogram
//! summaries from [`MetricsRegistry::apply`].
//!
//! ## The `layout.` prefix
//!
//! Records whose span target or metric name starts with [`LAYOUT_PREFIX`]
//! describe the *shard layout itself* (per-shard lanes, the skew gauge):
//! they are deterministic for a given `--shards` value but legitimately
//! differ across layouts. The derived-metrics summary excludes them, so
//! derived summaries — and the CI trace gate built on them — compare
//! byte-identical across shard layouts as well as thread counts. The
//! timeseries pass keeps them: plotting skew is its job.

use crate::metrics::{GaugeStat, HistStat, MetricsRegistry};
use crate::record::{Record, RecordData};
use crate::sink::{f, obj, s, u};
use serde_json::Value;
use std::collections::BTreeMap;

/// Prefix marking layout-dependent span targets / metric names, which
/// the derived-metrics summary excludes (see module docs).
pub const LAYOUT_PREFIX: &str = "layout.";

fn is_layout(name: &str) -> bool {
    name.starts_with(LAYOUT_PREFIX)
}

// ---------------------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------------------

/// One span lifted out of the record stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanInfo {
    /// Track the span was recorded on.
    pub track: u32,
    /// Span id (unique within its track; 0 on pre-tree traces).
    pub id: u64,
    /// Parent span id on the same track (0 = root).
    pub parent: u64,
    /// Emitting subsystem.
    pub target: String,
    /// Span name.
    pub name: String,
    /// Sim-time start.
    pub start_us: u64,
    /// Sim-time duration.
    pub dur_us: u64,
}

impl SpanInfo {
    /// Sim-time end.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }

    /// `target/name` — the frame label used by flame and derived
    /// summaries.
    #[must_use]
    pub fn frame(&self) -> String {
        format!("{}/{}", self.target, self.name)
    }
}

/// The span forest of a trace: spans in emission order plus resolved
/// parent/child links (parents resolve within a track only) and each
/// span's self time.
#[derive(Debug, Default)]
pub struct SpanTree {
    /// All spans, in record order.
    pub spans: Vec<SpanInfo>,
    self_us: Vec<u64>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

/// One step of [`SpanTree::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit {
    /// The walk reaches span `i`, before any of its children.
    Enter(usize),
    /// The walk leaves span `i`, after all of its children.
    Exit(usize),
}

impl SpanTree {
    /// Builds the tree from a record stream (non-span records are
    /// ignored).
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> SpanTree {
        let mut builder = TreeBuilder::default();
        for r in records {
            builder.add(r);
        }
        builder.finish()
    }

    /// Indices of parentless spans, ordered by start time then
    /// emission order.
    #[must_use]
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Child indices of span `i`, ordered by start time then emission
    /// order.
    #[must_use]
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Per-span self time, indexed like [`SpanTree::spans`]: duration
    /// minus the union of child intervals (clipped to the span's own
    /// interval), recorded as each span arrived. A child recorded after
    /// its parent, which the scope API never emits, does not count.
    #[must_use]
    pub fn self_times(&self) -> &[u64] {
        &self.self_us
    }

    /// Walks the subtrees under `roots` depth-first, children in
    /// [`SpanTree::children`] order: every span is entered before its
    /// children and exited after them.
    pub(crate) fn walk(&self, roots: &[usize], mut visit: impl FnMut(Visit)) {
        for &root in roots {
            // Explicit stack of (span, next-child cursor).
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            visit(Visit::Enter(root));
            while let Some((node, cursor)) = stack.pop() {
                if let Some(&child) = self.children[node].get(cursor) {
                    stack.push((node, cursor + 1));
                    stack.push((child, 0));
                    visit(Visit::Enter(child));
                } else {
                    visit(Visit::Exit(node));
                }
            }
        }
    }
}

/// Streaming builder for [`SpanTree`] — feed it records, then
/// [`TreeBuilder::finish`].
#[derive(Debug, Default)]
pub struct TreeBuilder {
    spans: Vec<SpanInfo>,
    self_us: Vec<u64>,
    self_times: SelfTimes,
}

impl TreeBuilder {
    /// A builder with no spans.
    #[must_use]
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    /// Folds one record in (non-span records are ignored).
    pub fn add(&mut self, r: &Record) {
        if let RecordData::Span {
            target,
            name,
            dur_us,
            id,
            parent,
            ..
        } = &r.data
        {
            self.self_us
                .push(self.self_times.add(r.track, *id, *parent, r.t_us, *dur_us));
            self.spans.push(SpanInfo {
                track: r.track,
                id: *id,
                parent: *parent,
                target: target.clone(),
                name: name.clone(),
                start_us: r.t_us,
                dur_us: *dur_us,
            });
        }
    }

    /// Resolves parent links and returns the finished tree.
    #[must_use]
    pub fn finish(self) -> SpanTree {
        let spans = self.spans;
        let mut index_of: BTreeMap<(u32, u64), usize> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            if span.id != 0 {
                index_of.insert((span.track, span.id), i);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            match index_of.get(&(span.track, span.parent)) {
                Some(&p) if span.parent != 0 && p != i => children[p].push(i),
                _ => roots.push(i),
            }
        }
        roots.sort_by_key(|&i| (spans[i].start_us, i));
        for kids in &mut children {
            kids.sort_by_key(|&i| (spans[i].start_us, i));
        }
        SpanTree {
            spans,
            self_us: self.self_us,
            children,
            roots,
        }
    }
}

/// The self-time fold shared by [`TreeBuilder`] and [`DeriveAcc`]. A
/// span's children precede it in the record stream, so when its record
/// arrives every child interval is known; memory stays bounded by the
/// currently *open* scopes, whose child lists retire with their parent.
#[derive(Debug, Default)]
struct SelfTimes {
    /// `(track, parent id)` → intervals of already-seen children.
    pending: BTreeMap<(u32, u64), Vec<(u64, u64)>>,
}

impl SelfTimes {
    /// Folds one span in and returns its self time: duration minus the
    /// union of its children's intervals, clipped to its own.
    fn add(&mut self, track: u32, id: u64, parent: u64, start: u64, dur: u64) -> u64 {
        let end = start.saturating_add(dur);
        if parent != 0 {
            let slot = self.pending.entry((track, parent)).or_default();
            slot.push((start, end));
            if slot.len() >= 1024 {
                normalize(slot);
            }
        }
        let covered = if id == 0 {
            0
        } else {
            self.pending
                .remove(&(track, id))
                .map(|kids| coverage(&kids, start, end))
                .unwrap_or(0)
        };
        dur.saturating_sub(covered)
    }
}

/// Coalesces an interval list in place (sort + merge overlapping).
fn normalize(intervals: &mut Vec<(u64, u64)>) {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for &(a, b) in intervals.iter() {
        match merged.last_mut() {
            Some((_, hi)) if a <= *hi => *hi = (*hi).max(b),
            _ => merged.push((a, b)),
        }
    }
    *intervals = merged;
}

/// Total coverage of `[lo, hi]` by the union of `intervals`.
fn coverage(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
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

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

/// One step on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CpStep {
    /// Index into [`SpanTree::spans`].
    pub span: usize,
    /// Depth below the chosen root (root = 0).
    pub depth: usize,
    /// Self time of this span.
    pub self_us: u64,
}

/// The longest sim-time chain through the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Root-to-leaf steps.
    pub steps: Vec<CpStep>,
    /// The chosen root's duration — every step lies within it, so no
    /// chain through the tree is longer.
    pub total_us: u64,
}

/// Walks the longest chain: the longest root span, then at each node
/// the longest child (ties break to earliest start, then emission
/// order). Returns `None` on a span-free trace.
#[must_use]
pub fn critical_path(tree: &SpanTree) -> Option<CriticalPath> {
    let self_times = tree.self_times();
    let longest = |candidates: &[usize]| -> Option<usize> {
        candidates.iter().copied().max_by(|&a, &b| {
            let ka = (
                tree.spans[a].dur_us,
                std::cmp::Reverse(tree.spans[a].start_us),
            );
            let kb = (
                tree.spans[b].dur_us,
                std::cmp::Reverse(tree.spans[b].start_us),
            );
            ka.cmp(&kb).then(b.cmp(&a))
        })
    };
    let root = longest(tree.roots())?;
    let total_us = tree.spans[root].dur_us;
    let mut steps = Vec::new();
    let mut node = root;
    let mut depth = 0;
    loop {
        steps.push(CpStep {
            span: node,
            depth,
            self_us: self_times[node],
        });
        match longest(tree.children(node)) {
            Some(next) => {
                node = next;
                depth += 1;
            }
            None => break,
        }
    }
    Some(CriticalPath { steps, total_us })
}

/// Per-target self-time attribution along the critical path, largest
/// first (ties break by name).
#[must_use]
pub fn critical_path_attribution(tree: &SpanTree, cp: &CriticalPath) -> Vec<(String, u64)> {
    let mut by_target: BTreeMap<&str, u64> = BTreeMap::new();
    for step in &cp.steps {
        *by_target
            .entry(tree.spans[step.span].target.as_str())
            .or_insert(0) += step.self_us;
    }
    let mut out: Vec<(String, u64)> = by_target
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// The critical-path steps with the largest self times, rank order
/// (ties break to the shallower step).
fn hottest_steps(cp: &CriticalPath, top: usize) -> Vec<&CpStep> {
    let mut steps: Vec<&CpStep> = cp.steps.iter().collect();
    steps.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.depth.cmp(&b.depth)));
    steps.truncate(top);
    steps
}

fn render_attribution(tree: &SpanTree, cp: &CriticalPath, out: &mut String) {
    out.push_str("attribution by target:\n");
    for (target, self_us) in critical_path_attribution(tree, cp) {
        let share = if cp.total_us == 0 {
            0.0
        } else {
            self_us as f64 / cp.total_us as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<24} {:>14} us {:>6.1}%\n",
            target, self_us, share
        ));
    }
}

/// Renders the critical path as a fixed-width text report.
#[must_use]
pub fn render_critical_path(tree: &SpanTree) -> String {
    let mut out = String::new();
    let Some(cp) = critical_path(tree) else {
        out.push_str("critical path: no spans in trace\n");
        return out;
    };
    out.push_str(&format!(
        "critical path: {} us across {} spans\n",
        cp.total_us,
        cp.steps.len()
    ));
    out.push_str(&format!(
        "{:<6} {:<36} {:>14} {:>14} {:>14}\n",
        "depth", "span", "start_us", "dur_us", "self_us"
    ));
    for step in &cp.steps {
        let span = &tree.spans[step.span];
        out.push_str(&format!(
            "{:<6} {:<36} {:>14} {:>14} {:>14}\n",
            step.depth,
            span.frame(),
            span.start_us,
            span.dur_us,
            step.self_us
        ));
    }
    render_attribution(tree, &cp, &mut out);
    out
}

/// Like [`render_critical_path`], but lists only the `top` hottest
/// steps by self time (with their share of the path total) — the
/// skimmable view of paths thousands of windows deep.
#[must_use]
pub fn render_critical_path_top(tree: &SpanTree, top: usize) -> String {
    let mut out = String::new();
    let Some(cp) = critical_path(tree) else {
        out.push_str("critical path: no spans in trace\n");
        return out;
    };
    let hottest = hottest_steps(&cp, top);
    out.push_str(&format!(
        "critical path: {} us across {} spans; top {} frames by self time\n",
        cp.total_us,
        cp.steps.len(),
        hottest.len()
    ));
    out.push_str(&format!(
        "{:<6} {:<36} {:>14} {:>14} {:>7}\n",
        "depth", "span", "dur_us", "self_us", "share%"
    ));
    for step in hottest {
        let span = &tree.spans[step.span];
        let share = if cp.total_us == 0 {
            0.0
        } else {
            step.self_us as f64 / cp.total_us as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<6} {:<36} {:>14} {:>14} {:>7.1}\n",
            step.depth,
            span.frame(),
            span.dur_us,
            step.self_us,
            share
        ));
    }
    render_attribution(tree, &cp, &mut out);
    out
}

/// Renders the critical path as one deterministic JSON object
/// (`schema: hc-trace-critical-path-v1`). With `top`, only the hottest
/// steps by self time are listed (rank order); the attribution section
/// always covers the whole path. A span-free trace yields an empty
/// document rather than an error, so pipelines can probe traces.
#[must_use]
pub fn critical_path_json(tree: &SpanTree, top: Option<usize>) -> String {
    let mut total_us = 0u64;
    let mut path_spans = 0u64;
    let mut steps = Vec::new();
    let mut attribution = Vec::new();
    if let Some(cp) = critical_path(tree) {
        total_us = cp.total_us;
        path_spans = cp.steps.len() as u64;
        let selected: Vec<&CpStep> = match top {
            Some(n) => hottest_steps(&cp, n),
            None => cp.steps.iter().collect(),
        };
        for step in selected {
            let span = &tree.spans[step.span];
            steps.push(obj(vec![
                ("depth", u(step.depth as u64)),
                ("frame", s(&span.frame())),
                ("start_us", u(span.start_us)),
                ("dur_us", u(span.dur_us)),
                ("self_us", u(step.self_us)),
            ]));
        }
        for (target, self_us) in critical_path_attribution(tree, &cp) {
            let share = if cp.total_us == 0 {
                0.0
            } else {
                self_us as f64 / cp.total_us as f64
            };
            attribution.push(obj(vec![
                ("target", s(&target)),
                ("self_us", u(self_us)),
                ("share", f(share)),
            ]));
        }
    }
    let doc = obj(vec![
        ("schema", s("hc-trace-critical-path-v1")),
        ("total_us", u(total_us)),
        ("path_spans", u(path_spans)),
        ("steps", Value::Array(steps)),
        ("attribution", Value::Array(attribution)),
    ]);
    let mut out = doc.to_string();
    out.push('\n');
    out
}

// ---------------------------------------------------------------------------
// Flame (folded stacks + top-N self time)
// ---------------------------------------------------------------------------

/// Folds the span tree into flamegraph.pl-style stack lines
/// (`root;child;leaf self_us`), aggregated and sorted by stack.
#[must_use]
pub fn folded_stacks(tree: &SpanTree) -> Vec<(String, u64)> {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    // The current stack label, and its length before each open frame.
    let mut stack = String::new();
    let mut marks: Vec<usize> = Vec::new();
    tree.walk(tree.roots(), |visit| match visit {
        Visit::Enter(i) => {
            marks.push(stack.len());
            if !stack.is_empty() {
                stack.push(';');
            }
            stack.push_str(&tree.spans[i].frame());
            let self_us = tree.self_times()[i];
            if self_us > 0 {
                *folded.entry(stack.clone()).or_insert(0) += self_us;
            }
        }
        Visit::Exit(_) => stack.truncate(marks.pop().unwrap_or(0)),
    });
    folded.into_iter().collect()
}

/// Renders folded stacks as the text consumed by flamegraph tooling.
#[must_use]
pub fn render_folded(tree: &SpanTree) -> String {
    let mut out = String::new();
    for (stack, self_us) in folded_stacks(tree) {
        out.push_str(&format!("{stack} {self_us}\n"));
    }
    out
}

/// Renders the top-`n` frames by aggregate self time, `layout.` frames
/// included.
#[must_use]
pub fn render_flame_top(acc: &DeriveAcc, n: usize) -> String {
    let mut rows: Vec<(String, SpanDerived)> = acc.frames().into_iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(&b.0)));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>10} {:>14} {:>14}\n",
        "span", "count", "total_us", "self_us"
    ));
    for (frame, agg) in rows.into_iter().take(n) {
        out.push_str(&format!(
            "{:<36} {:>10} {:>14} {:>14}\n",
            frame, agg.count, agg.total_us, agg.self_us
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Timeseries
// ---------------------------------------------------------------------------

/// Windowed counter/gauge/histogram aggregation over sim-time.
/// Counters sum their deltas per window, gauges keep the last level
/// seen in the window (in record order), histograms keep count and sum.
#[derive(Debug)]
pub struct TimeSeriesAcc {
    window_us: u64,
    counters: BTreeMap<String, BTreeMap<u64, u64>>,
    gauges: BTreeMap<String, BTreeMap<u64, f64>>,
    hists: BTreeMap<String, BTreeMap<u64, (u64, f64)>>,
}

impl TimeSeriesAcc {
    /// A fresh accumulator with the given window length (0 is clamped
    /// to 1).
    #[must_use]
    pub fn new(window_us: u64) -> Self {
        TimeSeriesAcc {
            window_us: window_us.max(1),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// Folds one record in (spans and events are ignored — they belong
    /// to the tree passes).
    pub fn add(&mut self, r: &Record) {
        let w = r.t_us / self.window_us;
        match &r.data {
            RecordData::Counter { name, delta } => {
                *self
                    .counters
                    .entry(name.clone())
                    .or_default()
                    .entry(w)
                    .or_insert(0) += delta;
            }
            RecordData::Gauge { name, value } => {
                self.gauges
                    .entry(name.clone())
                    .or_default()
                    .insert(w, *value);
            }
            RecordData::Observe { name, value } => {
                let slot = self
                    .hists
                    .entry(name.clone())
                    .or_default()
                    .entry(w)
                    .or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += value;
            }
            RecordData::Span { .. } | RecordData::Event { .. } => {}
        }
    }

    /// Renders the windowed report as fixed-width text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("timeseries window={} us\n", self.window_us));
        for (name, windows) in &self.counters {
            out.push_str(&format!("counter {name}\n"));
            for (w, total) in windows {
                out.push_str(&format!(
                    "  w{:<6} t={:<16} +{}\n",
                    w,
                    w * self.window_us,
                    total
                ));
            }
        }
        for (name, windows) in &self.gauges {
            out.push_str(&format!("gauge {name}\n"));
            for (w, last) in windows {
                out.push_str(&format!(
                    "  w{:<6} t={:<16} {}\n",
                    w,
                    w * self.window_us,
                    last
                ));
            }
        }
        for (name, windows) in &self.hists {
            out.push_str(&format!("histogram {name}\n"));
            for (w, (count, sum)) in windows {
                let mean = if *count == 0 {
                    0.0
                } else {
                    sum / *count as f64
                };
                out.push_str(&format!(
                    "  w{:<6} t={:<16} count={} mean={}\n",
                    w,
                    w * self.window_us,
                    count,
                    mean
                ));
            }
        }
        out
    }

    /// Renders the windowed report as a single JSON object.
    #[must_use]
    pub fn render_json(&self) -> String {
        let windows_obj = |windows: &BTreeMap<u64, Value>| -> Value {
            Value::Object(
                windows
                    .iter()
                    .map(|(w, v)| (w.to_string(), v.clone()))
                    .collect(),
            )
        };
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(name, ws)| {
                    let ws: BTreeMap<u64, Value> = ws.iter().map(|(w, v)| (*w, u(*v))).collect();
                    (name.clone(), windows_obj(&ws))
                })
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(name, ws)| {
                    let ws: BTreeMap<u64, Value> = ws.iter().map(|(w, v)| (*w, f(*v))).collect();
                    (name.clone(), windows_obj(&ws))
                })
                .collect(),
        );
        let hists = Value::Object(
            self.hists
                .iter()
                .map(|(name, ws)| {
                    let ws: BTreeMap<u64, Value> = ws
                        .iter()
                        .map(|(w, (count, sum))| {
                            (*w, obj(vec![("count", u(*count)), ("sum", f(*sum))]))
                        })
                        .collect();
                    (name.clone(), windows_obj(&ws))
                })
                .collect(),
        );
        let doc = obj(vec![
            ("schema", s("hc-trace-timeseries-v1")),
            ("window_us", u(self.window_us)),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", hists),
        ]);
        let mut out = doc.to_string();
        out.push('\n');
        out
    }
}

// ---------------------------------------------------------------------------
// Derived metrics (summary, serialization, diff)
// ---------------------------------------------------------------------------

/// Log2-bucket quantile sketch: deterministic, order-independent, and
/// mergeable — quantile estimates are bucket midpoints, so they carry
/// at most a 2× relative error, which is plenty for a ratchet gate.
#[derive(Debug, Clone, Default, PartialEq)]
struct Sketch {
    /// Samples `<= 0` (and non-finite ones, which should not occur).
    zeros: u64,
    /// Positive samples bucketed by binary exponent.
    buckets: BTreeMap<i32, u64>,
    count: u64,
}

impl Sketch {
    fn add(&mut self, v: f64) {
        self.count += 1;
        if v > 0.0 && v.is_finite() {
            // Pure bit math (no libm): the IEEE-754 exponent field.
            let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
            *self.buckets.entry(exp).or_insert(0) += 1;
        } else {
            self.zeros += 1;
        }
    }

    /// Nearest-rank quantile estimate: the midpoint `1.5 * 2^exp` of
    /// the bucket holding the ranked sample.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zeros;
        if rank <= seen {
            return 0.0;
        }
        for (exp, n) in &self.buckets {
            seen += n;
            if rank <= seen {
                // 1.5 * 2^exp, built bitwise for determinism.
                let bits = (((exp + 1023) as u64) << 52) | (1u64 << 51);
                return f64::from_bits(bits);
            }
        }
        0.0
    }
}

/// Aggregate over all spans sharing one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanDerived {
    /// Number of spans.
    pub count: u64,
    /// Summed durations.
    pub total_us: u64,
    /// Summed self times (duration minus child coverage).
    pub self_us: u64,
    /// Longest single span.
    pub max_us: u64,
}

impl SpanDerived {
    fn merge(&mut self, other: &SpanDerived) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.self_us += other.self_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Aggregate over one histogram: the registry's summary plus quantile
/// estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistDerived {
    /// Count, sum, min and max.
    pub stat: HistStat,
    /// Median estimate (log2-bucket midpoint).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// The derived-metrics summary: every deterministic, layout-invariant
/// aggregate the trace supports. This is what the CI trace gate
/// freezes and diffs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DerivedMetrics {
    /// Span aggregates keyed by `target/name`.
    pub spans: BTreeMap<String, SpanDerived>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Gauge summaries.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Histogram summaries with quantile estimates.
    pub histograms: BTreeMap<String, HistDerived>,
}

/// Streaming accumulator for [`DerivedMetrics`] and the one per-frame
/// span fold. Feed records in emission order; memory stays bounded by
/// the number of frames and metric names plus the currently *open*
/// scope spans. Span aggregates keep `layout.` frames (the flame table
/// and `trace summary` show them) until [`DeriveAcc::finish`] drops
/// them; `layout.` metrics are never folded.
#[derive(Debug, Default)]
pub struct DeriveAcc {
    spans: BTreeMap<(String, String), SpanDerived>,
    metrics: MetricsRegistry,
    /// Quantile sketches of the histograms in `metrics`.
    sketches: BTreeMap<String, Sketch>,
    self_times: SelfTimes,
}

impl DeriveAcc {
    /// A fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        DeriveAcc::default()
    }

    /// Folds one record in.
    pub fn add(&mut self, r: &Record) {
        match &r.data {
            RecordData::Span {
                target,
                name,
                dur_us,
                id,
                parent,
                ..
            } => {
                let self_us = self.self_times.add(r.track, *id, *parent, r.t_us, *dur_us);
                let slot = self
                    .spans
                    .entry((target.clone(), name.clone()))
                    .or_default();
                slot.merge(&SpanDerived {
                    count: 1,
                    total_us: *dur_us,
                    self_us,
                    max_us: *dur_us,
                });
            }
            RecordData::Counter { name, .. } | RecordData::Gauge { name, .. } => {
                if !is_layout(name) {
                    self.metrics.apply(r);
                }
            }
            RecordData::Observe { name, value } => {
                if !is_layout(name) {
                    self.metrics.apply(r);
                    self.sketches.entry(name.clone()).or_default().add(*value);
                }
            }
            RecordData::Event { .. } => {}
        }
    }

    /// Span aggregates keyed by `(target, name)`, `layout.` targets
    /// included.
    #[must_use]
    pub fn spans(&self) -> &BTreeMap<(String, String), SpanDerived> {
        &self.spans
    }

    /// Span aggregates keyed by `target/name` frame, `layout.` frames
    /// included.
    #[must_use]
    pub fn frames(&self) -> BTreeMap<String, SpanDerived> {
        frames(self.spans.iter())
    }

    /// Finishes the fold.
    #[must_use]
    pub fn finish(self) -> DerivedMetrics {
        fn owned<T>(view: Vec<(&str, T)>) -> BTreeMap<String, T> {
            view.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
        }
        DerivedMetrics {
            spans: frames(
                self.spans
                    .iter()
                    .filter(|((target, _), _)| !is_layout(target)),
            ),
            counters: owned(self.metrics.counters()),
            gauges: owned(self.metrics.gauges()),
            histograms: self
                .metrics
                .histograms()
                .into_iter()
                .map(|(name, stat)| {
                    let sketch = &self.sketches[name];
                    (
                        name.to_string(),
                        HistDerived {
                            stat,
                            p50: sketch.quantile(0.50),
                            p90: sketch.quantile(0.90),
                            p99: sketch.quantile(0.99),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Folds `(target, name)` aggregates into `target/name` frames.
fn frames<'a>(
    spans: impl Iterator<Item = (&'a (String, String), &'a SpanDerived)>,
) -> BTreeMap<String, SpanDerived> {
    let mut out: BTreeMap<String, SpanDerived> = BTreeMap::new();
    for ((target, name), agg) in spans {
        out.entry(format!("{target}/{name}"))
            .or_default()
            .merge(agg);
    }
    out
}

impl DerivedMetrics {
    /// Serializes to the frozen-baseline JSON document (single object,
    /// stable key order, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans = Value::Object(
            self.spans
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        obj(vec![
                            ("count", u(v.count)),
                            ("total_us", u(v.total_us)),
                            ("self_us", u(v.self_us)),
                            ("max_us", u(v.max_us)),
                        ]),
                    )
                })
                .collect(),
        );
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), u(*v)))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        obj(vec![
                            ("last", f(v.last)),
                            ("min", f(v.min)),
                            ("max", f(v.max)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        obj(vec![
                            ("count", u(v.stat.count)),
                            ("sum", f(v.stat.sum)),
                            ("min", f(v.stat.min)),
                            ("max", f(v.stat.max)),
                            ("p50", f(v.p50)),
                            ("p90", f(v.p90)),
                            ("p99", f(v.p99)),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = obj(vec![
            ("schema", s("hc-trace-derived-v1")),
            ("spans", spans),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ]);
        let mut out = doc.to_string();
        out.push('\n');
        out
    }

    /// Parses a document produced by [`DerivedMetrics::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a reason message on malformed or wrong-schema input.
    pub fn from_json(text: &str) -> Result<DerivedMetrics, String> {
        let doc: Value = serde_json::from_str(text.trim()).map_err(|e| e.to_string())?;
        let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != "hc-trace-derived-v1" {
            return Err(format!("unexpected schema `{schema}`"));
        }
        let section = |key: &str| -> Result<&[(String, Value)], String> {
            doc.get(key)
                .and_then(Value::as_object)
                .map(Vec::as_slice)
                .ok_or_else(|| format!("missing section `{key}`"))
        };
        let want_u = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer `{key}`"))
        };
        let want_f = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let mut out = DerivedMetrics::default();
        for (k, v) in section("spans")? {
            out.spans.insert(
                k.clone(),
                SpanDerived {
                    count: want_u(v, "count")?,
                    total_us: want_u(v, "total_us")?,
                    self_us: want_u(v, "self_us")?,
                    max_us: want_u(v, "max_us")?,
                },
            );
        }
        for (k, v) in section("counters")? {
            let v = v.as_u64().ok_or_else(|| format!("bad counter `{k}`"))?;
            out.counters.insert(k.clone(), v);
        }
        for (k, v) in section("gauges")? {
            out.gauges.insert(
                k.clone(),
                GaugeStat {
                    last: want_f(v, "last")?,
                    min: want_f(v, "min")?,
                    max: want_f(v, "max")?,
                },
            );
        }
        for (k, v) in section("histograms")? {
            out.histograms.insert(
                k.clone(),
                HistDerived {
                    stat: HistStat {
                        count: want_u(v, "count")?,
                        sum: want_f(v, "sum")?,
                        min: want_f(v, "min")?,
                        max: want_f(v, "max")?,
                    },
                    p50: want_f(v, "p50")?,
                    p90: want_f(v, "p90")?,
                    p99: want_f(v, "p99")?,
                },
            );
        }
        Ok(out)
    }
}

/// One metric whose relative delta exceeded the threshold (or that was
/// present on only one side).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Qualified metric name, e.g. `span:sim.par/task.self_us`.
    pub metric: String,
    /// Baseline value (`NaN` when missing).
    pub baseline: f64,
    /// Current value (`NaN` when missing).
    pub current: f64,
    /// Relative delta `|a - b| / max(|a|, |b|)`; infinite when a side
    /// is missing.
    pub rel: f64,
}

/// Outcome of a derived-metrics comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Number of scalar metrics compared.
    pub checked: usize,
    /// The relative threshold used.
    pub max_rel: f64,
    /// Metrics over threshold, in name order.
    pub failures: Vec<DiffEntry>,
}

impl DiffReport {
    /// True when every metric stayed within the threshold.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the human-readable verdict.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in &self.failures {
            out.push_str(&format!(
                "  {} baseline={} current={} rel={}\n",
                e.metric, e.baseline, e.current, e.rel
            ));
        }
        out.push_str(&format!(
            "trace diff: {} metrics checked, {} over threshold (max-rel {}) -> {}\n",
            self.checked,
            self.failures.len(),
            self.max_rel,
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Renders the machine-readable verdict.
    #[must_use]
    pub fn render_json(&self) -> String {
        let failures = Value::Array(
            self.failures
                .iter()
                .map(|e| {
                    obj(vec![
                        ("metric", s(&e.metric)),
                        ("baseline", f(e.baseline)),
                        ("current", f(e.current)),
                        ("rel", f(e.rel)),
                    ])
                })
                .collect(),
        );
        let doc = obj(vec![
            ("schema", s("hc-trace-diff-v1")),
            ("verdict", s(if self.passed() { "pass" } else { "fail" })),
            ("max_rel", f(self.max_rel)),
            ("checked", u(self.checked as u64)),
            ("failures", failures),
        ]);
        let mut out = doc.to_string();
        out.push('\n');
        out
    }
}

fn rel_delta(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    if a.is_nan() || b.is_nan() {
        return f64::INFINITY;
    }
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Compares two derived summaries metric-by-metric. A metric present
/// on only one side always fails; otherwise it fails when the relative
/// delta exceeds `max_rel`.
#[must_use]
pub fn diff(baseline: &DerivedMetrics, current: &DerivedMetrics, max_rel: f64) -> DiffReport {
    let mut checked = 0;
    let mut failures = Vec::new();
    let mut compare = |metric: String, a: Option<f64>, b: Option<f64>| {
        checked += 1;
        let (a, b) = (a.unwrap_or(f64::NAN), b.unwrap_or(f64::NAN));
        let rel = rel_delta(a, b);
        if rel > max_rel {
            failures.push(DiffEntry {
                metric,
                baseline: a,
                current: b,
                rel,
            });
        }
    };
    fn union_keys<'a, A, B>(
        a: &'a BTreeMap<String, A>,
        b: &'a BTreeMap<String, B>,
    ) -> Vec<&'a String> {
        let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
        keys.sort();
        keys.dedup();
        keys
    }
    for key in union_keys(&baseline.spans, &current.spans) {
        let (a, b) = (baseline.spans.get(key), current.spans.get(key));
        for (field, get) in [
            (
                "count",
                (|v: &SpanDerived| v.count as f64) as fn(&SpanDerived) -> f64,
            ),
            ("total_us", |v| v.total_us as f64),
            ("self_us", |v| v.self_us as f64),
            ("max_us", |v| v.max_us as f64),
        ] {
            compare(format!("span:{key}.{field}"), a.map(get), b.map(get));
        }
    }
    for key in union_keys(&baseline.counters, &current.counters) {
        compare(
            format!("counter:{key}"),
            baseline.counters.get(key).map(|&v| v as f64),
            current.counters.get(key).map(|&v| v as f64),
        );
    }
    for key in union_keys(&baseline.gauges, &current.gauges) {
        let (a, b) = (baseline.gauges.get(key), current.gauges.get(key));
        for (field, get) in [
            ("last", (|v: &GaugeStat| v.last) as fn(&GaugeStat) -> f64),
            ("min", |v| v.min),
            ("max", |v| v.max),
        ] {
            compare(format!("gauge:{key}.{field}"), a.map(get), b.map(get));
        }
    }
    for key in union_keys(&baseline.histograms, &current.histograms) {
        let (a, b) = (baseline.histograms.get(key), current.histograms.get(key));
        for (field, get) in [
            (
                "count",
                (|v: &HistDerived| v.stat.count as f64) as fn(&HistDerived) -> f64,
            ),
            ("sum", |v| v.stat.sum),
            ("p50", |v| v.p50),
            ("p90", |v| v.p90),
            ("p99", |v| v.p99),
            ("min", |v| v.stat.min),
            ("max", |v| v.stat.max),
        ] {
            compare(format!("hist:{key}.{field}"), a.map(get), b.map(get));
        }
    }
    DiffReport {
        checked,
        max_rel,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Trace;
    use crate::collector::{counter, enter, gauge, observe, record_scope, span, span_on_track};

    fn demo_trace() -> Trace {
        let ((), trace) = record_scope(0, || {
            let root = enter("demo", "run", 0);
            let phase = enter("demo", "phase", 10);
            span("demo", "work", 10, 40, &[]);
            span("demo", "work", 50, 60, &[]);
            phase.exit(70, &[]);
            counter("demo.requests", 15, 2);
            counter("demo.requests", 75, 3);
            gauge("demo.queue", 20, 4.0);
            observe("demo.latency", 30, 8.0);
            observe("demo.latency", 80, 2.0);
            span_on_track(5, "layout.demo", "lane", 0, 50, &[]);
            root.exit(100, &[]);
        });
        trace
    }

    #[test]
    fn tree_links_children_and_computes_self_times() {
        let trace = demo_trace();
        let tree = SpanTree::from_records(&trace.records);
        // Spans in record order: work, work, phase, lane, root.
        assert_eq!(tree.spans.len(), 5);
        let self_times = tree.self_times();
        let phase = tree
            .spans
            .iter()
            .position(|s| s.name == "phase")
            .expect("phase span");
        // phase [10,70] minus work [10,40] and [50,60] = 30+10 covered.
        assert_eq!(tree.spans[phase].dur_us, 60);
        assert_eq!(self_times[phase], 20);
        let root = tree
            .spans
            .iter()
            .position(|s| s.name == "run")
            .expect("run");
        // root [0,100] minus phase [10,70].
        assert_eq!(self_times[root], 40);
        assert_eq!(tree.children(root), &[phase]);
    }

    #[test]
    fn critical_path_descends_the_longest_chain() {
        let trace = demo_trace();
        let tree = SpanTree::from_records(&trace.records);
        let cp = critical_path(&tree).expect("has spans");
        assert_eq!(cp.total_us, 100);
        let names: Vec<&str> = cp
            .steps
            .iter()
            .map(|s| tree.spans[s.span].name.as_str())
            .collect();
        // run (100) -> phase (60) -> first work (30).
        assert_eq!(names, vec!["run", "phase", "work"]);
        let attr = critical_path_attribution(&tree, &cp);
        assert_eq!(attr.len(), 1);
        assert_eq!(attr[0].0, "demo");
        // 40 (run) + 20 (phase) + 30 (work).
        assert_eq!(attr[0].1, 90);
    }

    #[test]
    fn critical_path_top_ranks_steps_by_self_time() {
        let trace = demo_trace();
        let tree = SpanTree::from_records(&trace.records);
        let text = render_critical_path_top(&tree, 2);
        assert!(text.contains("top 2 frames by self time"));
        // Self times on the path: run 40, work 30, phase 20 — the
        // truncated listing keeps run and work, drops phase.
        let run_pos = text.find("demo/run").expect("run listed");
        let work_pos = text.find("demo/work").expect("work listed");
        assert!(run_pos < work_pos);
        // phase only survives in the attribution section's target total.
        assert!(!text.contains("demo/phase"));
        // Asking for more frames than the path has lists them all.
        let full = render_critical_path_top(&tree, 10);
        assert!(full.contains("top 3 frames by self time"));
    }

    #[test]
    fn critical_path_json_is_deterministic_and_truncatable() {
        let trace = demo_trace();
        let tree = SpanTree::from_records(&trace.records);
        let doc = critical_path_json(&tree, None);
        assert!(doc.contains("\"hc-trace-critical-path-v1\""));
        assert!(doc.ends_with('\n'));
        let parsed: Value = serde_json::from_str(&doc).expect("valid JSON");
        let field = |v: &Value, k: &str| v.get(k).cloned().expect("field");
        let item = |v: &Value, k: &str, i: usize| v.get(k).unwrap().as_array().unwrap()[i].clone();
        assert_eq!(field(&parsed, "total_us").as_u64(), Some(100));
        assert_eq!(field(&parsed, "path_spans").as_u64(), Some(3));
        assert_eq!(field(&parsed, "steps").as_array().map(Vec::len), Some(3));
        // Untruncated steps keep path (depth) order, not rank order.
        let first = item(&parsed, "steps", 0);
        assert_eq!(field(&first, "frame").as_str(), Some("demo/run"));
        assert_eq!(field(&first, "self_us").as_u64(), Some(40));
        let attr = item(&parsed, "attribution", 0);
        assert_eq!(field(&attr, "target").as_str(), Some("demo"));
        assert_eq!(field(&attr, "self_us").as_u64(), Some(90));
        assert_eq!(field(&attr, "share").as_f64(), Some(0.9));
        // Truncation ranks by self time: run (40) then work (30).
        let top: Value =
            serde_json::from_str(&critical_path_json(&tree, Some(2))).expect("valid JSON");
        assert_eq!(field(&top, "steps").as_array().map(Vec::len), Some(2));
        let second = item(&top, "steps", 1);
        assert_eq!(field(&second, "frame").as_str(), Some("demo/work"));
        // path_spans still reports the full path length.
        assert_eq!(field(&top, "path_spans").as_u64(), Some(3));
        // An empty tree degrades to an empty document, exit 0.
        let empty = SpanTree::from_records(&[]);
        let doc: Value =
            serde_json::from_str(&critical_path_json(&empty, None)).expect("valid JSON");
        assert_eq!(field(&doc, "total_us").as_u64(), Some(0));
        assert_eq!(field(&doc, "steps").as_array().map(Vec::len), Some(0));
    }

    #[test]
    fn folded_stacks_sum_self_time_per_stack() {
        let trace = demo_trace();
        let tree = SpanTree::from_records(&trace.records);
        let folded = folded_stacks(&tree);
        let get = |stack: &str| {
            folded
                .iter()
                .find(|(s, _)| s == stack)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("demo/run"), 40);
        assert_eq!(get("demo/run;demo/phase"), 20);
        assert_eq!(get("demo/run;demo/phase;demo/work"), 40);
        assert_eq!(get("layout.demo/lane"), 50);
        // Every line ends up in the rendered folded output.
        let text = render_folded(&tree);
        assert!(text.contains("demo/run;demo/phase;demo/work 40\n"));
    }

    #[test]
    fn timeseries_windows_counters_gauges_and_histograms() {
        let trace = demo_trace();
        let mut acc = TimeSeriesAcc::new(50);
        for r in &trace.records {
            acc.add(r);
        }
        let text = acc.render_text();
        assert!(text.contains("counter demo.requests"));
        // Window 0 has +2, window 1 has +3.
        assert!(text.contains("w0"));
        assert!(text.contains("+2"));
        assert!(text.contains("+3"));
        let json = acc.render_json();
        assert!(json.contains("\"hc-trace-timeseries-v1\""));
        assert!(json.contains("\"demo.latency\""));
    }

    #[test]
    fn derived_metrics_exclude_layout_and_round_trip() {
        let trace = demo_trace();
        let mut acc = DeriveAcc::new();
        for r in &trace.records {
            acc.add(r);
        }
        let derived = acc.finish();
        assert!(derived.spans.contains_key("demo/run"));
        assert!(!derived.spans.keys().any(|k| k.starts_with("layout.")));
        let work = derived.spans.get("demo/work").expect("work agg");
        assert_eq!(work.count, 2);
        assert_eq!(work.total_us, 40);
        assert_eq!(work.self_us, 40);
        assert_eq!(work.max_us, 30);
        let run = derived.spans.get("demo/run").expect("run agg");
        assert_eq!(run.self_us, 40);
        assert_eq!(derived.counters.get("demo.requests"), Some(&5));
        let lat = derived.histograms.get("demo.latency").expect("hist");
        assert_eq!(lat.stat.count, 2);
        assert_eq!(lat.stat.sum, 10.0);
        // 8.0 is in bucket exp=3 -> midpoint 12; 2.0 in exp=1 -> 3.
        assert_eq!(lat.p50, 3.0);
        assert_eq!(lat.p99, 12.0);
        let back = DerivedMetrics::from_json(&derived.to_json()).expect("parses");
        assert_eq!(back, derived);
    }

    #[test]
    fn diff_passes_on_identical_and_fails_on_drift() {
        let trace = demo_trace();
        let mut acc = DeriveAcc::new();
        for r in &trace.records {
            acc.add(r);
        }
        let a = acc.finish();
        let report = diff(&a, &a, 0.0);
        assert!(report.passed());
        assert!(report.checked > 0);
        let mut b = a.clone();
        b.counters.insert("demo.requests".to_string(), 50);
        let report = diff(&a, &b, 0.5);
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].metric, "counter:demo.requests");
        let json = report.render_json();
        assert!(json.contains("\"verdict\":\"fail\""));
        let text = report.render_text();
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn missing_metrics_always_fail_the_diff() {
        let mut a = DerivedMetrics::default();
        a.counters.insert("only.a".to_string(), 1);
        let b = DerivedMetrics::default();
        let report = diff(&a, &b, 1000.0);
        assert!(!report.passed());
        assert!(report.failures[0].rel.is_infinite());
    }

    #[test]
    fn sketch_quantiles_are_monotone_and_bounded() {
        let mut sk = Sketch::default();
        for v in [0.5, 1.0, 2.0, 4.0, 100.0, 1000.0] {
            sk.add(v);
        }
        let (p50, p90, p99) = (sk.quantile(0.5), sk.quantile(0.9), sk.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99);
        // Estimates stay within 2x of the true quantile's bucket.
        assert!((512.0..=2048.0).contains(&p99));
    }
}
