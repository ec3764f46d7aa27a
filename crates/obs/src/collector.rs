//! The thread-local recording scope and the emit API.
//!
//! There is deliberately no global subscriber: a global sink behind a
//! lock would interleave records nondeterministically under the
//! parallel replication pool. Instead, each thread carries a *stack* of
//! collectors. [`record_scope`] pushes one, runs a closure, and pops it
//! back off together with everything the closure emitted; the caller
//! decides how child traces compose (the replication pool merges them
//! **in index order** via [`merge_trace`], which is what keeps traces
//! byte-identical at any `--threads` value).
//!
//! ## Span trees
//!
//! [`enter`] opens a *scope span* and pushes its id onto the collector's
//! open-span stack; closing the returned [`SpanScope`] (explicitly via
//! [`SpanScope::exit`] / [`SpanScope::close`], or implicitly on drop)
//! records the span. Anything emitted while a scope is open — nested
//! scopes and flat [`span`] leaves alike — carries the enclosing scope's
//! id as its `parent`. Ids are assigned *per collector*, in scope-open /
//! leaf-emission order starting at 1, so a merged trace's id sequence
//! is a pure function of
//! the per-task emission order plus the index-ordered merge — i.e.
//! byte-identical at any `--threads` / `--shards` value.
//!
//! With no collector installed every emit function is a no-op that
//! returns before allocating, so uninstrumented runs pay one
//! thread-local read per call site — and call sites on hot paths guard
//! with [`active`] so even field construction is skipped.

use crate::metrics::MetricsRegistry;
use crate::record::{fields_from, FieldValue, Record, RecordData};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Everything one recording scope observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Records in emission order (children merged in index order).
    pub records: Vec<Record>,
    /// Registry folded over the records as they were emitted.
    pub metrics: MetricsRegistry,
    /// Human-readable track names (`rep-3`, `shard-1`, …), set via
    /// [`name_track`]. Deterministic: part of the comparable sections.
    pub track_names: BTreeMap<u32, String>,
    /// Machine-dependent stats (worker counts, …). Excluded from
    /// determinism comparisons; values sum when traces merge.
    pub machine: BTreeMap<String, f64>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Latest sim-time covered by any record (0 when empty).
    #[must_use]
    pub fn max_t_us(&self) -> u64 {
        self.records.iter().map(Record::end_us).max().unwrap_or(0)
    }
}

#[derive(Debug)]
struct Collector {
    track: u32,
    /// High-water sim-time over everything seen so far — the timestamp
    /// hint used by [`counter_now`] for emitters that have no clock in
    /// scope (e.g. the contribution ledger).
    clock_us: u64,
    /// Next span id to hand out (ids start at 1; 0 means "no span").
    next_span_id: u64,
    /// Ids of the scope spans currently open on this collector, in
    /// nesting order. The top is the parent of whatever emits next.
    open: Vec<u64>,
    trace: Trace,
}

impl Collector {
    /// The one way a record enters a trace: advances the sim-time
    /// high-water mark to its end, folds it into the metrics and
    /// appends it.
    fn append(&mut self, track: u32, t_us: u64, data: RecordData) {
        let record = Record { track, t_us, data };
        self.clock_us = self.clock_us.max(record.end_us());
        self.trace.metrics.apply(&record);
        self.trace.records.push(record);
    }

    /// Hands out the next span id.
    fn next_id(&mut self) -> u64 {
        let id = self.next_span_id;
        self.next_span_id += 1;
        id
    }
}

thread_local! {
    static STACK: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
}

/// True when a recording scope is active on this thread. Hot paths
/// check this once and skip field construction entirely when recording
/// is off, keeping the no-subscriber cost to one thread-local read.
#[must_use]
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

fn with_top<T>(f: impl FnOnce(&mut Collector) -> T) -> Option<T> {
    STACK.with(|s| s.borrow_mut().last_mut().map(f))
}

/// Pops the collector this scope pushed even if the closure panics, so
/// a panicking replication cannot poison later scopes on a pooled
/// worker thread.
struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` with a fresh collector installed on this thread and returns
/// its result together with everything it emitted.
///
/// `track` labels the records (0 for a top-level scope, `index + 1` for
/// parallel replication tasks). Scopes nest: an inner scope shadows the
/// outer one until it closes, and the caller chooses whether to
/// [`merge_trace`] the child back in.
pub fn record_scope<T>(track: u32, f: impl FnOnce() -> T) -> (T, Trace) {
    STACK.with(|s| {
        s.borrow_mut().push(Collector {
            track,
            clock_us: 0,
            next_span_id: 1,
            open: Vec::new(),
            trace: Trace::new(),
        });
    });
    let guard = ScopeGuard;
    let out = f();
    std::mem::forget(guard);
    let trace = STACK
        .with(|s| s.borrow_mut().pop())
        .map(|c| c.trace)
        .unwrap_or_default();
    (out, trace)
}

fn push(t_us: u64, data: RecordData) {
    with_top(|top| top.append(top.track, t_us, data));
}

/// An open scope span handle returned by [`enter`]. Close it with
/// [`SpanScope::exit`] (explicit end time) or [`SpanScope::close`]
/// (ends at the collector's sim-time high-water mark); dropping an
/// unclosed scope closes it at the high-water mark with no fields.
#[derive(Debug)]
#[must_use = "a scope records its span when closed; bind it to a variable"]
pub struct SpanScope {
    /// 0 when recording was inactive at [`enter`] — the scope is inert.
    id: u64,
    parent: u64,
    target: String,
    name: String,
    start_us: u64,
    closed: bool,
}

/// Opens a scope span at sim-time `start_us` and makes it the parent of
/// everything emitted until the returned handle closes. Inert (and
/// allocation-free) when no recording scope is active.
pub fn enter(target: &str, name: &str, start_us: u64) -> SpanScope {
    let opened = with_top(|top| {
        let id = top.next_id();
        let parent = top.open.last().copied().unwrap_or(0);
        top.open.push(id);
        (id, parent)
    });
    match opened {
        Some((id, parent)) => SpanScope {
            id,
            parent,
            target: target.to_string(),
            name: name.to_string(),
            start_us,
            closed: false,
        },
        None => SpanScope {
            id: 0,
            parent: 0,
            target: String::new(),
            name: String::new(),
            start_us,
            closed: true,
        },
    }
}

impl SpanScope {
    /// The span id this scope was assigned (0 when inert).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    fn record(&mut self, end_us: Option<u64>, fields: &[(&str, FieldValue)]) {
        if self.closed {
            return;
        }
        self.closed = true;
        let fields = fields_from(fields);
        with_top(|top| {
            // Unwind our id from the open stack. Closing out of order
            // (a child scope still open) is a caller bug; recover by
            // dropping the orphaned ids above ours.
            if let Some(pos) = top.open.iter().rposition(|&id| id == self.id) {
                top.open.truncate(pos);
            }
            let end_us = end_us.unwrap_or_else(|| top.clock_us.max(self.start_us));
            let data = RecordData::Span {
                target: std::mem::take(&mut self.target),
                name: std::mem::take(&mut self.name),
                dur_us: end_us.saturating_sub(self.start_us),
                id: self.id,
                parent: self.parent,
                fields,
            };
            top.append(top.track, self.start_us, data);
        });
    }

    /// Closes the scope at sim-time `end_us`, recording the span.
    pub fn exit(mut self, end_us: u64, fields: &[(&str, FieldValue)]) {
        self.record(Some(end_us), fields);
    }

    /// Closes the scope at the collector's sim-time high-water mark —
    /// for roots whose natural end is "whenever the last child ended".
    pub fn close(mut self, fields: &[(&str, FieldValue)]) {
        self.record(None, fields);
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        self.record(None, &[]);
    }
}

/// Records a completed sim-time span `[start_us, end_us]` as a leaf of
/// the currently open scope (if any).
pub fn span(target: &str, name: &str, start_us: u64, end_us: u64, fields: &[(&str, FieldValue)]) {
    leaf_span(None, target, name, start_us, end_us, fields);
}

/// Records a completed span on an explicit auxiliary `track` (a Chrome
/// lane), e.g. the shard engine's per-shard `layout.shard` spans. The
/// span is a root on its track (scope parents never cross tracks); its
/// id still comes from the emitting collector's sequence.
pub fn span_on_track(
    track: u32,
    target: &str,
    name: &str,
    start_us: u64,
    end_us: u64,
    fields: &[(&str, FieldValue)],
) {
    leaf_span(Some(track), target, name, start_us, end_us, fields);
}

/// Records a completed span with the next id: on the collector's own
/// track under the open scope, or as a root on an auxiliary `track`.
fn leaf_span(
    track: Option<u32>,
    target: &str,
    name: &str,
    start_us: u64,
    end_us: u64,
    fields: &[(&str, FieldValue)],
) {
    if !active() {
        return;
    }
    with_top(|top| {
        let id = top.next_id();
        let (track, parent) = match track {
            Some(track) => (track, 0),
            None => (top.track, top.open.last().copied().unwrap_or(0)),
        };
        let data = RecordData::Span {
            target: target.to_string(),
            name: name.to_string(),
            dur_us: end_us.saturating_sub(start_us),
            id,
            parent,
            fields: fields_from(fields),
        };
        top.append(track, start_us, data);
    });
}

/// Names a track for human-readable sinks (`rep-3`, `shard-1`, …).
/// Last write wins; names merge across scopes via [`merge_trace`].
pub fn name_track(track: u32, name: &str) {
    with_top(|top| {
        top.trace.track_names.insert(track, name.to_string());
    });
}

/// Records an instantaneous structured event at sim-time `t_us`.
pub fn event(target: &str, name: &str, t_us: u64, fields: &[(&str, FieldValue)]) {
    if !active() {
        return;
    }
    push(
        t_us,
        RecordData::Event {
            target: target.to_string(),
            name: name.to_string(),
            fields: fields_from(fields),
        },
    );
}

/// Increments a counter at sim-time `t_us`.
pub fn counter(name: &str, t_us: u64, delta: u64) {
    if !active() {
        return;
    }
    push(
        t_us,
        RecordData::Counter {
            name: name.to_string(),
            delta,
        },
    );
}

/// Increments a counter at the collector's current sim-time high-water
/// mark — for emitters (like the contribution ledger) that have no
/// clock in scope. The hint is itself derived from recorded sim-times,
/// so it stays deterministic.
pub fn counter_now(name: &str, delta: u64) {
    with_top(|top| {
        let data = RecordData::Counter {
            name: name.to_string(),
            delta,
        };
        top.append(top.track, top.clock_us, data);
    });
}

/// Records a gauge level at sim-time `t_us`.
pub fn gauge(name: &str, t_us: u64, value: f64) {
    if !active() {
        return;
    }
    push(
        t_us,
        RecordData::Gauge {
            name: name.to_string(),
            value,
        },
    );
}

/// Records one histogram sample at sim-time `t_us`.
pub fn observe(name: &str, t_us: u64, value: f64) {
    if !active() {
        return;
    }
    push(
        t_us,
        RecordData::Observe {
            name: name.to_string(),
            value,
        },
    );
}

/// Adds to a machine-dependent stat (summing across merges). These live
/// outside the deterministic sections — thread counts, window counts
/// and the like belong here, never in records or metrics.
pub fn machine_stat(name: &str, value: f64) {
    with_top(|top| {
        *top.trace.machine.entry(name.to_string()).or_insert(0.0) += value;
    });
}

/// Merges a child scope's trace into the current collector: records
/// append (preserving their tracks and span ids — ids are per-track, so
/// they stay unambiguous), metrics merge, track names union, machine
/// stats sum. Callers must merge children **in index order** for
/// determinism.
pub fn merge_trace(child: Trace) {
    with_top(|top| {
        top.clock_us = top.clock_us.max(child.max_t_us());
        top.trace.metrics.merge(&child.metrics);
        for (track, name) in child.track_names {
            top.trace.track_names.insert(track, name);
        }
        for (k, v) in child.machine {
            *top.trace.machine.entry(k).or_insert(0.0) += v;
        }
        top.trace.records.extend(child.records);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_id_parent(r: &Record) -> (u64, u64) {
        match &r.data {
            RecordData::Span { id, parent, .. } => (*id, *parent),
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn emits_are_noops_without_a_scope() {
        assert!(!active());
        span("t", "s", 0, 10, &[]);
        counter("c", 0, 1);
        let scope = enter("t", "outer", 0);
        assert_eq!(scope.id(), 0);
        scope.exit(5, &[]);
        // Nothing to assert directly — the test passes by not leaking
        // state into the next scope:
        let ((), trace) = record_scope(0, || {});
        assert!(trace.records.is_empty());
        assert!(trace.metrics.is_empty());
    }

    #[test]
    fn a_scope_captures_everything_emitted_inside_it() {
        let (sum, trace) = record_scope(0, || {
            event("demo", "start", 5, &[("n", 2u64.into())]);
            counter("demo.count", 10, 3);
            gauge("demo.level", 20, 1.5);
            observe("demo.sample", 30, 2.5);
            span("demo", "work", 0, 40, &[]);
            1 + 1
        });
        assert_eq!(sum, 2);
        assert_eq!(trace.records.len(), 5);
        assert_eq!(trace.metrics.counter("demo.count"), 3);
        assert_eq!(trace.max_t_us(), 40);
        assert!(!active());
    }

    #[test]
    fn counter_now_uses_the_sim_time_high_water_mark() {
        let ((), trace) = record_scope(0, || {
            event("demo", "tick", 1234, &[]);
            counter_now("demo.count", 1);
        });
        let last = trace.records.last().expect("record present");
        assert_eq!(last.t_us, 1234);
    }

    #[test]
    fn scopes_parent_everything_emitted_inside_them() {
        let ((), trace) = record_scope(0, || {
            let root = enter("demo", "root", 0);
            assert_eq!(root.id(), 1);
            span("demo", "leaf-a", 1, 3, &[]);
            let child = enter("demo", "child", 4);
            span("demo", "leaf-b", 5, 7, &[]);
            child.exit(8, &[]);
            root.exit(10, &[("n", 2u64.into())]);
            // After the root closes, new spans are parentless again.
            span("demo", "tail", 11, 12, &[]);
        });
        // Record order is close order: leaf-a, leaf-b, child, root, tail.
        let ids: Vec<(u64, u64)> = trace.records.iter().map(span_id_parent).collect();
        let root_id = 1;
        let child_id = 3;
        assert_eq!(
            ids,
            vec![
                (2, root_id),
                (4, child_id),
                (child_id, root_id),
                (root_id, 0),
                (5, 0),
            ]
        );
    }

    #[test]
    fn close_ends_at_the_sim_time_high_water_mark() {
        let ((), trace) = record_scope(0, || {
            let root = enter("demo", "root", 10);
            span("demo", "leaf", 20, 90, &[]);
            root.close(&[]);
        });
        let root = trace.records.last().expect("root span");
        assert_eq!(root.t_us, 10);
        assert_eq!(root.end_us(), 90);
    }

    #[test]
    fn dropping_an_unclosed_scope_still_records_it() {
        let ((), trace) = record_scope(0, || {
            let _scope = enter("demo", "dropped", 5);
            event("demo", "tick", 42, &[]);
        });
        assert_eq!(trace.records.len(), 2);
        let span = trace.records.last().expect("span record");
        assert_eq!(span.t_us, 5);
        assert_eq!(span.end_us(), 42);
    }

    #[test]
    fn span_on_track_roots_on_the_auxiliary_track() {
        let ((), trace) = record_scope(0, || {
            let root = enter("demo", "root", 0);
            span_on_track(9, "layout.demo", "lane", 1, 4, &[]);
            root.exit(5, &[]);
        });
        // The root scope opened first (id 1); the aux span drew id 2
        // from the same collector but parents to nothing.
        let aux = &trace.records[0];
        assert_eq!(aux.track, 9);
        assert_eq!(span_id_parent(aux), (2, 0));
        let root = &trace.records[1];
        assert_eq!(root.track, 0);
        assert_eq!(span_id_parent(root), (1, 0));
    }

    #[test]
    fn track_names_record_and_merge() {
        let ((), trace) = record_scope(0, || {
            name_track(0, "main");
            let ((), child) = record_scope(3, || name_track(3, "rep-2"));
            merge_trace(child);
        });
        assert_eq!(trace.track_names.get(&0).map(String::as_str), Some("main"));
        assert_eq!(trace.track_names.get(&3).map(String::as_str), Some("rep-2"));
    }

    #[test]
    fn nested_scopes_shadow_and_merge_explicitly() {
        let ((), outer) = record_scope(0, || {
            event("outer", "a", 1, &[]);
            let ((), inner) = record_scope(7, || {
                event("inner", "b", 2, &[]);
            });
            assert_eq!(inner.records.len(), 1);
            merge_trace(inner);
            event("outer", "c", 3, &[]);
        });
        assert_eq!(outer.records.len(), 3);
        let tracks: Vec<u32> = outer.records.iter().map(|r| r.track).collect();
        assert_eq!(tracks, vec![0, 7, 0]);
    }

    #[test]
    fn a_panicking_scope_does_not_poison_the_thread() {
        let caught = std::panic::catch_unwind(|| {
            record_scope(0, || {
                event("demo", "pre", 1, &[]);
                panic!("rigged");
            })
        });
        assert!(caught.is_err());
        assert!(!active(), "guard must pop the collector on unwind");
        let ((), trace) = record_scope(0, || event("demo", "ok", 1, &[]));
        assert_eq!(trace.records.len(), 1);
    }

    #[test]
    fn machine_stats_sum_across_merges() {
        let ((), trace) = record_scope(0, || {
            machine_stat("steals", 2.0);
            let ((), child) = record_scope(1, || machine_stat("steals", 3.0));
            merge_trace(child);
        });
        assert_eq!(trace.machine.get("steals").copied(), Some(5.0));
    }
}
