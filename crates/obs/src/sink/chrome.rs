//! Chrome trace-event sink.
//!
//! Converts a [`Trace`] to the Trace Event Format consumed by Perfetto
//! and `chrome://tracing`. Sim-time maps directly onto the `ts` axis:
//! one sim-microsecond tick = one trace microsecond, so a 24-sim-hour
//! campaign renders as a 24-hour timeline. Tracks become `tid`s (track
//! 0 is the recording scope, track `i + 1` is replication task `i`),
//! and named tracks get `thread_name` metadata events so the viewer
//! shows `rep-3` / `shard-1` instead of bare tids.
//!
//! Mapping:
//!
//! * spans → duration begin/end pairs (`"ph":"B"` / `"ph":"E"`) emitted
//!   per track in depth-first span-tree order, so parents open before
//!   their children even when timestamps tie,
//! * structured events → thread-scoped instants (`"ph":"i"`, `"s":"t"`),
//! * counters and gauges → counter events (`"ph":"C"`; counters render
//!   their cumulative total so the counter track is monotone),
//! * histogram samples have no Chrome analog and are left to the
//!   metrics snapshot in the JSONL sink.

use super::{f, fields_value, obj, s, u};
use crate::analyze::{SpanInfo, SpanTree, Visit};
use crate::collector::Trace;
use crate::record::{Fields, RecordData};
use serde_json::Value;
use std::collections::BTreeMap;

fn begin_event(span: &SpanInfo, fields: &Fields) -> Value {
    obj(vec![
        ("name", s(&span.name)),
        ("cat", s(&span.target)),
        ("ph", s("B")),
        ("ts", u(span.start_us)),
        ("pid", u(0)),
        ("tid", u(u64::from(span.track))),
        ("args", fields_value(fields)),
    ])
}

fn end_event(span: &SpanInfo) -> Value {
    obj(vec![
        ("ph", s("E")),
        ("ts", u(span.end_us())),
        ("pid", u(0)),
        ("tid", u(u64::from(span.track))),
    ])
}

/// Renders the trace as a single JSON object document
/// (`{"traceEvents": […], "displayTimeUnit": "ms"}`).
#[must_use]
pub fn render(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(trace.records.len() * 2);
    for (track, name) in &trace.track_names {
        events.push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", u(0)),
            ("tid", u(u64::from(*track))),
            ("args", obj(vec![("name", s(name))])),
        ]));
    }
    // Span pass: the span tree's depth-first walk, one track at a time.
    // Parents resolve within a track and sibling order is (start time,
    // record order), so sorting the roots stably by track keeps each
    // track's own order. Fields come from the span records, which are
    // in the tree's record order.
    let tree = SpanTree::from_records(&trace.records);
    let fields: Vec<&Fields> = trace
        .records
        .iter()
        .filter_map(|r| match &r.data {
            RecordData::Span { fields, .. } => Some(fields),
            _ => None,
        })
        .collect();
    let mut roots = tree.roots().to_vec();
    roots.sort_by_key(|&i| tree.spans[i].track);
    tree.walk(&roots, |visit| {
        events.push(match visit {
            Visit::Enter(i) => begin_event(&tree.spans[i], fields[i]),
            Visit::Exit(i) => end_event(&tree.spans[i]),
        });
    });
    // Instant/counter pass, in record order.
    let mut cumulative: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &trace.records {
        let ts = u(r.t_us);
        let tid = u(u64::from(r.track));
        match &r.data {
            RecordData::Span { .. } => {}
            RecordData::Event {
                target,
                name,
                fields,
            } => events.push(obj(vec![
                ("name", s(name)),
                ("cat", s(target)),
                ("ph", s("i")),
                ("ts", ts),
                ("pid", u(0)),
                ("tid", tid),
                ("s", s("t")),
                ("args", fields_value(fields)),
            ])),
            RecordData::Counter { name, delta } => {
                let slot = cumulative.entry(name.as_str()).or_insert(0);
                *slot = slot.saturating_add(*delta);
                let total = *slot;
                events.push(obj(vec![
                    ("name", s(name)),
                    ("ph", s("C")),
                    ("ts", ts),
                    ("pid", u(0)),
                    ("tid", tid),
                    ("args", obj(vec![("value", u(total))])),
                ]));
            }
            RecordData::Gauge { name, value } => events.push(obj(vec![
                ("name", s(name)),
                ("ph", s("C")),
                ("ts", ts),
                ("pid", u(0)),
                ("tid", tid),
                ("args", obj(vec![("value", f(*value))])),
            ])),
            RecordData::Observe { .. } => {}
        }
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", s("ms")),
    ]);
    let mut out = doc.to_string();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{counter, enter, event, name_track, record_scope, span};

    #[test]
    fn counters_render_cumulative_totals() {
        let ((), trace) = record_scope(0, || {
            counter("c", 1, 2);
            counter("c", 5, 3);
        });
        let doc: Value = serde_json::from_str(&render(&trace)).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events array");
        let totals: Vec<u64> = events
            .iter()
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_u64)
            })
            .collect();
        assert_eq!(totals, vec![2, 5]);
    }

    #[test]
    fn spans_nest_as_begin_end_pairs_in_tree_order() {
        let ((), trace) = record_scope(3, || {
            let root = enter("demo", "root", 0);
            span("demo", "leaf", 10, 50, &[("k", "v".into())]);
            root.exit(60, &[]);
            event("demo", "mark", 20, &[]);
        });
        let doc: Value = serde_json::from_str(&render(&trace)).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events array");
        let shape: Vec<(&str, Option<&str>, u64)> = events
            .iter()
            .map(|e| {
                (
                    e.get("ph").and_then(Value::as_str).expect("ph"),
                    e.get("name").and_then(Value::as_str),
                    e.get("ts").and_then(Value::as_u64).expect("ts"),
                )
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                ("B", Some("root"), 0),
                ("B", Some("leaf"), 10),
                ("E", None, 50),
                ("E", None, 60),
                ("i", Some("mark"), 20),
            ]
        );
        assert!(events
            .iter()
            .all(|e| e.get("tid").and_then(Value::as_u64) == Some(3)));
    }

    #[test]
    fn named_tracks_emit_thread_name_metadata() {
        let ((), trace) = record_scope(1, || {
            name_track(1, "rep-0");
            span("demo", "work", 0, 5, &[]);
        });
        let doc: Value = serde_json::from_str(&render(&trace)).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events array");
        let meta = &events[0];
        assert_eq!(meta.get("ph").and_then(Value::as_str), Some("M"));
        assert_eq!(
            meta.get("name").and_then(Value::as_str),
            Some("thread_name")
        );
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("rep-0")
        );
    }
}
