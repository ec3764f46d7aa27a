//! JSONL trace sink: one JSON object per line.
//!
//! Layout, in order:
//!
//! 1. one line per [`Record`] (`"type"` discriminates `span` / `event`
//!    / `counter` / `gauge` / `observe`),
//! 2. one `{"type":"tracks", …}` line — track names (omitted when no
//!    track was named),
//! 3. one `{"type":"metrics", …}` line — the registry snapshot,
//! 4. one final `{"type":"machine", …}` line — the machine-dependent
//!    section.
//!
//! Everything above the machine line is deterministic: byte-identical
//! for the same seed at any `--threads` value. [`render_deterministic`]
//! emits exactly that prefix, so determinism checks are a string
//! comparison.
//!
//! [`parse_line`] exposes the per-line parser so large traces can be
//! folded line-at-a-time in bounded memory; [`parse`] keeps the
//! whole-string convenience path for small inputs.

use super::{f, fields_value, obj, s, u};
use crate::collector::Trace;
use crate::metrics::{GaugeStat, HistStat, MetricsRegistry};
use crate::record::{FieldValue, Fields, Record, RecordData};
use serde_json::{Number, Value};
use std::collections::BTreeMap;

fn record_line(r: &Record) -> Value {
    let track = u(u64::from(r.track));
    let t = u(r.t_us);
    match &r.data {
        RecordData::Span {
            target,
            name,
            dur_us,
            id,
            parent,
            fields,
        } => obj(vec![
            ("type", s("span")),
            ("track", track),
            ("t", t),
            ("target", s(target)),
            ("name", s(name)),
            ("dur", u(*dur_us)),
            ("id", u(*id)),
            ("parent", u(*parent)),
            ("fields", fields_value(fields)),
        ]),
        RecordData::Event {
            target,
            name,
            fields,
        } => obj(vec![
            ("type", s("event")),
            ("track", track),
            ("t", t),
            ("target", s(target)),
            ("name", s(name)),
            ("fields", fields_value(fields)),
        ]),
        RecordData::Counter { name, delta } => obj(vec![
            ("type", s("counter")),
            ("track", track),
            ("t", t),
            ("name", s(name)),
            ("delta", u(*delta)),
        ]),
        RecordData::Gauge { name, value } => obj(vec![
            ("type", s("gauge")),
            ("track", track),
            ("t", t),
            ("name", s(name)),
            ("value", f(*value)),
        ]),
        RecordData::Observe { name, value } => obj(vec![
            ("type", s("observe")),
            ("track", track),
            ("t", t),
            ("name", s(name)),
            ("value", f(*value)),
        ]),
    }
}

fn metrics_line(m: &MetricsRegistry) -> Value {
    // The registry's snapshot accessors are name-sorted, so these
    // objects keep the byte order of the old BTreeMap-backed registry.
    let counters = Value::Object(
        m.counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), u(v)))
            .collect(),
    );
    let gauges = Value::Object(
        m.gauges()
            .into_iter()
            .map(|(k, g)| {
                (
                    k.to_string(),
                    obj(vec![
                        ("last", f(g.last)),
                        ("min", f(g.min)),
                        ("max", f(g.max)),
                    ]),
                )
            })
            .collect(),
    );
    let histograms = Value::Object(
        m.histograms()
            .into_iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    obj(vec![
                        ("count", u(h.count)),
                        ("sum", f(h.sum)),
                        ("min", f(h.min)),
                        ("max", f(h.max)),
                    ]),
                )
            })
            .collect(),
    );
    obj(vec![
        ("type", s("metrics")),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

fn tracks_line(names: &BTreeMap<u32, String>) -> Value {
    let names = Value::Object(
        names
            .iter()
            .map(|(track, name)| (track.to_string(), s(name)))
            .collect(),
    );
    obj(vec![("type", s("tracks")), ("names", names)])
}

fn machine_line(stats: &BTreeMap<String, f64>) -> Value {
    let stats = Value::Object(stats.iter().map(|(k, v)| (k.clone(), f(*v))).collect());
    obj(vec![("type", s("machine")), ("stats", stats)])
}

/// Renders the deterministic sections only — records, track names and
/// the metrics snapshot, no machine line. Byte-identical across thread
/// counts for the same seed.
#[must_use]
pub fn render_deterministic(trace: &Trace) -> String {
    let mut out = String::new();
    for r in &trace.records {
        record_line(r).write_json(&mut out);
        out.push('\n');
    }
    if !trace.track_names.is_empty() {
        tracks_line(&trace.track_names).write_json(&mut out);
        out.push('\n');
    }
    metrics_line(&trace.metrics).write_json(&mut out);
    out.push('\n');
    out
}

/// Renders the full trace: deterministic sections followed by the
/// machine-dependent line.
#[must_use]
pub fn render(trace: &Trace) -> String {
    let mut out = render_deterministic(trace);
    machine_line(&trace.machine).write_json(&mut out);
    out.push('\n');
    out
}

fn want_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn want_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn want_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

fn want_obj<'v>(v: &'v Value, key: &str) -> Result<&'v [(String, Value)], String> {
    v.get(key)
        .and_then(Value::as_object)
        .map(Vec::as_slice)
        .ok_or_else(|| format!("missing object field `{key}`"))
}

fn parse_fields(v: &Value) -> Result<Fields, String> {
    let mut fields = Fields::new();
    for (k, raw) in want_obj(v, "fields")? {
        let parsed = match raw {
            Value::Bool(b) => FieldValue::Bool(*b),
            Value::String(x) => FieldValue::Str(x.clone()),
            // Match the lexical variant, not `as_u64` (which accepts
            // integral floats and would turn `4.0` back into `U64(4)`).
            Value::Number(Number::PosInt(x)) => FieldValue::U64(*x),
            Value::Number(Number::NegInt(x)) => FieldValue::I64(*x),
            Value::Number(Number::Float(x)) => FieldValue::F64(*x),
            _ => return Err(format!("unsupported field value for `{k}`")),
        };
        fields.insert(k.clone(), parsed);
    }
    Ok(fields)
}

fn parse_record(line: &Value, kind: &str) -> Result<Record, String> {
    let track = want_u64(line, "track")? as u32;
    let t_us = want_u64(line, "t")?;
    let data = match kind {
        "span" => RecordData::Span {
            target: want_str(line, "target")?,
            name: want_str(line, "name")?,
            dur_us: want_u64(line, "dur")?,
            // Absent on pre-tree traces; 0 means "no id/root".
            id: want_u64(line, "id").unwrap_or(0),
            parent: want_u64(line, "parent").unwrap_or(0),
            fields: parse_fields(line)?,
        },
        "event" => RecordData::Event {
            target: want_str(line, "target")?,
            name: want_str(line, "name")?,
            fields: parse_fields(line)?,
        },
        "counter" => RecordData::Counter {
            name: want_str(line, "name")?,
            delta: want_u64(line, "delta")?,
        },
        "gauge" => RecordData::Gauge {
            name: want_str(line, "name")?,
            value: want_f64(line, "value")?,
        },
        "observe" => RecordData::Observe {
            name: want_str(line, "name")?,
            value: want_f64(line, "value")?,
        },
        other => return Err(format!("unknown record type `{other}`")),
    };
    Ok(Record { track, t_us, data })
}

fn parse_metrics(line: &Value, registry: &mut MetricsRegistry) -> Result<(), String> {
    for (name, total) in want_obj(line, "counters")? {
        let total = total
            .as_u64()
            .ok_or_else(|| format!("bad counter total for `{name}`"))?;
        registry.set_counter(name, total);
    }
    for (name, g) in want_obj(line, "gauges")? {
        registry.set_gauge(
            name,
            GaugeStat {
                last: want_f64(g, "last")?,
                min: want_f64(g, "min")?,
                max: want_f64(g, "max")?,
            },
        );
    }
    for (name, h) in want_obj(line, "histograms")? {
        registry.set_histogram(
            name,
            HistStat {
                count: want_u64(h, "count")?,
                sum: want_f64(h, "sum")?,
                min: want_f64(h, "min")?,
                max: want_f64(h, "max")?,
            },
        );
    }
    Ok(())
}

/// One parsed JSONL trace line — the unit the streaming readers fold.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A record line (`span` / `event` / `counter` / `gauge` /
    /// `observe`).
    Record(Record),
    /// The track-name map.
    Tracks(BTreeMap<u32, String>),
    /// The metrics-snapshot line.
    Metrics(MetricsRegistry),
    /// The machine-dependent stats line.
    Machine(BTreeMap<String, f64>),
}

/// Parses one JSONL trace line. Blank lines yield `Ok(None)`.
///
/// This is the streaming entry point: callers fold a `BufRead` line
/// iterator through it and never hold the whole trace in memory.
///
/// # Errors
///
/// Returns a reason message (without file position — the caller knows
/// the line number) on malformed input.
pub fn parse_line(raw: &str) -> Result<Option<Line>, String> {
    if raw.trim().is_empty() {
        return Ok(None);
    }
    let line: Value = serde_json::from_str(raw).map_err(|e| e.to_string())?;
    let kind = want_str(&line, "type")?;
    let parsed = match kind.as_str() {
        "tracks" => {
            let mut names = BTreeMap::new();
            for (track, name) in want_obj(&line, "names")? {
                let track: u32 = track
                    .parse()
                    .map_err(|_| format!("bad track id `{track}`"))?;
                let name = name
                    .as_str()
                    .ok_or_else(|| format!("bad track name for `{track}`"))?;
                names.insert(track, name.to_string());
            }
            Line::Tracks(names)
        }
        "metrics" => {
            let mut registry = MetricsRegistry::new();
            parse_metrics(&line, &mut registry)?;
            Line::Metrics(registry)
        }
        "machine" => {
            let mut stats = BTreeMap::new();
            for (name, v) in want_obj(&line, "stats")? {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("bad machine stat `{name}`"))?;
                stats.insert(name.clone(), v);
            }
            Line::Machine(stats)
        }
        kind => Line::Record(parse_record(&line, kind)?),
    };
    Ok(Some(parsed))
}

/// Parses a JSONL trace back into a [`Trace`] — the whole-string
/// convenience path for small inputs.
///
/// # Errors
///
/// Returns a `file-position: reason` message on malformed lines.
pub fn parse(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::new();
    for (lineno, raw) in text.lines().enumerate() {
        match parse_line(raw).map_err(|e| format!("line {}: {e}", lineno + 1))? {
            None => {}
            Some(Line::Record(record)) => trace.records.push(record),
            Some(Line::Tracks(names)) => trace.track_names.extend(names),
            Some(Line::Metrics(registry)) => trace.metrics = registry,
            Some(Line::Machine(stats)) => trace.machine.extend(stats),
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::record_scope;
    use crate::collector::{counter, enter, event, gauge, machine_stat, name_track, observe, span};

    fn demo_trace() -> Trace {
        let ((), trace) = record_scope(0, || {
            name_track(0, "main");
            let root = enter("demo", "run", 0);
            event("demo", "start", 0, &[("n", 3u64.into())]);
            counter("demo.count", 10, 2);
            gauge("demo.queue", 20, 4.0);
            observe("demo.latency", 30, 1.5);
            span("demo", "work", 0, 40, &[("label", "alpha".into())]);
            root.exit(40, &[]);
            machine_stat("demo.steals", 2.0);
        });
        trace
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let trace = demo_trace();
        let parsed = parse(&render(&trace)).expect("parses");
        assert_eq!(parsed, trace);
    }

    #[test]
    fn deterministic_render_is_a_prefix_without_the_machine_line() {
        let trace = demo_trace();
        let full = render(&trace);
        let det = render_deterministic(&trace);
        assert!(full.starts_with(&det));
        assert!(!det.contains("\"machine\""));
        assert!(full.contains("\"machine\""));
    }

    #[test]
    fn parse_rejects_garbage_with_a_line_number() {
        let err = parse("{\"type\":\"span\"}\n").expect_err("malformed");
        assert!(err.starts_with("line 1:"), "err: {err}");
    }

    #[test]
    fn pre_tree_span_lines_parse_with_zero_ids() {
        let line = "{\"type\":\"span\",\"track\":0,\"t\":5,\"target\":\"demo\",\
                    \"name\":\"work\",\"dur\":10,\"fields\":{}}";
        let trace = parse(line).expect("parses");
        match &trace.records[0].data {
            RecordData::Span { id, parent, .. } => {
                assert_eq!((*id, *parent), (0, 0));
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn parse_line_distinguishes_section_lines() {
        let trace = demo_trace();
        let text = render(&trace);
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| match parse_line(l).expect("parses") {
                Some(Line::Record(_)) => "record",
                Some(Line::Tracks(_)) => "tracks",
                Some(Line::Metrics(_)) => "metrics",
                Some(Line::Machine(_)) => "machine",
                None => "blank",
            })
            .collect();
        assert_eq!(kinds.first().copied(), Some("record"));
        assert_eq!(&kinds[kinds.len() - 3..], &["tracks", "metrics", "machine"]);
    }
}
