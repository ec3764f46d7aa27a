//! Micro-benchmark: decoding one worker request line, the per-request
//! cost of `front::handle_line` before the service sees it, building
//! the `Label` that a text answer carries, and encoding the responses
//! `front::render_response` writes.
//!
//! `wire/decode_request_task` is three integers in a struct variant,
//! `wire/decode_submit_text` adds a nested `{"Text":..}` answer whose
//! label is built through `Label::new`, and `wire/decode_submit_pass` a
//! unit-variant answer. `label/new_plain` builds a label from text that
//! is already normal; `label/new_plural` from text that normalization
//! changes.
//!
//! `wire/encode_export` encodes a `ResultsExported` of 190 labels (about
//! 7.7 KB, the size of a `serve-read` export), `wire/encode_metrics` a
//! `MetricsReport` and `wire/encode_task_assigned` a `TaskAssigned` with
//! a three-label taboo list, each with `serde_json::to_string`.
//! `ser/write_u64` appends 1,000 integers of 3, 5 and 8 digits, the
//! widths of the task ids and timestamps in a response, to one buffer.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_core::Label;
use hc_serve::{Request, Response};
use std::hint::black_box;

const REQUEST_TASK: &str = r#"{"RequestTask":{"session":5319,"player":10638,"at":16000000}}"#;
const SUBMIT_TEXT: &str =
    r#"{"SubmitAnswer":{"session":5319,"player":10638,"answer":{"Text":"w17"},"at":16400000}}"#;
const SUBMIT_PASS: &str =
    r#"{"SubmitAnswer":{"session":5319,"player":10638,"answer":"Pass","at":16400000}}"#;

const METRICS: &str = r#"{"MetricsReport":{"players":64,"waiting":0,"live_sessions":32,"sessions_recorded":2880,"verified_labels":384,"rejected_agreements":0}}"#;
const TASK_ASSIGNED: &str = r#"{"TaskAssigned":{"session":2904,"round":1,"task":127,"stimulus":{"Image":10063},"taboo":["w38","w31","w45"]}}"#;

/// A `ResultsExported` of 190 labels shaped like a `serve-read` export.
fn export() -> Response {
    let labels: Vec<String> = (0..190)
        .map(|i| {
            format!(
                r#"{{"task":{},"label":"w{}","at":{}}}"#,
                71 + i,
                (13 + 3 * i) % 50,
                9_000_000 + 200_000 * i
            )
        })
        .collect();
    let line = format!(
        r#"{{"ResultsExported":{{"job":1,"labels":[{}]}}}}"#,
        labels.join(",")
    );
    serde_json::from_str(&line).expect("the export line is a valid response")
}

/// 1,000 integers cycling through 3, 5 and 8 digits.
fn integers() -> Vec<u64> {
    (0..1_000u64)
        .map(|i| match i % 3 {
            0 => 100 + i * 7 % 900,
            1 => 10_000 + i * 89 % 90_000,
            _ => 16_000_000 + i * 4_099 % 1_000_000,
        })
        .collect()
}

fn decode(line: &str) -> Request {
    serde_json::from_str(line).expect("benchmark lines are valid requests")
}

fn bench_wire(c: &mut Criterion) {
    for (name, line) in [
        ("wire/decode_request_task", REQUEST_TASK),
        ("wire/decode_submit_text", SUBMIT_TEXT),
        ("wire/decode_submit_pass", SUBMIT_PASS),
    ] {
        c.bench_function(name, |b| b.iter(|| decode(black_box(line))));
    }
    c.bench_function("label/new_plain", |b| {
        b.iter(|| Label::new(black_box("w17")));
    });
    c.bench_function("label/new_plural", |b| {
        b.iter(|| Label::new(black_box("Hot Dogs")));
    });
    let decoded = |line| serde_json::from_str::<Response>(line).expect("valid response");
    for (name, response) in [
        ("wire/encode_export", export()),
        ("wire/encode_metrics", decoded(METRICS)),
        ("wire/encode_task_assigned", decoded(TASK_ASSIGNED)),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| serde_json::to_string(black_box(&response)));
        });
    }
    let xs = integers();
    let mut out = String::with_capacity(16 * xs.len());
    c.bench_function("ser/write_u64", |b| {
        b.iter(|| {
            out.clear();
            for &x in black_box(&xs) {
                serde::ser::write_u64(&mut out, x);
            }
            out.len()
        });
    });
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
