//! Micro-benchmark: decoding one worker request line, the per-request
//! cost of `front::handle_line` before the service sees it, and building
//! the `Label` that a text answer carries.
//!
//! `wire/decode_request_task` is three integers in a struct variant,
//! `wire/decode_submit_text` adds a nested `{"Text":..}` answer whose
//! label is built through `Label::new`, and `wire/decode_submit_pass` a
//! unit-variant answer. `label/new_plain` builds a label from text that
//! is already normal; `label/new_plural` from text that normalization
//! changes.

use criterion::{criterion_group, criterion_main, Criterion};
use hc_core::Label;
use hc_serve::Request;
use std::hint::black_box;

const REQUEST_TASK: &str = r#"{"RequestTask":{"session":5319,"player":10638,"at":16000000}}"#;
const SUBMIT_TEXT: &str =
    r#"{"SubmitAnswer":{"session":5319,"player":10638,"answer":{"Text":"w17"},"at":16400000}}"#;
const SUBMIT_PASS: &str =
    r#"{"SubmitAnswer":{"session":5319,"player":10638,"answer":"Pass","at":16400000}}"#;

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
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
