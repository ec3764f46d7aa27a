//! Differential decoding at the serve boundary.
//!
//! `serde_json::from_str` reads a `Request` straight from the line in one
//! pass; the reference parses the line into a `Value` tree and calls
//! `from_value`. On every input — real `hc-load --smoke` request lines,
//! mutations of them, and arbitrary bytes — `handle_line` must not panic
//! and must reply exactly what the tree path replies, and the one-pass
//! reader must accept exactly the lines the tree path accepts.

use hc_bench::load::{run_load, LoadOpts};
use hc_core::{Answer, PlayerId, SessionId};
use hc_serve::front::{handle_line, render_response};
use hc_serve::{Request, Response, ServeError, Service, ServiceConfig};
use hc_sim::SimTime;
use proptest::prelude::*;
use proptest::TestRng;
use serde::read::{Reader, MAX_DEPTH};
use serde::Deserialize;
use serde_json::Value;
use std::sync::OnceLock;

fn svc() -> Service {
    Service::new(ServiceConfig::default()).expect("default config is valid")
}

/// `handle_line` over the tree decoder: parse, then `from_value`.
fn tree_handle_line(line: &str, service: &mut Service) -> String {
    match tree_decode(line) {
        Ok(request) => render_response(&service.handle(&request)),
        Err(e) => render_response(&Response::Error {
            error: ServeError::InvalidRequest {
                reason: format!("malformed request: {e}"),
            },
        }),
    }
}

/// The tree path's decode: parse, then `from_value`.
fn tree_decode(line: &str) -> serde_json::Result<Request> {
    serde_json::from_str::<Value>(line).and_then(serde_json::from_value)
}

/// The one-pass reader alone, without `from_str`'s fallback to the tree.
fn reader_decode(line: &str) -> Option<Request> {
    let mut reader = Reader::new(line);
    Request::read_json(&mut reader)
        .and_then(|request| reader.end().map(|()| request))
        .ok()
}

/// Two services fed the same lines, one through `handle_line` and one
/// through the tree path.
struct Differential {
    direct: Service,
    tree: Service,
    inputs: u64,
}

impl Differential {
    fn new() -> Self {
        Differential {
            direct: svc(),
            tree: svc(),
            inputs: 0,
        }
    }

    fn check(&mut self, line: &str) {
        let tree_reply = tree_handle_line(line, &mut self.tree);
        let reply = handle_line(line, &mut self.direct);
        assert_eq!(reply, tree_reply, "replies differ for {line:?}");
        assert_eq!(
            reader_decode(line),
            tree_decode(line).ok(),
            "decoded requests differ for {line:?}"
        );
        self.inputs += 1;
    }

    fn check_bytes(&mut self, bytes: &[u8]) {
        self.check(&String::from_utf8_lossy(bytes));
    }
}

/// The request lines of the `hc-load --smoke` scenario, as a client
/// sends them.
fn smoke_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let outcome = run_load(&LoadOpts::default().smoke()).expect("smoke scenario runs");
        outcome
            .response_log
            .lines()
            .map(|record| {
                let record: Value = serde_json::from_str(record).expect("log line parses");
                record
                    .get("request")
                    .expect("log line has a request")
                    .to_string()
            })
            .collect()
    })
}

/// Bytes that change what a JSON line means.
const TOKEN_BYTES: &[u8] = b"{}[]:,\"\\/0123456789-+.eEnultrfasbxTP \t\n\x00\x1f\x7f\xc3\xff";

fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize]
}

/// Values spliced in under duplicate or unknown keys.
const SPLICE_VALUES: &[&str] = &[
    "1",
    "-1",
    "0.5",
    "1e400",
    "-0",
    "18446744073709551616",
    "2.0",
    "1e2",
    "4294967296",
    "-0.0",
    "null",
    "true",
    "\"w1\"",
    "\"SUN!\"",
    "\"W13\"",
    "\"cats\"",
    "\"hot  dog\"",
    "\"\\u00e9\\ud83d\\ude00\"",
    "{}",
    "[]",
    "[[1],{\"a\":null}]",
    "{\"Text\":\"Cats!\"}",
    "{\"Text\":\"!?!\"}",
    "\"Pass\"",
    "{\"Image\":3}",
];

/// The field names of the payload object of a `{"Variant":{..}}` line.
fn payload_keys(line: &str) -> Vec<String> {
    let Ok(Value::Object(outer)) = serde_json::from_str::<Value>(line) else {
        return Vec::new();
    };
    match outer.first() {
        Some((_, Value::Object(fields))) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// `line` with `"key":value` inserted as the first or the last field of
/// its payload object, or `None` when it has no payload object.
fn splice(line: &str, key: &str, value: &str, first: bool) -> Option<String> {
    let open = line.find(":{")? + 2;
    let close = line.len().checked_sub(2)?;
    let empty = line.get(open..close)?.is_empty();
    let field = format!("\"{key}\":{value}");
    let sep = if empty { "" } else { "," };
    Some(if first {
        format!("{}{field}{sep}{}", &line[..open], &line[open..])
    } else {
        format!("{}{sep}{field}{}", &line[..close], &line[close..])
    })
}

/// One mutation of `line` of each kind, `per_kind` times over.
fn mutations(line: &str, rng: &mut TestRng, per_kind: usize) -> Vec<Vec<u8>> {
    let bytes = line.as_bytes();
    let keys = payload_keys(line);
    let mut out = Vec::new();
    for _ in 0..per_kind {
        // Truncation.
        let cut = rng.below(bytes.len() as u64) as usize;
        out.push(bytes[..cut].to_vec());
        // Byte substitution.
        let mut changed = bytes.to_vec();
        let at = rng.below(bytes.len() as u64) as usize;
        changed[at] = if rng.below(4) == 0 {
            rng.next_u64() as u8
        } else {
            pick(rng, TOKEN_BYTES)
        };
        out.push(changed);
        // A duplicate key (first or last, so it wins or is ignored), an
        // unknown key, or an unknown key nested about `MAX_DEPTH` deep.
        let first = rng.below(2) == 0;
        let spliced = match rng.below(3) {
            0 if !keys.is_empty() => {
                let key = &keys[rng.below(keys.len() as u64) as usize];
                splice(line, key, pick(rng, SPLICE_VALUES), first)
            }
            1 => {
                let depth = MAX_DEPTH - 3 + rng.below(4) as usize;
                let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
                splice(line, "deep", &deep, first)
            }
            _ => splice(line, "unknown", pick(rng, SPLICE_VALUES), first),
        };
        if let Some(spliced) = spliced {
            out.push(spliced.into_bytes());
        }
    }
    out
}

/// Feeds every smoke line, each preceded by `per_kind` mutations of every
/// kind, through the differential; returns the number of inputs.
fn run_smoke_corpus(case: u32, per_kind: usize) -> u64 {
    let mut rng = TestRng::for_case("decode_props::smoke_corpus", case);
    let mut diff = Differential::new();
    for line in smoke_lines() {
        for mutated in mutations(line, &mut rng, per_kind) {
            diff.check_bytes(&mutated);
        }
        diff.check(line);
    }
    diff.inputs
}

#[test]
fn smoke_lines_and_their_mutations_decode_like_the_tree() {
    let lines = smoke_lines();
    assert!(
        lines.len() > 3_000,
        "smoke scenario shrank: {}",
        lines.len()
    );
    assert!(run_smoke_corpus(0, 1) > 10_000);
}

#[test]
fn the_first_occurrence_of_a_key_wins() {
    let line = serde_json::to_string(&Request::SubmitAnswer {
        session: SessionId::new(3),
        player: PlayerId::new(4),
        answer: Answer::Pass,
        at: SimTime::from_secs(5),
    })
    .expect("encodes");
    let decode = |text: &str| serde_json::from_str::<Request>(text);
    let original = decode(&line).expect("decodes");
    let spliced = |key, value, first| splice(&line, key, value, first).expect("has a payload");
    let session = spliced("session", "9", true);
    let label = spliced("answer", "{\"Text\":\"Cats!\"}", true);
    let ignored = spliced("session", "\"not a number\"", false);
    let wrong = spliced("session", "\"not a number\"", true);
    assert!(matches!(
        decode(&session),
        Ok(Request::SubmitAnswer { session, .. }) if session == SessionId::new(9)
    ));
    assert!(matches!(
        decode(&label),
        Ok(Request::SubmitAnswer { answer, .. }) if answer == Answer::text("cat")
    ));
    assert_eq!(
        decode(&spliced("session", "9", false)),
        Ok(original.clone())
    );
    assert_eq!(decode(&ignored), Ok(original));
    assert!(decode(&wrong).is_err());
    let mut diff = Differential::new();
    for text in [&line, &session, &label, &ignored, &wrong] {
        diff.check(text);
    }
}

#[test]
fn nesting_is_capped_on_the_one_pass_path() {
    // 2^20 `[` under a key: an error, not a stack overflow.
    let deep = format!("{{\"Metrics\":{}", "[".repeat(1 << 20));
    assert!(serde_json::from_str::<Request>(&deep).is_err());
    let deep_payload = format!("{{\"PublishBatch\":{{\"name\":{}", "[".repeat(1 << 20));
    assert!(serde_json::from_str::<Request>(&deep_payload).is_err());
    let deep_stimuli = format!("{{\"PublishBatch\":{{\"stimuli\":{}", "[".repeat(1 << 20));
    assert!(serde_json::from_str::<Request>(&deep_stimuli).is_err());

    // A skipped field may reach exactly `MAX_DEPTH` levels in total
    // (two are the request's own objects).
    let line = serde_json::to_string(&Request::SubmitAnswer {
        session: SessionId::new(0),
        player: PlayerId::new(1),
        answer: Answer::text("cat"),
        at: SimTime::ZERO,
    })
    .expect("encodes");
    let mut diff = Differential::new();
    for total in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        let arrays = total - 2;
        let deep = format!("{}{}", "[".repeat(arrays), "]".repeat(arrays));
        for first in [true, false] {
            let spliced = splice(&line, "skipped", &deep, first).expect("has a payload");
            let accepted = total <= MAX_DEPTH;
            assert_eq!(serde_json::from_str::<Value>(&spliced).is_ok(), accepted);
            assert_eq!(reader_decode(&spliced).is_some(), accepted, "depth {total}");
            assert_eq!(serde_json::from_str::<Request>(&spliced).is_ok(), accepted);
            diff.check(&spliced);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_decode_like_the_tree(
        raw in prop::collection::vec(any::<u8>(), 0..48),
        tokens in prop::collection::vec(0usize..TOKEN_BYTES.len(), 0..48),
    ) {
        let mut diff = Differential::new();
        diff.check_bytes(&raw);
        let shaped: Vec<u8> = tokens.iter().map(|&i| TOKEN_BYTES[i]).collect();
        diff.check_bytes(&shaped);
        let mut prefixed = b"{\"SubmitAnswer\":{".to_vec();
        prefixed.extend_from_slice(&shaped);
        diff.check_bytes(&prefixed);
    }
}

/// The long differential: over a million mutated smoke lines from fixed
/// seeds. Run with
/// `cargo test --release -p hc-bench --test decode_props -- --ignored`.
#[test]
#[ignore = "long run: over a million inputs, about ten seconds in release"]
fn a_million_mutated_lines_decode_like_the_tree() {
    let mut inputs = 0;
    for case in 1..=16 {
        inputs += run_smoke_corpus(case, 6);
    }
    assert!(inputs >= 1_000_000, "only {inputs} inputs");
}
