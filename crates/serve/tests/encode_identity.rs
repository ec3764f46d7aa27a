//! Byte-identity of the one-pass encoder.
//!
//! `serde_json::to_string` writes JSON straight from the typed value;
//! `serde_json::to_value` builds the `Value` tree. Both must give the
//! same bytes for every wire message, and rendering a tree must give the
//! bytes of the original `fmt`-based renderer, which
//! [`reference_render`] keeps as the oracle. The frozen escape table
//! pins those bytes literally.

use hc_core::jobs::{JobGoal, JobState};
use hc_core::{
    Answer, JobId, Label, PlayerId, Region, SessionId, Stimulus, TaskId, TaskState, Verdict,
};
use hc_serve::front::render_response;
use hc_serve::{
    AggregateRow, ExportedLabel, Request, Response, RoundOutcome, ServeError, SessionPhase,
};
use hc_sim::SimTime;
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::{Number, Value};
use std::fmt::Write as _;

/// The renderer the one-pass writer replaced, one `write!` per char.
fn reference_render(value: &Value) -> String {
    fn string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => write!(out, "{c}").unwrap(),
            }
        }
        out.push('"');
    }
    fn walk(out: &mut String, value: &Value) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => write!(out, "{b}").unwrap(),
            Value::Number(Number::PosInt(x)) => write!(out, "{x}").unwrap(),
            Value::Number(Number::NegInt(x)) => write!(out, "{x}").unwrap(),
            Value::Number(Number::Float(x)) if x.is_finite() => write!(out, "{x:?}").unwrap(),
            Value::Number(Number::Float(_)) => out.push_str("null"),
            Value::String(s) => string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    walk(out, item);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(out, k);
                    out.push(':');
                    walk(out, v);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    walk(&mut out, value);
    out
}

/// Characters that stress the escaper: every control byte, the two
/// escaped printables, and text the escaper must leave alone.
fn tricky_chars() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend([
        '"', '\\', '/', '\u{7f}', '\u{80}', 'é', '\u{2028}', '\u{2029}', '\u{fffd}', '😀', 'a',
        'Z', '0', ' ', '{', ']', ':', ',',
    ]);
    chars
}

fn arb_string(rng: &mut TestRng) -> String {
    let pool = tricky_chars();
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| pool[rng.below(pool.len() as u64) as usize])
        .collect()
}

fn arb_u64(rng: &mut TestRng) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.below(10),
        3 => rng.below(1_000_000),
        4 => 10u64.pow(rng.below(20) as u32),
        _ => rng.next_u64(),
    }
}

fn arb_u32(rng: &mut TestRng) -> u32 {
    (arb_u64(rng) % (u64::from(u32::MAX) + 1)) as u32
}

fn arb_f64(rng: &mut TestRng) -> f64 {
    match rng.below(12) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::from_bits(1 + rng.below(1 << 52)), // subnormal
        4 => -f64::from_bits(1 + rng.below(1 << 52)),
        5 => f64::MIN_POSITIVE,
        6 => -0.0,
        7 => f64::MAX,
        8 => rng.below(1000) as f64,
        9 => rng.unit_f64(),
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn arb_number(rng: &mut TestRng) -> Number {
    match rng.below(4) {
        0 => Number::from_u64(arb_u64(rng)),
        1 => Number::NegInt(match rng.below(3) {
            0 => i64::MIN,
            1 => -1,
            _ => -1 - (rng.next_u64() >> 1) as i64,
        }),
        _ => Number::Float(arb_f64(rng)),
    }
}

fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
    let leaf_only = depth == 0;
    match rng.below(if leaf_only { 4 } else { 6 }) {
        0 => match rng.below(3) {
            0 => Value::Null,
            1 => Value::Bool(false),
            _ => Value::Bool(true),
        },
        1 => Value::Number(arb_number(rng)),
        2 | 3 => Value::String(arb_string(rng)),
        4 => Value::Array(
            (0..rng.below(5))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A label built from arbitrary text. Decoding normalizes too, so a
/// label's text never needs an escape; escaping is covered by the
/// `String` fields (`name`, `reason`, `expected`, `got`, word and
/// snippet stimuli), which carry arbitrary text.
fn arb_label(rng: &mut TestRng) -> Label {
    Label::new(&arb_string(rng))
}

fn arb_labels(rng: &mut TestRng) -> Vec<Label> {
    (0..rng.below(4)).map(|_| arb_label(rng)).collect()
}

fn arb_stimulus(rng: &mut TestRng) -> Stimulus {
    match rng.below(5) {
        0 => Stimulus::Image(arb_u64(rng)),
        1 => Stimulus::AudioClip(arb_u64(rng)),
        2 => Stimulus::Word(arb_string(rng)),
        3 => Stimulus::TextSnippet(arb_string(rng)),
        _ => Stimulus::Custom(arb_u64(rng)),
    }
}

fn arb_answer(rng: &mut TestRng) -> Answer {
    match rng.below(5) {
        0 => Answer::Text(arb_label(rng)),
        1 => Answer::Verdict(Verdict::from_same(rng.below(2) == 0)),
        2 => Answer::Region(Region::new(
            arb_u32(rng),
            arb_u32(rng),
            arb_u32(rng),
            arb_u32(rng),
        )),
        3 => Answer::Choice(arb_u32(rng)),
        _ => Answer::Pass,
    }
}

fn player(rng: &mut TestRng) -> PlayerId {
    PlayerId::new(arb_u64(rng))
}
fn session(rng: &mut TestRng) -> SessionId {
    SessionId::new(arb_u64(rng))
}
fn job(rng: &mut TestRng) -> JobId {
    JobId::new(arb_u64(rng))
}
fn task(rng: &mut TestRng) -> TaskId {
    TaskId::new(arb_u64(rng))
}
fn at(rng: &mut TestRng) -> SimTime {
    SimTime::from_ticks(arb_u64(rng))
}

fn arb_request(rng: &mut TestRng) -> Request {
    match rng.below(14) {
        0 => Request::RegisterWorker,
        1 => Request::PublishBatch {
            name: arb_string(rng),
            goal: if rng.below(2) == 0 {
                JobGoal::OutputsPerTask(arb_u32(rng))
            } else {
                JobGoal::TotalOutputs(arb_u64(rng))
            },
            stimuli: (0..rng.below(4)).map(|_| arb_stimulus(rng)).collect(),
        },
        2 => Request::PublishGold {
            stimulus: arb_stimulus(rng),
            accepted: arb_labels(rng),
        },
        3 => Request::OpenSession {
            player: player(rng),
            at: at(rng),
        },
        4 => Request::PollSession {
            player: player(rng),
        },
        5 => Request::RequestTask {
            session: session(rng),
            player: player(rng),
            at: at(rng),
        },
        6 => Request::SubmitAnswer {
            session: session(rng),
            player: player(rng),
            answer: arb_answer(rng),
            at: at(rng),
        },
        7 => Request::CloseSession {
            session: session(rng),
            at: at(rng),
        },
        8 => Request::JobStatus { job: job(rng) },
        9 => Request::TaskStatus { task: task(rng) },
        10 => Request::CancelJob {
            job: job(rng),
            at: at(rng),
        },
        11 => Request::ExportResults { job: job(rng) },
        12 => Request::Aggregate {
            job: job(rng),
            threshold: arb_u32(rng),
        },
        _ => Request::Metrics,
    }
}

fn arb_error(rng: &mut TestRng) -> ServeError {
    match rng.below(15) {
        0 => ServeError::UnknownTask { task: task(rng) },
        1 => ServeError::UnknownJob { job: job(rng) },
        2 => ServeError::UnknownPlayer {
            player: player(rng),
        },
        3 => ServeError::UnknownSession {
            session: session(rng),
        },
        4 => ServeError::NotInSession {
            session: session(rng),
            player: player(rng),
        },
        5 => ServeError::AlreadyWaiting {
            player: player(rng),
        },
        6 => ServeError::AlreadyInSession {
            player: player(rng),
            session: session(rng),
        },
        7 => ServeError::NoTaskAvailable {
            session: session(rng),
        },
        8 => ServeError::NoAssignment {
            session: session(rng),
        },
        9 => ServeError::DuplicateAnswer {
            session: session(rng),
            player: player(rng),
        },
        10 => ServeError::TabooLabel {
            label: arb_label(rng),
        },
        11 => ServeError::AnswerKindMismatch {
            expected: arb_string(rng),
            got: arb_string(rng),
        },
        12 => ServeError::SessionOver {
            session: session(rng),
        },
        13 => ServeError::EmptyBatch,
        _ => ServeError::InvalidRequest {
            reason: arb_string(rng),
        },
    }
}

fn arb_response(rng: &mut TestRng) -> Response {
    match rng.below(16) {
        0 => Response::WorkerRegistered {
            player: player(rng),
        },
        1 => Response::BatchPublished {
            job: job(rng),
            tasks: (0..rng.below(4)).map(|_| task(rng)).collect(),
        },
        2 => Response::GoldPublished { task: task(rng) },
        3 => Response::SessionQueued {
            player: player(rng),
            waiting: arb_u32(rng),
        },
        4 => Response::SessionOpened {
            session: session(rng),
            players: [player(rng), player(rng)],
        },
        5 => Response::SessionStatus {
            player: player(rng),
            phase: match rng.below(3) {
                0 => SessionPhase::Idle,
                1 => SessionPhase::Waiting,
                _ => SessionPhase::Seated {
                    session: session(rng),
                },
            },
        },
        6 => Response::TaskAssigned {
            session: session(rng),
            round: arb_u32(rng),
            task: task(rng),
            stimulus: arb_stimulus(rng),
            taboo: arb_labels(rng),
        },
        7 => Response::AnswerRecorded {
            session: session(rng),
            round: arb_u32(rng),
            outcome: match rng.below(4) {
                0 => RoundOutcome::Waiting,
                1 => RoundOutcome::Matched {
                    label: arb_label(rng),
                    promoted: rng.below(2) == 0,
                },
                2 => RoundOutcome::Mismatched,
                _ => RoundOutcome::Passed,
            },
        },
        8 => Response::SessionClosed {
            session: session(rng),
            rounds: arb_u32(rng),
            matched: arb_u32(rng),
            points: [arb_u64(rng), arb_u64(rng)],
        },
        9 => Response::JobStatusReport {
            job: job(rng),
            state: [JobState::Active, JobState::Completed, JobState::Cancelled]
                [rng.below(3) as usize],
            tasks: arb_u32(rng),
            outputs: arb_u64(rng),
            progress_pct: arb_u32(rng),
        },
        10 => Response::TaskStatusReport {
            task: task(rng),
            state: [
                TaskState::Fresh,
                TaskState::InProgress,
                TaskState::Completed,
                TaskState::Retired,
            ][rng.below(4) as usize],
            times_served: arb_u32(rng),
            verified: arb_u32(rng),
            taboo: arb_labels(rng),
        },
        11 => Response::JobCancelled { job: job(rng) },
        12 => Response::ResultsExported {
            job: job(rng),
            labels: (0..rng.below(4))
                .map(|_| ExportedLabel {
                    task: task(rng),
                    label: arb_label(rng),
                    at: at(rng),
                })
                .collect(),
        },
        13 => Response::Aggregated {
            job: job(rng),
            rows: (0..rng.below(4))
                .map(|_| AggregateRow {
                    task: task(rng),
                    label: (rng.below(3) > 0).then(|| arb_label(rng)),
                    support: arb_u32(rng),
                    answers: arb_u32(rng),
                })
                .collect(),
        },
        14 => Response::MetricsReport {
            players: arb_u64(rng),
            waiting: arb_u32(rng),
            live_sessions: arb_u32(rng),
            sessions_recorded: arb_u64(rng),
            verified_labels: arb_u64(rng),
            rejected_agreements: arb_u64(rng),
        },
        _ => Response::Error {
            error: arb_error(rng),
        },
    }
}

/// Wraps a generator function as a proptest strategy.
struct Arb<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Arb<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn arb_tree(rng: &mut TestRng) -> Value {
    arb_value(rng, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_encode_like_their_value_tree(request in Arb(arb_request)) {
        let tree = serde_json::to_value(&request).unwrap();
        let direct = serde_json::to_string(&request).unwrap();
        prop_assert_eq!(&direct, &tree.to_string());
        prop_assert_eq!(&direct, &reference_render(&tree));
        let back: Request = serde_json::from_str(&direct).unwrap();
        prop_assert_eq!(back, request);
    }

    #[test]
    fn responses_encode_like_their_value_tree(response in Arb(arb_response)) {
        let tree = serde_json::to_value(&response).unwrap();
        let direct = render_response(&response);
        prop_assert_eq!(&direct, &tree.to_string());
        prop_assert_eq!(&direct, &reference_render(&tree));
        let back: Response = serde_json::from_str(&direct).unwrap();
        prop_assert_eq!(back, response);
    }

    #[test]
    fn value_trees_render_like_the_reference(tree in Arb(arb_tree)) {
        let expected = reference_render(&tree);
        prop_assert_eq!(&serde_json::to_string(&tree).unwrap(), &expected);
        prop_assert_eq!(&tree.to_string(), &expected);
    }
}

/// The exact bytes the encoder emits for every character class JSON
/// treats specially, frozen as literals.
#[test]
fn escape_table_is_frozen() {
    let controls: [&str; 32] = [
        r"\u0000", r"\u0001", r"\u0002", r"\u0003", r"\u0004", r"\u0005", r"\u0006", r"\u0007",
        r"\u0008", r"\t", r"\n", r"\u000b", r"\u000c", r"\r", r"\u000e", r"\u000f", r"\u0010",
        r"\u0011", r"\u0012", r"\u0013", r"\u0014", r"\u0015", r"\u0016", r"\u0017", r"\u0018",
        r"\u0019", r"\u001a", r"\u001b", r"\u001c", r"\u001d", r"\u001e", r"\u001f",
    ];
    for (byte, escaped) in (0u8..0x20).zip(controls) {
        let text = char::from(byte).to_string();
        assert_eq!(
            serde_json::to_string(&text).unwrap(),
            format!("\"{escaped}\""),
            "control byte {byte:#04x}"
        );
    }
    let others = [
        ("\"", r#""\"""#),
        ("\\", r#""\\""#),
        ("/", r#""/""#),
        ("\u{7f}", "\"\u{7f}\""),
        ("\u{2028}", "\"\u{2028}\""),
        ("a\"b\\c/d", r#""a\"b\\c/d""#),
    ];
    for (text, expected) in others {
        assert_eq!(serde_json::to_string(text).unwrap(), expected);
        assert_eq!(Value::String(text.to_string()).to_string(), expected);
    }
}
