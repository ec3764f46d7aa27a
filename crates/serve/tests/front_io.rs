//! Socket-front coverage: the line-JSON shim decodes requests, runs
//! the pure core, and encodes responses — including malformed input.

use hc_core::jobs::JobGoal;
use hc_core::Stimulus;
use hc_serve::front::{handle_line, render_response, Front, MAX_LINE_BYTES};
use hc_serve::{Request, Response, ServeError, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn handle_line_round_trips_the_wire_path() {
    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let line = serde_json::to_string(&Request::RegisterWorker).expect("encodes");
    let reply = handle_line(&line, &mut svc);
    let parsed: Response = serde_json::from_str(&reply).expect("reply decodes");
    assert!(matches!(parsed, Response::WorkerRegistered { .. }));
}

#[test]
fn malformed_lines_become_invalid_request_responses() {
    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let reply = handle_line("{not json", &mut svc);
    let parsed: Response = serde_json::from_str(&reply).expect("reply decodes");
    assert!(parsed.is_error());
    // The broken line did not corrupt the service.
    let ok = handle_line(
        &serde_json::to_string(&Request::Metrics).expect("encodes"),
        &mut svc,
    );
    let parsed: Response = serde_json::from_str(&ok).expect("reply decodes");
    assert!(matches!(parsed, Response::MetricsReport { .. }));
}

#[test]
fn render_response_is_parseable_json() {
    let rendered = render_response(&Response::MetricsReport {
        players: 0,
        waiting: 0,
        live_sessions: 0,
        sessions_recorded: 0,
        verified_labels: 0,
        rejected_agreements: 0,
    });
    let parsed: Response = serde_json::from_str(&rendered).expect("decodes");
    assert!(matches!(parsed, Response::MetricsReport { .. }));
}

#[test]
fn tcp_front_serves_a_connection_to_eof() {
    let front = Front::bind("127.0.0.1:0").expect("bind");
    let addr = front.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let requests = [
            serde_json::to_string(&Request::RegisterWorker).expect("encodes"),
            serde_json::to_string(&Request::PublishBatch {
                name: "tcp".into(),
                goal: JobGoal::OutputsPerTask(1),
                stimuli: vec![Stimulus::Image(1)],
            })
            .expect("encodes"),
            "???".to_string(),
            serde_json::to_string(&Request::Metrics).expect("encodes"),
        ];
        for r in &requests {
            writeln!(writer, "{r}").expect("write");
        }
        // Half-close the write side so the server sees EOF.
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let reader = BufReader::new(stream);
        let replies: Vec<Response> = reader
            .lines()
            .map(|l| serde_json::from_str(&l.expect("read")).expect("decodes"))
            .collect();
        replies
    });

    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let handled = front.serve_one(&mut svc).expect("serve");
    assert_eq!(handled, 4);

    let replies = client.join().expect("client thread");
    assert_eq!(replies.len(), 4);
    assert!(matches!(replies[0], Response::WorkerRegistered { .. }));
    assert!(matches!(replies[1], Response::BatchPublished { .. }));
    assert!(replies[2].is_error());
    match &replies[3] {
        Response::MetricsReport { players, .. } => assert_eq!(*players, 1),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn deeply_nested_lines_are_rejected_without_killing_the_service() {
    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let hostile = "[".repeat(1 << 20);
    let reply = handle_line(&hostile, &mut svc);
    let parsed: Response = serde_json::from_str(&reply).expect("reply decodes");
    assert!(
        matches!(
            parsed,
            Response::Error {
                error: ServeError::InvalidRequest { .. }
            }
        ),
        "unexpected reply: {reply}"
    );
    let ok = handle_line(
        &serde_json::to_string(&Request::Metrics).expect("encodes"),
        &mut svc,
    );
    let parsed: Response = serde_json::from_str(&ok).expect("reply decodes");
    assert!(matches!(parsed, Response::MetricsReport { .. }));
}

/// Each reply goes out in one write. A separate write for the newline
/// waits behind Nagle's algorithm for the client's delayed ACK, about
/// 40 ms per round trip on Linux loopback (8 s for this loop).
#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    const ROUND_TRIPS: usize = 200;
    let front = Front::bind("127.0.0.1:0").expect("bind");
    let addr = front.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let request = format!(
            "{}\n",
            serde_json::to_string(&Request::Metrics).expect("encodes")
        );
        let started = Instant::now();
        let mut line = String::new();
        for _ in 0..ROUND_TRIPS {
            writer.write_all(request.as_bytes()).expect("write");
            line.clear();
            reader.read_line(&mut line).expect("read");
            let reply: Response = serde_json::from_str(&line).expect("decodes");
            assert!(matches!(reply, Response::MetricsReport { .. }));
        }
        let elapsed = started.elapsed();
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        elapsed
    });

    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let handled = front.serve_one(&mut svc).expect("serve");
    assert_eq!(handled, ROUND_TRIPS as u64);
    let elapsed = client.join().expect("client thread");
    assert!(
        elapsed < Duration::from_secs(2),
        "{ROUND_TRIPS} round trips took {elapsed:?}"
    );
}

/// Writes `lines` (raw bytes, newline-terminated by the caller) on one
/// connection, half-closes it, and returns the handled count and the
/// decoded replies.
fn exchange_raw(lines: Vec<Vec<u8>>) -> (std::io::Result<u64>, Vec<Response>) {
    let front = Front::bind("127.0.0.1:0").expect("bind");
    let addr = front.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        for line in &lines {
            writer.write_all(line).expect("write");
        }
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        BufReader::new(stream)
            .lines()
            .map_while(Result::ok)
            .map(|l| serde_json::from_str::<Response>(&l).expect("reply decodes"))
            .collect::<Vec<_>>()
    });
    let mut svc = Service::new(ServiceConfig::default()).expect("config valid");
    let handled = front.serve_one(&mut svc);
    (handled, client.join().expect("client thread"))
}

fn metrics_line() -> Vec<u8> {
    let mut line = serde_json::to_string(&Request::Metrics)
        .expect("encodes")
        .into_bytes();
    line.push(b'\n');
    line
}

fn is_invalid_request(reply: &Response) -> bool {
    matches!(
        reply,
        Response::Error {
            error: ServeError::InvalidRequest { .. }
        }
    )
}

#[test]
fn invalid_utf8_lines_are_answered_and_the_connection_continues() {
    let (handled, replies) =
        exchange_raw(vec![b"\xff\xfe{\"Metrics\"}\n".to_vec(), metrics_line()]);
    assert_eq!(handled.expect("serve"), 2);
    assert_eq!(replies.len(), 2, "replies: {replies:?}");
    assert!(is_invalid_request(&replies[0]), "got {:?}", replies[0]);
    assert!(matches!(replies[1], Response::MetricsReport { .. }));
}

#[test]
fn oversized_lines_are_discarded_and_the_connection_continues() {
    // A well-formed request past the cap is refused, not served.
    let mut oversized = serde_json::to_string(&Request::PublishBatch {
        name: "x".repeat(MAX_LINE_BYTES),
        goal: JobGoal::OutputsPerTask(1),
        stimuli: vec![Stimulus::Image(1)],
    })
    .expect("encodes")
    .into_bytes();
    assert!(oversized.len() > MAX_LINE_BYTES);
    oversized.push(b'\n');
    // At the cap exactly (newline excluded) a line is still served.
    let mut at_cap = serde_json::to_string(&Request::Metrics)
        .expect("encodes")
        .into_bytes();
    at_cap.splice(
        0..0,
        std::iter::repeat_n(b' ', MAX_LINE_BYTES - at_cap.len()),
    );
    assert_eq!(at_cap.len(), MAX_LINE_BYTES);
    at_cap.push(b'\n');
    let (handled, replies) = exchange_raw(vec![oversized, at_cap, metrics_line()]);
    assert_eq!(handled.expect("serve"), 3);
    assert_eq!(replies.len(), 3, "replies: {replies:?}");
    assert!(is_invalid_request(&replies[0]), "got {:?}", replies[0]);
    assert!(matches!(replies[1], Response::MetricsReport { .. }));
    assert!(matches!(replies[2], Response::MetricsReport { .. }));
}
