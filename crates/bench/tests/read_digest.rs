//! Requester-read response bytes, pinned across commits.
//!
//! perfbench's `serve-read` check compares each response with one
//! recorded by the same build, so a change to what a read returns that
//! is consistent within one build passes it. This test rebuilds the
//! state an `hc-load` run leaves at fixed options, renders JobStatus,
//! ExportResults and Aggregate (thresholds 1 and 2) for every job,
//! TaskStatus for every task and Metrics, and compares the FNV-1a 64 of
//! those lines with a recorded digest. A change that moves any read
//! byte must re-record the digest and say why.

use hc_bench::load::{fnv1a64, run_load, service_config, LoadOpts};
use hc_serve::front::render_response;
use hc_serve::{Request, Response, Service};
use serde_json::Value;

/// The `hc-load` run whose final state is read.
fn opts() -> LoadOpts {
    LoadOpts {
        seed: 1,
        clients: 16,
        steps: 600,
        ..LoadOpts::default()
    }
}

/// FNV-1a 64 of the read lines at [`opts`].
const READ_DIGEST: &str = "fe14e98f346dbf6d";

#[test]
fn requester_read_bytes_match_the_recorded_digest() {
    let opts = opts();
    let outcome = run_load(&opts).expect("load scenario runs");
    let mut service = Service::new(service_config(opts.seed)).expect("valid config");
    let (mut jobs, mut tasks) = (Vec::new(), Vec::new());
    for record in outcome.response_log.lines() {
        let record: Value = serde_json::from_str(record).expect("log line parses");
        let request: Request =
            serde_json::from_str(&record.get("request").expect("request").to_string())
                .expect("request decodes");
        let response = service.handle(&request);
        assert_eq!(
            render_response(&response),
            record.get("response").expect("response").to_string(),
            "replay diverged on {request:?}"
        );
        if let Response::BatchPublished {
            job,
            tasks: published,
        } = response
        {
            jobs.push(job);
            tasks.extend(published);
        }
    }
    let mut reads = vec![Request::Metrics];
    for &job in &jobs {
        reads.push(Request::JobStatus { job });
        reads.push(Request::ExportResults { job });
        for threshold in [1, 2] {
            reads.push(Request::Aggregate { job, threshold });
        }
    }
    reads.extend(tasks.iter().map(|&task| Request::TaskStatus { task }));
    let mut lines = String::new();
    for request in &reads {
        let response = service.handle(request);
        assert!(!response.is_error(), "{request:?} failed: {response:?}");
        lines.push_str(&serde_json::to_string(request).expect("request encodes"));
        lines.push('\t');
        lines.push_str(&render_response(&response));
        lines.push('\n');
    }
    assert_eq!(fnv1a64(lines.as_bytes()), READ_DIGEST);
}
