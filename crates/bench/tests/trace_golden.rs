//! Golden-file tests for the trace-analysis outputs surfaced by
//! `hc-bench trace`: critical path, flame (folded stacks + top table),
//! timeseries (text + JSON), the derived-metrics summary, and the
//! trace-diff verdict. The rendered bytes of a fixed fixture trace are
//! frozen under `tests/golden/`, so any accidental format change shows
//! up as a reviewable diff. Regenerate after an *intentional* change
//! with
//!
//! ```text
//! cargo test -p hc-bench --test trace_golden -- --ignored regenerate
//! ```

use hc_obs::analyze::{diff, DeriveAcc, DerivedMetrics, SpanTree, TimeSeriesAcc};
use std::path::PathBuf;

/// A fixture exercising span-tree nesting, auxiliary tracks, the
/// `layout.` exclusion, every metric kind, and the machine section.
fn fixture_trace() -> hc_obs::Trace {
    let ((), trace) = hc_obs::record_scope(0, || {
        hc_obs::name_track(0, "main");
        hc_obs::name_track(7, "shard-0");
        let run = hc_obs::enter("sim", "run", 0);
        for w in 0u64..3 {
            let start = w * 2_000;
            let win = hc_obs::enter("sim.shard", "window", start);
            hc_obs::span(
                "games",
                "session",
                start + 100,
                start + 900,
                &[("window", w.into())],
            );
            hc_obs::span(
                "serve",
                "submit_answer",
                start + 1_000,
                start + 1_000,
                &[("seq", w.into())],
            );
            hc_obs::span_on_track(
                7,
                "layout.shard",
                "window",
                start,
                start + 1_800,
                &[("work", (3 + w).into())],
            );
            hc_obs::counter("shard.exchange.sent", start + 1_800, 2 + w);
            hc_obs::gauge("layout.shard.skew", start + 1_800, 1.0 + w as f64 / 10.0);
            hc_obs::observe(
                "shard.exchange.wait_us",
                start + 1_800,
                500.0 * (w + 1) as f64,
            );
            win.exit(start + 2_000, &[("window", w.into())]);
        }
        run.exit(6_000, &[("windows", 3u64.into())]);
        hc_obs::machine_stat("par.workers", 4.0);
    });
    trace
}

fn fixture_tree() -> SpanTree {
    SpanTree::from_records(&fixture_trace().records)
}

fn fixture_acc() -> DeriveAcc {
    let mut acc = DeriveAcc::new();
    for r in &fixture_trace().records {
        acc.add(r);
    }
    acc
}

fn fixture_derived() -> DerivedMetrics {
    fixture_acc().finish()
}

/// The fixture with one slower window — the "current" side of the diff.
fn perturbed_derived() -> DerivedMetrics {
    let mut acc = fixture_acc();
    let ((), extra) = hc_obs::record_scope(0, || {
        hc_obs::span("games", "session", 6_000, 7_400, &[]);
        hc_obs::counter("shard.exchange.sent", 7_400, 5);
    });
    for r in &extra.records {
        acc.add(r);
    }
    acc.finish()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn timeseries_acc() -> TimeSeriesAcc {
    let mut acc = TimeSeriesAcc::new(2_000);
    for r in &fixture_trace().records {
        acc.add(r);
    }
    acc
}

#[test]
fn critical_path_matches_golden() {
    assert_eq!(
        hc_obs::analyze::render_critical_path(&fixture_tree()),
        include_str!("golden/critical_path.txt"),
        "critical-path format drifted; regenerate the golden file if intentional"
    );
}

#[test]
fn folded_stacks_match_golden() {
    assert_eq!(
        hc_obs::analyze::render_folded(&fixture_tree()),
        include_str!("golden/flame.folded"),
        "folded-stack format drifted; regenerate the golden file if intentional"
    );
}

#[test]
fn flame_top_matches_golden() {
    assert_eq!(
        hc_obs::analyze::render_flame_top(&fixture_acc(), 5),
        include_str!("golden/flame_top.txt"),
        "flame top-N format drifted; regenerate the golden file if intentional"
    );
}

#[test]
fn timeseries_text_matches_golden() {
    assert_eq!(
        timeseries_acc().render_text(),
        include_str!("golden/timeseries.txt"),
        "timeseries text format drifted; regenerate the golden file if intentional"
    );
}

#[test]
fn timeseries_json_matches_golden() {
    assert_eq!(
        timeseries_acc().render_json(),
        include_str!("golden/timeseries.json"),
        "timeseries JSON format drifted; regenerate the golden file if intentional"
    );
}

#[test]
fn derived_summary_matches_golden_and_round_trips() {
    let rendered = fixture_derived().to_json();
    assert_eq!(
        rendered,
        include_str!("golden/derived.json"),
        "derived-summary format drifted; regenerate the golden file if intentional"
    );
    let parsed = DerivedMetrics::from_json(&rendered).expect("derived summary parses");
    assert_eq!(parsed.to_json(), rendered);
}

#[test]
fn derived_summary_excludes_layout_records() {
    let rendered = fixture_derived().to_json();
    assert!(
        !rendered.contains("layout."),
        "`layout.` records leaked into the derived summary: {rendered}"
    );
}

#[test]
fn diff_report_matches_golden() {
    let report = diff(&fixture_derived(), &perturbed_derived(), 0.1);
    assert!(
        !report.passed(),
        "perturbation should trip the 10% threshold"
    );
    assert_eq!(
        report.render_text(),
        include_str!("golden/diff.txt"),
        "diff text format drifted; regenerate the golden file if intentional"
    );
    assert_eq!(
        report.render_json(),
        include_str!("golden/diff.json"),
        "diff JSON format drifted; regenerate the golden file if intentional"
    );
}

#[test]
fn diff_against_itself_passes() {
    let report = diff(&fixture_derived(), &fixture_derived(), 0.0);
    assert!(report.passed(), "a summary must diff clean against itself");
}

/// Not a test: rewrites the golden files from the current output. Run
/// explicitly (`-- --ignored regenerate`) after an intentional format
/// change, then review the diff.
#[test]
#[ignore = "regenerates the golden files; run explicitly after intentional format changes"]
fn regenerate() {
    std::fs::create_dir_all(golden_path("")).expect("golden dir");
    let write = |name: &str, content: String| {
        std::fs::write(golden_path(name), content).expect("write golden");
    };
    write(
        "critical_path.txt",
        hc_obs::analyze::render_critical_path(&fixture_tree()),
    );
    write(
        "flame.folded",
        hc_obs::analyze::render_folded(&fixture_tree()),
    );
    write(
        "flame_top.txt",
        hc_obs::analyze::render_flame_top(&fixture_acc(), 5),
    );
    write("timeseries.txt", timeseries_acc().render_text());
    write("timeseries.json", timeseries_acc().render_json());
    write("derived.json", fixture_derived().to_json());
    let report = diff(&fixture_derived(), &perturbed_derived(), 0.1);
    write("diff.txt", report.render_text());
    write("diff.json", report.render_json());
}
