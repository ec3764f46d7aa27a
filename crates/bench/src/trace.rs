//! `hc-bench trace` — load, summarize, analyze, and convert recorded
//! traces.
//!
//! An experiment run with `--trace PATH` writes an `hc-obs` JSONL trace;
//! this module turns that file back into numbers a human can read:
//!
//! * [`summarize`] — per-span aggregates (count / total / mean / max
//!   sim-time), event counts, the metrics registry, and — when the run
//!   recorded the `metrics.*` counters — the paper's live throughput and
//!   ALP derived *from the trace alone*;
//! * [`load_trace`] — parse a JSONL trace file into a full [`Trace`]
//!   (fine for small inputs; `export-chrome` needs the whole thing);
//! * [`stream_trace`] — fold a JSONL trace record by record without
//!   materializing the record vector, for the analysis passes
//!   (`critical-path`, `flame`, `timeseries`, `derive`, `diff` in the
//!   `hc-bench` binary) whose accumulators are all streaming;
//! * [`derive_summary`] / [`load_summary`] — the derived-metrics
//!   summary behind the CI trace-regression gate.
//!
//! Everything here reports **sim-time**; the only wall-clock numbers are
//! the machine-dependent stats, which are labelled as such.

use hc_obs::analyze::{DeriveAcc, DerivedMetrics};
use hc_obs::sink::jsonl::Line;
use hc_obs::{MetricsRegistry, Record, RecordData, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::path::Path;

/// Loads and parses a JSONL trace file.
///
/// # Errors
///
/// Returns a message naming the file on IO or parse failure.
pub fn load_trace(path: &Path) -> Result<Trace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    hc_obs::sink::jsonl::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The trailing (non-record) sections of a streamed trace.
#[derive(Debug, Default)]
pub struct TraceTail {
    /// Track names from the `tracks` line (empty when absent).
    pub track_names: BTreeMap<u32, String>,
    /// The metrics-registry section.
    pub metrics: MetricsRegistry,
    /// Machine-dependent stats (wall-clock, worker counts).
    pub machine: BTreeMap<String, f64>,
}

/// Streams a JSONL trace file line by line, feeding each record to
/// `on_record` in file order, and returns the trailing sections. Peak
/// memory is one line plus whatever `on_record` retains — the analysis
/// accumulators are all streaming, so million-record traces never need
/// a `Vec<Record>` in memory.
///
/// # Errors
///
/// Returns a message naming the file (and line on parse failures).
pub fn stream_trace(path: &Path, mut on_record: impl FnMut(&Record)) -> Result<TraceTail, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let reader = std::io::BufReader::new(file);
    let mut tail = TraceTail::default();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
        match hc_obs::sink::jsonl::parse_line(&line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?
        {
            None => {}
            Some(Line::Record(r)) => on_record(&r),
            Some(Line::Tracks(names)) => tail.track_names = names,
            Some(Line::Metrics(m)) => tail.metrics = m,
            Some(Line::Machine(m)) => tail.machine = m,
        }
    }
    Ok(tail)
}

/// Streams a JSONL trace into its derived-metrics summary.
///
/// # Errors
///
/// Propagates [`stream_trace`] failures.
pub fn derive_summary(path: &Path) -> Result<DerivedMetrics, String> {
    let mut acc = DeriveAcc::new();
    stream_trace(path, |r| acc.add(r))?;
    Ok(acc.finish())
}

/// Loads a derived-metrics summary from either a summary JSON written
/// by `trace derive` (sniffed by its schema marker on the first line)
/// or a raw JSONL trace, which is derived on the fly.
///
/// # Errors
///
/// Returns a message naming the file on IO or parse failure.
pub fn load_summary(path: &Path) -> Result<DerivedMetrics, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut first = String::new();
    let mut reader = std::io::BufReader::new(file);
    reader
        .read_line(&mut first)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    if first.contains("\"hc-trace-derived-v1\"") {
        DerivedMetrics::from_json(&first).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        derive_summary(path)
    }
}

/// Aggregate over all spans sharing one `(target, name)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanAgg {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, sim-µs.
    pub total_us: u64,
    /// Longest single span, sim-µs.
    pub max_us: u64,
}

impl SpanAgg {
    /// Mean duration in sim-µs (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Folds a trace's spans into per-`(target, name)` aggregates.
#[must_use]
pub fn span_aggregates(trace: &Trace) -> BTreeMap<(String, String), SpanAgg> {
    let mut spans: BTreeMap<(String, String), SpanAgg> = BTreeMap::new();
    for r in &trace.records {
        if let RecordData::Span {
            target,
            name,
            dur_us,
            ..
        } = &r.data
        {
            let agg = spans.entry((target.clone(), name.clone())).or_default();
            agg.count += 1;
            agg.total_us += dur_us;
            agg.max_us = agg.max_us.max(*dur_us);
        }
    }
    spans
}

/// Live GWAP metrics derived from the `metrics.*` counters the
/// `ContributionLedger` mirrors into every trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveGwap {
    /// Verified outputs per human-hour.
    pub throughput_per_human_hour: f64,
    /// Average lifetime play per player, hours.
    pub alp_hours: f64,
    /// Total verified outputs counted.
    pub outputs: u64,
    /// Total human-hours counted.
    pub human_hours: f64,
    /// Distinct players counted.
    pub players: u64,
}

/// Derives [`LiveGwap`] from a trace's counters, or `None` when the run
/// recorded no play time.
#[must_use]
pub fn live_gwap(trace: &Trace) -> Option<LiveGwap> {
    let play_us = trace.metrics.counter("metrics.play_us");
    if play_us == 0 {
        return None;
    }
    let outputs = trace.metrics.counter("metrics.outputs");
    let players = trace.metrics.counter("metrics.players");
    let human_hours = play_us as f64 / 3_600_000_000.0;
    let throughput = if human_hours > 0.0 {
        outputs as f64 / human_hours
    } else {
        0.0
    };
    let alp = if players > 0 {
        human_hours / players as f64
    } else {
        0.0
    };
    Some(LiveGwap {
        throughput_per_human_hour: throughput,
        alp_hours: alp,
        outputs,
        human_hours,
        players,
    })
}

/// Renders a human-readable summary of a trace.
#[must_use]
pub fn summarize(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} records over {} sim-µs",
        trace.records.len(),
        trace.max_t_us()
    );

    let spans = span_aggregates(trace);
    if !spans.is_empty() {
        let _ = writeln!(out, "\nspans (sim-time):");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>14} {:>12} {:>12}",
            "target/name", "count", "total µs", "mean µs", "max µs"
        );
        for ((target, name), agg) in &spans {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>14} {:>12.1} {:>12}",
                format!("{target}/{name}"),
                agg.count,
                agg.total_us,
                agg.mean_us(),
                agg.max_us
            );
        }
    }

    let mut events: BTreeMap<(String, String), u64> = BTreeMap::new();
    for r in &trace.records {
        if let RecordData::Event { target, name, .. } = &r.data {
            *events.entry((target.clone(), name.clone())).or_insert(0) += 1;
        }
    }
    if !events.is_empty() {
        let _ = writeln!(out, "\nevents:");
        for ((target, name), n) in &events {
            let _ = writeln!(out, "  {:<28} {n:>8}", format!("{target}/{name}"));
        }
    }

    if !trace.metrics.counters().is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, v) in trace.metrics.counters() {
            let _ = writeln!(out, "  {name:<28} {v:>12}");
        }
    }
    if !trace.metrics.gauges().is_empty() {
        let _ = writeln!(out, "\ngauges (last / min / max):");
        for (name, g) in trace.metrics.gauges() {
            let _ = writeln!(out, "  {name:<28} {:>10} / {} / {}", g.last, g.min, g.max);
        }
    }
    if !trace.metrics.histograms().is_empty() {
        let _ = writeln!(out, "\nhistograms (count / mean / min / max):");
        for (name, h) in trace.metrics.histograms() {
            let _ = writeln!(
                out,
                "  {name:<28} {} / {:.3} / {} / {}",
                h.count,
                h.mean(),
                h.min,
                h.max
            );
        }
    }

    if let Some(gwap) = live_gwap(trace) {
        let _ = writeln!(out, "\nlive GWAP metrics (from counters):");
        let _ = writeln!(
            out,
            "  throughput {:.1}/human-hour   ALP {:.1} min   outputs {}   human-hours {:.2}   players {}",
            gwap.throughput_per_human_hour,
            gwap.alp_hours * 60.0,
            gwap.outputs,
            gwap.human_hours,
            gwap.players
        );
    }

    if !trace.machine.is_empty() {
        let _ = writeln!(out, "\nmachine-dependent stats (vary across runs/hosts):");
        for (name, v) in &trace.machine {
            let _ = writeln!(out, "  {name:<28} {v}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> Trace {
        let ((), trace) = hc_obs::record_scope(0, || {
            hc_obs::span("sim", "run", 0, 2_000, &[]);
            hc_obs::span("sim", "run", 2_000, 6_000, &[]);
            hc_obs::event("core", "pair", 100, &[]);
            hc_obs::counter("metrics.outputs", 3_600, 200);
            hc_obs::counter("metrics.play_us", 3_600, 7_200_000_000);
            hc_obs::counter("metrics.players", 3_600, 2);
            hc_obs::machine_stat("par.workers", 4.0);
        });
        trace
    }

    #[test]
    fn span_aggregates_fold_by_target_and_name() {
        let aggs = span_aggregates(&demo_trace());
        let run = aggs
            .get(&("sim".to_string(), "run".to_string()))
            .expect("sim/run present");
        assert_eq!(run.count, 2);
        assert_eq!(run.total_us, 6_000);
        assert_eq!(run.max_us, 4_000);
        assert!((run.mean_us() - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn live_gwap_derives_the_paper_metrics() {
        // 200 outputs over 2 human-hours by 2 players: throughput 100/h,
        // ALP 1 h — the ledger doctest's numbers, now read off the trace.
        let gwap = live_gwap(&demo_trace()).expect("play time recorded");
        assert!((gwap.throughput_per_human_hour - 100.0).abs() < 1e-9);
        assert!((gwap.alp_hours - 1.0).abs() < 1e-9);
        assert_eq!(gwap.players, 2);
    }

    #[test]
    fn live_gwap_absent_without_play_time() {
        assert!(live_gwap(&Trace::new()).is_none());
    }

    #[test]
    fn summary_mentions_every_section() {
        let s = summarize(&demo_trace());
        for needle in [
            "spans (sim-time)",
            "sim/run",
            "events:",
            "core/pair",
            "counters:",
            "metrics.outputs",
            "live GWAP metrics",
            "machine-dependent",
            "par.workers",
        ] {
            assert!(s.contains(needle), "summary missing `{needle}`:\n{s}");
        }
    }

    #[test]
    fn empty_trace_summarizes_to_the_header_only() {
        let s = summarize(&Trace::new());
        assert!(s.starts_with("trace: 0 records"));
        assert!(!s.contains("spans"));
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hc-bench-trace-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn stream_trace_agrees_with_the_full_parse() {
        let trace = demo_trace();
        let path = temp_path("stream");
        std::fs::write(&path, hc_obs::sink::jsonl::render(&trace)).expect("write temp trace");
        let mut records = Vec::new();
        let tail = stream_trace(&path, |r| records.push(r.clone())).expect("stream");
        let _ = std::fs::remove_file(&path);
        assert_eq!(records, trace.records);
        assert_eq!(tail.metrics, trace.metrics);
        assert_eq!(tail.machine, trace.machine);
        assert_eq!(tail.track_names, trace.track_names);
    }

    #[test]
    fn load_summary_sniffs_derived_json_and_raw_traces() {
        let raw = temp_path("raw");
        std::fs::write(&raw, hc_obs::sink::jsonl::render(&demo_trace())).expect("write raw");
        let derived_path = temp_path("derived");
        let derived = derive_summary(&raw).expect("derive");
        std::fs::write(&derived_path, derived.to_json()).expect("write derived");
        let from_raw = load_summary(&raw).expect("summary from raw trace");
        let from_json = load_summary(&derived_path).expect("summary from derived JSON");
        let _ = std::fs::remove_file(&raw);
        let _ = std::fs::remove_file(&derived_path);
        assert_eq!(from_raw.to_json(), from_json.to_json());
        assert!(from_raw.to_json().contains("sim/run"));
    }
}
