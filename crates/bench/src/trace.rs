//! `hc-bench trace` — load, summarize, analyze, and convert recorded
//! traces.
//!
//! An experiment run with `--trace PATH` writes an `hc-obs` JSONL trace;
//! this module turns that file back into numbers a human can read:
//!
//! * [`summarize`] — per-span aggregates (count / total / mean / max
//!   sim-time, from `DeriveAcc`), event counts, the metrics registry,
//!   and — when the run recorded the `metrics.*` counters — the paper's
//!   live throughput and ALP derived *from the trace alone*;
//! * [`stream_trace`] — fold a JSONL trace record by record without
//!   materializing the record vector; every analysis pass (`summary`,
//!   `critical-path`, `flame`, `timeseries`, `derive`, `diff` in the
//!   `hc-bench` binary) streams through it;
//! * [`load_trace`] — parse a JSONL trace file into a full [`Trace`],
//!   which only `export-chrome` needs;
//! * [`derive_summary`] / [`load_summary`] — the derived-metrics
//!   summary behind the CI trace-regression gate.
//!
//! Everything here reports **sim-time**; the only wall-clock numbers are
//! the machine-dependent stats, which are labelled as such.

use hc_core::GwapMetrics;
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

/// The paper's metrics derived from the `metrics.*` counters the
/// `ContributionLedger` mirrors into every trace, or `None` when the
/// run recorded no play time.
#[must_use]
fn live_gwap(metrics: &MetricsRegistry) -> Option<GwapMetrics> {
    let play_us = metrics.counter("metrics.play_us");
    (play_us > 0).then(|| {
        GwapMetrics::from_totals(
            metrics.counter("metrics.outputs"),
            play_us as f64 / 3_600_000_000.0,
            metrics.counter("metrics.players"),
        )
    })
}

/// Streams a JSONL trace into a human-readable summary.
///
/// # Errors
///
/// Propagates [`stream_trace`] failures.
pub fn summarize(path: &Path) -> Result<String, String> {
    let mut records = 0u64;
    let mut max_t_us = 0u64;
    let mut spans = DeriveAcc::new();
    let mut events: BTreeMap<(String, String), u64> = BTreeMap::new();
    let tail = stream_trace(path, |r| {
        records += 1;
        max_t_us = max_t_us.max(r.end_us());
        spans.add(r);
        if let RecordData::Event { target, name, .. } = &r.data {
            *events.entry((target.clone(), name.clone())).or_insert(0) += 1;
        }
    })?;

    let mut out = String::new();
    let _ = writeln!(out, "trace: {records} records over {max_t_us} sim-µs");

    if !spans.spans().is_empty() {
        let _ = writeln!(out, "\nspans (sim-time):");
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>14} {:>12} {:>12}",
            "target/name", "count", "total µs", "mean µs", "max µs"
        );
        for ((target, name), agg) in spans.spans() {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>14} {:>12.1} {:>12}",
                format!("{target}/{name}"),
                agg.count,
                agg.total_us,
                agg.total_us as f64 / agg.count as f64,
                agg.max_us
            );
        }
    }

    if !events.is_empty() {
        let _ = writeln!(out, "\nevents:");
        for ((target, name), n) in &events {
            let _ = writeln!(out, "  {:<28} {n:>8}", format!("{target}/{name}"));
        }
    }

    let metrics = &tail.metrics;
    if !metrics.counters().is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, v) in metrics.counters() {
            let _ = writeln!(out, "  {name:<28} {v:>12}");
        }
    }
    if !metrics.gauges().is_empty() {
        let _ = writeln!(out, "\ngauges (last / min / max):");
        for (name, g) in metrics.gauges() {
            let _ = writeln!(out, "  {name:<28} {:>10} / {} / {}", g.last, g.min, g.max);
        }
    }
    if !metrics.histograms().is_empty() {
        let _ = writeln!(out, "\nhistograms (count / mean / min / max):");
        for (name, h) in metrics.histograms() {
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

    if let Some(gwap) = live_gwap(metrics) {
        let _ = writeln!(out, "\nlive GWAP metrics (from counters):");
        let _ = writeln!(
            out,
            "  throughput {:.1}/human-hour   ALP {:.1} min   outputs {}   human-hours {:.2}   players {}",
            gwap.throughput_per_human_hour,
            gwap.alp_hours * 60.0,
            gwap.total_outputs,
            gwap.total_human_hours,
            gwap.player_count
        );
    }

    if !tail.machine.is_empty() {
        let _ = writeln!(out, "\nmachine-dependent stats (vary across runs/hosts):");
        for (name, v) in &tail.machine {
            let _ = writeln!(out, "  {name:<28} {v}");
        }
    }
    Ok(out)
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

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hc-bench-trace-{tag}-{}.jsonl", std::process::id()))
    }

    /// Writes `trace` to a temp file and summarizes it.
    fn summary_of(trace: &Trace, tag: &str) -> String {
        let path = temp_path(tag);
        std::fs::write(&path, hc_obs::sink::jsonl::render(trace)).expect("write temp trace");
        let summary = summarize(&path);
        let _ = std::fs::remove_file(&path);
        summary.expect("summarize")
    }

    #[test]
    fn live_gwap_derives_the_paper_metrics() {
        // 200 outputs over 2 human-hours by 2 players: throughput 100/h,
        // ALP 1 h — the ledger doctest's numbers, now read off the trace.
        let gwap = live_gwap(&demo_trace().metrics).expect("play time recorded");
        assert!((gwap.throughput_per_human_hour - 100.0).abs() < 1e-9);
        assert!((gwap.alp_hours - 1.0).abs() < 1e-9);
        assert_eq!(gwap.player_count, 2);
    }

    #[test]
    fn live_gwap_absent_without_play_time() {
        assert!(live_gwap(&MetricsRegistry::new()).is_none());
    }

    #[test]
    fn summary_mentions_every_section() {
        let s = summary_of(&demo_trace(), "sections");
        for needle in [
            "trace: 6 records over 6000 sim-µs",
            "spans (sim-time)",
            // count 2, total 6,000, mean 3,000.0, max 4,000.
            "sim/run                             2           6000       3000.0         4000",
            "events:",
            "core/pair",
            "counters:",
            "metrics.outputs",
            "live GWAP metrics",
            "throughput 100.0/human-hour   ALP 60.0 min",
            "machine-dependent",
            "par.workers",
        ] {
            assert!(s.contains(needle), "summary missing `{needle}`:\n{s}");
        }
    }

    #[test]
    fn summary_orders_span_rows_by_target_then_name() {
        // `sim.shard/a` sorts before `sim/z` as a joined string, but the
        // rows follow the (target, name) pair: `sim` before `sim.shard`.
        let ((), trace) = hc_obs::record_scope(0, || {
            hc_obs::span("sim.shard", "a", 0, 10, &[]);
            hc_obs::span("sim", "z", 0, 10, &[]);
        });
        let s = summary_of(&trace, "order");
        let (sim, shard) = (
            s.find("sim/z").expect("sim/z"),
            s.find("sim.shard/a").expect("sim.shard/a"),
        );
        assert!(sim < shard, "{s}");
    }

    #[test]
    fn empty_trace_summarizes_to_the_header_only() {
        let s = summary_of(&Trace::new(), "empty");
        assert!(s.starts_with("trace: 0 records"));
        assert!(!s.contains("spans"));
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
