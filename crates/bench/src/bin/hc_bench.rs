//! `hc-bench` — bench-JSON tooling for CI.
//!
//! ```text
//! hc-bench compare --determinism A.json B.json
//! hc-bench compare --baseline BASE.json --current CUR.json \
//!                  [--max-slowdown X] [--min-speedup Y] [--max-p99-slowdown Z]
//! hc-bench compare --sweep-threads 1,2,4,8 --out OUT.json -- CMD [ARGS...]
//! hc-bench trace summary TRACE.jsonl
//! hc-bench trace critical-path TRACE.jsonl [--top-frames N] [--json]
//! hc-bench trace flame TRACE.jsonl [--top N]
//! hc-bench trace timeseries TRACE.jsonl [--window US] [--json]
//! hc-bench trace derive TRACE.jsonl [OUT.json]
//! hc-bench trace diff BASELINE CURRENT [--max-rel X] [--json]
//! hc-bench trace export-chrome TRACE.jsonl OUT.json
//! ```
//!
//! * `--determinism` verifies that the deterministic sections of two
//!   bench JSONs (same grid at different `--threads`) are identical;
//! * `--baseline/--current` compares timing: `--max-slowdown X` fails
//!   when the calibration-normalized current run is more than `X`×
//!   slower than the baseline (machine-portable, for committed
//!   baselines); `--min-speedup Y` fails when the raw wall-clock
//!   speedup of current over baseline is below `Y` (same-machine, for
//!   `--threads 1` vs `--threads N` runs); `--max-p99-slowdown Z` fails
//!   when the calibration-normalized p99 request latency (from the
//!   `hc-load` harness's `timing.latency` section) is more than `Z`×
//!   the baseline's;
//! * `--sweep-threads` runs the *same* experiment command once per
//!   thread count (appending `--threads N --bench-json TMP` to `CMD`),
//!   verifies every run's deterministic sections agree, and writes one
//!   merged JSON whose `sweep` array holds per-thread-count timing and
//!   the speedup over the first count — the scaling curve in one file;
//! * `trace summary` prints the sim-time span/counter summary of a
//!   recorded trace (from an experiment's `--trace PATH`);
//! * `trace critical-path` prints the longest sim-time chain through
//!   the span tree with per-target self-time attribution;
//!   `--top-frames N` lists only the N hottest steps by self time,
//!   `--json` emits the deterministic `hc-trace-critical-path-v1`
//!   document CI parses for the hub-fraction record;
//! * `trace flame` prints flamegraph folded stacks (or, with
//!   `--top N`, the N hottest frames by self time);
//! * `trace timeseries` prints windowed counter/gauge/histogram
//!   aggregates over sim-time (text or `--json`);
//! * `trace derive` writes the derived-metrics summary JSON — the
//!   deterministic document the CI trace gate freezes and ratchets;
//! * `trace diff` compares two derived summaries (either summary JSONs
//!   or raw traces, sniffed) against a relative threshold and exits 1
//!   on regression — the trace gate's teeth;
//! * `trace export-chrome` converts a trace to Chrome trace-event JSON
//!   loadable in Perfetto or `chrome://tracing`.
//!
//! Every trace subcommand but `export-chrome` streams the JSONL input
//! record by record, so million-record traces never materialize in
//! memory; `export-chrome` is the one pass that reads a whole file.
//!
//! Exit status: 0 pass, 1 check failed, 2 usage/IO error.

use hc_bench::compare::{
    determinism_diff, load_bench_json, merge_sweep, p99_compare, perf_compare,
};
use hc_bench::trace::{derive_summary, load_summary, load_trace, stream_trace, summarize};
use hc_obs::analyze::{self, DeriveAcc, SpanTree, TimeSeriesAcc, TreeBuilder};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: hc-bench compare --determinism A B
       hc-bench compare --baseline BASE --current CUR [--max-slowdown X] [--min-speedup Y] [--max-p99-slowdown Z]
       hc-bench compare --sweep-threads 1,2,4,8 --out OUT -- CMD [ARGS...]
       hc-bench trace summary TRACE
       hc-bench trace critical-path TRACE [--top-frames N] [--json]
       hc-bench trace flame TRACE [--top N]
       hc-bench trace timeseries TRACE [--window US] [--json]
       hc-bench trace derive TRACE [OUT]
       hc-bench trace diff BASELINE CURRENT [--max-rel X] [--json]
       hc-bench trace export-chrome TRACE OUT";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

fn io_error(e: &str) -> ExitCode {
    eprintln!("hc-bench: {e}");
    ExitCode::from(2)
}

/// Streams a trace file into its span tree.
fn build_tree(path: &Path) -> Result<SpanTree, String> {
    let mut builder = TreeBuilder::new();
    stream_trace(path, |r| builder.add(r))?;
    Ok(builder.finish())
}

fn trace_command(args: &[String]) -> ExitCode {
    let Some((cmd, rest)) = args.split_first() else {
        return usage_error("expected a trace subcommand");
    };
    match (cmd.as_str(), rest) {
        ("summary", [path]) => match summarize(Path::new(path)) {
            Ok(summary) => {
                print!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => io_error(&e),
        },
        ("critical-path", [path, flags @ ..]) => {
            let mut top: Option<usize> = None;
            let mut json = false;
            let mut it = flags.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--top-frames" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                        Some(n) if n > 0 => top = Some(n),
                        _ => return usage_error("--top-frames requires a positive count"),
                    },
                    "--json" => json = true,
                    other => return usage_error(&format!("unknown critical-path flag `{other}`")),
                }
            }
            match build_tree(Path::new(path)) {
                Ok(tree) => {
                    if json {
                        print!("{}", analyze::critical_path_json(&tree, top));
                    } else {
                        match top {
                            Some(n) => print!("{}", analyze::render_critical_path_top(&tree, n)),
                            None => print!("{}", analyze::render_critical_path(&tree)),
                        }
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => io_error(&e),
            }
        }
        ("flame", [path, flags @ ..]) => {
            let top = match flags {
                [] => None,
                [flag, n] if flag == "--top" => match n.parse::<usize>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return usage_error("--top requires a positive count"),
                },
                _ => return usage_error("expected `trace flame TRACE [--top N]`"),
            };
            let rendered = match top {
                Some(n) => {
                    let mut acc = DeriveAcc::new();
                    stream_trace(Path::new(path), |r| acc.add(r))
                        .map(|_| analyze::render_flame_top(&acc, n))
                }
                None => build_tree(Path::new(path)).map(|tree| analyze::render_folded(&tree)),
            };
            match rendered {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => io_error(&e),
            }
        }
        ("timeseries", [path, flags @ ..]) => {
            let mut window_us = 60_000_000u64;
            let mut json = false;
            let mut it = flags.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--window" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                        Some(w) if w > 0 => window_us = w,
                        _ => return usage_error("--window requires a positive sim-µs length"),
                    },
                    "--json" => json = true,
                    other => return usage_error(&format!("unknown timeseries flag `{other}`")),
                }
            }
            let mut acc = TimeSeriesAcc::new(window_us);
            match stream_trace(Path::new(path), |r| acc.add(r)) {
                Ok(_) => {
                    if json {
                        print!("{}", acc.render_json());
                    } else {
                        print!("{}", acc.render_text());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => io_error(&e),
            }
        }
        ("derive", [path, out @ ..]) if out.len() <= 1 => match derive_summary(Path::new(path)) {
            Ok(derived) => {
                let doc = derived.to_json();
                match out.first() {
                    Some(out) => {
                        if let Err(e) = std::fs::write(out, doc) {
                            return io_error(&format!("write {out}: {e}"));
                        }
                        println!("derived summary written to {out}");
                    }
                    None => print!("{doc}"),
                }
                ExitCode::SUCCESS
            }
            Err(e) => io_error(&e),
        },
        ("diff", [base, cur, flags @ ..]) => {
            let mut max_rel = 0.0f64;
            let mut json = false;
            let mut it = flags.iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--max-rel" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                        Some(x) if x >= 0.0 => max_rel = x,
                        _ => return usage_error("--max-rel requires a non-negative number"),
                    },
                    "--json" => json = true,
                    other => return usage_error(&format!("unknown diff flag `{other}`")),
                }
            }
            let (baseline, current) =
                match (load_summary(Path::new(base)), load_summary(Path::new(cur))) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(e), _) | (_, Err(e)) => return io_error(&e),
                };
            let report = analyze::diff(&baseline, &current, max_rel);
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        ("export-chrome", [input, output]) => {
            let trace = match load_trace(Path::new(input)) {
                Ok(t) => t,
                Err(e) => return io_error(&e),
            };
            let rendered = hc_obs::sink::chrome::render(&trace);
            if let Err(e) = std::fs::write(output, rendered) {
                return io_error(&format!("write {output}: {e}"));
            }
            println!("chrome trace written to {output}");
            ExitCode::SUCCESS
        }
        _ => usage_error("unknown trace subcommand or arguments"),
    }
}

/// Runs `command` once per thread count, appending
/// `--threads N --bench-json TMP`, and merges the per-run JSONs.
fn sweep_threads(counts: &[usize], out: &Path, command: &[String]) -> ExitCode {
    let Some((program, base_args)) = command.split_first() else {
        return usage_error("--sweep-threads needs a command after `--`");
    };
    let mut runs = Vec::with_capacity(counts.len());
    for &threads in counts {
        let tmp = out.with_extension(format!("t{threads}.tmp.json"));
        eprintln!("sweep: {program} --threads {threads}");
        let status = std::process::Command::new(program)
            .args(base_args)
            .arg("--threads")
            .arg(threads.to_string())
            .arg("--bench-json")
            .arg(&tmp)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("hc-bench: `{program}` at --threads {threads} exited with {s}");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("hc-bench: spawn `{program}`: {e}");
                return ExitCode::from(2);
            }
        }
        let loaded = load_bench_json(&tmp);
        let _ = std::fs::remove_file(&tmp);
        match loaded {
            Ok(v) => runs.push((threads, v)),
            Err(e) => {
                eprintln!("hc-bench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let merged = match merge_sweep(&runs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("SWEEP FAILED: {e}");
            return ExitCode::from(1);
        }
    };
    if let Err(e) = std::fs::write(out, merged.to_string() + "\n") {
        eprintln!("hc-bench: write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    for (threads, run) in &runs {
        let wall = run
            .get("timing")
            .and_then(|t| t.get("total_wall_secs"))
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(f64::NAN);
        println!("threads={threads}: {wall:.3}s wall");
    }
    println!(
        "sweep OK: {} thread counts, every result byte identical; merged JSON written to {}",
        runs.len(),
        out.display()
    );
    ExitCode::SUCCESS
}

fn parse_thread_counts(raw: &str) -> Option<Vec<usize>> {
    let counts: Vec<usize> = raw
        .split(',')
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .ok()?;
    (!counts.is_empty() && counts.iter().all(|&c| c >= 1)).then_some(counts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return trace_command(&args[1..]);
    }
    if args.first().map(String::as_str) != Some("compare") {
        return usage_error("expected the `compare` or `trace` subcommand");
    }

    let mut determinism: Vec<PathBuf> = Vec::new();
    let mut sweep_counts: Option<Vec<usize>> = None;
    let mut out: Option<PathBuf> = None;
    let mut command: Vec<String> = Vec::new();
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut max_slowdown: Option<f64> = None;
    let mut min_speedup: Option<f64> = None;
    let mut max_p99_slowdown: Option<f64> = None;

    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sweep-threads" => {
                match it.next().map(String::as_str).and_then(parse_thread_counts) {
                    Some(c) => sweep_counts = Some(c),
                    None => {
                        return usage_error("--sweep-threads requires a comma-separated count list")
                    }
                }
            }
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage_error("--out requires a path"),
            },
            "--" => {
                command = it.cloned().collect();
                break;
            }
            "--determinism" => {
                let (Some(a), Some(b)) = (it.next(), it.next()) else {
                    return usage_error("--determinism requires two paths");
                };
                determinism = vec![PathBuf::from(a), PathBuf::from(b)];
            }
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => return usage_error("--baseline requires a path"),
            },
            "--current" => match it.next() {
                Some(p) => current = Some(PathBuf::from(p)),
                None => return usage_error("--current requires a path"),
            },
            "--max-slowdown" => match it.next().and_then(|v| v.parse().ok()) {
                Some(x) => max_slowdown = Some(x),
                None => return usage_error("--max-slowdown requires a number"),
            },
            "--min-speedup" => match it.next().and_then(|v| v.parse().ok()) {
                Some(x) => min_speedup = Some(x),
                None => return usage_error("--min-speedup requires a number"),
            },
            "--max-p99-slowdown" => match it.next().and_then(|v| v.parse().ok()) {
                Some(x) => max_p99_slowdown = Some(x),
                None => return usage_error("--max-p99-slowdown requires a number"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(counts) = sweep_counts {
        let Some(out) = out else {
            return usage_error("--sweep-threads requires --out PATH");
        };
        return sweep_threads(&counts, &out, &command);
    }

    if let [a, b] = determinism.as_slice() {
        let (va, vb) = match (load_bench_json(a), load_bench_json(b)) {
            (Ok(va), Ok(vb)) => (va, vb),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("hc-bench: {e}");
                return ExitCode::from(2);
            }
        };
        return match determinism_diff(&va, &vb) {
            Ok(()) => {
                println!(
                    "determinism OK: {} and {} agree on every result byte",
                    a.display(),
                    b.display()
                );
                ExitCode::SUCCESS
            }
            Err(diff) => {
                eprintln!("DETERMINISM BROKEN: {diff}");
                ExitCode::from(1)
            }
        };
    }

    let (Some(base_path), Some(cur_path)) = (baseline, current) else {
        return usage_error("need either --determinism A B or --baseline/--current");
    };
    let (base, cur) = match (load_bench_json(&base_path), load_bench_json(&cur_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("hc-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let perf = match perf_compare(&base, &cur) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hc-bench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "baseline {:.3}s ({:.1} cal units)   current {:.3}s ({:.1} cal units)",
        perf.baseline_secs, perf.baseline_norm, perf.current_secs, perf.current_norm
    );
    println!(
        "normalized slowdown {:.3}x   raw speedup {:.2}x",
        perf.slowdown, perf.speedup
    );
    println!(
        "JSON: {{\"baseline_secs\":{},\"current_secs\":{},\"baseline_norm\":{},\"current_norm\":{},\"slowdown\":{},\"speedup\":{}}}",
        perf.baseline_secs,
        perf.current_secs,
        perf.baseline_norm,
        perf.current_norm,
        perf.slowdown,
        perf.speedup
    );

    let mut failed = false;
    if let Some(limit) = max_slowdown {
        if perf.slowdown > limit {
            eprintln!(
                "PERF REGRESSION: normalized slowdown {:.3}x exceeds the {limit}x budget",
                perf.slowdown
            );
            failed = true;
        } else {
            println!("slowdown within the {limit}x budget");
        }
    }
    if let Some(floor) = min_speedup {
        if perf.speedup < floor {
            eprintln!(
                "SPEEDUP TOO LOW: {:.2}x is below the required {floor}x",
                perf.speedup
            );
            failed = true;
        } else {
            println!("speedup meets the {floor}x floor");
        }
    }
    if let Some(limit) = max_p99_slowdown {
        match p99_compare(&base, &cur) {
            Ok(slowdown) => {
                if slowdown > limit {
                    eprintln!(
                        "P99 LATENCY REGRESSION: normalized p99 slowdown {slowdown:.3}x exceeds the {limit}x budget"
                    );
                    failed = true;
                } else {
                    println!("p99 slowdown {slowdown:.3}x within the {limit}x budget");
                }
            }
            Err(e) => {
                eprintln!("hc-bench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
