//! CLI for `hc-analyze`:
//! `cargo run -p hc-analyze -- check [--json] [--root PATH]`.
//!
//! Exit status is 0 when no diagnostic fires, 1 when any does (error or
//! warning alike: a justified inline allow is the one way to accept a
//! finding), 2 on usage or IO problems. `hc-analyze` is a tool crate, so
//! it may read `std::env`, which clippy forbids in library code.

use hc_analyze::analyze_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: hc-analyze check [--json] [--root PATH]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut command: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "check" if command.is_none() => command = Some(arg),
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if command.as_deref() != Some("check") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    // Default root: the workspace directory two levels above this crate
    // at build time, falling back to the current directory (covers both
    // `cargo run -p hc-analyze` and a copied binary run from the root).
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map_or_else(|| PathBuf::from("."), PathBuf::from)
    });

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hc-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("hc-analyze: serialize report: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "hc-analyze: {} files, {} errors, {} warnings, {} allows honored",
            report.files_scanned,
            report.error_count(),
            report.warning_count(),
            report.allows_honored
        );
    }

    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
