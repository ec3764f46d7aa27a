//! `hc-analyze`: a self-contained static-analysis pass over the
//! workspace's Rust sources for the invariants that need data flow,
//! with `file:line` diagnostics.
//!
//! The pass has three layers (still no `syn`):
//!
//! 1. **Lexical** (`lex`): a character state machine splits every
//!    line into code and comment channels so rule text never matches
//!    inside string or comment content.
//! 2. **Item** ([`parse`]): a lightweight parser extracts functions
//!    (with parameters, impl/trait context, and exact body ranges) and
//!    structs (with typed fields).
//! 3. **Semantic** ([`graph`] + `rules`): parsed items feed a
//!    workspace-wide symbol graph; call edges resolved by name and
//!    argument count give the reachability sets that R1 runs on.
//!
//! # Rules
//!
//! | id | severity | scope | invariant |
//! |----|----------|-------|-----------|
//! | R1 | error | shard/task-reachable library code | every RNG derives from `indexed_stream`/`indexed_child`; no un-indexed sources, cloned streams, or struct-stored RNG state |
//! | R2 | warning | library crates | `DetMap`/`DetSet` insertion-order iteration must not flow into serialization, obs sinks, or `f64` accumulation — use `iter_sorted()` or a justified allow |
//! | P1 | error | library crates | no computed slice index (`xs[i - 1]`, `&w[..n - 3]`); use `.get()` or checked math |
//! | A1 | error | everywhere | `hc-analyze: allow(...)` must carry a justification |
//! | W1 | error | everywhere | an allow comment that no longer suppresses a live diagnostic is stale — the allowlist can only shrink |
//!
//! Library code is every crate in `LIBRARY_CRATES` plus the facade
//! `src/`, minus `#[cfg(test)]` modules.
//!
//! # Rules the compiler enforces
//!
//! The single-token rules are rustc and clippy lints, which tier-1
//! denies (`cargo clippy --workspace --all-targets -- -D warnings`).
//! "Library roots" are the ten crate roots above; each turns the lints
//! on with one `#![cfg_attr(not(test), warn(...))]`, so tool crates,
//! tests and `#[cfg(test)]` modules are exempt.
//!
//! | rule | lint | scope |
//! |------|------|-------|
//! | D1 no wall clock or OS environment | `clippy::disallowed_methods` / `disallowed_types` (`Instant::now`, `SystemTime`, `std::env::*` in `clippy.toml`) | library roots |
//! | D2 no `HashMap`/`HashSet` | `clippy::disallowed_types` | library roots |
//! | D3 threads only in `hc-sim::par` | `clippy::disallowed_methods` / `disallowed_types` (`std::thread`, mpsc, `crossbeam`) | library roots; `par::with_pool` carries the one `#[expect]` |
//! | O1 no console output | `clippy::print_stdout`, `print_stderr`, `dbg_macro` | library roots |
//! | P1 no panicking calls | `clippy::unwrap_used`, `expect_used`, `panic`, `todo`, `unimplemented`, `unreachable` | library roots |
//! | H1 no `unsafe` | `unsafe_code = "forbid"` | every crate (`[workspace.lints.rust]`) |
//! | H2 documented public items | `missing_docs` | hc-core and every root that warns on it |
//! | A1 justified `#[allow]` | `clippy::allow_attributes_without_reason` | every crate (`[workspace.lints.clippy]`) |
//! | W1 stale `#[allow]` | `#[expect(lint, reason = "…")]`, which fails through `unfulfilled_lint_expectations` | every crate |
//!
//! A finding of this pass is suppressed by a justified allow comment on
//! the same line or the line directly above:
//!
//! ```text
//! // hc-analyze: allow(P1): index is guarded by the `rank == 0` branch
//! let lo = self.cdf[rank - 1];
//! ```
//!
//! `hc-analyze check` fails on any finding, warning or error: a
//! justified allow is the one way to accept one.

pub mod graph;
mod lex;
pub mod parse;
mod rules;

use graph::SourceUnit;
use lex::{lex, LexedLine};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Library crates whose code must be deterministic and panic-free.
/// `hc-bench` and `hc-analyze` are tool crates: they may read the OS
/// environment and abort on broken invariants.
const LIBRARY_CRATES: [&str; 9] = [
    "sim",
    "collect",
    "core",
    "crowd",
    "games",
    "captcha",
    "aggregate",
    "obs",
    "serve",
];

/// Path fragments never scanned: external stand-ins, build output, VCS
/// metadata, and the analyzer's own seeded-violation fixtures.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

// ---------------------------------------------------------------------------
// Report model
// ---------------------------------------------------------------------------

/// How severe a diagnostic is. Both severities fail `hc-analyze check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// Invariant violation found line by line or on the symbol graph.
    Error,
    /// Flow finding (R2) that a sorted iteration or a justified allow
    /// resolves.
    Warning,
}

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Rule id (`R1`, `R2`, `P1`, `A1`, `W1`).
    pub rule: String,
    /// Error or warning.
    pub severity: Severity,
    /// Path relative to the scanned root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{kind}[{}] {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// The machine-readable result of one analysis run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Report {
    /// Every finding, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of violations suppressed by justified allow comments.
    pub allows_honored: usize,
}

impl Report {
    /// Count of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Count of warning-severity diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }
}

/// Whether a workspace-relative path (`/`-separated) is library source,
/// where R1, R2 and P1 apply. Tool crates, examples, tests and benches
/// are not; only allow-comment hygiene (A1, W1) applies there.
#[must_use]
pub fn is_library(rel_path: &str) -> bool {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("crates"), Some(name), Some("src")) => LIBRARY_CRATES.contains(&name),
        (Some("src"), Some(_), _) => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    justified: bool,
    /// Line the directive itself sits on (where A1/W1 anchor).
    line: usize,
    /// Code line the directive guards (its own line for trailing
    /// comments, the next code line for standalone ones; 0 when no
    /// code line follows).
    guard_line: usize,
    used: bool,
}

/// Parses every `hc-analyze: allow(<rule>)[: justification]` directive in
/// a comment.
fn parse_allows(comment: &str, line: usize) -> Vec<Allow> {
    const MARKER: &str = "hc-analyze: allow(";
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(start) = rest.find(MARKER) {
        let after = &rest[start + MARKER.len()..];
        let Some(close) = after.find(')') else { break };
        let rule = after[..close].trim().to_string();
        let tail = &after[close + 1..];
        let justified = tail.strip_prefix(':').is_some_and(|j| !j.trim().is_empty());
        allows.push(Allow {
            rule,
            justified,
            line,
            guard_line: line,
            used: false,
        });
        rest = tail;
    }
    allows
}

// ---------------------------------------------------------------------------
// P1: computed slice indexes
// ---------------------------------------------------------------------------

/// Detects indexing whose index expression contains arithmetic — the
/// classic out-of-bounds panic shape (`xs[i - 1]`, `&w[..n - 3]`). Plain
/// `xs[i]` loop indexing is deliberately out of scope, as are array
/// repeat literals (`[0u32; 2]`, which contain `;`).
fn has_computed_index(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (open, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        // Indexing requires a value expression directly before `[`.
        let is_index = open > 0
            && (matches!(bytes[open - 1], b')' | b']' | b'"' | b'_')
                || bytes[open - 1].is_ascii_alphanumeric());
        if !is_index {
            continue;
        }
        // `vec![` and attribute lines never reach here (`!` / `#` before `[`).
        let mut depth = 1;
        let mut j = open + 1;
        let mut has_arith = false;
        // Last non-space byte inside the brackets, to tell `a * b` from
        // the deref in `counts[*e]` (where `*` follows a delimiter).
        let mut prev = b'[';
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b';' => {
                    // Array repeat literal, not an index.
                    has_arith = false;
                    break;
                }
                b'+' | b'-' | b'/' => has_arith = true,
                b'*' => {
                    has_arith |= prev.is_ascii_alphanumeric() || matches!(prev, b'_' | b')' | b']');
                }
                _ => {}
            }
            if bytes[j] != b' ' {
                prev = bytes[j];
            }
            j += 1;
        }
        if has_arith && depth == 0 {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// File scan (phase 1: per-line findings + allow directives)
// ---------------------------------------------------------------------------

/// One candidate finding before allow resolution.
#[derive(Debug, Clone)]
pub(crate) struct Finding {
    pub(crate) rule: &'static str,
    pub(crate) severity: Severity,
    pub(crate) line: usize,
    pub(crate) message: String,
}

/// Everything phase 1 learns about one file.
struct FileScan {
    findings: Vec<Finding>,
    allows: Vec<Allow>,
    /// Per line: whether it sits inside a `#[cfg(test)]` module.
    test_lines: Vec<bool>,
}

/// Runs the per-line pass over one lexed file: `#[cfg(test)]` module
/// spans, P1 on library code outside them, and allow directives, which
/// are not yet resolved against the findings.
fn scan_file(lexed: &[LexedLine], library: bool) -> FileScan {
    let mut scan = FileScan {
        findings: Vec::new(),
        allows: Vec::new(),
        test_lines: vec![false; lexed.len()],
    };
    let mut pending_allows: Vec<Allow> = Vec::new();
    let mut depth: i64 = 0;
    let mut test_mod_depth: Option<i64> = None;
    let mut pending_cfg_test = false;

    for (idx, line) in lexed.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.trim();

        // Allow directives: a trailing comment guards its own line; a
        // standalone comment line guards the next code line. Doc comments
        // are prose (they may *mention* the syntax), never directives.
        let mut line_allows = if line.is_doc {
            Vec::new()
        } else {
            parse_allows(&line.comment, lineno)
        };
        if code.is_empty() && !line.comment.is_empty() {
            pending_allows.append(&mut line_allows);
            continue;
        }
        for mut a in pending_allows.drain(..) {
            a.guard_line = lineno;
            line_allows.push(a);
        }

        // Track #[cfg(test)] module spans: test code is not library code.
        let depth_before = depth;
        for b in line.code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        if test_mod_depth.is_some_and(|entry| depth <= entry) {
            test_mod_depth = None;
        }
        let in_test_mod = test_mod_depth.is_some();
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && (code.starts_with("mod ") || code.starts_with("pub mod ")) {
            if line.code.contains('{') {
                test_mod_depth = Some(depth_before);
            }
            pending_cfg_test = false;
        } else if !code.starts_with("#[") && !code.is_empty() {
            pending_cfg_test = false;
        }
        scan.test_lines[idx] = in_test_mod || test_mod_depth.is_some();

        if library && !in_test_mod && has_computed_index(&line.code) {
            scan.findings.push(Finding {
                rule: "P1",
                severity: Severity::Error,
                line: lineno,
                message:
                    "computed slice index can panic on an off-by-one; use `.get()`/checked math \
                          (or justify the bound with an allow)"
                        .to_string(),
            });
        }
        scan.allows.append(&mut line_allows);
    }
    // Trailing standalone allows with no code line after them guard
    // nothing (guard_line stays on the comment; nothing fires there).
    scan.allows.append(&mut pending_allows);
    scan
}

/// Resolves a file's findings against its allow directives (phase 2),
/// emitting final diagnostics: suppressions, A1 for unjustified-but-
/// firing allows, and W1 for stale ones.
fn resolve_file(rel_path: &str, mut scan: FileScan, report: &mut Report) {
    for finding in scan.findings {
        let allow = scan
            .allows
            .iter_mut()
            .find(|a| a.guard_line == finding.line && a.rule.eq_ignore_ascii_case(finding.rule));
        match allow {
            Some(a) if a.justified => {
                a.used = true;
                report.allows_honored += 1;
            }
            Some(a) => {
                a.used = true;
                let rule = finding.rule;
                report.diagnostics.push(Diagnostic {
                    rule: "A1".to_string(),
                    severity: Severity::Error,
                    path: rel_path.to_string(),
                    line: a.line,
                    message: format!(
                        "allow({rule}) requires a justification: `// hc-analyze: allow({rule}): <why this is sound>`"
                    ),
                });
            }
            None => report.diagnostics.push(Diagnostic {
                rule: finding.rule.to_string(),
                severity: finding.severity,
                path: rel_path.to_string(),
                line: finding.line,
                message: finding.message,
            }),
        }
    }
    // W1: stale allows — directives that no longer suppress a live
    // diagnostic are errors, so the allowlist can only shrink.
    for allow in scan.allows.into_iter().filter(|a| !a.used) {
        report.diagnostics.push(Diagnostic {
            rule: "W1".to_string(),
            severity: Severity::Error,
            path: rel_path.to_string(),
            line: allow.line,
            message: format!(
                "stale allow({}) — no live diagnostic on the guarded line; delete the comment (the allowlist only shrinks)",
                allow.rule
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Whole-pass drivers
// ---------------------------------------------------------------------------

/// Runs the full pass (per-line rules, symbol graph, semantic rules,
/// allow resolution) over in-memory sources given as
/// `(workspace-relative path, source text)` pairs. The symbol graph
/// spans exactly these files.
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> Report {
    let mut report = Report::default();
    let mut units: Vec<SourceUnit> = Vec::with_capacity(files.len());
    let mut scans: Vec<FileScan> = Vec::with_capacity(files.len());
    let mut library: Vec<bool> = Vec::with_capacity(files.len());
    for (rel_path, source) in files {
        let lexed = lex(source);
        let lib = is_library(rel_path);
        library.push(lib);
        scans.push(scan_file(&lexed, lib));
        units.push(SourceUnit {
            rel_path: rel_path.clone(),
            code: lexed.iter().map(|l| l.code.clone()).collect(),
            parsed: parse::parse_items(&lexed),
        });
    }
    let test_lines: Vec<Vec<bool>> = scans.iter().map(|s| s.test_lines.clone()).collect();
    for (fi, finding) in rules::semantic_findings(&units, &library, &test_lines) {
        scans[fi].findings.push(finding);
    }
    for (unit, scan) in units.iter().zip(scans) {
        resolve_file(&unit.rel_path, scan, &mut report);
    }
    report.files_scanned = files.len();
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Recursively collects every `.rs` file under `root`, skipping
/// `SKIP_DIRS` (vendored, build, VCS and fixture trees) and nested workspaces, sorted for deterministic reports.
///
/// # Errors
///
/// Returns an IO error message if a directory cannot be read.
pub fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref())
                    && !name.starts_with('.')
                    && !is_nested_workspace(&path)
                {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `true` when `dir` holds a `Cargo.toml` declaring a `[workspace]` of
/// its own. Such a directory is a separate build (a benchmark package,
/// say) that only reaches this workspace through path dependencies, so
/// its code is not analyzed as part of it — for the same reason
/// `vendor/` is not.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|manifest| {
        manifest.lines().any(|line| {
            let line = line.trim();
            line == "[workspace]" || line.starts_with("[workspace.")
        })
    })
}

/// Runs the full pass over a workspace root.
///
/// # Errors
///
/// Returns an error message when the tree cannot be walked or a source
/// file cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        files.push((rel, source));
    }
    Ok(analyze_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-core library path: every rule applies.
    const LIB: &str = "crates/games/src/t.rs";

    fn run(source: &str, rel_path: &str) -> Report {
        analyze_sources(&[(rel_path.to_string(), source.to_string())])
    }

    fn rules(report: &Report) -> Vec<(&str, usize)> {
        report
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect()
    }

    #[test]
    fn p1_flags_computed_indexing() {
        let r = run("fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] }\n", LIB);
        assert_eq!(rules(&r), vec![("P1", 1)]);
        // Plain loop indexing and repeat literals are in-scope idioms.
        let r = run(
            "fn f(xs: &[u32], i: usize) -> u32 { xs[i] + [0u32; 2][0] }\n",
            LIB,
        );
        assert_eq!(rules(&r), vec![]);
        // A deref index is not arithmetic; a real product is.
        let r = run(
            "fn f(m: &mut [u32], e: &usize, c: usize) { m[*e % c] += 1; }\n",
            LIB,
        );
        assert_eq!(rules(&r), vec![]);
        let r = run(
            "fn f(xs: &[u32], i: usize, w: usize) -> u32 { xs[i * w] }\n",
            LIB,
        );
        assert_eq!(rules(&r), vec![("P1", 1)]);
        // Tool crates may index as they like.
        let r = run(
            "fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] }\n",
            "crates/bench/src/t.rs",
        );
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn strings_and_comments_never_match() {
        let r = run(
            "fn f() -> &'static str { \"index xs[i - 1] of a slice\" }\n",
            LIB,
        );
        assert_eq!(rules(&r), vec![]);
        let r = run("// mentions xs[i - 1]\nfn f() {}\n", LIB);
        assert_eq!(rules(&r), vec![]);
        let r = run("/// doc example: `xs[i - 1]`\nfn f() {}\n", LIB);
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_library_rules() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let xs = [1, 2]; let _ = xs[2 - 1]; }
}
fn more_lib(xs: &[u32], n: usize) -> u32 { xs[n - 1] }
";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![("P1", 7)]);
    }

    #[test]
    fn justified_allow_suppresses_and_counts() {
        let src = "\
// hc-analyze: allow(P1): the index is guarded one line up
fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] }
";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![]);
        assert_eq!(r.allows_honored, 1);
        // Trailing same-line form.
        let src = "fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] } // hc-analyze: allow(P1): checked by caller\n";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn unjustified_allow_is_an_error() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] } // hc-analyze: allow(P1)\n";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![("A1", 1)]);
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn stale_allow_is_a_w1_error() {
        let src = "// hc-analyze: allow(P1): nothing here actually indexes\nfn f() {}\n";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![("W1", 1)]);
        assert_eq!(r.error_count(), 1);
        // Allow hygiene covers tool crates too.
        let r = run(src, "crates/bench/src/t.rs");
        assert_eq!(rules(&r), vec![("W1", 1)]);
    }

    #[test]
    fn r1_flags_unindexed_rng_in_shard_reachable_code() {
        let src = "\
pub struct Camp { factory: RngFactory }
impl ShardWorkload for Camp {
    fn shard_step(&self, sid: u32) -> u64 {
        let mut rng = self.factory.stream(\"bad\");
        helper(&mut rng)
    }
    fn hub_step(&mut self) -> u64 {
        let mut rng = self.factory.stream(\"hub-ok\");
        rng.gen()
    }
}
fn helper(rng: &mut SimRng) -> u64 { rng.gen() }
";
        let report = run(src, "crates/games/src/shard.rs");
        // Only the shard_step stream fires; hub_step is behind the barrier.
        assert_eq!(rules(&report), vec![("R1", 4)]);
    }

    #[test]
    fn r1_flags_cloned_and_struct_stored_rngs() {
        let src = "\
pub struct Camp { task_rng: SimRng }
impl ShardWorkload for Camp {
    fn shard_step(&self, sid: u32) -> u64 {
        let mut rng = self.task_rng.clone();
        rng.gen()
    }
}
";
        let report = run(src, "crates/games/src/shard.rs");
        // Line 4 carries both the struct-stored use and the clone; the
        // dedup keeps one R1 per (line, rule).
        assert_eq!(rules(&report), vec![("R1", 4)]);
    }

    #[test]
    fn r1_accepts_indexed_streams() {
        let src = "\
pub struct Camp { factory: RngFactory }
impl ShardWorkload for Camp {
    fn shard_step(&self, sid: u32) -> u64 {
        let mut rng = self.factory.indexed_stream(\"shard.session\", u64::from(sid));
        rng.gen()
    }
}
";
        let report = run(src, "crates/games/src/shard.rs");
        assert_eq!(rules(&report), vec![]);
    }

    #[test]
    fn r2_flags_insertion_order_iteration_into_a_sink() {
        let src = "\
pub struct Board { scores: DetMap<String, u64> }
impl Board {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.scores.iter() {
            out.push_str(&format!(\"{k}={v}\\n\"));
        }
        out
    }
}
";
        let report = run(src, "crates/games/src/board.rs");
        assert_eq!(rules(&report), vec![("R2", 5)]);
        assert_eq!(report.error_count(), 0, "R2 is warning severity");
    }

    #[test]
    fn r2_accepts_sorted_iteration_and_sink_free_flows() {
        let src = "\
pub struct Board { scores: DetMap<String, u64> }
impl Board {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.scores.iter_sorted() {
            out.push_str(&format!(\"{k}={v}\\n\"));
        }
        out
    }
    pub fn total(&self) -> u64 {
        self.scores.values().sum()
    }
}
";
        let report = run(src, "crates/games/src/board.rs");
        assert_eq!(rules(&report), vec![]);
    }

    #[test]
    fn r2_sees_multi_line_method_chains() {
        let src = "\
pub struct Board { scores: DetMap<String, u64> }
impl Board {
    pub fn render(&self) -> String {
        let joined: String = self.scores
            .iter()
            .map(|(k, v)| format!(\"{k}={v};\"))
            .collect();
        joined
    }
}
";
        let report = run(src, "crates/games/src/board.rs");
        assert_eq!(rules(&report), vec![("R2", 4)]);
    }

    #[test]
    fn r2_taint_tracks_let_bindings_until_sorted() {
        // Collect-then-sort is the sanctioned pattern: no finding.
        let src = "\
pub struct Board { scores: DetMap<String, u64> }
impl Board {
    pub fn rows(&self) -> Vec<String> {
        let mut rows: Vec<_> = self.scores.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows.iter().map(|(k, v)| format!(\"{k}={v}\")).collect()
    }
}
";
        let report = run(src, "crates/games/src/board.rs");
        assert_eq!(rules(&report), vec![]);
        // Without the sort, the formatted use of the binding fires.
        let src = src.replace("        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));\n", "");
        let report = run(&src, "crates/games/src/board.rs");
        assert_eq!(rules(&report), vec![("R2", 5)]);
    }

    #[test]
    fn library_paths_are_the_library_crates_and_the_facade() {
        for lib in [
            "crates/core/src/jobs.rs",
            "crates/sim/src/rng.rs",
            "crates/obs/src/collector.rs",
            "crates/serve/src/service.rs",
            "src/lib.rs",
        ] {
            assert!(is_library(lib), "{lib}");
        }
        for other in [
            "crates/serve/tests/lifecycle.rs",
            "crates/bench/src/lib.rs",
            "crates/analyze/src/main.rs",
            "crates/sim/tests/props.rs",
            "crates/bench/benches/b.rs",
            "tests/properties.rs",
            "examples/quickstart.rs",
        ] {
            assert!(!is_library(other), "{other}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run("fn f(xs: &[u32], i: usize) -> u32 { xs[i - 1] }\n", LIB);
        let json = serde_json::to_string(&report).expect("serialize");
        let back: Report = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
