//! `hc-analyze`: a self-contained static-analysis pass over the
//! workspace's Rust sources, enforcing the project's determinism and
//! panic-safety invariants with `file:line` diagnostics.
//!
//! The pass has three layers (still no `syn`):
//!
//! 1. **Lexical** (`lex`): a character state machine splits every
//!    line into code and comment channels so rule text never matches
//!    inside string or comment content.
//! 2. **Item** ([`parse`]): a lightweight parser extracts functions
//!    (with parameters, impl/trait context, and exact body ranges),
//!    structs (with typed fields), and `use` imports.
//! 3. **Semantic** ([`graph`] + `rules`): parsed items feed a
//!    workspace-wide symbol graph; name-resolved call edges give the
//!    reachability sets that the flow-aware rules (R1, R2) run on.
//!
//! # Rules
//!
//! | id | severity | scope | invariant |
//! |----|----------|-------|-----------|
//! | D1 | error | library crates | no wall-clock / OS entropy (`SystemTime`, `Instant::now`, `thread_rng`, `rand::random`, `std::env`) |
//! | D2 | error | library crates | no `HashMap`/`HashSet` (iteration-order nondeterminism); use `hc_collect::DetMap`/`DetSet` or `BTreeMap`/`BTreeSet` |
//! | D3 | error | library crates | no ad-hoc threading (`std::thread`, `crossbeam`, mpsc channels) outside `hc-sim::par` — all parallelism, the sharded engine's included, goes through its one worker pool |
//! | P1 | error | library crates | no `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!`/`unreachable!` or computed-index slicing |
//! | O1 | error | library crates | no `println!`/`eprintln!`/`dbg!` — library code emits through `hc-obs`; only the `hc-obs` sink modules may write output |
//! | H1 | error | whole workspace | no `unsafe` code |
//! | H2 | error | `hc-core` | every `pub` item carries a doc comment |
//! | R1 | error | shard/task-reachable code | every RNG derives from `indexed_stream`/`indexed_child`; no un-indexed sources, cloned streams, or struct-stored RNG state |
//! | R2 | warning | library crates | `DetMap`/`DetSet` insertion-order iteration must not flow into serialization, obs sinks, or `f64` accumulation — use `iter_sorted()` or a justified allow |
//! | A1 | error | everywhere | `hc-analyze: allow(...)` must carry a justification |
//! | W1 | error | everywhere | an allow comment that no longer suppresses a live diagnostic is stale — the allowlist can only shrink |
//!
//! Path-based exemptions: the one worker pool (`hc-sim::par`) is
//! exempt from D3, the `hc-obs` sink
//! modules from O1, and the `hc-serve` socket front shim
//! ([`serve_front_exempt`]) from D1/D3/O1 — it sits outside the
//! determinism boundary by design. The `hc-serve` service core is a
//! library crate under the full rule set.
//!
//! A violation is suppressed by a justified allow comment on the same
//! line or the line directly above:
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
    /// Rule id (`D1`, `D2`, `D3`, `P1`, `O1`, `H1`, `H2`, `R1`, `R2`,
    /// `A1`, `W1`).
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

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// What rule set applies to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source: all rules apply.
    Library {
        /// Whether this file belongs to `hc-core` (enables H2).
        core: bool,
    },
    /// Tool/example source (`hc-bench`, `hc-analyze`, `examples/`):
    /// only H1 applies.
    Tool,
    /// Test/bench source: only H1 applies.
    Test,
}

/// Classifies a workspace-relative path (`/`-separated).
#[must_use]
pub fn classify(rel_path: &str) -> FileKind {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.first() {
        Some(&"crates") if parts.len() >= 3 => {
            let crate_name = parts[1];
            let section = parts[2];
            if section == "tests" || section == "benches" {
                FileKind::Test
            } else if LIBRARY_CRATES.contains(&crate_name) {
                FileKind::Library {
                    core: crate_name == "core",
                }
            } else {
                FileKind::Tool
            }
        }
        Some(&"src") => FileKind::Library { core: false },
        Some(&"tests") | Some(&"benches") => FileKind::Test,
        _ => FileKind::Tool,
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
// Rule checks (per code-only line)
// ---------------------------------------------------------------------------

const D1_TOKENS: [&str; 5] = [
    "SystemTime",
    "Instant::now",
    "thread_rng",
    "rand::random",
    "std::env",
];

/// D3: threading primitives. Library crates must not spawn threads or
/// pass work over channels themselves — `hc-sim::par` is the single
/// sanctioned parallelism layer (its determinism contract depends on
/// owning every fan-out/merge), so only [`d3_exempt`] paths may use
/// these.
const D3_TOKENS: [&str; 4] = ["std::thread", "thread::spawn", "crossbeam", "mpsc::"];

/// Paths allowed to use threading primitives: the one run-long worker
/// pool (`hc-sim::par`), as a single file or a module directory. It owns
/// the determinism contract (index-ordered merge) that makes parallelism
/// byte-invariant, which is exactly what D3 exists to protect; the
/// sharded engine (`hc-sim::shard`) and everything else route through
/// it.
#[must_use]
pub fn d3_exempt(rel_path: &str) -> bool {
    rel_path == "crates/sim/src/par.rs" || rel_path.starts_with("crates/sim/src/par/")
}

/// The `hc-serve` socket front shim: the one sanctioned crossing of the
/// determinism boundary. It blocks on real sockets, so wall-clock,
/// threads, and stderr diagnostics are unavoidable there — D1, D3, and
/// O1 are waived for this path only. The service core
/// (`crates/serve/src/service.rs`, `wire.rs`) gets no such pass: every
/// decision it makes must replay byte-for-byte from the request log.
#[must_use]
pub fn serve_front_exempt(rel_path: &str) -> bool {
    rel_path == "crates/serve/src/front.rs" || rel_path.starts_with("crates/serve/src/front/")
}

/// O1: direct console output. Library code must emit structured
/// records through `hc-obs` (or return data) rather than printing;
/// stray prints corrupt the experiment binaries' `JSON:` stdout
/// protocol and hide information from the trace tooling. `eprintln!(`
/// is listed before `println!(` so the diagnostic names the token that
/// actually appears (the latter is a substring of the former).
const O1_TOKENS: [&str; 3] = ["eprintln!(", "println!(", "dbg!("];

/// Paths allowed to produce output directly: the `hc-obs` sink modules,
/// the one sanctioned boundary between recorded traces and the outside
/// world.
#[must_use]
pub fn o1_exempt(rel_path: &str) -> bool {
    rel_path.starts_with("crates/obs/src/sink")
}

const P1_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "todo!(",
    "unimplemented!(",
    "unreachable!(",
];

fn check_d1(code: &str) -> Option<String> {
    D1_TOKENS
        .iter()
        .find(|t| code.contains(*t))
        .map(|t| format!("`{t}` introduces wall-clock time or OS entropy; library code must stay deterministic (seeded RNG + SimTime only)"))
}

fn check_d2(code: &str) -> Option<String> {
    ["HashMap", "HashSet"]
        .iter()
        .find(|t| code.contains(*t))
        .map(|t| format!("`{t}` has nondeterministic iteration order; use `hc_collect::DetMap`/`DetSet` or `BTreeMap`/`BTreeSet` (or justify with an allow if provably never iterated)"))
}

fn check_d3(code: &str) -> Option<String> {
    D3_TOKENS
        .iter()
        .find(|t| code.contains(*t))
        .map(|t| format!("`{t}` spawns threads or channels outside `hc-sim::par`; route parallelism through the replication pool so results stay byte-identical at any thread count"))
}

fn check_p1(code: &str) -> Option<String> {
    if let Some(t) = P1_TOKENS.iter().find(|t| code.contains(*t)) {
        return Some(format!(
            "`{}` can panic; library code must return typed errors (or justify the invariant with an allow)",
            t.trim_end_matches('(')
        ));
    }
    if has_computed_index(code) {
        return Some(
            "computed slice index can panic on an off-by-one; use `.get()`/checked math \
             (or justify the bound with an allow)"
                .to_string(),
        );
    }
    None
}

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

fn check_o1(code: &str) -> Option<String> {
    O1_TOKENS
        .iter()
        .find(|t| code.contains(*t))
        .map(|t| format!("`{}` writes directly to the console; library code must emit through `hc-obs` (spans/events/counters) or return data — only the hc-obs sink modules may print", t.trim_end_matches('(')))
}

fn check_h1(code: &str) -> Option<String> {
    // `forbid(unsafe_code)` attributes mention the lint name, not the
    // keyword with a block/fn shape; match the keyword only.
    let mut search = code;
    while let Some(pos) = search.find("unsafe") {
        let before_ok = pos == 0
            || !search.as_bytes()[pos - 1].is_ascii_alphanumeric()
                && search.as_bytes()[pos - 1] != b'_';
        let after = &search[pos + "unsafe".len()..];
        let after_ok = after
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok && !after.trim_start().starts_with("_code") {
            return Some(
                "`unsafe` is forbidden workspace-wide; every invariant must be checkable"
                    .to_string(),
            );
        }
        search = &search[pos + "unsafe".len()..];
    }
    None
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
    kind: FileKind,
    findings: Vec<Finding>,
    allows: Vec<Allow>,
    /// Per line: whether it sits inside a `#[cfg(test)]` module.
    test_lines: Vec<bool>,
}

/// Lexes one file and runs the per-line rules, collecting findings and
/// allow directives without resolving them against each other.
fn scan_file(lexed: &[LexedLine], rel_path: &str, kind: FileKind) -> FileScan {
    let library = matches!(kind, FileKind::Library { .. });
    let core = matches!(kind, FileKind::Library { core: true });

    let mut scan = FileScan {
        kind,
        findings: Vec::new(),
        allows: Vec::new(),
        test_lines: vec![false; lexed.len()],
    };
    let mut pending_allows: Vec<Allow> = Vec::new();
    let mut depth: i64 = 0;
    let mut test_mod_depth: Option<i64> = None;
    let mut macro_depth: Option<i64> = None;
    let mut pending_cfg_test = false;
    let mut has_doc = false;

    for (idx, line) in lexed.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.trim();
        let comment_only = code.is_empty() && !line.comment.is_empty();

        // Allow directives: a trailing comment guards its own line; a
        // standalone comment line guards the next code line. Doc comments
        // are prose (they may *mention* the syntax), never directives.
        let mut line_allows = if line.is_doc {
            Vec::new()
        } else {
            parse_allows(&line.comment, lineno)
        };
        if comment_only {
            pending_allows.append(&mut line_allows);
            has_doc |= line.is_doc;
            continue;
        }
        for mut a in pending_allows.drain(..) {
            a.guard_line = lineno;
            line_allows.push(a);
        }

        // Track #[cfg(test)] module spans so test code is exempt from
        // the library-only rules.
        let depth_before = depth;
        for b in line.code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(entry) = test_mod_depth {
            if depth <= entry {
                test_mod_depth = None;
            }
        }
        if let Some(entry) = macro_depth {
            if depth <= entry {
                macro_depth = None;
            }
        }
        let in_test_mod = test_mod_depth.is_some();
        // `macro_rules!` bodies are token templates (`pub struct $name`):
        // item-shape rules like H2 cannot read them reliably.
        let in_macro = macro_depth.is_some();
        if macro_depth.is_none() && line.code.contains("macro_rules!") && line.code.contains('{') {
            macro_depth = Some(depth_before);
        }
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

        // H2 doc-state machine: docs survive attribute lines, anything
        // else resets them.
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        let lib_rules_apply = library && !in_test_mod;

        let mut push = |rule: &'static str, message: String| {
            scan.findings.push(Finding {
                rule,
                severity: Severity::Error,
                line: lineno,
                message,
            });
        };
        let front_shim = serve_front_exempt(rel_path);
        if lib_rules_apply {
            if !front_shim {
                if let Some(m) = check_d1(&line.code) {
                    push("D1", m);
                }
            }
            if let Some(m) = check_d2(&line.code) {
                push("D2", m);
            }
            if !d3_exempt(rel_path) && !front_shim {
                if let Some(m) = check_d3(&line.code) {
                    push("D3", m);
                }
            }
            if let Some(m) = check_p1(&line.code) {
                push("P1", m);
            }
            if !o1_exempt(rel_path) && !front_shim {
                if let Some(m) = check_o1(&line.code) {
                    push("O1", m);
                }
            }
        }
        if let Some(m) = check_h1(&line.code) {
            push("H1", m);
        }
        if core && !in_test_mod && !in_macro && is_undocumented_pub(code, has_doc) {
            push(
                "H2",
                "public item in hc-core lacks a doc comment".to_string(),
            );
        }

        if line.is_doc {
            has_doc = true;
        } else if !is_attr {
            has_doc = false;
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

/// Whether a code line declares an undocumented public item. `pub use`
/// re-exports and `pub(crate)`-style restricted visibility are exempt,
/// matching rustc's `missing_docs`.
fn is_undocumented_pub(code: &str, has_doc: bool) -> bool {
    if has_doc || !code.starts_with("pub ") {
        return false;
    }
    // `pub mod x;` is exempt: the module file carries its own `//!` docs,
    // which this per-file pass cannot see (rustc's `missing_docs` can).
    let item = code.trim_start_matches("pub ").trim_start();
    const DOCUMENTED_KINDS: [&str; 8] = [
        "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ", "union ",
    ];
    DOCUMENTED_KINDS.iter().any(|k| item.starts_with(k)) || is_public_field(item)
}

/// Struct fields also need docs: `name: Type,` with no keyword prefix.
fn is_public_field(item: &str) -> bool {
    let Some(colon) = item.find(':') else {
        return false;
    };
    // Exclude paths (`::`) and keyword starts already handled.
    let name = &item[..colon];
    !item[colon..].starts_with("::")
        && !name.is_empty()
        && name.chars().all(|c| c.is_alphanumeric() || c == '_')
}

// ---------------------------------------------------------------------------
// Whole-pass drivers
// ---------------------------------------------------------------------------

/// Runs the full pass (per-line rules, symbol graph, semantic rules,
/// allow resolution) over in-memory sources given as
/// `(workspace-relative path, source text)` pairs.
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> Report {
    let mut report = Report::default();
    let mut units: Vec<SourceUnit> = Vec::with_capacity(files.len());
    let mut scans: Vec<FileScan> = Vec::with_capacity(files.len());
    for (rel_path, source) in files {
        let kind = classify(rel_path);
        let lexed = lex(source);
        scans.push(scan_file(&lexed, rel_path, kind));
        units.push(SourceUnit {
            rel_path: rel_path.clone(),
            code: lexed.iter().map(|l| l.code.clone()).collect(),
            parsed: parse::parse_items(&lexed),
        });
    }
    let kinds: Vec<FileKind> = scans.iter().map(|s| s.kind).collect();
    let test_lines: Vec<Vec<bool>> = scans.iter().map(|s| s.test_lines.clone()).collect();
    for (fi, finding) in rules::semantic_findings(&units, &kinds, &test_lines) {
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

/// Analyzes one file's source text under the given classification,
/// appending diagnostics to `report`. The semantic rules see only this
/// file (a single-file symbol graph); [`analyze_sources`] /
/// [`analyze_workspace`] give them the whole workspace.
pub fn analyze_source(source: &str, rel_path: &str, kind: FileKind, report: &mut Report) {
    let lexed = lex(source);
    let mut scan = scan_file(&lexed, rel_path, kind);
    scan.kind = kind;
    let units = [SourceUnit {
        rel_path: rel_path.to_string(),
        code: lexed.iter().map(|l| l.code.clone()).collect(),
        parsed: parse::parse_items(&lexed),
    }];
    let kinds = [kind];
    let test_lines = [scan.test_lines.clone()];
    for (_, finding) in rules::semantic_findings(&units, &kinds, &test_lines) {
        scan.findings.push(finding);
    }
    resolve_file(rel_path, scan, report);
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
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

    const LIB: FileKind = FileKind::Library { core: false };
    const CORE: FileKind = FileKind::Library { core: true };

    fn run(source: &str, kind: FileKind) -> Report {
        let mut report = Report::default();
        analyze_source(source, "test.rs", kind, &mut report);
        report
    }

    fn rules(report: &Report) -> Vec<(&str, usize)> {
        report
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect()
    }

    #[test]
    fn d1_flags_wall_clock_and_entropy() {
        let r = run("fn f() { let t = std::time::SystemTime::now(); }\n", LIB);
        assert_eq!(rules(&r), vec![("D1", 1)]);
        let r = run("fn f() -> u64 { rand::random() }\n", LIB);
        assert_eq!(rules(&r), vec![("D1", 1)]);
    }

    #[test]
    fn d2_flags_hash_collections() {
        let r = run("use std::collections::HashMap;\n", LIB);
        assert_eq!(rules(&r), vec![("D2", 1)]);
    }

    #[test]
    fn d3_flags_threading_outside_the_pool() {
        let r = run("fn f() { std::thread::spawn(|| {}); }\n", LIB);
        assert_eq!(rules(&r), vec![("D3", 1)]);
        let r = run("use crossbeam::deque::Worker;\n", LIB);
        assert_eq!(rules(&r), vec![("D3", 1)]);
        let r = run("use std::sync::mpsc::channel;\n", LIB);
        assert_eq!(rules(&r), vec![("D3", 1)]);
        // The replication pool itself is the sanctioned exemption.
        let mut report = Report::default();
        analyze_source(
            "use crossbeam::deque::Worker;\n",
            "crates/sim/src/par.rs",
            LIB,
            &mut report,
        );
        assert_eq!(rules(&report), vec![]);
        // Tool crates (bench binaries, the analyzer) may thread freely.
        let r = run("fn f() { std::thread::spawn(|| {}); }\n", FileKind::Tool);
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn p1_flags_panicky_calls_and_computed_indexing() {
        let r = run("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n", LIB);
        assert_eq!(rules(&r), vec![("P1", 1)]);
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
    }

    #[test]
    fn o1_flags_direct_output_in_library_code() {
        let r = run("fn f() { println!(\"progress\"); }\n", LIB);
        assert_eq!(rules(&r), vec![("O1", 1)]);
        let r = run("fn f() { eprintln!(\"oops\"); }\n", LIB);
        assert_eq!(rules(&r), vec![("O1", 1)]);
        let r = run("fn f(x: u32) -> u32 { dbg!(x) }\n", LIB);
        assert_eq!(rules(&r), vec![("O1", 1)]);
        // The diagnostic names the token that actually appears.
        let r = run("fn f() { eprintln!(\"oops\"); }\n", LIB);
        assert!(r.diagnostics[0].message.contains("`eprintln!`"));
        // Tool crates and test modules may print freely.
        let r = run("fn f() { println!(\"ok\"); }\n", FileKind::Tool);
        assert_eq!(rules(&r), vec![]);
        // The hc-obs sink modules are the sanctioned output boundary.
        let mut report = Report::default();
        analyze_source(
            "fn f() { println!(\"line\"); }\n",
            "crates/obs/src/sink/jsonl.rs",
            LIB,
            &mut report,
        );
        assert_eq!(rules(&report), vec![]);
    }

    #[test]
    fn h1_flags_unsafe_but_not_the_lint_name() {
        let r = run("fn f() { unsafe { std::mem::zeroed() } }\n", FileKind::Tool);
        assert!(rules(&r).contains(&("H1", 1)));
        let r = run("#![forbid(unsafe_code)]\n", FileKind::Tool);
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn h2_requires_docs_on_core_pub_items() {
        let r = run("pub fn naked() {}\n", CORE);
        assert_eq!(rules(&r), vec![("H2", 1)]);
        let r = run("/// Documented.\npub fn covered() {}\n", CORE);
        assert_eq!(rules(&r), vec![]);
        // Attributes between doc and item keep the doc attached.
        let r = run(
            "/// Doc.\n#[must_use]\npub fn covered() -> u32 { 0 }\n",
            CORE,
        );
        assert_eq!(rules(&r), vec![]);
        // pub use re-exports are exempt; non-core libraries are exempt.
        let r = run("pub use std::fmt;\n", CORE);
        assert_eq!(rules(&r), vec![]);
        let r = run("pub fn naked() {}\n", LIB);
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn strings_and_comments_never_match() {
        let r = run(
            "fn f() -> &'static str { \"call .unwrap() on a HashMap\" }\n",
            LIB,
        );
        assert_eq!(rules(&r), vec![]);
        let r = run("// mentions .unwrap() and SystemTime\nfn f() {}\n", LIB);
        assert_eq!(rules(&r), vec![]);
        let r = run("/// doc example: `x.unwrap()`\nfn f() {}\n", LIB);
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_library_rules() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
fn more_lib(x: Option<u32>) -> u32 { x.expect(\"boom\") }
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
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // hc-analyze: allow(P1): checked by caller\n";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![]);
    }

    #[test]
    fn unjustified_allow_is_an_error() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // hc-analyze: allow(P1)\n";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![("A1", 1)]);
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn stale_allow_is_a_w1_error() {
        let src = "// hc-analyze: allow(D1): nothing here actually\nfn f() {}\n";
        let r = run(src, LIB);
        assert_eq!(rules(&r), vec![("W1", 1)]);
        assert_eq!(r.error_count(), 1);
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
        let mut report = Report::default();
        analyze_source(src, "crates/games/src/shard.rs", LIB, &mut report);
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
        let mut report = Report::default();
        analyze_source(src, "crates/games/src/shard.rs", LIB, &mut report);
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
        let mut report = Report::default();
        analyze_source(src, "crates/games/src/shard.rs", LIB, &mut report);
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
        let mut report = Report::default();
        analyze_source(src, "crates/games/src/board.rs", LIB, &mut report);
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
        let mut report = Report::default();
        analyze_source(src, "crates/games/src/board.rs", LIB, &mut report);
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
        let mut report = Report::default();
        analyze_source(src, "crates/games/src/board.rs", LIB, &mut report);
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
        let mut report = Report::default();
        analyze_source(src, "crates/games/src/board.rs", LIB, &mut report);
        assert_eq!(rules(&report), vec![]);
        // Without the sort, the formatted use of the binding fires.
        let src = src.replace("        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));\n", "");
        let mut report = Report::default();
        analyze_source(&src, "crates/games/src/board.rs", LIB, &mut report);
        assert_eq!(rules(&report), vec![("R2", 5)]);
    }

    #[test]
    fn classification_maps_paths_to_rule_sets() {
        assert_eq!(classify("crates/core/src/jobs.rs"), CORE);
        assert_eq!(classify("crates/sim/src/rng.rs"), LIB);
        assert_eq!(classify("crates/obs/src/collector.rs"), LIB);
        assert_eq!(classify("crates/serve/src/service.rs"), LIB);
        assert_eq!(classify("crates/serve/tests/lifecycle.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/src/lib.rs"), FileKind::Tool);
        assert_eq!(classify("crates/analyze/src/main.rs"), FileKind::Tool);
        assert_eq!(classify("crates/sim/tests/props.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/benches/b.rs"), FileKind::Test);
        assert_eq!(classify("src/lib.rs"), LIB);
        assert_eq!(classify("tests/properties.rs"), FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Tool);
    }

    #[test]
    fn the_serve_front_shim_is_exempt_from_io_rules() {
        let shim = "fn f() { let t = std::time::SystemTime::now(); \
                    std::thread::spawn(|| 0); eprintln!(\"bind\"); let _ = t; }\n";
        let mut report = Report::default();
        analyze_source(shim, "crates/serve/src/front.rs", LIB, &mut report);
        assert_eq!(rules(&report), vec![]);
        // The service core gets no such pass: the same line fires all
        // three rules there.
        let mut report = Report::default();
        analyze_source(shim, "crates/serve/src/service.rs", LIB, &mut report);
        assert_eq!(rules(&report), vec![("D1", 1), ("D3", 1), ("O1", 1)]);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = Report::default();
        analyze_source(
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            "a.rs",
            LIB,
            &mut report,
        );
        report.files_scanned = 1;
        let json = serde_json::to_string(&report).expect("serialize");
        let back: Report = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
