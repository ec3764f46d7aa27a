//! Semantic rules on top of the symbol graph.
//!
//! **R1 (RNG discipline, error)** — inside code reachable from the
//! shard/task entry points (`hc-sim::par`, `hc-sim::shard`, and every
//! `ShardWorkload::shard_step` / `ShardWorkload::run_job` /
//! `ShardGame::play` implementation),
//! every RNG must be derived through `indexed_stream`/`indexed_child`.
//! Un-indexed sources (`.stream(`, `.child(`, raw seeding), cloned
//! RNGs, and struct-stored RNG state are flagged. The serial hub
//! section (`hub_step` and everything only it calls) is a barrier: the
//! hub legitimately owns plain streams because it runs single-threaded
//! in lockstep.
//!
//! **R2 (iteration-order sensitivity, warning)** — a `DetMap`/`DetSet`
//! `.iter()`/`.keys()`/`.values()` (or `for … in &map`) iterates in
//! insertion order; when the result flows into serialization, an obs
//! sink, or `f64` accumulation within the same statement (or through a
//! `let` binding later in the function), the iteration must go through
//! `iter_sorted()` or carry a justified `allow(R2)` annotation. A
//! `sort`/`BTree` collect between iteration and sink sanitizes the
//! flow. `hc-collect` itself is exempt: it *defines* the order
//! semantics.

use crate::graph::{FnId, SourceUnit, SymbolGraph};
use crate::{Finding, Severity};
use std::collections::BTreeSet;

/// Paths whose every function is an R1 reachability root: the two
/// parallel engines.
fn r1_engine_path(rel_path: &str) -> bool {
    rel_path == "crates/sim/src/par.rs"
        || rel_path.starts_with("crates/sim/src/par/")
        || rel_path == "crates/sim/src/shard.rs"
        || rel_path.starts_with("crates/sim/src/shard/")
}

/// The sanctioned derivation layer: `RngFactory` itself must seed RNGs,
/// so R1 never fires inside it.
fn r1_exempt(rel_path: &str) -> bool {
    rel_path == "crates/sim/src/rng.rs"
}

/// Serial hub sections the per-shard RNG discipline does not cover.
const HUB_BARRIERS: [&str; 1] = ["hub_step"];

/// `(trait, method)` pairs whose implementations run per-shard or
/// per-task and therefore root R1 reachability.
const R1_ROOT_METHODS: [(&str, &str); 4] = [
    ("ShardWorkload", "shard_step"),
    ("ShardWorkload", "run_job"),
    ("ShardGame", "play"),
    ("SessionDriver", "play_round"),
];

/// Tokens that create an RNG from an un-indexed source. `.stream(` and
/// `.child(` cannot false-match their indexed variants: the preceding
/// character there is `_`, not `.`.
const UNINDEXED_RNG_TOKENS: [&str; 5] = [
    ".stream(",
    ".child(",
    "seed_from_u64(",
    "from_seed(",
    "from_entropy(",
];

/// Runs R1 and R2 over every unit; returns `(unit index, finding)`.
pub(crate) fn semantic_findings(
    units: &[SourceUnit],
    library: &[bool],
    test_lines: &[Vec<bool>],
) -> Vec<(usize, Finding)> {
    let graph = SymbolGraph::build(units);
    let mut out = Vec::new();
    check_r1(units, library, test_lines, &graph, &mut out);
    check_r2(units, library, test_lines, &graph, &mut out);
    out.sort_by(|a, b| (a.0, a.1.line, a.1.rule).cmp(&(b.0, b.1.line, b.1.rule)));
    out.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.rule == b.1.rule);
    out
}

// ---------------------------------------------------------------------------
// R1: RNG discipline in shard/task-reachable code
// ---------------------------------------------------------------------------

fn check_r1(
    units: &[SourceUnit],
    library: &[bool],
    test_lines: &[Vec<bool>],
    graph: &SymbolGraph,
    out: &mut Vec<(usize, Finding)>,
) {
    let mut roots: Vec<FnId> = Vec::new();
    for (fi, unit) in units.iter().enumerate() {
        let engine = r1_engine_path(&unit.rel_path);
        for (gi, f) in unit.parsed.fns.iter().enumerate() {
            if f.body.is_none() {
                continue;
            }
            let trait_root = f.trait_name.as_deref().is_some_and(|t| {
                R1_ROOT_METHODS
                    .iter()
                    .any(|(rt, rm)| *rt == t && *rm == f.name)
            });
            if engine || trait_root {
                roots.push((fi, gi));
            }
        }
    }
    if roots.is_empty() {
        return;
    }
    for (fi, gi) in graph.reachable(units, &roots, &HUB_BARRIERS) {
        let unit = &units[fi];
        if !library[fi] || r1_exempt(&unit.rel_path) {
            continue;
        }
        let f = &unit.parsed.fns[gi];
        let Some((start, end)) = f.body else { continue };
        let rng_names = rng_value_names(unit, gi);
        let rng_fields: BTreeSet<String> = f
            .impl_ty
            .as_deref()
            .and_then(|ty| graph.fields_of(ty))
            .map(|fields| {
                fields
                    .iter()
                    .filter(|fd| is_rng_ty(&fd.ty))
                    .map(|fd| fd.name.clone())
                    .collect()
            })
            .unwrap_or_default();
        for lineno in start..=end.min(unit.code.len()) {
            if test_lines[fi].get(lineno - 1).copied().unwrap_or(false) {
                continue;
            }
            let code = &unit.code[lineno - 1];
            if let Some(tok) = UNINDEXED_RNG_TOKENS.iter().find(|t| code.contains(*t)) {
                out.push((fi, Finding {
                    rule: "R1",
                    severity: Severity::Error,
                    line: lineno,
                    message: format!(
                        "`{}` creates an RNG from an un-indexed source in shard/task-reachable code (via `{}`); derive it with `indexed_stream`/`indexed_child` so every shard and task owns an index-keyed stream",
                        tok.trim_start_matches('.').trim_end_matches('('),
                        f.name,
                    ),
                }));
            }
            for recv in clone_receivers(code) {
                let is_rng = rng_names.contains(&recv)
                    || recv
                        .strip_prefix("self.")
                        .is_some_and(|field| rng_fields.contains(field));
                if is_rng {
                    out.push((fi, Finding {
                        rule: "R1",
                        severity: Severity::Error,
                        line: lineno,
                        message: format!(
                            "`{recv}.clone()` duplicates an RNG stream in shard/task-reachable code (via `{}`); two consumers of one stream destroy replay independence — derive a second indexed stream instead",
                            f.name,
                        ),
                    }));
                }
            }
            for field in &rng_fields {
                if contains_field_access(code, field) {
                    out.push((fi, Finding {
                        rule: "R1",
                        severity: Severity::Error,
                        line: lineno,
                        message: format!(
                            "struct-stored RNG `self.{field}` used in shard/task-reachable code (via `{}`); shared RNG state crosses shard boundaries from an un-indexed source — derive a per-shard `indexed_stream` instead",
                            f.name,
                        ),
                    }));
                }
            }
        }
    }
}

/// Value names (params and locals) holding an RNG inside one function.
fn rng_value_names(unit: &SourceUnit, fn_idx: usize) -> BTreeSet<String> {
    let f = &unit.parsed.fns[fn_idx];
    let mut names: BTreeSet<String> = f
        .params
        .iter()
        .filter(|p| is_rng_ty(&p.ty) || is_rng_name(&p.name))
        .map(|p| p.name.clone())
        .collect();
    if let Some((start, end)) = f.body {
        for code in &unit.code[start - 1..end.min(unit.code.len())] {
            let trimmed = code.trim_start();
            let Some(rest) = trimmed.strip_prefix("let ") else {
                continue;
            };
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            let rng_typed = is_rng_name(&name)
                || contains_word(code, "SimRng")
                || contains_word(code, "StdRng")
                || code.contains(".stream(")
                || code.contains("indexed_stream(");
            if rng_typed {
                names.insert(name);
            }
        }
    }
    names
}

/// Whether a type text names an RNG (`SimRng`, `StdRng`, `impl Rng`,
/// `&mut Rng` bounds) — `RngFactory` is *not* an RNG.
fn is_rng_ty(ty: &str) -> bool {
    contains_word(ty, "SimRng") || contains_word(ty, "StdRng") || contains_word(ty, "Rng")
}

/// Conventional RNG binding names (`rng`, `plan_rng`, `rng_pool`).
fn is_rng_name(name: &str) -> bool {
    name == "rng" || name.ends_with("_rng") || name.starts_with("rng_")
}

/// Word-boundary containment: `RngFactory` does not contain the word
/// `Rng`.
fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Receiver chains of `.clone()` calls on a line (`rng` in
/// `rng.clone()`, `self.match_rng` in `self.match_rng.clone()`).
fn clone_receivers(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(".clone()") {
        let dot = from + pos;
        let mut s = dot;
        while s > 0 && (is_ident_byte(bytes[s - 1]) || bytes[s - 1] == b'.') {
            s -= 1;
        }
        if s < dot {
            out.push(code[s..dot].to_string());
        }
        from = dot + ".clone()".len();
    }
    out
}

/// Whether `self.<field>` appears with word boundaries.
fn contains_field_access(code: &str, field: &str) -> bool {
    let needle = format!("self.{field}");
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(&needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]) && bytes[start - 1] != b'.';
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

// ---------------------------------------------------------------------------
// R2: iteration-order sensitivity
// ---------------------------------------------------------------------------

/// Insertion-order iteration entry points on `DetMap`/`DetSet`.
/// (`.iter_sorted(` and `.values_mut(` never match: the character after
/// `iter`/`values` there is `_`, not `(`.)
const R2_OPS: [&str; 3] = [".iter()", ".keys()", ".values()"];

/// Tokens that sanitize an insertion-order flow before it reaches a
/// sink: explicit sorting or collection into an ordered container.
const R2_SANITIZERS: [&str; 4] = ["sort", "iter_sorted", "BTreeMap", "BTreeSet"];

/// Sink token families; the matched family names the finding.
const R2_SINKS: [(&str, &[&str]); 3] = [
    (
        "serialization/formatting",
        &[
            "format!(",
            "write!(",
            "writeln!(",
            "serde_json",
            "push_str(",
            ".to_string(",
            "to_value(",
            "json!(",
        ],
    ),
    (
        "an obs sink",
        &["machine_stat", "hc_obs::", ".emit(", "record_event"],
    ),
    (
        "f64 accumulation",
        &[
            "sum::<f64>",
            ".fold(0.0",
            "as_hours_f64(",
            "as_secs_f64(",
            "as_f64(",
        ],
    ),
];

fn check_r2(
    units: &[SourceUnit],
    library: &[bool],
    test_lines: &[Vec<bool>],
    graph: &SymbolGraph,
    out: &mut Vec<(usize, Finding)>,
) {
    for (fi, unit) in units.iter().enumerate() {
        if !library[fi] || unit.rel_path.starts_with("crates/collect/") {
            continue;
        }
        for (gi, f) in unit.parsed.fns.iter().enumerate() {
            let Some((start, end)) = f.body else { continue };
            let end = end.min(unit.code.len());
            let receivers = det_receivers(unit, gi, graph);
            if receivers.is_empty() {
                continue;
            }
            for lineno in start..=end {
                if test_lines[fi].get(lineno - 1).copied().unwrap_or(false) {
                    continue;
                }
                let code = &unit.code[lineno - 1];
                for recv in &receivers {
                    let mut sites = iteration_sites(code, recv);
                    // Multi-line chain: the receiver ends this line and
                    // the iteration op opens the next (`= map\n.iter()`).
                    if lineno < end && trailing_chain(code).as_deref() == Some(recv.as_str()) {
                        let next = unit.code[lineno].trim_start();
                        if let Some(op) = R2_OPS.iter().find(|op| next.starts_with(**op)) {
                            sites.push((code.len(), op));
                        }
                    }
                    for (site, op) in sites {
                        if let Some((sink_line, family)) =
                            sink_for_flow(&unit.code, lineno, end, code, site)
                        {
                            out.push((fi, Finding {
                                rule: "R2",
                                severity: Severity::Warning,
                                line: sink_line,
                                message: format!(
                                    "`{recv}{op}` iterates in insertion order and the result reaches {family}; use `iter_sorted()` or annotate `// hc-analyze: allow(R2): order-insensitive — <why>`",
                                ),
                            }));
                        }
                    }
                }
            }
        }
    }
}

/// `DetMap`/`DetSet`-typed receivers visible to one function: `self.x`
/// fields of the impl type, parameters, and `let` locals.
fn det_receivers(unit: &SourceUnit, fn_idx: usize, graph: &SymbolGraph) -> Vec<String> {
    let f = &unit.parsed.fns[fn_idx];
    let mut out = Vec::new();
    if let Some(fields) = f.impl_ty.as_deref().and_then(|ty| graph.fields_of(ty)) {
        for fd in fields {
            if is_det_ty(&fd.ty) {
                out.push(format!("self.{}", fd.name));
            }
        }
    }
    for p in &f.params {
        if is_det_ty(&p.ty) {
            out.push(p.name.clone());
        }
    }
    if let Some((start, end)) = f.body {
        for code in &unit.code[start - 1..end.min(unit.code.len())] {
            let trimmed = code.trim_start();
            let Some(rest) = trimmed.strip_prefix("let ") else {
                continue;
            };
            if !is_det_ty(code) {
                continue;
            }
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                out.push(name);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn is_det_ty(ty: &str) -> bool {
    ty.contains("DetMap") || ty.contains("DetSet")
}

/// Byte offsets (and the op text) where `recv` starts an
/// insertion-order iteration on this line: `recv.iter()`, `recv.keys()`,
/// `recv.values()`, or the for-loop sugar `in &recv` / `in &mut recv`.
fn iteration_sites(code: &str, recv: &str) -> Vec<(usize, &'static str)> {
    let mut sites = Vec::new();
    let bytes = code.as_bytes();
    for op in R2_OPS {
        let needle = format!("{recv}{op}");
        let mut from = 0;
        while let Some(pos) = code[from..].find(&needle) {
            let start = from + pos;
            let boundary = start == 0
                || !is_ident_byte(bytes[start - 1]) && bytes[start - 1] != b'.'
                || recv.starts_with("self.");
            if boundary {
                sites.push((start, op));
            }
            from = start + needle.len();
        }
    }
    for prefix in ["in &", "in &mut "] {
        let needle = format!("{prefix}{recv}");
        let mut from = 0;
        while let Some(pos) = code[from..].find(&needle) {
            let start = from + pos;
            let end = start + needle.len();
            let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
            let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]) && bytes[end] != b'.';
            if before_ok && after_ok {
                sites.push((start, "(for-loop iteration)"));
            }
            from = end;
        }
    }
    sites
}

/// The identifier/`.` chain a line ends with (`"= self.scores"` →
/// `self.scores`), for spotting receivers of a chain that continues on
/// the next line.
fn trailing_chain(code: &str) -> Option<String> {
    let t = code.trim_end();
    let bytes = t.as_bytes();
    let mut s = t.len();
    while s > 0 && (is_ident_byte(bytes[s - 1]) || bytes[s - 1] == b'.') {
        s -= 1;
    }
    if s < t.len() {
        Some(t[s..].to_string())
    } else {
        None
    }
}

/// Decides whether an iteration at `(op_line, op_col)` flows into a
/// sink. Returns the sink line and family label, or `None` when the
/// flow is sanitized or never reaches a sink.
fn sink_for_flow(
    code: &[String],
    op_line: usize,
    body_end: usize,
    op_code: &str,
    _op_col: usize,
) -> Option<(usize, &'static str)> {
    // Statement/block window: from the op line until the statement's
    // `;` or the block opened on the op line closes.
    let mut window = String::new();
    let mut brace: i32 = 0;
    let mut opened = false;
    let mut window_end = op_line;
    for lineno in op_line..=body_end.min(code.len()).min(op_line + 40) {
        let line = &code[lineno - 1];
        window.push_str(line);
        window.push('\n');
        window_end = lineno;
        for c in line.chars() {
            match c {
                '{' => {
                    brace += 1;
                    opened = true;
                }
                '}' => brace -= 1,
                _ => {}
            }
        }
        if brace < 0 || (opened && brace <= 0) || (!opened && line.trim_end().ends_with(';')) {
            break;
        }
    }
    if R2_SANITIZERS.iter().any(|s| window.contains(s)) {
        return None;
    }
    for (family, tokens) in R2_SINKS {
        if tokens.iter().any(|t| window.contains(t)) {
            return Some((op_line, family));
        }
    }
    // `let` taint: a binding of the iteration result checked against
    // later uses in the same body.
    let trimmed = op_code.trim_start();
    let binding = trimmed
        .strip_prefix("let ")
        .map(|rest| rest.strip_prefix("mut ").unwrap_or(rest))
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
        })
        .filter(|name| !name.is_empty())?;
    for lineno in window_end + 1..=body_end.min(code.len()) {
        let line = &code[lineno - 1];
        if !contains_word(line, &binding) {
            continue;
        }
        if R2_SANITIZERS.iter().any(|s| line.contains(s)) {
            return None;
        }
        for (family, tokens) in R2_SINKS {
            if tokens.iter().any(|t| line.contains(t)) {
                return Some((lineno, family));
            }
        }
    }
    None
}
