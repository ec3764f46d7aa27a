//! Workspace symbol graph: every parsed function becomes a node, call
//! edges are resolved by name and argument count (over-approximating
//! where the receiver type is unknown), and reachability is a plain BFS.
//!
//! Over-approximation is deliberate: a method call `.play(…)` links to
//! *every* `play` with a matching parameter count defined in an impl or
//! trait, so a rule running on the reachable set can miss nothing that
//! name resolution could actually bind — at the cost of occasionally
//! visiting an unrelated same-named function. A call whose argument
//! list does not close on its line binds by name alone. Edges into
//! *barrier* methods are cut by the caller (used for the serial hub
//! sections of the shard engines, which the per-shard RNG discipline
//! deliberately does not cover).

use crate::parse::{FieldDef, FnDef, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed file, as the graph sees it.
#[derive(Debug)]
pub struct SourceUnit {
    /// Workspace-relative `/`-separated path.
    pub rel_path: String,
    /// Code channel, one entry per line.
    pub code: Vec<String>,
    /// Parsed items.
    pub parsed: ParsedFile,
}

/// A function node: `(file index, fn index within that file)`.
pub type FnId = (usize, usize);

/// The workspace-wide symbol graph.
#[derive(Debug)]
pub struct SymbolGraph {
    fn_by_name: BTreeMap<String, Vec<FnId>>,
    struct_fields: BTreeMap<String, Vec<FieldDef>>,
}

impl SymbolGraph {
    /// Indexes every function and struct across the units.
    #[must_use]
    pub fn build(units: &[SourceUnit]) -> Self {
        let mut fn_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut struct_fields: BTreeMap<String, Vec<FieldDef>> = BTreeMap::new();
        for (fi, unit) in units.iter().enumerate() {
            for (gi, f) in unit.parsed.fns.iter().enumerate() {
                fn_by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
            for s in &unit.parsed.structs {
                // First definition wins; struct names are effectively
                // unique per workspace and fixtures are scanned alone.
                struct_fields
                    .entry(s.name.clone())
                    .or_insert_with(|| s.fields.clone());
            }
        }
        Self {
            fn_by_name,
            struct_fields,
        }
    }

    /// Fields of a struct by type name, if it was parsed anywhere.
    #[must_use]
    pub fn fields_of(&self, ty: &str) -> Option<&[FieldDef]> {
        self.struct_fields.get(ty).map(Vec::as_slice)
    }

    /// All functions sharing a name.
    #[must_use]
    pub fn fns_named(&self, name: &str) -> &[FnId] {
        self.fn_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Functions reachable from `roots` by following name-resolved call
    /// edges, never entering a function whose name is in `barriers`.
    #[must_use]
    pub fn reachable(
        &self,
        units: &[SourceUnit],
        roots: &[FnId],
        barriers: &[&str],
    ) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = roots.iter().copied().collect();
        let mut queue: Vec<FnId> = roots.to_vec();
        while let Some(id) = queue.pop() {
            for callee in self.callees(units, id, barriers) {
                if seen.insert(callee) {
                    queue.push(callee);
                }
            }
        }
        seen
    }

    /// Name-resolved call targets of one function body.
    fn callees(&self, units: &[SourceUnit], id: FnId, barriers: &[&str]) -> Vec<FnId> {
        let unit = &units[id.0];
        let f = &unit.parsed.fns[id.1];
        let Some((start, end)) = f.body else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for line in &unit.code[start - 1..end.min(unit.code.len())] {
            for mut call in calls_in_line(line) {
                if call.qualifier.as_deref() == Some("Self") {
                    call.qualifier.clone_from(&f.impl_ty);
                }
                if barriers.contains(&call.name.as_str()) {
                    continue;
                }
                for &(tfi, tgi) in self.fns_named(&call.name) {
                    let target = &units[tfi].parsed.fns[tgi];
                    if call_matches(&call, target, tfi == id.0) {
                        out.push((tfi, tgi));
                    }
                }
            }
        }
        out
    }
}

/// One syntactic call site.
#[derive(Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (`foo` in `foo(…)`, `.foo(…)`, `Ty::foo(…)`).
    pub name: String,
    /// Whether it was a `.name(` method call.
    pub method: bool,
    /// Explicit `Type::name(` qualifier, if any.
    pub qualifier: Option<String>,
    /// Top-level argument count, when the argument list closes on the
    /// call's line.
    pub args: Option<usize>,
}

/// Whether a call site can bind to a candidate definition.
fn call_matches(call: &CallSite, target: &FnDef, same_file: bool) -> bool {
    // A qualified call to a method passes the receiver as its first
    // argument (`Ty::m(&x, a)`).
    let receiver = usize::from(call.qualifier.is_some() && target.has_self);
    if call
        .args
        .is_some_and(|n| n != target.arity && n != target.arity + receiver)
    {
        return false;
    }
    if let Some(q) = &call.qualifier {
        return target.impl_ty.as_deref() == Some(q.as_str());
    }
    if call.method {
        // Method syntax needs a self receiver on an impl or trait.
        target.has_self && (target.impl_ty.is_some() || target.trait_name.is_some())
    } else {
        // Free calls bind to free functions; cross-file binding is kept
        // (paths/imports are not tracked precisely enough to prune it),
        // but same-file free fns are always plausible targets.
        target.impl_ty.is_none() && target.trait_name.is_none() || same_file
    }
}

const KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "let", "fn", "in", "loop", "move", "else", "as",
];

/// Extracts call sites from one code-channel line.
#[must_use]
pub fn calls_in_line(code: &str) -> Vec<CallSite> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' || i == 0 {
            continue;
        }
        // Walk back over the identifier directly before `(`.
        let mut s = i;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        if s == i {
            continue;
        }
        let name = &code[s..i];
        if name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        let before = if s > 0 { bytes[s - 1] } else { b' ' };
        if before == b'!' {
            // Macro invocation.
            continue;
        }
        let method = before == b'.';
        let mut qualifier = None;
        if s >= 2 && &code[s - 2..s] == "::" {
            let mut q = s - 2;
            while q > 0 && (bytes[q - 1].is_ascii_alphanumeric() || bytes[q - 1] == b'_') {
                q -= 1;
            }
            let qual = &code[q..s - 2];
            if qual.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                qualifier = Some(qual.to_string());
            }
        }
        out.push(CallSite {
            name: name.to_string(),
            method,
            qualifier,
            args: arg_count(code, i),
        });
    }
    out
}

/// Counts the top-level arguments of the call whose `(` sits at byte
/// `open`, or `None` when the list does not close on this line. Commas
/// nested in brackets, turbofish generics (`::<A, B>`) and closure
/// parameter lists (`|a, b|`) do not separate arguments.
fn arg_count(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut angle = 0usize;
    let mut args = 0;
    let mut arg_start = open + 1;
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth > 0 => depth -= 1,
            b')' => {
                let last = !code[arg_start..i].trim().is_empty();
                return Some(args + usize::from(last));
            }
            b']' | b'}' => return None,
            b'<' if code[..i].ends_with("::") => angle += 1,
            b'>' if angle > 0 => angle -= 1,
            b',' if depth == 0 && angle == 0 => {
                args += 1;
                arg_start = i + 1;
            }
            b'|' if depth == 0 && matches!(code[arg_start..i].trim(), "" | "move") => {
                // A closure's parameter list: skip to its closing `|`.
                i += 1 + code[i + 1..].find('|')?;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse_items;

    fn unit(rel_path: &str, src: &str) -> SourceUnit {
        let lexed = lex(src);
        let code: Vec<String> = lexed.iter().map(|l| l.code.clone()).collect();
        SourceUnit {
            rel_path: rel_path.to_string(),
            code,
            parsed: parse_items(&lexed),
        }
    }

    #[test]
    fn call_extraction_distinguishes_forms() {
        let calls = calls_in_line("let x = helper(a).finish(); Ty::make(); mac!(b); f(1, g(2, 3))");
        let site = |name: &str, method, qualifier: Option<&str>, args| CallSite {
            name: name.into(),
            method,
            qualifier: qualifier.map(Into::into),
            args: Some(args),
        };
        assert_eq!(
            calls,
            vec![
                site("helper", false, None, 1),
                site("finish", true, None, 0),
                site("make", false, Some("Ty"), 0),
                site("f", false, None, 2),
                site("g", false, None, 2),
            ]
        );
    }

    #[test]
    fn argument_counts_skip_nested_commas() {
        let count = |code: &str| calls_in_line(code)[0].args;
        assert_eq!(count("f()"), Some(0));
        assert_eq!(count("f(a, b,)"), Some(2));
        assert_eq!(count("f([a, b], (c, d), S { e, g })"), Some(3));
        assert_eq!(
            count("f(Vec::<(A, B)>::new(), BTreeMap::<K, V>::new())"),
            Some(2)
        );
        assert_eq!(count("f(|a, b| a + b, move |c, d| c || d, || 0)"), Some(3));
        assert_eq!(count("f(a < b, c > d)"), Some(2));
        // A list that does not close on the line binds by name alone.
        assert_eq!(count("f(a,"), None);
    }

    #[test]
    fn method_calls_bind_only_same_arity_methods() {
        let u = unit(
            "a.rs",
            "\
pub struct Serial;
impl Serial {
    fn arrive(&mut self, queue: u32, now: u64, player: u64) {}
    fn step(&mut self) {
        Self::arrive(self, 1, 2, 3);
    }
}
pub struct Sitting;
impl Sitting {
    fn arrive(&mut self, lengths: &[u32]) -> bool { true }
}
fn job(s: &mut Sitting, q: &mut Serial) {
    s.arrive(&[1]);
}
fn ufcs(q: &mut Serial) {
    Serial::arrive(q, 1, 2, 3);
}
",
        );
        let units = vec![u];
        let graph = SymbolGraph::build(&units);
        let reached = |root: &str| -> Vec<Option<String>> {
            let root = graph.fns_named(root)[0];
            let mut tys: Vec<Option<String>> = graph
                .reachable(&units, &[root], &[])
                .iter()
                .filter(|&&(fi, gi)| units[fi].parsed.fns[gi].name == "arrive")
                .map(|&(fi, gi)| units[fi].parsed.fns[gi].impl_ty.clone())
                .collect();
            tys.sort();
            tys
        };
        assert_eq!(reached("job"), vec![Some("Sitting".to_string())]);
        assert_eq!(reached("ufcs"), vec![Some("Serial".to_string())]);
        // `Self::` resolves to the caller's impl type.
        assert_eq!(reached("step"), vec![Some("Serial".to_string())]);
    }

    #[test]
    fn reachability_follows_calls_and_stops_at_barriers() {
        let a = unit(
            "a.rs",
            "\
pub struct Engine;
impl Engine {
    pub fn drive(&self) {
        step_one();
        self.hub_sync();
    }
    fn hub_sync(&self) {
        hub_only();
    }
}
",
        );
        let b = unit(
            "b.rs",
            "\
pub fn step_one() {
    step_two();
}
pub fn step_two() {}
pub fn hub_only() {}
pub fn unrelated() {}
",
        );
        let units = vec![a, b];
        let graph = SymbolGraph::build(&units);
        let drive = graph.fns_named("drive")[0];
        // No barrier: everything called transitively is reachable.
        let all = graph.reachable(&units, &[drive], &[]);
        let names: Vec<&str> = all
            .iter()
            .map(|&(fi, gi)| units[fi].parsed.fns[gi].name.as_str())
            .collect();
        assert!(names.contains(&"step_two"));
        assert!(names.contains(&"hub_only"));
        assert!(!names.contains(&"unrelated"));
        // Barrier on hub_sync: its callees disappear.
        let cut = graph.reachable(&units, &[drive], &["hub_sync"]);
        let names: Vec<&str> = cut
            .iter()
            .map(|&(fi, gi)| units[fi].parsed.fns[gi].name.as_str())
            .collect();
        assert!(names.contains(&"step_one"));
        assert!(!names.contains(&"hub_only"));
    }

    #[test]
    fn struct_fields_index_by_type_name() {
        let u = unit(
            "s.rs",
            "pub struct Camp { rng: SimRng, plans: DetMap<u64, u32> }\n",
        );
        let units = vec![u];
        let graph = SymbolGraph::build(&units);
        let fields = graph.fields_of("Camp").expect("fields");
        assert_eq!(fields[0].ty, "SimRng");
        assert_eq!(fields[1].ty, "DetMap<u64, u32>");
        assert!(graph.fields_of("Nope").is_none());
    }
}
