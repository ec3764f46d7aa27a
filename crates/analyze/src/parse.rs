//! Item-level parser: extracts functions, structs and impl blocks from
//! the lexed code channel — still no `syn`.
//!
//! The parser is a single pass that accumulates "header" text between
//! statement terminators (`{`, `}`, `;`) and classifies each header
//! when its brace opens. A context stack mirrors brace nesting, so
//! every function knows its enclosing `impl` (type and trait), every
//! struct collects its typed fields, and bodies are exact line ranges.
//! It is deliberately approximate — good enough to build a call graph
//! and type the receivers the semantic rules care about, not a full
//! grammar.

use crate::lex::LexedLine;

/// One function parameter: `name: Type` (the `self` receiver is not
/// recorded as a parameter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name with any `mut` stripped.
    pub name: String,
    /// Type text as written (including `&`/`&mut`).
    pub ty: String,
}

/// One `fn` item with its enclosing impl/trait context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl` block, if any (last path
    /// segment, generics stripped).
    pub impl_ty: Option<String>,
    /// Trait being implemented (`impl Trait for Ty`) or defined
    /// (default methods in `trait Trait`), if any.
    pub trait_name: Option<String>,
    /// Parameters (excluding `self`) bound to a plain name.
    pub params: Vec<Param>,
    /// Number of parameters excluding `self`, pattern parameters
    /// (`(a, b): (u32, u32)`) included.
    pub arity: usize,
    /// Whether the signature takes a `self` receiver.
    pub has_self: bool,
    /// Inclusive 1-based body line range; `None` for bodiless trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
}

/// One struct field: `name: Type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Type text as written.
    pub ty: String,
}

/// One `struct` item with named fields (tuple structs record none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name (generics stripped).
    pub name: String,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDef>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedFile {
    /// Function items, in source order.
    pub fns: Vec<FnDef>,
    /// Struct items, in source order.
    pub structs: Vec<StructDef>,
}

#[derive(Debug, Clone)]
enum Ctx {
    Impl {
        ty: Option<String>,
        trait_name: Option<String>,
    },
    Trait {
        name: String,
    },
    Fn {
        idx: usize,
    },
    Struct {
        idx: usize,
    },
    Other,
}

/// Parses the lexed code channel of one file.
#[must_use]
pub fn parse_items(lexed: &[LexedLine]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // (brace depth at entry, context kind)
    let mut stack: Vec<(usize, Ctx)> = Vec::new();
    let mut depth: usize = 0;
    let mut header = String::new();
    let mut header_line: usize = 0;
    // Angle-bracket depth inside a struct body, so `DetMap<Sym, u64>`
    // commas don't split a field.
    let mut field_buf = String::new();
    let mut angle: i32 = 0;
    // Braces inside a `use a::{b, c};` group belong to the path text,
    // not to item structure.
    let mut use_brace: i32 = 0;
    // Paren/bracket depth of the header text: a `;` inside `[T; 2]` or
    // `(…)` belongs to a type or an expression, and must not end the
    // header mid-signature.
    let mut nest: i32 = 0;

    for (idx, line) in lexed.iter().enumerate() {
        let lineno = idx + 1;
        if header.trim().is_empty() && !line.code.trim().is_empty() {
            header_line = lineno;
        }
        for c in line.code.chars() {
            match c {
                '{' if use_brace > 0 || is_use_header(&header) => {
                    use_brace += 1;
                    header.push(c);
                }
                '}' if use_brace > 0 => {
                    use_brace -= 1;
                    header.push(c);
                }
                '{' => {
                    let ctx = classify_header(&header, &stack, header_line, &mut out);
                    stack.push((depth, ctx));
                    depth += 1;
                    header.clear();
                    field_buf.clear();
                    angle = 0;
                    nest = 0;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if let Some((entry, ctx)) = stack.last() {
                        if *entry == depth {
                            match ctx {
                                Ctx::Fn { idx } => {
                                    if let Some(f) = out.fns.get_mut(*idx) {
                                        if let Some((start, _)) = f.body {
                                            f.body = Some((start, lineno));
                                        }
                                    }
                                }
                                Ctx::Struct { idx } => {
                                    flush_field(&mut field_buf, *idx, &mut out);
                                }
                                _ => {}
                            }
                            stack.pop();
                        }
                    }
                    header.clear();
                    field_buf.clear();
                    angle = 0;
                    nest = 0;
                }
                ';' if nest > 0 => header.push(c),
                ';' => {
                    finish_semicolon(&header, &stack, header_line, &mut out);
                    header.clear();
                }
                ',' => {
                    if let Some((entry, Ctx::Struct { idx })) = stack.last() {
                        if depth == entry + 1 {
                            if angle == 0 {
                                flush_field(&mut field_buf, *idx, &mut out);
                            } else {
                                field_buf.push(c);
                            }
                        }
                    }
                    header.push(c);
                }
                _ => {
                    match c {
                        '<' => angle += 1,
                        '>' => angle = (angle - 1).max(0),
                        '(' | '[' => nest += 1,
                        ')' | ']' => nest = (nest - 1).max(0),
                        _ => {}
                    }
                    if let Some((entry, Ctx::Struct { .. })) = stack.last() {
                        if depth == entry + 1 {
                            field_buf.push(c);
                        }
                    }
                    header.push(c);
                }
            }
        }
        header.push(' ');
        if let Some((entry, Ctx::Struct { .. })) = stack.last() {
            if depth == entry + 1 && !field_buf.is_empty() {
                field_buf.push(' ');
            }
        }
    }
    out
}

fn flush_field(buf: &mut String, struct_idx: usize, out: &mut ParsedFile) {
    let owned = std::mem::take(buf);
    let text = strip_attrs(owned.trim());
    let text = text
        .trim_start_matches("pub(crate)")
        .trim_start_matches("pub(super)")
        .trim_start_matches("pub ")
        .trim();
    if text.is_empty() {
        return;
    }
    let Some(colon) = text.find(':') else { return };
    if text[colon..].starts_with("::") {
        return;
    }
    let name = text[..colon].trim();
    let ty = text[colon + 1..].trim();
    if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') && !ty.is_empty() {
        if let Some(s) = out.structs.get_mut(struct_idx) {
            s.fields.push(FieldDef {
                name: name.to_string(),
                ty: ty.to_string(),
            });
        }
    }
}

/// Whether accumulated header text is a `use` declaration (so its
/// brace group stays part of the path).
fn is_use_header(header: &str) -> bool {
    let t = header.trim_start();
    t.starts_with("use ") || t.starts_with("pub use ")
}

/// Strips leading `#[...]` attribute groups (balanced brackets).
fn strip_attrs(mut text: &str) -> &str {
    loop {
        text = text.trim_start();
        if !text.starts_with("#[") && !text.starts_with("#![") {
            return text;
        }
        let bytes = text.as_bytes();
        let mut depth = 0usize;
        let mut end = None;
        for (i, &b) in bytes.iter().enumerate() {
            match b {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        match end {
            Some(i) => text = &text[i + 1..],
            None => return text,
        }
    }
}

/// Classifies the header text that just opened a brace.
fn classify_header(
    header: &str,
    stack: &[(usize, Ctx)],
    header_line: usize,
    out: &mut ParsedFile,
) -> Ctx {
    let text = strip_attrs(header.trim());
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if tokens.first() == Some(&"impl") || text.starts_with("impl<") {
        let (ty, trait_name) = parse_impl_header(text);
        return Ctx::Impl { ty, trait_name };
    }
    if let Some(pos) = fn_token_pos(&tokens) {
        if let Some(def) = parse_fn_header(text, &tokens, pos, stack, header_line, true) {
            out.fns.push(def);
            return Ctx::Fn {
                idx: out.fns.len() - 1,
            };
        }
    }
    if let Some(pos) = tokens.iter().position(|t| *t == "struct") {
        if let Some(raw) = tokens.get(pos + 1) {
            let name = ident_prefix(raw);
            if !name.is_empty() {
                out.structs.push(StructDef {
                    name,
                    fields: Vec::new(),
                });
                return Ctx::Struct {
                    idx: out.structs.len() - 1,
                };
            }
        }
    }
    if let Some(pos) = tokens.iter().position(|t| *t == "trait") {
        if let Some(raw) = tokens.get(pos + 1) {
            let name = ident_prefix(raw);
            if !name.is_empty() {
                return Ctx::Trait { name };
            }
        }
    }
    Ctx::Other
}

/// A `;` terminated the header: record bodiless trait method signatures.
fn finish_semicolon(
    header: &str,
    stack: &[(usize, Ctx)],
    header_line: usize,
    out: &mut ParsedFile,
) {
    let text = strip_attrs(header.trim());
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if matches!(stack.last(), Some((_, Ctx::Trait { .. }))) {
        if let Some(pos) = fn_token_pos(&tokens) {
            if let Some(def) = parse_fn_header(text, &tokens, pos, stack, header_line, false) {
                out.fns.push(def);
            }
        }
    }
}

/// Position of a real `fn` token (not part of `fn`-typed generics).
fn fn_token_pos(tokens: &[&str]) -> Option<usize> {
    const LEAD: [&str; 6] = [
        "pub",
        "pub(crate)",
        "pub(super)",
        "const",
        "async",
        "default",
    ];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i] == "fn" {
            return Some(i);
        }
        if !LEAD.contains(&tokens[i]) && !tokens[i].starts_with("pub(") {
            return None;
        }
        i += 1;
    }
    None
}

fn ident_prefix(raw: &str) -> String {
    raw.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Parses `impl<...> [Trait for] Ty [where ...]` into (type, trait).
fn parse_impl_header(text: &str) -> (Option<String>, Option<String>) {
    let mut rest = text.trim_start_matches("impl").trim_start();
    // Skip the generic parameter list if present.
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim_start();
    }
    let rest = match rest.find(" where ") {
        Some(w) => &rest[..w],
        None => rest,
    };
    match rest.find(" for ") {
        Some(f) => {
            let trait_part = last_segment(rest[..f].trim());
            let ty_part = last_segment(rest[f + 5..].trim());
            (nonempty(ty_part), nonempty(trait_part))
        }
        None => (nonempty(last_segment(rest.trim())), None),
    }
}

fn nonempty(s: String) -> Option<String> {
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

/// Last `::` path segment with generics stripped: `a::b::C<D>` → `C`.
fn last_segment(path: &str) -> String {
    let base = match path.find('<') {
        Some(lt) => &path[..lt],
        None => path,
    };
    let seg = base.rsplit("::").next().unwrap_or(base);
    ident_prefix(seg.trim())
}

fn parse_fn_header(
    text: &str,
    tokens: &[&str],
    fn_pos: usize,
    stack: &[(usize, Ctx)],
    header_line: usize,
    has_body: bool,
) -> Option<FnDef> {
    let raw_name = tokens.get(fn_pos + 1)?;
    let name = raw_name
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>();
    if name.is_empty() {
        return None;
    }
    let (impl_ty, trait_name) = enclosing_impl(stack);
    let (params, arity, has_self) = parse_params(text);
    Some(FnDef {
        name,
        impl_ty,
        trait_name,
        params,
        arity,
        has_self,
        body: has_body.then_some((header_line, header_line)),
    })
}

/// Innermost `impl`/`trait` context on the stack.
fn enclosing_impl(stack: &[(usize, Ctx)]) -> (Option<String>, Option<String>) {
    for (_, ctx) in stack.iter().rev() {
        match ctx {
            Ctx::Impl { ty, trait_name } => return (ty.clone(), trait_name.clone()),
            Ctx::Trait { name } => return (None, Some(name.clone())),
            _ => {}
        }
    }
    (None, None)
}

/// Splits the parenthesized parameter list at top-level commas: the
/// named parameters, the non-`self` parameter count, and whether a
/// `self` receiver leads.
fn parse_params(text: &str) -> (Vec<Param>, usize, bool) {
    let Some(open) = text.find('(') else {
        return (Vec::new(), 0, false);
    };
    let bytes = text.as_bytes();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut close = text.len();
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            b'<' => angle += 1,
            b'>' => angle = (angle - 1).max(0),
            _ => {}
        }
    }
    let inner = &text[open + 1..close.min(text.len())];
    let mut params = Vec::new();
    let mut arity = 0;
    let mut has_self = false;
    depth = 0;
    angle = 0;
    let mut start = 0;
    let mut pieces = Vec::new();
    for (i, c) in inner.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0),
            ',' if depth == 0 && angle == 0 => {
                pieces.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&inner[start..]);
    for piece in pieces {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let bare = piece.trim_start_matches('&');
        let bare = bare
            .trim_start_matches("'static")
            .trim_start_matches('\'')
            .trim_start();
        if bare == "self" || bare == "mut self" || bare.starts_with("self:") {
            has_self = true;
            continue;
        }
        arity += 1;
        // Skip lifetimes left from `&'a self` handling.
        if let Some(colon) = piece.find(':') {
            let name = piece[..colon].trim().trim_start_matches("mut ").trim();
            let ty = piece[colon + 1..].trim();
            if !name.is_empty()
                && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                && !ty.is_empty()
            {
                params.push(Param {
                    name: name.to_string(),
                    ty: ty.to_string(),
                });
            }
        } else if piece.contains("self") {
            has_self = true;
            arity -= 1;
        }
    }
    (params, arity, has_self)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_items(&lex(src))
    }

    #[test]
    fn extracts_free_and_impl_fns_with_bodies() {
        let src = "\
fn free(a: u32, b: &str) -> u32 {
    a
}

pub struct Widget {
    pub count: u64,
    label: String,
}

impl Widget {
    pub fn bump(&mut self, by: u64) {
        self.count += by;
    }
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "free");
        assert_eq!(p.fns[0].impl_ty, None);
        assert_eq!(p.fns[0].body, Some((1, 3)));
        assert_eq!(p.fns[0].params.len(), 2);
        assert_eq!(p.fns[0].params[1].ty, "&str");
        assert_eq!(p.fns[1].name, "bump");
        assert_eq!(p.fns[1].impl_ty.as_deref(), Some("Widget"));
        assert!(p.fns[1].has_self);
        assert_eq!(p.fns[1].body, Some((11, 13)));
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].name, "Widget");
        assert_eq!(
            p.structs[0]
                .fields
                .iter()
                .map(|f| (f.name.as_str(), f.ty.as_str()))
                .collect::<Vec<_>>(),
            vec![("count", "u64"), ("label", "String")]
        );
    }

    #[test]
    fn array_types_do_not_end_a_signature() {
        let src = "\
fn seat(profiles: [&mut PlayerProfile; 2], rng: &mut SimRng) -> u32 {
    let pair: [u8; 2] = [0; 2];
    0
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "seat");
        assert_eq!(p.fns[0].params.len(), 2);
        assert_eq!(p.fns[0].params[0].ty, "[&mut PlayerProfile; 2]");
        assert_eq!(p.fns[0].body, Some((1, 4)));
    }

    #[test]
    fn trait_impls_record_the_trait() {
        let src = "\
impl<D: ShardGame> ShardWorkload for ShardedCampaign<D> {
    fn shard_step(&self, sid: u32) -> u32 {
        sid
    }
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].impl_ty.as_deref(), Some("ShardedCampaign"));
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("ShardWorkload"));
        assert_eq!(p.fns[0].body, Some((2, 4)));
    }

    #[test]
    fn trait_defs_record_default_and_bodiless_methods() {
        let src = "\
pub trait ShardGame {
    fn play(&self, seed: u64) -> u64;
    fn bonus(&self) -> u64 {
        0
    }
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "play");
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("ShardGame"));
        assert_eq!(p.fns[0].body, None);
        assert_eq!(p.fns[1].name, "bonus");
        assert_eq!(p.fns[1].body, Some((3, 5)));
    }

    #[test]
    fn multi_line_signatures_and_generic_fields_parse() {
        let src = "\
pub struct Hub {
    routes: DetMap<Sym, Vec<(u32, u64)>>,
    rng: SimRng,
}

impl Hub {
    pub fn route(
        &mut self,
        key: Sym,
        hops: &[u32],
    ) -> Option<u64> {
        None
    }
}
";
        let p = parse(src);
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.structs[0].fields[0].ty, "DetMap<Sym, Vec<(u32, u64)>>");
        assert_eq!(p.structs[0].fields[1].ty, "SimRng");
        assert_eq!(p.fns[0].name, "route");
        assert_eq!(p.fns[0].params.len(), 2);
        assert_eq!(p.fns[0].params[1].name, "hops");
        assert_eq!(p.fns[0].body, Some((7, 13)));
    }

    #[test]
    fn use_groups_do_not_open_items() {
        let src = "\
use hc_sim::rng::{RngFactory, SimRng};
pub use hc_collect::{DetMap as Map, DetSet};
fn after(rng: &mut SimRng) -> u32 {
    0
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after");
        assert_eq!(p.fns[0].body, Some((3, 5)));
    }

    #[test]
    fn nested_fns_and_closures_do_not_corrupt_bodies() {
        let src = "\
fn outer() -> u32 {
    let f = |x: u32| {
        x + 1
    };
    fn inner(y: u32) -> u32 {
        y
    }
    f(inner(1))
}
fn after() {}
";
        let p = parse(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        assert_eq!(outer.body, Some((1, 9)));
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(inner.body, Some((5, 7)));
        let after = p.fns.iter().find(|f| f.name == "after").expect("after");
        assert_eq!(after.body, Some((10, 10)));
    }
}
