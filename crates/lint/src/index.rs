//! Phase 1 of the two-phase analyzer: the **workspace index**.
//!
//! The original `asan-lint` rules are pure functions over one lexed
//! file, which is exactly right for token-local properties (a
//! `HashMap` ident, a wall-clock path) and exactly wrong for the
//! contracts the parallel-core refactor needs: an `Event` variant
//! emitted in one crate and matched in another. This module
//! walks every lexed file once and extracts the item structure those
//! cross-file rules need:
//!
//! - `struct` definitions with named fields and the identifiers in
//!   each field's type (`[`StructDef`]`),
//! - `enum` definitions with their variants ([`EnumDef`]),
//! - `fn` items with the impl/trait type they belong to and the token
//!   span of their body ([`FnDef`]),
//!
//! keyed per file ([`FileIndex`]) and aggregated workspace-wide
//! ([`WorkspaceIndex`]). Token spans index into the file's own
//! [`Lexed::tokens`], so a workspace rule can drop back to token level
//! wherever the item skeleton is not enough (e.g. classifying an
//! `Event::X` reference as match-arm pattern vs construction via
//! [`pattern_spans`]).

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lexer::{Kind, Lexed, Token};

/// One named struct field.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// Identifiers appearing in the field's type (`Vec<Option<Rc<T>>>`
    /// → `["Vec", "Option", "Rc", "T"]`).
    pub ty: Vec<String>,
}

/// One `struct Name { ... }` definition (named fields only; tuple and
/// unit structs index with an empty field list).
#[derive(Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDef>,
    /// Identifiers in tuple-struct element types (empty for named /
    /// unit structs); kept so reachability can see through newtypes.
    pub tuple_ty: Vec<String>,
}

/// One enum variant.
#[derive(Debug)]
pub struct VariantDef {
    /// Variant name.
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
}

/// One `enum Name { ... }` definition.
#[derive(Debug)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// Variants in declaration order.
    pub variants: Vec<VariantDef>,
}

/// One `fn` item with a body.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// The `impl`/`trait` type the function belongs to (`impl Foo`,
    /// `impl Trait for Foo` → `Foo`; trait default methods carry the
    /// trait's name); `None` for free functions.
    pub impl_ty: Option<String>,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// Token span of the body *including* both braces, indexing into
    /// the owning file's `Lexed::tokens`.
    pub body: Range<usize>,
}

/// Everything the index knows about one file.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The lexed source (tokens + allow directives).
    pub lexed: Lexed,
    /// Struct definitions in source order.
    pub structs: Vec<StructDef>,
    /// Enum definitions in source order.
    pub enums: Vec<EnumDef>,
    /// Function items in source order.
    pub fns: Vec<FnDef>,
}

/// The whole workspace, indexed. Files are sorted by `rel_path`, so
/// every cross-file walk is deterministic.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Per-file indexes, sorted by workspace-relative path.
    pub files: Vec<FileIndex>,
}

impl WorkspaceIndex {
    /// Builds the index from already-lexed files. `files` must be
    /// sorted by relative path (the driver sorts its walk).
    pub fn build(files: Vec<(String, Lexed)>) -> Self {
        let files = files
            .into_iter()
            .map(|(rel_path, lexed)| {
                let mut fi = FileIndex {
                    rel_path,
                    lexed,
                    structs: Vec::new(),
                    enums: Vec::new(),
                    fns: Vec::new(),
                };
                let end = fi.lexed.tokens.len();
                let mut items = Items::default();
                scan_items(&fi.lexed.tokens, 0..end, None, &mut items);
                fi.structs = items.structs;
                fi.enums = items.enums;
                fi.fns = items.fns;
                fi
            })
            .collect();
        WorkspaceIndex { files }
    }

    /// All struct definitions, keyed by name. A name defined in
    /// several files maps to every definition (file index, struct
    /// ref).
    pub fn structs_by_name(&self) -> BTreeMap<&str, Vec<(usize, &StructDef)>> {
        let mut out: BTreeMap<&str, Vec<(usize, &StructDef)>> = BTreeMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for s in &file.structs {
                out.entry(s.name.as_str()).or_default().push((fi, s));
            }
        }
        out
    }
}

#[derive(Default)]
struct Items {
    structs: Vec<StructDef>,
    enums: Vec<EnumDef>,
    fns: Vec<FnDef>,
}

/// Walks one token range collecting items; recurses into `mod`,
/// `impl`, and `trait` bodies (with the impl/trait target as the fn
/// context) but not into fn bodies — a nested helper fn is rare and a
/// closure's tokens belong to the enclosing fn's span.
fn scan_items(toks: &[Token], range: Range<usize>, impl_ty: Option<&str>, out: &mut Items) {
    let mut i = range.start;
    let end = range.end;
    while i < end {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "struct" => i = parse_struct(toks, i, end, out),
            "enum" => i = parse_enum(toks, i, end, out),
            "fn" => i = parse_fn(toks, i, end, impl_ty, out),
            "impl" | "trait" => {
                let Some(open) = find_punct(toks, i + 1, end, "{") else {
                    return;
                };
                let target = if t.text == "impl" {
                    impl_target(&toks[i + 1..open])
                } else {
                    // `trait Name { ... }` — default method bodies
                    // belong to the trait's name.
                    toks.get(i + 1)
                        .filter(|t| t.kind == Kind::Ident)
                        .map(|t| t.text.clone())
                };
                let close = matching_brace(toks, open).min(end);
                scan_items(toks, open + 1..close, target.as_deref(), out);
                i = close + 1;
            }
            "mod" => {
                // `mod name { ... }` — recurse; `mod name;` — skip.
                let Some(stop) = (i + 1..end).find(|&j| matches!(toks[j].text.as_str(), "{" | ";"))
                else {
                    return;
                };
                if toks[stop].text == "{" {
                    let close = matching_brace(toks, stop).min(end);
                    scan_items(toks, stop + 1..close, None, out);
                    i = close + 1;
                } else {
                    i = stop + 1;
                }
            }
            _ => i += 1,
        }
    }
}

fn parse_struct(toks: &[Token], kw: usize, end: usize, out: &mut Items) -> usize {
    let Some(name) = toks.get(kw + 1).filter(|t| t.kind == Kind::Ident) else {
        return kw + 1;
    };
    // Find the body opener: `{` named, `(` tuple, `;` unit. Generic
    // parameter lists (`<...>`) are skipped by depth tracking so a
    // `Foo<T: Into<U>>` bound cannot end the search early.
    let mut j = kw + 2;
    let mut depth = 0i32;
    while j < end {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "{" | "(" | ";" if depth <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    match toks.get(j).map(|t| t.text.as_str()) {
        Some("{") => {
            let close = matching_brace(toks, j).min(end);
            out.structs.push(StructDef {
                name: name.text.clone(),
                line: name.line,
                col: name.col,
                fields: collect_fields(&toks[j + 1..close]),
                tuple_ty: Vec::new(),
            });
            close + 1
        }
        Some("(") => {
            // Tuple struct: record the element-type identifiers so
            // reachability can see through newtypes.
            let close = matching_delim(toks, j, "(", ")").min(end);
            let tuple_ty = toks[j + 1..close]
                .iter()
                .filter(|t| t.kind == Kind::Ident && t.text != "pub" && t.text != "crate")
                .map(|t| t.text.clone())
                .collect();
            out.structs.push(StructDef {
                name: name.text.clone(),
                line: name.line,
                col: name.col,
                fields: Vec::new(),
                tuple_ty,
            });
            close + 1
        }
        _ => {
            out.structs.push(StructDef {
                name: name.text.clone(),
                line: name.line,
                col: name.col,
                fields: Vec::new(),
                tuple_ty: Vec::new(),
            });
            j + 1
        }
    }
}

fn parse_enum(toks: &[Token], kw: usize, end: usize, out: &mut Items) -> usize {
    let Some(name) = toks.get(kw + 1).filter(|t| t.kind == Kind::Ident) else {
        return kw + 1;
    };
    let Some(open) = find_punct(toks, kw + 2, end, "{") else {
        return kw + 2;
    };
    let close = matching_brace(toks, open).min(end);
    let body = &toks[open + 1..close];
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" | "<" => depth += 1,
                "}" | ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            i += 1;
            continue;
        }
        // A variant is a depth-0 identifier followed by `,`, `(`, `{`,
        // `=`, or the end of the body (attributes sit inside `[...]`,
        // so their identifiers never appear at depth 0).
        if depth == 0 && t.kind == Kind::Ident {
            let next = body.get(i + 1).map(|t| t.text.as_str());
            if matches!(next, None | Some("," | "(" | "{" | "=")) {
                variants.push(VariantDef {
                    name: t.text.clone(),
                    line: t.line,
                    col: t.col,
                });
            }
        }
        i += 1;
    }
    out.enums.push(EnumDef {
        name: name.text.clone(),
        line: name.line,
        col: name.col,
        variants,
    });
    close + 1
}

fn parse_fn(
    toks: &[Token],
    kw: usize,
    end: usize,
    impl_ty: Option<&str>,
    out: &mut Items,
) -> usize {
    let Some(name) = toks.get(kw + 1).filter(|t| t.kind == Kind::Ident) else {
        return kw + 1;
    };
    // The body opens at the first `{`; a bodyless trait-method
    // declaration ends at `;` first.
    let Some(stop) = (kw + 2..end).find(|&j| matches!(toks[j].text.as_str(), "{" | ";")) else {
        return kw + 2;
    };
    if toks[stop].text == ";" {
        return stop + 1;
    }
    let close = matching_brace(toks, stop).min(end);
    out.fns.push(FnDef {
        name: name.text.clone(),
        impl_ty: impl_ty.map(str::to_string),
        line: name.line,
        col: name.col,
        body: stop..(close + 1).min(end),
    });
    close + 1
}

/// Splits one struct body into named fields with type identifiers.
fn collect_fields(body: &[Token]) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" | "<" => depth += 1,
                "}" | ")" | "]" | ">" => depth -= 1,
                _ => {}
            }
            i += 1;
            continue;
        }
        if depth == 0 && t.kind == Kind::Ident && is_punct(body, i + 1, ":") {
            let name = t.text.clone();
            let (line, col) = (t.line, t.col);
            let mut ty = Vec::new();
            let mut j = i + 2;
            let mut tdepth = 0i32;
            while j < body.len() {
                let tt = &body[j];
                if tt.kind == Kind::Punct {
                    match tt.text.as_str() {
                        "<" | "(" | "[" => tdepth += 1,
                        ">" | ")" | "]" => tdepth -= 1,
                        "," if tdepth <= 0 => break,
                        _ => {}
                    }
                } else if tt.kind == Kind::Ident {
                    ty.push(tt.text.clone());
                }
                j += 1;
            }
            fields.push(FieldDef {
                name,
                line,
                col,
                ty,
            });
            i = j;
            continue;
        }
        i += 1;
    }
    fields
}

/// The type an `impl` header targets: the first identifier after `for`
/// (trait impls), else the first identifier outside the generic
/// parameter list (inherent impls).
fn impl_target(header: &[Token]) -> Option<String> {
    let mut depth = 0i32;
    let mut first_ty: Option<&Token> = None;
    let mut after_for = false;
    for t in header {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                _ => {}
            }
            continue;
        }
        if t.kind != Kind::Ident || depth > 0 {
            continue;
        }
        if t.text == "for" {
            after_for = true;
            continue;
        }
        if after_for {
            return Some(t.text.clone());
        }
        if first_ty.is_none() && t.text != "dyn" {
            first_ty = Some(t);
        }
    }
    first_ty.map(|t| t.text.clone())
}

/// Token spans (into `toks`) of every match-arm **pattern** inside
/// `range`: the tokens between an arm boundary and its `=>`, for every
/// `match` in the range, nested matches included. An `Event::X`
/// reference inside one of these spans is being *matched*; anywhere
/// else it is being *constructed* (or is a path call like
/// `Event::restore`, which the caller filters by case).
pub fn pattern_spans(toks: &[Token], range: Range<usize>) -> Vec<Range<usize>> {
    let mut spans = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if !(toks[i].kind == Kind::Ident && toks[i].text == "match") {
            i += 1;
            continue;
        }
        let Some(open) = find_punct(toks, i + 1, range.end, "{") else {
            break;
        };
        let close = matching_brace(toks, open).min(range.end);
        // Walk top-level arms of this match body; the scan loop will
        // revisit nested matches inside arm bodies on its own.
        let mut depth = 0i32;
        let mut arm_start = open + 1;
        let mut j = open + 1;
        while j < close {
            let t = &toks[j];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    "," if depth == 0 => arm_start = j + 1,
                    "=>" if depth == 0 => {
                        spans.push(arm_start..j);
                        // Skip the arm body so its `,` separators and
                        // expressions are not mistaken for patterns.
                        j = arm_body_end(toks, j + 1, close);
                        arm_start = j;
                        continue;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        i = open + 1;
    }
    spans
}

/// Index just past one arm's body starting at `start`: a block arm
/// ends at its close brace, an expression arm at the next top-level
/// comma (or the end of the match).
fn arm_body_end(toks: &[Token], start: usize, close: usize) -> usize {
    if toks
        .get(start)
        .is_some_and(|t| t.kind == Kind::Punct && t.text == "{")
    {
        return (matching_brace(toks, start) + 1).min(close);
    }
    let mut depth = 0i32;
    let mut j = start;
    while j < close {
        let t = &toks[j];
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "," if depth == 0 => return j + 1,
                _ => {}
            }
        }
        j += 1;
    }
    close
}

fn find_punct(toks: &[Token], from: usize, end: usize, s: &str) -> Option<usize> {
    (from..end).find(|&j| toks[j].kind == Kind::Punct && toks[j].text == s)
}

fn is_punct(toks: &[Token], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == Kind::Punct && t.text == s)
}

/// Matching close brace for the `{` at `open` (or `toks.len()`).
fn matching_brace(toks: &[Token], open: usize) -> usize {
    matching_delim(toks, open, "{", "}")
}

fn matching_delim(toks: &[Token], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index_one(src: &str) -> FileIndex {
        let mut wi = WorkspaceIndex::build(vec![("t.rs".to_string(), lex(src))]);
        wi.files.remove(0)
    }

    #[test]
    fn structs_enums_fns_are_indexed() {
        let src = "
            pub struct A { pub x: u64, y: Vec<Rc<B>> }
            struct Unit;
            struct Tup(pub Rc<C>);
            enum Event { Start(u32), Stop { t: u64 }, Tick }
            impl A {
                fn on_event(&mut self) { let _ = 1; }
            }
            impl Snap for A {
                fn snapshot(&self, w: &mut W) { w.u64(self.x); }
            }
            fn free() {}
        ";
        let fi = index_one(src);
        assert_eq!(fi.structs.len(), 3);
        assert_eq!(fi.structs[0].fields.len(), 2);
        assert_eq!(fi.structs[0].fields[1].ty, ["Vec", "Rc", "B"]);
        assert_eq!(fi.structs[2].tuple_ty, ["Rc", "C"]);
        assert_eq!(fi.enums.len(), 1);
        let vs: Vec<&str> = fi.enums[0]
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(vs, ["Start", "Stop", "Tick"]);
        let fns: Vec<(&str, Option<&str>)> = fi
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_ty.as_deref()))
            .collect();
        assert_eq!(
            fns,
            [
                ("on_event", Some("A")),
                ("snapshot", Some("A")),
                ("free", None)
            ]
        );
    }

    #[test]
    fn trait_default_methods_carry_the_trait_name() {
        let src = "trait Hook { fn snapshot_state(&self) {} fn decl_only(&self); }";
        let fi = index_one(src);
        assert_eq!(fi.fns.len(), 1);
        assert_eq!(fi.fns[0].impl_ty.as_deref(), Some("Hook"));
    }

    #[test]
    fn items_inside_mod_tests_are_found() {
        let src = "mod tests { struct S { a: u8 } fn f() {} }";
        let fi = index_one(src);
        assert_eq!(fi.structs.len(), 1);
        assert_eq!(fi.fns.len(), 1);
    }

    #[test]
    fn pattern_spans_cover_arms_not_bodies() {
        let src = "fn f(ev: Event) { match ev { Event::A(x) => go(Event::B), other => {} } }";
        let fi = index_one(src);
        let spans = pattern_spans(&fi.lexed.tokens, 0..fi.lexed.tokens.len());
        assert_eq!(spans.len(), 2);
        let in_pattern = |needle: &str| {
            spans
                .iter()
                .any(|s| fi.lexed.tokens[s.clone()].iter().any(|t| t.text == needle))
        };
        assert!(in_pattern("A"));
        assert!(in_pattern("other"));
        // `Event::B` is constructed in an arm body, not matched.
        assert!(!in_pattern("B"));
    }

    #[test]
    fn generic_struct_headers_do_not_confuse_the_body_finder() {
        let src = "struct G<T: Into<u64>> { v: T }";
        let fi = index_one(src);
        assert_eq!(fi.structs[0].fields.len(), 1);
    }
}
