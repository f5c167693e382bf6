//! Phase 1 of the two-phase analyzer: the **workspace index**.
//!
//! The original `asan-lint` rules are pure functions over one lexed
//! file, which is exactly right for token-local properties (a
//! `HashMap` ident, a wall-clock path) and exactly wrong for a
//! cross-file contract such as `domain-isolation`'s: a type reached
//! from two engines' fields, declared in a third file. This module
//! walks every lexed file once and extracts the `struct` definitions
//! with named fields and the identifiers in each field's type
//! ([`StructDef`]), keyed per file ([`FileIndex`]) and aggregated
//! workspace-wide ([`WorkspaceIndex`]).

use std::collections::BTreeMap;

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

/// Everything the index knows about one file.
#[derive(Debug)]
pub struct FileIndex {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The lexed source (tokens + allow directives).
    pub lexed: Lexed,
    /// Struct definitions in source order.
    pub structs: Vec<StructDef>,
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
            .map(|(rel_path, lexed)| FileIndex {
                structs: scan_structs(&lexed.tokens),
                rel_path,
                lexed,
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

/// Collects every `struct` definition, skipping `fn` bodies: a struct
/// local to one function holds no state an engine can reach.
fn scan_structs(toks: &[Token]) -> Vec<StructDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        i = match t.text.as_str() {
            "struct" if t.kind == Kind::Ident => parse_struct(toks, i, &mut out),
            "fn" if t.kind == Kind::Ident => skip_fn(toks, i),
            _ => i + 1,
        };
    }
    out
}

/// Index just past the `fn` item at `kw`: past its body, or past the
/// `;` of a bodyless declaration. A `fn(..)` pointer type is one token.
fn skip_fn(toks: &[Token], kw: usize) -> usize {
    if !toks.get(kw + 1).is_some_and(|t| t.kind == Kind::Ident) {
        return kw + 1;
    }
    match (kw + 2..toks.len()).find(|&j| matches!(toks[j].text.as_str(), "{" | ";")) {
        Some(open) if toks[open].text == "{" => matching_brace(toks, open) + 1,
        Some(semi) => semi + 1,
        None => toks.len(),
    }
}

fn parse_struct(toks: &[Token], kw: usize, out: &mut Vec<StructDef>) -> usize {
    let Some(name) = toks.get(kw + 1).filter(|t| t.kind == Kind::Ident) else {
        return kw + 1;
    };
    // Find the body opener: `{` named, `(` tuple, `;` unit. Generic
    // parameter lists (`<...>`) are skipped by depth tracking so a
    // `Foo<T: Into<U>>` bound cannot end the search early.
    let mut j = kw + 2;
    let mut depth = 0i32;
    while j < toks.len() {
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
            let close = matching_brace(toks, j);
            out.push(StructDef {
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
            let close = matching_delim(toks, j, "(", ")");
            let tuple_ty = toks[j + 1..close]
                .iter()
                .filter(|t| t.kind == Kind::Ident && t.text != "pub" && t.text != "crate")
                .map(|t| t.text.clone())
                .collect();
            out.push(StructDef {
                name: name.text.clone(),
                line: name.line,
                col: name.col,
                fields: Vec::new(),
                tuple_ty,
            });
            close + 1
        }
        _ => {
            out.push(StructDef {
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
    fn structs_are_indexed() {
        let src = "
            pub struct A { pub x: u64, y: Vec<Rc<B>> }
            struct Unit;
            struct Tup(pub Rc<C>);
            enum Event { Start(u32), Stop { t: u64 }, Tick }
            impl A {
                fn on_event(&mut self) { let _ = 1; }
            }
        ";
        let fi = index_one(src);
        assert_eq!(fi.structs.len(), 3);
        assert_eq!(fi.structs[0].fields.len(), 2);
        assert_eq!(fi.structs[0].fields[1].ty, ["Vec", "Rc", "B"]);
        assert_eq!(fi.structs[2].tuple_ty, ["Rc", "C"]);
    }

    #[test]
    fn items_inside_mod_tests_are_found() {
        let src = "mod tests { struct S { a: u8 } fn f() {} }";
        let fi = index_one(src);
        assert_eq!(fi.structs.len(), 1);
    }

    #[test]
    fn structs_local_to_a_fn_body_are_skipped() {
        let src = "type F = fn(u8); trait T { fn decl(&self); }
            fn f() { struct Local { c: Cell<u8> } }
            struct Kept { a: u8 }";
        let fi = index_one(src);
        let names: Vec<&str> = fi.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Kept"]);
    }

    #[test]
    fn generic_struct_headers_do_not_confuse_the_body_finder() {
        let src = "struct G<T: Into<u64>> { v: T }";
        let fi = index_one(src);
        assert_eq!(fi.structs[0].fields.len(), 1);
    }
}
