//! The item layer: extracts top-level structure from a token stream.
//!
//! Built on `token.rs`, this parser recovers the items the rule
//! families need — functions (with body token ranges), structs (with
//! fields, their type text, and visibility), enums (with variants),
//! impls and inline modules (recursed into) — plus `match` expressions
//! with their arm patterns and bodies, which is what the J-rule walks
//! to cross-check the journal writer against its parser.
//!
//! Like the rest of simlint it is an approximation of Rust, not a
//! compiler front-end: it tracks brace/paren/bracket/angle nesting well
//! enough to find item boundaries, and it degrades safely (an item it
//! cannot classify is skipped, never mis-attributed).

use crate::token::{Tok, TokKind};
use std::ops::Range;

/// What kind of item was parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn`.
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `impl` block (recursed into; the block itself is also recorded).
    Impl,
    /// Inline `mod name { … }` (recursed into).
    Mod,
    /// `trait` block.
    Trait,
}

/// One struct field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// The field's type, as space-joined token text (`HashMap < u64 ,
    /// u64 >`); rules match on identifier words inside it.
    pub ty: String,
    /// True when the field is `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// 1-based line of the field name.
    pub line: usize,
    /// 1-based column of the field name.
    pub col: usize,
}

/// One enum variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant name.
    pub line: usize,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name (`impl` blocks get their self-type text).
    pub name: String,
    /// True when declared `pub` (any `pub(…)` restriction counts).
    pub is_pub: bool,
    /// True when the item sits under a `#[cfg(test)]` attribute or
    /// inside a module that does.
    pub in_test: bool,
    /// 1-based line of the introducing keyword.
    pub line: usize,
    /// Token index range of the `{ … }` body contents (braces excluded);
    /// `None` for bodiless items (`fn … ;`, unit structs).
    pub body: Option<Range<usize>>,
    /// Struct fields (named-field structs only).
    pub fields: Vec<Field>,
    /// Enum variants.
    pub variants: Vec<Variant>,
}

/// One `match` arm: pattern and body as token index ranges.
#[derive(Debug, Clone)]
pub struct MatchArm {
    /// Tokens of the arm pattern (before `=>`), guards included.
    pub pat: Range<usize>,
    /// Tokens of the arm body.
    pub body: Range<usize>,
}

/// One `match` expression.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// 1-based line of the `match` keyword.
    pub line: usize,
    /// The arms, in order.
    pub arms: Vec<MatchArm>,
}

/// Parses every item in `toks`, recursing into `mod`/`impl`/`trait`
/// bodies. Items are returned in source order, flattened.
pub fn parse_items(toks: &[Tok]) -> Vec<Item> {
    let mut out = Vec::new();
    parse_range(toks, 0..toks.len(), false, &mut out);
    out
}

fn parse_range(toks: &[Tok], range: Range<usize>, in_test: bool, out: &mut Vec<Item>) {
    let mut i = range.start;
    let end = range.end;
    let mut pending_test = false; // a #[cfg(test)] attribute was seen
    let mut pending_pub = false;

    while i < end {
        let t = &toks[i];
        // Attribute: `#` `[` … `]` — note cfg(test), then skip.
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let close = skip_balanced(toks, i + 1, end, "[", "]");
            if toks[i + 2..close.saturating_sub(1)]
                .iter()
                .any(|t| t.is_ident("cfg"))
                && toks[i + 2..close.saturating_sub(1)]
                    .iter()
                    .any(|t| t.is_ident("test"))
            {
                pending_test = true;
            }
            i = close;
            continue;
        }
        if t.is_ident("pub") {
            pending_pub = true;
            i += 1;
            // Skip `pub(crate)`-style restrictions.
            if toks.get(i).is_some_and(|t| t.is_punct("(")) {
                i = skip_balanced(toks, i, end, "(", ")");
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "fn" => {
                    i = parse_fn(toks, i, end, pending_pub, in_test || pending_test, out);
                    (pending_test, pending_pub) = (false, false);
                    continue;
                }
                "struct" => {
                    i = parse_struct(toks, i, end, pending_pub, in_test || pending_test, out);
                    (pending_test, pending_pub) = (false, false);
                    continue;
                }
                "enum" => {
                    i = parse_enum(toks, i, end, pending_pub, in_test || pending_test, out);
                    (pending_test, pending_pub) = (false, false);
                    continue;
                }
                "impl" | "mod" | "trait" => {
                    let kind = match t.text.as_str() {
                        "impl" => ItemKind::Impl,
                        "mod" => ItemKind::Mod,
                        _ => ItemKind::Trait,
                    };
                    i = parse_block_item(
                        toks,
                        i,
                        end,
                        kind,
                        pending_pub,
                        in_test || pending_test,
                        out,
                    );
                    (pending_test, pending_pub) = (false, false);
                    continue;
                }
                _ => {}
            }
        }
        // Anything else (use, const, static, type, macro call, stray
        // tokens): skip a balanced group or a single token.
        if is_open(&t.text) {
            i = skip_balanced(toks, i, end, &t.text, close_of(&t.text));
        } else {
            i += 1;
        }
        (pending_test, pending_pub) = (false, false);
    }
}

/// Parses `fn name … { body }` (or `;`). Returns the index just past it.
fn parse_fn(
    toks: &[Tok],
    at: usize,
    end: usize,
    is_pub: bool,
    in_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    let name = match toks.get(at + 1) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return at + 1,
    };
    // Scan the signature for the body `{` at bracket depth 0. Angle
    // depth guards `where T: Iterator<Item = U>`; `->` is one token, so
    // `>` here is always a generic close.
    let mut j = at + 2;
    let mut angle = 0i32;
    let mut body = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t.is_punct("(") || t.is_punct("[") {
            j = skip_balanced(toks, j, end, &t.text, close_of(&t.text));
            continue;
        } else if t.is_punct("{") && angle == 0 {
            let close = skip_balanced(toks, j, end, "{", "}");
            body = Some(j + 1..close.saturating_sub(1));
            j = close;
            break;
        } else if t.is_punct(";") && angle == 0 {
            j += 1;
            break;
        }
        j += 1;
    }
    out.push(Item {
        kind: ItemKind::Fn,
        name,
        is_pub,
        in_test,
        line: toks[at].line,
        body,
        fields: Vec::new(),
        variants: Vec::new(),
    });
    j
}

/// Parses `struct Name { fields }` / tuple / unit structs.
fn parse_struct(
    toks: &[Tok],
    at: usize,
    end: usize,
    is_pub: bool,
    in_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    let name = match toks.get(at + 1) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return at + 1,
    };
    let mut j = at + 2;
    let mut angle = 0i32;
    let mut fields = Vec::new();
    let mut body = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t.is_punct("(") {
            // Tuple struct: skip the element list, then expect `;`.
            j = skip_balanced(toks, j, end, "(", ")");
            continue;
        } else if t.is_punct("{") && angle == 0 {
            let close = skip_balanced(toks, j, end, "{", "}");
            body = Some(j + 1..close.saturating_sub(1));
            fields = parse_struct_fields(toks, j + 1..close.saturating_sub(1));
            j = close;
            break;
        } else if t.is_punct(";") && angle == 0 {
            j += 1;
            break;
        }
        j += 1;
    }
    out.push(Item {
        kind: ItemKind::Struct,
        name,
        is_pub,
        in_test,
        line: toks[at].line,
        body,
        fields,
        variants: Vec::new(),
    });
    j
}

/// Parses the named fields of a struct body token range.
fn parse_struct_fields(toks: &[Tok], range: Range<usize>) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = range.start;
    let end = range.end;
    while i < end {
        // Skip attributes on the field.
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i = skip_balanced(toks, i + 1, end, "[", "]");
            continue;
        }
        let mut is_pub = false;
        if toks[i].is_ident("pub") {
            is_pub = true;
            i += 1;
            if i < end && toks[i].is_punct("(") {
                i = skip_balanced(toks, i, end, "(", ")");
            }
        }
        // Field: `name : type ,`.
        if i + 1 < end && toks[i].kind == TokKind::Ident && toks[i + 1].is_punct(":") {
            let (name, line, col) = (toks[i].text.clone(), toks[i].line, toks[i].col);
            let ty_start = i + 2;
            let ty_end = field_end(toks, ty_start, end);
            let ty = toks[ty_start..ty_end]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            fields.push(Field {
                name,
                ty,
                is_pub,
                line,
                col,
            });
            i = (ty_end + 1).min(end); // past the `,`
        } else {
            i += 1;
        }
    }
    fields
}

/// Finds the token index of the `,` ending a field type (angle/paren/
/// bracket balanced), or `end`.
fn field_end(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut i = from;
    let mut angle = 0i32;
    while i < end {
        let t = &toks[i];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            i = skip_balanced(toks, i, end, &t.text, close_of(&t.text));
            continue;
        } else if t.is_punct(",") && angle <= 0 {
            return i;
        }
        i += 1;
    }
    end
}

/// Parses `enum Name { Variants }`.
fn parse_enum(
    toks: &[Tok],
    at: usize,
    end: usize,
    is_pub: bool,
    in_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    let name = match toks.get(at + 1) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return at + 1,
    };
    let mut j = at + 2;
    let mut angle = 0i32;
    let mut variants = Vec::new();
    let mut body = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t.is_punct("{") && angle == 0 {
            let close = skip_balanced(toks, j, end, "{", "}");
            body = Some(j + 1..close.saturating_sub(1));
            variants = parse_variants(toks, j + 1..close.saturating_sub(1));
            j = close;
            break;
        } else if t.is_punct(";") && angle == 0 {
            j += 1;
            break;
        }
        j += 1;
    }
    out.push(Item {
        kind: ItemKind::Enum,
        name,
        is_pub,
        in_test,
        line: toks[at].line,
        body,
        fields: Vec::new(),
        variants,
    });
    j
}

/// Parses enum variants out of a body token range.
fn parse_variants(toks: &[Tok], range: Range<usize>) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = range.start;
    let end = range.end;
    while i < end {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i = skip_balanced(toks, i + 1, end, "[", "]");
            continue;
        }
        if toks[i].kind == TokKind::Ident {
            variants.push(Variant {
                name: toks[i].text.clone(),
                line: toks[i].line,
            });
            i += 1;
            // Skip the payload / discriminant up to the `,`.
            while i < end && !toks[i].is_punct(",") {
                if is_open(&toks[i].text) {
                    i = skip_balanced(toks, i, end, &toks[i].text, close_of(&toks[i].text));
                } else {
                    i += 1;
                }
            }
            i += 1; // the `,`
        } else {
            i += 1;
        }
    }
    variants
}

/// Parses an `impl`/`mod`/`trait` block: records it and recurses into
/// its body so nested items are extracted too.
#[allow(clippy::too_many_arguments)]
fn parse_block_item(
    toks: &[Tok],
    at: usize,
    end: usize,
    kind: ItemKind,
    is_pub: bool,
    in_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    // Find the body `{` at angle depth 0; name = header token text.
    let mut j = at + 1;
    let mut angle = 0i32;
    let mut header = Vec::new();
    let mut body_range = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle = (angle - 1).max(0);
        } else if t.is_punct("{") && angle == 0 {
            let close = skip_balanced(toks, j, end, "{", "}");
            body_range = Some(j + 1..close.saturating_sub(1));
            j = close;
            break;
        } else if t.is_punct(";") && angle == 0 {
            // `mod name;` — out-of-line module, no body here.
            j += 1;
            break;
        }
        header.push(t.text.as_str());
        j += 1;
    }
    // `impl Trait for Type` → name the self type; else the header text.
    let name = match header.iter().position(|s| *s == "for") {
        Some(p) => header[p + 1..].join(" "),
        None => header.join(" "),
    };
    // A test module marks everything inside it as test code.
    let body_in_test = in_test || (kind == ItemKind::Mod && name == "tests");
    out.push(Item {
        kind,
        name,
        is_pub,
        in_test,
        line: toks[at].line,
        body: body_range.clone(),
        fields: Vec::new(),
        variants: Vec::new(),
    });
    if let Some(r) = body_range {
        parse_range(toks, r, body_in_test, out);
    }
    j
}

/// Extracts every `match` expression whose `match` keyword lies in
/// `range` (nested matches included — each gets its own entry).
pub fn find_matches(toks: &[Tok], range: Range<usize>) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        if toks[i].is_ident("match") {
            if let Some((expr, _next)) = parse_match(toks, i, range.end) {
                out.push(expr);
            }
        }
        i += 1;
    }
    out
}

/// Parses one `match` at `at`. Returns the expression and the index
/// just past its closing brace.
fn parse_match(toks: &[Tok], at: usize, end: usize) -> Option<(MatchExpr, usize)> {
    // Scrutinee: scan to the `{` at depth 0.
    let mut j = at + 1;
    let mut open = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") {
            j = skip_balanced(toks, j, end, &t.text, close_of(&t.text));
            continue;
        }
        if t.is_punct("{") {
            open = Some(j);
            break;
        }
        j += 1;
    }
    let open = open?;
    let close = skip_balanced(toks, open, end, "{", "}");
    let body = open + 1..close.saturating_sub(1);

    // Arms: pattern up to `=>` (depth 0), then a `{…}` block or an
    // expression up to the `,` at depth 0.
    let mut arms = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let pat_start = i;
        let mut k = i;
        while k < body.end && !toks[k].is_punct("=>") {
            if is_open(&toks[k].text) {
                k = skip_balanced(toks, k, body.end, &toks[k].text, close_of(&toks[k].text));
            } else {
                k += 1;
            }
        }
        if k >= body.end {
            break;
        }
        let pat = pat_start..k;
        let body_start = k + 1;
        let body_end;
        if body_start < body.end && toks[body_start].is_punct("{") {
            let bclose = skip_balanced(toks, body_start, body.end, "{", "}");
            body_end = bclose;
            i = bclose;
            if i < body.end && toks[i].is_punct(",") {
                i += 1;
            }
        } else {
            let mut m = body_start;
            while m < body.end && !toks[m].is_punct(",") {
                if is_open(&toks[m].text) {
                    m = skip_balanced(toks, m, body.end, &toks[m].text, close_of(&toks[m].text));
                } else {
                    m += 1;
                }
            }
            body_end = m;
            i = (m + 1).min(body.end);
        }
        arms.push(MatchArm {
            pat,
            body: body_start..body_end,
        });
    }
    Some((
        MatchExpr {
            line: toks[at].line,
            arms,
        },
        close,
    ))
}

fn is_open(s: &str) -> bool {
    matches!(s, "(" | "[" | "{")
}

fn close_of(s: &str) -> &'static str {
    match s {
        "(" => ")",
        "[" => "]",
        _ => "}",
    }
}

/// Index just past the group opened at `at` (which must hold `open`).
/// Robust to truncation: returns `end` if the group never closes.
fn skip_balanced(toks: &[Tok], at: usize, end: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < end {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::lex;

    fn items(src: &str) -> Vec<Item> {
        parse_items(&lex(src))
    }

    #[test]
    fn extracts_fns_structs_enums() {
        let src = "pub fn f(x: u8) -> u8 { x }\n\
                   struct S { pub a: u32, b: HashMap<u64, u64> }\n\
                   pub enum E { A, B(u8), C { x: u8 } }\n";
        let its = items(src);
        assert_eq!(its.len(), 3);
        assert_eq!((its[0].kind, its[0].name.as_str()), (ItemKind::Fn, "f"));
        assert!(its[0].is_pub && its[0].body.is_some());
        let s = &its[1];
        assert_eq!(s.kind, ItemKind::Struct);
        assert_eq!(s.fields.len(), 2);
        assert!(s.fields[0].is_pub && !s.fields[1].is_pub);
        assert!(s.fields[1].ty.contains("HashMap"));
        let e = &its[2];
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    fn recurses_into_impl_and_mod() {
        let src = "impl Foo for Bar { fn m(&self) {} }\n\
                   mod inner { pub struct T { x: u8 } }\n";
        let its = items(src);
        let fns: Vec<&Item> = its.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "m");
        let imp = its.iter().find(|i| i.kind == ItemKind::Impl).unwrap();
        assert_eq!(imp.name, "Bar");
        assert!(its
            .iter()
            .any(|i| i.kind == ItemKind::Struct && i.name == "T"));
    }

    #[test]
    fn cfg_test_marks_items() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\nfn live() {}\n";
        let its = items(src);
        let t = its.iter().find(|i| i.name == "t").unwrap();
        assert!(t.in_test);
        let live = its.iter().find(|i| i.name == "live").unwrap();
        assert!(!live.in_test);
    }

    #[test]
    fn generic_fn_bodies_are_found() {
        let src = "fn g<T: Iterator<Item = u8>>(it: T) -> Vec<u8> where T: Clone { it.collect() }";
        let its = items(src);
        assert_eq!(its.len(), 1);
        assert!(its[0].body.is_some());
    }

    #[test]
    fn match_arms_with_blocks_and_exprs() {
        let src = "fn f(e: E) -> u8 { match e { E::A => 1, E::B { x, .. } => { x }, _ => 0 } }";
        let toks = lex(src);
        let its = parse_items(&toks);
        let body = its[0].body.clone().unwrap();
        let ms = find_matches(&toks, body);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].arms.len(), 3);
        // Arm 1 pattern holds `E :: B`, its body holds `x`.
        let pat_text: Vec<&str> = toks[ms[0].arms[1].pat.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(pat_text.contains(&"B"));
    }

    #[test]
    fn nested_matches_are_each_found() {
        let src = "fn f(a: u8, b: u8) -> u8 { match a { 0 => match b { _ => 1 }, _ => 2 } }";
        let toks = lex(src);
        let its = parse_items(&toks);
        let ms = find_matches(&toks, its[0].body.clone().unwrap());
        assert_eq!(ms.len(), 2);
    }
}
