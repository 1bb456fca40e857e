//! The workspace's one JSON codec: writer primitives, a borrowing
//! parser with exact accessors, and the NDJSON line loop.
//!
//! Every JSON document the workspace reads or writes goes through this
//! module — the decision-journal and span NDJSON, `BENCH_perf.json`, the
//! scenario-fuzz campaign report, and simlint's `--json` output. Each
//! caller keeps its own layout (keys, order, whitespace); this module
//! owns the grammar.
//!
//! * **Writing** appends to the caller's `String` with no allocation per
//!   value: [`Str`] escapes a string on the fly inside any `format!`, and
//!   [`Obj`] writes a compact object with numbers formatted straight into
//!   the output and floats in their shortest round-trip form, so a
//!   document is a pure function of its values.
//! * **Parsing** ([`parse`]) borrows from its input. Numbers stay raw
//!   lexemes, checked against the JSON grammar, until an accessor
//!   converts them exactly: a u64 never passes through f64, and a value
//!   that does not fit its field (`-1`, `1e30`, `70000` for a u16) is an
//!   error rather than a silent wrap, saturation or truncation. Nesting
//!   is bounded by [`MAX_DEPTH`], and syntax errors name a byte offset.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

// ------------------------------------------------------------- writing

/// Displays a string as a quoted JSON string literal. `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` use their short escapes, other C0
/// control characters become `\u00XX`; everything else (non-ASCII
/// included) is written as is.
#[derive(Debug, Clone, Copy)]
pub struct Str<'a>(pub &'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        push_quoted(f, self.0)
    }
}

/// The one escaper behind [`Str`] and [`Obj`]. Generic over the sink so
/// [`Obj`] appends to its `String` directly, without the formatting
/// machinery, on the export path.
fn push_quoted<W: Write>(w: &mut W, s: &str) -> fmt::Result {
    w.write_char('"')?;
    // Every escaped byte is ASCII, so `run..i` always falls on char
    // boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        w.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(w, "\\u{b:04x}")?;
        } else {
            w.write_str(short)?;
        }
        run = i + 1;
    }
    w.write_str(&s[run..])?;
    w.write_char('"')
}

/// Writes one compact object member by member — `{"k":v,"k2":v2}` —
/// placing the commas, with no allocation per value. Floats are written
/// with `{:?}`, the shortest form that parses back to the same bits;
/// non-finite floats have no JSON form, so callers must not write them.
/// The object stays open until [`Obj::close`].
#[derive(Debug)]
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Appends `{` and starts an object.
    pub fn open(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Appends the separator and `"key":`, returning the output for the
    /// value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        let _ = push_quoted(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A u64 member.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// An f64 member.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        let _ = write!(self.key(key), "{v:?}");
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let _ = push_quoted(self.key(key), v);
        self
    }

    /// A `null` member.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// A u64 array member: `[1,2,3]`.
    pub fn u64s(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        self.array(key, vs, |out, v| write!(out, "{v}"))
    }

    /// An f64 array member: `[0.5,1e-7]`.
    pub fn f64s(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        self.array(key, vs, |out, v| write!(out, "{v:?}"))
    }

    fn array<T: Copy>(
        &mut self,
        key: &str,
        vs: &[T],
        item: fn(&mut String, T) -> fmt::Result,
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = item(out, v);
        }
        out.push(']');
        self
    }

    /// Appends `}`.
    pub fn close(&mut self) {
        self.out.push('}');
    }
}

// ------------------------------------------------------------- parsing

/// A parsed JSON value, borrowing from the parsed text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's raw lexeme, already checked against the JSON grammar;
    /// the accessors convert it exactly.
    Num(&'a str),
    /// A string; borrowed unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's members in document order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing bytes after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value<'a>) -> Result<Value<'a>, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            members.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("expected digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("expected digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.err("expected exponent digit"));
            }
        }
        Ok(&self.text[start..self.pos])
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let open = self.pos;
        self.pos += 1; // '"'
        let mut owned: Option<String> = None;
        // `run` and `pos` only stop on ASCII bytes, so slices between
        // them fall on char boundaries.
        let mut run = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.err("control character in string")),
                Some(_) => self.pos += 1,
                None => return Err(format!("unterminated string starting at byte {open}")),
            }
        }
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let b = self.peek();
        self.pos += 1;
        Ok(match b {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let at = self.pos;
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) && self.eat(b'\\') && self.eat(b'u') {
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(format!("unpaired surrogate at byte {at}"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| format!("unpaired surrogate at byte {at}"))?
            }
            _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("expected 4 hex digits"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
    }
}

impl<'a> Value<'a> {
    fn mismatch<T>(&self, want: &str) -> Result<T, String> {
        let got = match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        };
        Err(format!("expected {want}, got {got}"))
    }

    /// An unsigned integer that fits `T` (`u64`, `u32`, `u16`, `usize`,
    /// …): digits only — no sign, fraction or exponent — parsed exactly.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Result<T, String> {
        let raw = match self {
            Value::Num(raw) if raw.bytes().all(|b| b.is_ascii_digit()) => raw,
            Value::Num(raw) => return Err(format!("expected unsigned integer, got {raw}")),
            v => return v.mismatch("number"),
        };
        let out_of_range = || format!("{raw} out of range for {}", std::any::type_name::<T>());
        let v: u64 = raw.parse().map_err(|_| out_of_range())?;
        T::try_from(v).map_err(|_| out_of_range())
    }

    /// A finite f64 (a lexeme that overflows to infinity is an error).
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{raw} out of range for f64")),
            v => v.mismatch("number"),
        }
    }

    /// A string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            v => v.mismatch("string"),
        }
    }

    /// A bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            v => v.mismatch("bool"),
        }
    }

    /// An array's items.
    pub fn as_arr(&self) -> Result<&[Value<'a>], String> {
        match self {
            Value::Arr(items) => Ok(items),
            v => v.mismatch("array"),
        }
    }

    /// The object member `key` (the first, if repeated).
    pub fn get(&self, key: &str) -> Result<&Value<'a>, String> {
        match self {
            Value::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            v => v.mismatch("object"),
        }
    }

    /// Converts member `key`, prefixing any error with the field name.
    fn field<'s, T>(
        &'s self,
        key: &str,
        conv: impl FnOnce(&'s Value<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        conv(self.get(key)?).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// Member `key` as [`Value::as_uint`]; the target type sets the range.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.field(key, Value::as_uint)
    }

    /// Member `key` as [`Value::as_uint`], or `None` for `null`.
    pub fn opt_uint<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        self.field(key, |v| match v {
            Value::Null => Ok(None),
            v => v.as_uint().map(Some),
        })
    }

    /// Member `key` as [`Value::as_f64`].
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.field(key, Value::as_f64)
    }

    /// Member `key` as a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key, Value::as_str)
    }

    /// Member `key` as a bool.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.field(key, Value::as_bool)
    }

    /// Member `key` as an array.
    pub fn arr(&self, key: &str) -> Result<&[Value<'a>], String> {
        self.field(key, Value::as_arr)
    }

    /// Member `key` as an array of u64.
    pub fn u64s(&self, key: &str) -> Result<Vec<u64>, String> {
        self.field(key, |v| v.as_arr()?.iter().map(Value::as_uint).collect())
    }

    /// Member `key` as an array of finite f64.
    pub fn f64s(&self, key: &str) -> Result<Vec<f64>, String> {
        self.field(key, |v| v.as_arr()?.iter().map(Value::as_f64).collect())
    }
}

// -------------------------------------------------------------- NDJSON

/// Parses every non-blank line of an NDJSON document with `parse_line`,
/// failing on the first error, prefixed with its 1-based `line N:`.
pub fn parse_lines<T>(
    text: &str,
    parse_line: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    lines(text, parse_line, false).map(|(out, _)| out)
}

/// [`parse_lines`], tolerating a truncated *final* line.
///
/// A capture cut off mid-write (killed process, partial copy, `tail` of
/// a growing file) ends in half a line; failing the whole document over
/// it would make every in-flight capture unreadable. This variant drops
/// a malformed final non-blank line and reports the drop with the
/// returned flag. A malformed line anywhere else is still an error —
/// interior corruption is not truncation, and skipping it would let an
/// analysis run on a document with holes.
pub fn parse_lines_lossy<T>(
    text: &str,
    parse_line: impl FnMut(&str) -> Result<T, String>,
) -> Result<(Vec<T>, bool), String> {
    lines(text, parse_line, true)
}

fn lines<T>(
    text: &str,
    mut parse_line: impl FnMut(&str) -> Result<T, String>,
    lossy: bool,
) -> Result<(Vec<T>, bool), String> {
    let mut out = Vec::new();
    let mut rest = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .peekable();
    while let Some((n, line)) = rest.next() {
        match parse_line(line) {
            Ok(v) => out.push(v),
            Err(_) if lossy && rest.peek().is_none() => return Ok((out, true)),
            Err(e) => return Err(format!("line {}: {e}", n + 1)),
        }
    }
    Ok((out, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> String {
        Str(v).to_string()
    }

    #[test]
    fn escaper_covers_quotes_backslashes_and_control_chars() {
        assert_eq!(s("a\"b"), "\"a\\\"b\"");
        assert_eq!(s("a\\b"), "\"a\\\\b\"");
        assert_eq!(s("a\nb\rc\td"), "\"a\\nb\\rc\\td\"");
        assert_eq!(s("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(s("é ✓"), "\"é ✓\"");
        assert_eq!(s(""), "\"\"");
    }

    #[test]
    fn obj_places_commas() {
        let mut out = String::new();
        let mut o = Obj::open(&mut out);
        o.u64("a", 1)
            .str("b", "x")
            .null("c")
            .f64s("d", &[0.5, 1e-7]);
        o.u64s("e", &[]).f64("f", -0.0);
        o.close();
        assert_eq!(
            out,
            r#"{"a":1,"b":"x","c":null,"d":[0.5,1e-7],"e":[],"f":-0.0}"#
        );
        let mut out = String::new();
        Obj::open(&mut out).close();
        assert_eq!(out, "{}");
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(r#" {"n":null,"t":true,"f":false,"x":-1.5e3,"s":"a","a":[1,[]],"o":{}} "#)
            .unwrap();
        assert_eq!(v.get("n").unwrap(), &Value::Null);
        assert!(v.bool("t").unwrap());
        assert!(!v.bool("f").unwrap());
        assert_eq!(v.f64("x").unwrap(), -1500.0);
        assert_eq!(v.str("s").unwrap(), "a");
        assert_eq!(v.arr("a").unwrap().len(), 2);
        assert_eq!(v.get("o").unwrap(), &Value::Obj(vec![]));
        assert_eq!(v.opt_uint::<usize>("n").unwrap(), None);
    }

    #[test]
    fn strings_decode_every_escape_and_borrow_when_plain() {
        let v = parse(r#""q\" b\\ s\/ \b\f\n\r\t é 😀""#).unwrap();
        assert_eq!(
            v.as_str().unwrap(),
            "q\" b\\ s/ \u{8}\u{c}\n\r\t é \u{1f600}"
        );
        assert!(matches!(
            parse("\"plain\"").unwrap(),
            Value::Str(Cow::Borrowed("plain"))
        ));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\x""#,
            "\"a\u{1}\"",
            "\"ab",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_are_exact_and_range_checked() {
        let v = parse(
            r#"{"max":18446744073709551615,"big":9007199254740993,"over":18446744073709551616,
                "neg":-1,"exp":1e30,"frac":1.0,"port":70000}"#,
        )
        .unwrap();
        assert_eq!(v.uint::<u64>("max").unwrap(), u64::MAX);
        assert_eq!(v.uint::<u64>("big").unwrap(), (1 << 53) + 1);
        for key in ["over", "neg", "exp", "frac"] {
            assert!(v.uint::<u64>(key).is_err(), "{key}");
        }
        let err = v.uint::<u16>("port").unwrap_err();
        assert_eq!(err, "field \"port\": 70000 out of range for u16");
        assert_eq!(v.uint::<u32>("port").unwrap(), 70_000);
        assert!(parse("1e400").unwrap().as_f64().is_err());
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            "tru",
            "nul",
            "[1 2]",
            "{} x",
            "NaN",
            "{a:1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse("[1,]").unwrap_err(), "expected a value at byte 3");
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn lines_skip_blanks_and_name_the_failing_line() {
        let num = |l: &str| parse(l)?.as_uint::<u64>();
        assert_eq!(parse_lines("1\n\n  \n2\n", num).unwrap(), vec![1, 2]);
        assert!(parse_lines("1\nx\n3", num)
            .unwrap_err()
            .starts_with("line 2: "));
        assert_eq!(
            parse_lines_lossy("1\n2\n{\"tr", num).unwrap(),
            (vec![1, 2], true)
        );
        assert_eq!(parse_lines_lossy("1\nx\n\n", num).unwrap(), (vec![1], true));
        assert_eq!(parse_lines_lossy("", num).unwrap(), (vec![], false));
        assert!(parse_lines_lossy("x\n1", num)
            .unwrap_err()
            .starts_with("line 1: "));
    }
}
