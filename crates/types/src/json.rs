//! The workspace's one JSON module: a value type, a parser, a compact
//! renderer, and two streaming writers for exporters that append to a
//! `String` without building a tree.
//!
//! Every JSON format decision is made here, once:
//!
//! * **Numbers** render as Rust's shortest round-trip `{}` for `f64`
//!   (integral values print without a fraction, never in exponent
//!   form), with `-0.0` written as `0`. Non-finite numbers render as
//!   `null`; exporters that promise a number map them first.
//! * **Strings** escape `"`, `\` and `\n`/`\r`/`\t` with their short
//!   forms and every other control character below U+0020 as `\u00XX`;
//!   everything else is written as raw UTF-8.
//! * **Parsing** returns `None` on any syntax error, trailing garbage,
//!   non-finite number, or nesting deeper than [`MAX_DEPTH`] containers,
//!   so a corrupt file reads as absent and never overflows the stack.
//!   `\uXXXX` escapes decode UTF-16 surrogate pairs; a lone or reversed
//!   surrogate is an error.
//!
//! Objects keep their fields in source order, so a parse → render round
//! trip of any compact document this workspace writes reproduces its
//! bytes.
//!
//! # Examples
//!
//! ```
//! use starnuma_types::json::{obj, Value};
//!
//! let doc = obj([("name", "bfs".into()), ("ipc", 1.5.into())]);
//! assert_eq!(doc.render(), r#"{"name":"bfs","ipc":1.5}"#);
//! let back = Value::parse(&doc.render()).unwrap_or(Value::Null);
//! assert_eq!(back.get("ipc").and_then(Value::as_num), Some(1.5));
//! ```

use std::fmt::Write as _;

/// Deepest container nesting [`Value::parse`] accepts. The deepest
/// document the workspace writes (SARIF) nests 9 levels.
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string (unescaped content).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source (or insertion) order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` (its first occurrence) when this is an
    /// object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses one complete JSON document; `None` on any error (see the
    /// module docs).
    pub fn parse(text: &str) -> Option<Value> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(value)
    }

    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Builds an object from `(key, value)` pairs, keeping their order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number: shortest round-trip text, `-0.0` as
/// `0`, and `null` when `v` is not finite.
pub fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == 0.0 {
        out.push('0');
    } else {
        let _ = write!(out, "{v}");
    }
}

/// A byte cursor over the document being parsed.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// One value nested inside `depth` containers.
    fn value(&mut self, depth: usize) -> Option<Value> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'[' | b'{' if depth >= MAX_DEPTH => None,
            b'[' => self.seq(b']', |p| p.value(depth + 1)).map(Value::Arr),
            b'{' => self
                .seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.eat(b':').then_some(())?;
                    Some((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            b'"' => self.string().map(Value::Str),
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            _ => self.number(),
        }
    }

    /// The comma-separated items of an array or object whose opening
    /// bracket is the current byte, through the `close` bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Some(items);
            }
            self.eat(b',').then_some(())?;
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Option<Value> {
        self.bytes
            .get(self.pos..)?
            .starts_with(word.as_bytes())
            .then_some(())?;
        self.pos += word.len();
        Some(value)
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let n: f64 = std::str::from_utf8(self.bytes.get(start..self.pos)?)
            .ok()?
            .parse()
            .ok()?;
        n.is_finite().then_some(Value::Num(n))
    }

    fn string(&mut self) -> Option<String> {
        (self.bytes.get(self.pos) == Some(&b'"')).then_some(())?;
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        _ => return None,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is already consumed,
    /// joining a UTF-16 surrogate pair into one character.
    fn unicode_escape(&mut self) -> Option<char> {
        let unit = self.hex4()?;
        if !(0xd800..0xdc00).contains(&unit) {
            // A lone low surrogate is not a `char`, so this rejects it.
            return char::from_u32(unit);
        }
        (self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u")).then_some(())?;
        self.pos += 2;
        let low = self.hex4()?;
        (0xdc00..0xe000).contains(&low).then_some(())?;
        char::from_u32(0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00))
    }

    fn hex4(&mut self) -> Option<u32> {
        let hex = self.bytes.get(self.pos..self.pos + 4)?;
        hex.iter().all(u8::is_ascii_hexdigit).then_some(())?;
        self.pos += 4;
        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn parse(text: &str) -> Option<Value> {
        Value::parse(text)
    }

    fn str_json(s: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, s);
        out
    }

    #[test]
    fn parses_and_queries_nested_documents() {
        let src = r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":"q\"uote"}"#;
        let v = parse(src).expect("parses");
        assert_eq!(v.render(), src);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::Bool(true))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Null));
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[_]>::len), Some(3));
        assert_eq!(
            v.get("a")
                .and_then(Value::as_arr)
                .and_then(|a| a[1].as_num()),
            Some(2.5)
        );
        assert_eq!(v.get("e").and_then(Value::as_str), Some("q\"uote"));
        assert_eq!(v.as_obj().map(<[_]>::len), Some(3));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Num(1.0).get("a"), None);

        // Whitespace between tokens is insignificant.
        let spaced = parse("{\"a\": [1, 2.5, null], \"b\": {\"c\": \"x\\ny\"}, \"d\": true}")
            .expect("parses");
        assert_eq!(spaced.as_obj().map(<[_]>::len), Some(3));
        let a = spaced.get("a").and_then(Value::as_arr).unwrap_or(&[]);
        assert_eq!(a.len(), 3, "array arity");
        assert_eq!(a[1].as_num(), Some(2.5));
        assert_eq!(
            spaced
                .get("b")
                .and_then(|b| b.get("c"))
                .and_then(Value::as_str),
            Some("x\ny")
        );
        assert_eq!(parse("{}"), Some(Value::Obj(Vec::new())));
        assert_eq!(parse("{ }"), Some(Value::Obj(Vec::new())));
        assert_eq!(parse(" [ ] "), Some(Value::Arr(Vec::new())));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,",
            "[1, 2",
            "[1,]",
            "{\"a\":[1,]}",
            "{\"a\": }",
            "{\"a\":}",
            "{\"a\"}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            "{]",
            "tru",
            "nul",
            "\"unterminated",
            "1 2",
            "{} trailing",
            "{\"a\":1} trailing",
            "-",
            "1e999",
            "\"\\x\"",
        ] {
            assert_eq!(parse(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_render_shortest_round_trip() {
        for (v, text) in [
            (3.0, "3"),
            (3.5, "3.5"),
            (1.5, "1.5"),
            (0.25, "0.25"),
            (-2.0, "-2"),
            (0.0, "0"),
            (-0.0, "0"),
            (1e15, "1000000000000000"),
            (9.0e15 - 1.0, "8999999999999999"),
            (0.1 + 0.2, "0.30000000000000004"),
        ] {
            assert_eq!(Value::Num(v).render(), text, "{v:?}");
            assert_eq!(parse(text), Some(Value::Num(v)), "{text}");
        }
        // Non-finite numbers have no JSON form: they render as `null`
        // rather than panicking or emitting invalid JSON.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Num(v).render(), "null");
        }
        let v = parse("[-1.5e3, 17]").expect("parses");
        assert_eq!(v.as_arr().map(|a| a[0].as_num()), Some(Some(-1500.0)));
        assert_eq!(v.as_arr().map(|a| a[1].as_num()), Some(Some(17.0)));
    }

    #[test]
    fn compact_render_of_every_variant() {
        assert_eq!(Value::Bool(true).render(), "true");
        assert_eq!(Value::Bool(false).render(), "false");
        assert_eq!(Value::Null.render(), "null");
        assert_eq!(Value::Arr(vec![1.0.into(), 2.0.into()]).render(), "[1,2]");
        assert_eq!(obj([("k", 1.0.into())]).render(), "{\"k\":1}");
        assert_eq!(
            obj([
                ("s", "v".into()),
                ("o", String::from("w").into()),
                ("b", Value::Bool(true))
            ])
            .render(),
            "{\"s\":\"v\",\"o\":\"w\",\"b\":true}"
        );
    }

    #[test]
    fn strings_escape_and_round_trip() {
        assert_eq!(str_json("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(str_json("\r\t"), "\"\\r\\t\"");
        assert_eq!(str_json("\u{1}"), "\"\\u0001\"");
        assert_eq!(str_json("Aé😀"), "\"Aé😀\"");
        for s in [
            "line\nbreak\ttab \"quote\" back\\slash",
            "a\"b\\c\nd\te\u{1}",
            "Aé",
        ] {
            let v = Value::Str(s.to_string());
            assert_eq!(parse(&v.render()), Some(v));
        }
        // Every control character below 0x20 leaves as an escape (never a
        // raw byte, which would be invalid JSON) and reads back.
        for c in (0u8..0x20).map(char::from) {
            let raw = format!("x{c}y");
            let text = str_json(&raw);
            assert!(
                !text.chars().any(|c| u32::from(c) < 0x20),
                "raw control char {c:?} leaked into JSON: {text:?}"
            );
            assert_eq!(parse(&text), Some(Value::Str(raw)), "char {c:?}");
        }
        // The short escapes external tools write read back too.
        assert_eq!(
            parse(r#""a\bz\ff\/""#),
            Some(Value::Str("a\u{8}z\u{c}f/".into()))
        );
        assert_eq!(parse(r#""A\u00e9""#), Some(Value::Str("Aé".into())));
        assert_eq!(parse(r#""\uzzzz""#), None);
        assert_eq!(parse(r#""\u+abc""#), None);
        assert_eq!(parse(r#""\u12""#), None);
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Some(Value::Str("😀".into())));
        assert_eq!(
            parse(r#""a\uD83D\uDE00b""#),
            Some(Value::Str("a😀b".into()))
        );
        assert_eq!(parse(r#""\ud83d""#), None, "lone high surrogate");
        assert_eq!(parse(r#""\ude00""#), None, "lone low surrogate");
        assert_eq!(parse(r#""\ude00\ud83d""#), None, "reversed pair");
        assert_eq!(parse(r#""\ud83d\u0041""#), None, "high + non-surrogate");
        assert_eq!(parse(r#""\ud83dx""#), None, "high + raw char");
    }

    fn nested(depth: usize, inner: &str) -> String {
        format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_rejected() {
        assert!(parse(&nested(MAX_DEPTH, "1")).is_some());
        assert!(parse(&nested(MAX_DEPTH, "")).is_some());
        assert_eq!(parse(&nested(MAX_DEPTH + 1, "1")), None);
        assert_eq!(parse(&nested(MAX_DEPTH + 1, "")), None);
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&objects), None);
        // Far past the limit the parser still returns instead of
        // overflowing the stack.
        assert_eq!(parse(&"[".repeat(200_000)), None);
    }

    fn depth(v: &Value) -> usize {
        match v {
            Value::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Value::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Whatever parses must render to text that parses back to itself.
    fn assert_round_trips(text: &str) {
        if let Some(v) = parse(text) {
            assert_eq!(parse(&v.render()).as_ref(), Some(&v), "input {text:?}");
        }
    }

    /// Real outputs of every renderer in the workspace, byte for byte:
    /// `(name, text, written compact)`.
    const SAMPLES: [(&str, &str, bool); 7] = [
        (
            "trace_jsonl line",
            include_str!("../tests/fixtures/json/trace_line.jsonl"),
            true,
        ),
        (
            "metrics_json",
            include_str!("../tests/fixtures/json/metrics.json"),
            true,
        ),
        (
            "profile.json",
            include_str!("../tests/fixtures/json/profile.json"),
            false,
        ),
        (
            "ledger line",
            include_str!("../tests/fixtures/json/ledger_line.jsonl"),
            true,
        ),
        (
            "SARIF",
            include_str!("../tests/fixtures/json/lint.sarif"),
            true,
        ),
        (
            "lint baseline",
            include_str!("../tests/fixtures/json/lint_baseline.json"),
            false,
        ),
        (
            "lint cache",
            include_str!("../tests/fixtures/json/audit_cache.json"),
            true,
        ),
    ];

    /// Truncation at every byte offset, 1 000 random byte flips and
    /// nesting depths 0–64 over each real output: nothing panics,
    /// whatever parses round-trips, and compact outputs re-render to
    /// their exact bytes.
    #[test]
    fn fuzz_real_outputs() {
        let mut rng = SimRng::seed_from_u64(0x15_0a);
        for (name, text, compact) in SAMPLES {
            let text = text.trim_end();
            let v = parse(text).unwrap_or_else(|| panic!("{name} parses"));
            assert_eq!(parse(&v.render()).as_ref(), Some(&v), "{name}");
            if compact {
                assert_eq!(v.render(), text, "{name} re-renders byte-identically");
            }

            let bytes = text.as_bytes();
            for end in 0..bytes.len() {
                let prefix = String::from_utf8_lossy(&bytes[..end]);
                assert_eq!(parse(&prefix), None, "{name} truncated at {end}");
            }

            for _ in 0..1000 {
                let mut flipped = bytes.to_vec();
                let at = rng.gen_range(0..flipped.len());
                flipped[at] ^= 1 << rng.gen_range(0..8usize);
                assert_round_trips(&String::from_utf8_lossy(&flipped));
            }

            let own = depth(&v);
            for wrap in 0..=64 {
                let doc = nested(wrap, text);
                assert_eq!(
                    parse(&doc).is_some(),
                    own + wrap <= MAX_DEPTH,
                    "{name} wrapped {wrap} deep"
                );
                assert_round_trips(&doc);
            }
        }
    }
}
