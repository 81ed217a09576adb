//! # voxolap-json
//!
//! A small, dependency-free JSON module serving the server's HTTP API and
//! the experiment harnesses' machine-readable output. It replaces the
//! former `serde`/`serde_json` dependency so the workspace builds fully
//! offline (see `third_party/README.md`).
//!
//! ```
//! use voxolap_json::Value;
//!
//! let v = Value::parse(r#"{"question": "by region", "n": 3}"#).unwrap();
//! assert_eq!(v["question"].as_str(), Some("by region"));
//! assert_eq!(v["n"].as_u64(), Some(3));
//! assert_eq!(v["missing"], Value::Null);
//!
//! let out = Value::obj([("ok", true.into()), ("rows", 8000u64.into())]);
//! assert_eq!(out.to_string(), r#"{"ok":true,"rows":8000}"#);
//! ```

#![deny(unsafe_code)]

use std::fmt;

/// A JSON value. Object keys keep insertion order so serialized output
/// is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parse a JSON document (rejects trailing garbage, nesting deeper than
    /// [`MAX_DEPTH`], and numbers too large for an `f64`).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Parse from raw bytes (must be UTF-8).
    pub fn parse_slice(bytes: &[u8]) -> Result<Value, ParseError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ParseError { msg: "invalid UTF-8".into(), offset: 0 })?;
        Value::parse(text)
    }

    /// Build an object from ordered key/value pairs.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member access: `None` unless this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// `value["key"]`, yielding [`Value::Null`] when absent (mirroring
    /// `serde_json`'s behavior, convenient in tests).
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(v) => v.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        }
    )*};
}

from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

/// Append `s` JSON-escaped (including the surrounding quotes) to `out`.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A string as a JSON literal (quoted and escaped).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

fn write_num(n: f64, out: &mut String) {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        // JSON has no NaN/inf; null is the conventional encoding.
        out.push_str("null");
    }
}

impl Value {
    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => escape_into(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Error from [`Value::parse`] with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub msg: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// parser recurses once per level, so without a bound a 20 KB body of `[`
/// overflows the parsing thread's stack and aborts the process; every
/// document the API exchanges nests a few levels at most.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { msg: msg.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object with `container`, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad surrogate pair"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| self.err("bad surrogate pair"))?,
                                    );
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else {
                                out.push(
                                    char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?,
                                );
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-borrow the source slice.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // JSON has no infinity: a literal past `f64::MAX` would serialize
        // as `null`.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(ParseError { msg: format!("bad number {text:?}"), offset: start }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            Value::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "s": "x\n\"y\""}"#)
                .unwrap();
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert_eq!(v["a"][2].as_f64(), Some(-300.0));
        assert!(v["b"]["c"].is_null());
        assert_eq!(v["b"]["d"].as_bool(), Some(true));
        assert_eq!(v["s"].as_str(), Some("x\n\"y\""));
        assert!(v["nope"].is_null());
    }

    #[test]
    fn round_trips() {
        let cases = [
            r#"{"ok":true,"n":42,"f":1.5,"s":"hi","a":[1,2],"z":null}"#,
            r#"[]"#,
            r#"{}"#,
            r#""just a string""#,
        ];
        for case in cases {
            let v = Value::parse(case).unwrap();
            assert_eq!(v.to_string(), case);
        }
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(Value::from(8000usize).to_string(), "8000");
        assert_eq!(Value::from(-3i64).to_string(), "-3");
        assert_eq!(Value::from(0.5f64).to_string(), "0.5");
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        let v = Value::Str("tab\there".into());
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes() {
        let v = Value::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        let direct = Value::parse("\"héllo — ok\"").unwrap();
        assert_eq!(direct.as_str(), Some("héllo — ok"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("not json").is_err());
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_on_a_default_stack() {
        // A spawned thread has the default 2 MiB stack, as the server's
        // workers do; 100 000 levels of recursion would overflow it.
        std::thread::spawn(|| {
            let err = Value::parse(&"[".repeat(100_000)).unwrap_err();
            assert!(err.msg.contains("nesting"), "{err}");
            assert_eq!(err.offset, MAX_DEPTH);
        })
        .join()
        .unwrap();
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Value::parse(&deepest).unwrap().to_string(), deepest);
        let nested = format!("{}{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&nested).is_err());
    }

    #[test]
    fn non_finite_numbers_and_broken_surrogate_pairs_are_rejected() {
        assert!(Value::parse("1e400").is_err());
        assert!(Value::parse("-1e400").is_err());
        assert_eq!(Value::parse("1e300").unwrap().as_f64(), Some(1e300));
        assert!(Value::parse(r#""\ud83d\u0041""#).is_err());
        assert_eq!(Value::parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    }

    /// Seeded mutational fuzz (ROADMAP 12b): 4 096 mutants of valid API
    /// bodies, NDJSON ingest rows and a `/stats` document, by bit flips,
    /// truncation, splices and runs of brackets. The parser never panics,
    /// and whatever it accepts serializes to text that parses back to the
    /// same value.
    #[test]
    fn mutated_documents_never_panic_and_what_parses_round_trips() {
        const VALID: [&str; 6] = [
            r#"{"question": "how does the cancellation probability depend on region?"}"#,
            r#"{"text": "break down by season", "approach": "optimal", "explain": true}"#,
            r#"{"dims": ["Kahului HI", ["South", "Texas", "Dallas TX"], "Winter"], "values": [1.0, 0.0, -2.5e-3]}"#,
            r#"{"dims": ["Delta Air Lines Inc.", "summer"], "values": [0, 12]}"#,
            r#"{"version":3,"cache":{"exact_hits":2,"plan_hits":2,"misses":[1,null]},"http":{"requests":17,"latency_ms":{"p50":0.25,"p99":12.5}},"degradation":{"degraded_answers":0,"clean_answers":9,"note":"é😀
"},"ok":true}"#,
            r#"[[], {}, [[[{"a": [false]}]]], "x\"y\\z"]"#,
        ];
        const BRACKETS: &[u8] = b"[{[[{\"k\":[";
        // splitmix64, as in `voxolap_data::chunk`: the case list is its seed.
        let mut state = 0x12b_0150_u64;
        let mut below = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((x ^ (x >> 31)) % bound.max(1) as u64) as usize
        };
        let check = |buf: &[u8], case: &str| {
            let Ok(v) = Value::parse_slice(buf) else { return false };
            let text = v.to_string();
            assert_eq!(Value::parse(&text).as_ref(), Ok(&v), "{case} → {text}");
            true
        };
        for valid in VALID {
            assert!(check(valid.as_bytes(), "unmutated"), "{valid}");
        }
        let mut parsed = 0;
        for case in 0..4096 {
            let mut buf = VALID[below(VALID.len())].as_bytes().to_vec();
            for _ in 0..=below(3) {
                match below(4) {
                    0 if !buf.is_empty() => {
                        let at = below(buf.len());
                        buf[at] ^= 1 << below(8);
                    }
                    1 => buf.truncate(below(buf.len() + 1)),
                    2 => {
                        let donor = VALID[below(VALID.len())].as_bytes();
                        let from = below(donor.len());
                        let piece = &donor[from..from + below(donor.len() - from + 1)];
                        let at = below(buf.len() + 1);
                        buf.splice(at..at, piece.iter().copied());
                    }
                    _ => {
                        let at = below(buf.len() + 1);
                        let run = BRACKETS.repeat(1 + below(32));
                        buf.splice(at..at, run);
                    }
                }
            }
            let case = format!("case {case}: {:?}", String::from_utf8_lossy(&buf));
            parsed += usize::from(check(&buf, &case));
        }
        assert!(parsed > 256, "most mutants must not be trivially rejected: {parsed}");
    }

    #[test]
    fn value_compares_to_str() {
        let v = Value::parse(r#"{"approach":"prior"}"#).unwrap();
        assert_eq!(v["approach"], "prior");
    }

    #[test]
    fn obj_builder_preserves_order() {
        let v = Value::obj([("b", 1u32.into()), ("a", 2u32.into())]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":2}"#);
    }
}
