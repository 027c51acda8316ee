//! Minimal dependency-free JSON: a [`Value`] tree, a recursive-descent
//! parser, and a writer.
//!
//! This exists because the build environment has no registry access, so
//! `serde_json` is unavailable. The subset implemented is full JSON minus
//! two deliberate simplifications: numbers are `f64` (adequate for rates,
//! probabilities and seeds up to 2^53), and object key order is preserved
//! as written (lookups are linear — spec files are tiny).
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects, so the recursive
//! descent cannot overflow the stack on hostile input: a deeper document
//! fails with [`ParseErrorKind::TooDeep`].

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in written order.
    Object(Vec<(String, Value)>),
}

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
/// Every document this workspace writes nests at most 6 deep.
pub const MAX_DEPTH: usize = 128;

/// What kind of parse failure a [`ParseError`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text is not JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset where the failure was detected.
    pub offset: usize,
    /// What kind of failure this is.
    pub kind: ParseErrorKind,
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object member lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a non-negative integer (must be integral and in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(x) if *x >= 0.0 && *x <= 2f64.powi(53) && x.fract() == 0.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The number as a signed integer (must be integral and within ±2^53,
    /// the range where `f64` represents every integer exactly).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(x) if x.abs() <= 2f64.powi(53) && x.fract() == 0.0 => Some(*x as i64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in written order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Serialize compactly (no insignificant whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(x) => write_number(*x, out),
            Value::String(s) => write_string(s, out),
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
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            kind: ParseErrorKind::Syntax,
            message: message.to_string(),
        }
    }

    /// Parse the array or object at the cursor one level deeper, or fail
    /// with [`ParseErrorKind::TooDeep`] past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                offset: self.pos,
                kind: ParseErrorKind::TooDeep,
                message: format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for spec files;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // piece. Both stops are ASCII, so the run is whole code
                    // points.
                    let rest = &self.text.as_bytes()[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
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
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| ParseError {
                offset: start,
                kind: ParseErrorKind::Syntax,
                message: format!("bad number {text:?}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-2.5e2").unwrap(), Value::Number(-250.0));
        assert_eq!(
            Value::parse(r#""a\nb""#).unwrap(),
            Value::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2.5, {"b": null}], "c": "x"}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("[1,").is_err());
        assert!(Value::parse(r#"{"a": }"#).is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn round_trips_through_writer() {
        let src = r#"{"w":[1,2.5],"flag":true,"name":"bottleneck-link","none":null}"#;
        let v = Value::parse(src).unwrap();
        let re = Value::parse(&v.to_json()).unwrap();
        assert_eq!(v, re);
        assert_eq!(v.to_json(), src);
    }

    #[test]
    fn integral_numbers_write_without_fraction() {
        assert_eq!(Value::Number(99.0).to_json(), "99");
        assert_eq!(Value::Number(0.5).to_json(), "0.5");
    }

    #[test]
    fn u64_accessor_guards_range_and_fraction() {
        assert_eq!(Value::Number(7.0).as_u64(), Some(7));
        assert_eq!(Value::Number(7.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::String("quote\" slash\\ tab\t ctrl\u{0001}".into());
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn error_reports_offset() {
        let e = Value::parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn i64_accessor_guards_range_and_fraction() {
        assert_eq!(Value::Number(-7.0).as_i64(), Some(-7));
        assert_eq!(Value::Number(7.0).as_i64(), Some(7));
        assert_eq!(Value::Number(7.5).as_i64(), None);
        assert_eq!(Value::Number(2f64.powi(54)).as_i64(), None);
        assert_eq!(Value::String("7".into()).as_i64(), None);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        // Far too deep for the stack without the cap: rejected, not aborted.
        let err = Value::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        let err = Value::parse(&r#"{"a":"#.repeat(100_000)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert_eq!(
            Value::parse("[1,").unwrap_err().kind,
            ParseErrorKind::Syntax
        );
    }

    #[test]
    fn object_accessor_exposes_members_in_order() {
        let v = Value::parse(r#"{"b":1,"a":2}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(members[1].1.as_i64(), Some(2));
        assert!(Value::Array(vec![]).as_object().is_none());
    }

    #[test]
    fn nested_values_round_trip_parse_of_to_json() {
        let cases = [
            Value::Null,
            Value::Bool(false),
            Value::Number(-0.125),
            Value::Number(9007199254740992.0), // 2^53, boundary of exact i64 write
            Value::String(String::new()),
            Value::Array(vec![
                Value::Object(vec![
                    ("deep".into(), Value::Array(vec![Value::Null])),
                    ("n".into(), Value::Number(1e-9)),
                ]),
                Value::String("π ≈ 3".into()),
            ]),
            Value::Object(vec![(
                "outer".into(),
                Value::Object(vec![(
                    "inner".into(),
                    Value::Array(vec![Value::Bool(true)]),
                )]),
            )]),
        ];
        for v in cases {
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v, "case {v:?}");
        }
    }

    #[test]
    fn every_control_character_escapes_and_round_trips() {
        // All of U+0000..U+001F must be escaped on write and re-parse to the
        // same string (the named escapes \n \r \t and \uXXXX for the rest).
        let s: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Value::String(s.clone());
        let json = v.to_json();
        for byte in json.as_bytes() {
            assert!(*byte >= 0x20, "raw control byte {byte:#04x} in {json:?}");
        }
        assert_eq!(Value::parse(&json).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse_to_code_points() {
        assert_eq!(
            Value::parse(r#""\u0041\u00e9\u2603""#).unwrap(),
            Value::String("Aé☃".into())
        );
        // Lone surrogates degrade to U+FFFD rather than erroring.
        assert_eq!(
            Value::parse(r#""\ud800""#).unwrap(),
            Value::String("\u{FFFD}".into())
        );
        assert!(Value::parse(r#""\u00g1""#).is_err());
        assert!(Value::parse(r#""\u00""#).is_err());
    }

    #[test]
    fn strings_mixing_multibyte_runs_and_escapes_round_trip() {
        let cases = [
            "é",
            "naïve \"café\" ☃",
            "\\€\\",
            "日本語\n中文\t한국어",
            "🦀\u{1}🦀\"",
            "a\u{FFFD}b\\\"c",
            "x".repeat(10_000).as_str(),
        ]
        .map(String::from);
        for s in cases {
            let v = Value::String(s.clone());
            let json = v.to_json();
            assert_eq!(Value::parse(&json).unwrap(), v, "{json:?}");
            let object = format!(r#"{{{json}: {json}, "n": 1}}"#);
            let parsed = Value::parse(&object).unwrap();
            assert_eq!(parsed.as_object().unwrap()[0].0, s);
            assert_eq!(parsed.get(&s).and_then(Value::as_str), Some(s.as_str()));
        }
        assert_eq!(
            Value::parse(r#""é\u00e9\"ü""#).unwrap(),
            Value::String("éé\"ü".into())
        );
        assert!(Value::parse("\"é").is_err(), "unterminated after a run");
    }
}
