//! Minimal dependency-free JSON: a [`Value`] tree, a pull [`Parser`], and
//! a writer.
//!
//! This exists because the build environment has no registry access, so
//! `serde_json` is unavailable. Numbers are `f64` (adequate for rates,
//! probabilities and seeds up to 2^53), and object key order is preserved
//! as written (lookups are linear; documents here are small).
//!
//! # Grammar
//!
//! The parser accepts exactly RFC 8259's JSON text, and refuses everything
//! else with [`ParseErrorKind::Syntax`]:
//! * numbers have no leading zeros and at least one digit on each side of
//!   `.` and after `e`; a number that rounds to ±∞ (`1e400`) is refused,
//!   while one that rounds to zero (`1e-400`) is 0;
//! * a `\u` escape is exactly four hex digits; an escaped surrogate pair
//!   (`"\ud83e\udd80"`) decodes to its one code point (🦀), and a lone
//!   surrogate is refused;
//! * strings hold no raw control characters (U+0000–U+001F).
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects, so the recursive
//! descent cannot overflow the stack on hostile input: a deeper document
//! fails with [`ParseErrorKind::TooDeep`].
//!
//! [`Value::parse`] is built on the pull [`Parser`], which a caller can
//! also drive itself to decode a document without building a tree, e.g.
//! a numeric array straight into a `Vec<f64>`.
//!
//! # Writer
//!
//! [`Value::to_json`] writes compactly, through [`write_number`] and
//! [`write_string`], which callers can also use to write a document
//! straight into a `String`. [`write_number`] writes `null` for a
//! non-finite value, the `i64` digits of an integral value below 2^53 in
//! magnitude (so `-0.0` is `0`), and otherwise exactly what
//! `format!("{x}")` writes: the shortest digits that round-trip, closest
//! to `x`, in Display's exponent-free layout (`1e21` is
//! `1000000000000000000000`, `1e-7` is `0.0000001`). The digits come from
//! an in-crate implementation of Ryū (Adams, PLDI 2018) whose tables are
//! computed at compile time; see the `write` module.

#![forbid(unsafe_code)]

mod write;

pub use write::{write_i64, write_number, write_string};

use std::borrow::Cow;

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
        let mut p = Parser::new(text);
        p.peek();
        let v = p.value()?;
        p.finish()?;
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

/// The end of the run of ASCII digits at `bytes[i..]`.
fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    // Eight bytes at a time: a byte is a digit when its high nibble is 3
    // and adding 6 leaves it so. Carries only run upwards, so the lowest
    // flagged byte is the first non-digit.
    const HIGH: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    const THREES: u64 = 0x3030_3030_3030_3030;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let flagged =
            ((x & HIGH) ^ THREES) | ((x.wrapping_add(0x0606_0606_0606_0606) & HIGH) ^ THREES);
        if flagged != 0 {
            return i + (flagged.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    i
}

/// A pull parser over one JSON document.
///
/// [`Value::parse`] is `peek`, `value`, `finish`. A caller that wants no
/// tree walks the document itself:
///
/// ```
/// use minijson::Parser;
///
/// let mut p = Parser::new(r#" {"xs": [1, 2.5], "tag": "a"} "#);
/// assert_eq!(p.peek(), Some(b'{'));
/// p.begin_object().unwrap();
/// let mut xs = Vec::new();
/// while let Some(key) = p.next_key().unwrap() {
///     if key == "xs" && p.peek() == Some(b'[') {
///         p.begin_array().unwrap();
///         while p.next_element().unwrap() {
///             xs.push(p.number().unwrap());
///         }
///     } else {
///         p.value().unwrap();
///     }
/// }
/// p.finish().unwrap();
/// assert_eq!(xs, [1.0, 2.5]);
/// ```
///
/// Every method that consumes text returns the same [`ParseError`] that
/// [`Value::parse`] would for the same text.
#[derive(Debug)]
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
    /// An array or object was just opened: the next `next_*` call reads
    /// its first member or its closing bracket, not a separator.
    fresh: bool,
}

impl<'a> Parser<'a> {
    /// A parser at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[cold]
    fn err(&self, message: &str) -> ParseError {
        self.err_at(self.pos, message)
    }

    #[cold]
    fn err_at(&self, offset: usize, message: &str) -> ParseError {
        ParseError {
            offset,
            kind: ParseErrorKind::Syntax,
            message: message.to_string(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace and return the next byte without consuming it: the
    /// first byte of the next value, or `None` at the end of the text.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// After the document's one value: only whitespace may remain.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// Open an array or object one level deeper, or fail with
    /// [`ParseErrorKind::TooDeep`] past [`MAX_DEPTH`].
    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                offset: self.pos,
                kind: ParseErrorKind::TooDeep,
                message: format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
            });
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step past the separator before the next member, or past the
    /// closing bracket (returning `false`).
    fn next_member(&mut self, close: u8, message: &str) -> Result<bool, ParseError> {
        self.skip_ws();
        match self.byte() {
            Some(b',') if !self.fresh => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                self.fresh = false;
                Ok(false)
            }
            // The first member: the caller parses (or refuses) it.
            _ if self.fresh => {
                self.fresh = false;
                Ok(true)
            }
            _ => Err(self.err(message)),
        }
    }

    /// Consume the `{` at the cursor.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// The next member's key, with the cursor left on its value, or `None`
    /// after the object's closing `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Consume the `[` at the cursor.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.open(b'[')
    }

    /// Whether another element follows, with the cursor left on it;
    /// `false` after the array's closing `]`.
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        self.next_member(b']', "expected ',' or ']' in array")
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    /// The whole value at the cursor, as a tree. The cursor is where
    /// [`peek`](Self::peek), [`next_key`](Self::next_key) and
    /// [`next_element`](Self::next_element) leave it, past any whitespace.
    pub fn value(&mut self) -> Result<Value, ParseError> {
        match self.byte() {
            Some(b'{') => {
                self.begin_object()?;
                let mut members = Vec::new();
                while let Some(key) = self.next_key()? {
                    members.push((key.into_owned(), self.value()?));
                }
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Value::Number(self.number()?)),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The string at the cursor, borrowed from the text when it has no
    /// escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // The run up to the next quote, backslash or control byte: all
            // ASCII, so the run is whole code points.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let piece = &self.text[self.pos..self.pos + run];
            if out.is_empty() {
                out = Cow::Borrowed(piece);
            } else {
                out.to_mut().push_str(piece);
            }
            self.pos += run;
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.to_mut().push(c);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                let at = self.pos;
                let high = self.hex4()?;
                let code = match high {
                    0xD800..=0xDBFF => {
                        // A high surrogate must be followed by an escaped
                        // low one; the pair is one code point.
                        if !self.text[self.pos + 1..].starts_with("\\u") {
                            return Err(self.err_at(at, "unpaired surrogate in \\u escape"));
                        }
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.err_at(at, "unpaired surrogate in \\u escape"));
                        }
                        0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => {
                        return Err(self.err_at(at, "unpaired surrogate in \\u escape"))
                    }
                    code => code,
                };
                char::from_u32(code).expect("surrogates are excluded")
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits after the `u` at the cursor, which is left on
    /// the last of them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .text
            .as_bytes()
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &h in hex {
            let digit = (h as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// The number at the cursor, which is past any whitespace as for
    /// [`value`](Self::value).
    pub fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let digits = |i| digits_end(bytes, i);
        // Scan the longest run that looks numeric, then hold it to the
        // grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        let mut i = start + usize::from(bytes.get(start) == Some(&b'-'));
        let int = i;
        i = digits(i);
        let mut ok = i == int + 1 || (i > int && bytes[int] != b'0');
        if i < bytes.len() && bytes[i] == b'.' {
            let frac = i + 1;
            i = digits(frac);
            ok &= i > frac;
        }
        if i < bytes.len() && matches!(bytes[i], b'e' | b'E') {
            i += 1;
            if i < bytes.len() && matches!(bytes[i], b'+' | b'-') {
                i += 1;
            }
            let exp = i;
            i = digits(exp);
            ok &= i > exp;
        }
        self.pos = i;
        let text = &self.text[start..i];
        match text.parse::<f64>() {
            Ok(x) if ok && x.is_finite() => Ok(x),
            _ => Err(self.number_error(start, ok)),
        }
    }

    #[cold]
    fn number_error(&self, start: usize, grammatical: bool) -> ParseError {
        let text = &self.text[start..self.pos];
        if grammatical {
            self.err_at(start, &format!("number out of range {text:?}"))
        } else {
            self.err_at(start, &format!("bad number {text:?}"))
        }
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
        // An escaped surrogate pair is one code point.
        assert_eq!(
            Value::parse(r#""\ud83e\udd80""#).unwrap(),
            Value::String("🦀".into())
        );
        // Lone or misordered surrogates are refused, not replaced.
        for bad in [
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\n""#,
            r#""\ud800\u0041""#,
            r#""\udc00""#,
            r#""\udd80\ud83e""#,
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::Syntax, "{bad}");
            assert_eq!(err.offset, 2, "{bad}");
        }
        assert!(Value::parse(r#""\u00g1""#).is_err());
        assert!(Value::parse(r#""\u00""#).is_err());
        // Exactly four hex digits: no sign.
        assert!(Value::parse(r#""\u+041""#).is_err());
        assert!(Value::parse(r#""\u-041""#).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, x) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e1", -5.0),
            ("1E+2", 100.0),
            ("1e-2", 0.01),
            ("1e-400", 0.0),
            ("1.7976931348623157e308", f64::MAX),
        ] {
            let v = Value::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()), "{text}");
        }
        for bad in [
            "01", "-01", "00", "1.", "-.5", ".5", "-", "1e", "1e+", "1.e5", "+1", "0x10",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::Syntax, "{bad}");
        }
        for big in ["1e400", "-1e400", "1.8e308"] {
            let err = Value::parse(big).unwrap_err();
            assert_eq!(err.offset, 0);
            assert!(err.message.contains("out of range"), "{big}: {err}");
        }
        // Inside a document the offset is the number's first byte.
        assert_eq!(Value::parse("[1, 02]").unwrap_err().offset, 4);
    }

    #[test]
    fn digit_runs_end_at_the_first_non_digit() {
        let naive =
            |b: &[u8], i: usize| i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
        // Every byte value after runs of every length up to 20, at every
        // alignment, so each 8-byte chunk meets each byte in each lane.
        for len in 0..20 {
            for stop in 0..=255u8 {
                for lead in 0..3 {
                    let mut b = vec![b'x'; lead];
                    b.extend((0..len).map(|k| b'0' + (k * 7 % 10) as u8));
                    b.push(stop);
                    b.extend_from_slice(b"99999999");
                    assert_eq!(digits_end(&b, lead), naive(&b, lead), "{b:?}");
                }
            }
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_refused() {
        for bad in ["\"a\tb\"", "\"\u{1}\"", "{\"k\u{1f}\":1}"] {
            let err = Value::parse(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::Syntax, "{bad:?}");
        }
        assert_eq!(
            Value::parse(r#""a\tb""#).unwrap(),
            Value::String("a\tb".into())
        );
    }

    #[test]
    fn pull_parser_reports_the_same_errors_as_value_parse() {
        // Decode `{"xs": [numbers...]}` by hand and compare every failure
        // with Value::parse's.
        fn pull(text: &str) -> Result<Vec<f64>, ParseError> {
            let mut p = Parser::new(text);
            let mut xs = Vec::new();
            if p.peek() == Some(b'{') {
                p.begin_object()?;
                while let Some(key) = p.next_key()? {
                    if key == "xs" && p.peek() == Some(b'[') {
                        p.begin_array()?;
                        while p.next_element()? {
                            if matches!(p.peek(), Some(b'-' | b'0'..=b'9')) {
                                xs.push(p.number()?);
                            } else {
                                p.value()?;
                            }
                        }
                    } else {
                        p.value()?;
                    }
                }
            } else {
                p.value()?;
            }
            p.finish()?;
            Ok(xs)
        }
        for text in [
            r#"{"xs":[1,2.5,-3e2]}"#,
            r#" { "xs" : [ 1 , 2 ] , "y" : {"z":[true,null]} } "#,
            r#"{"xs":[1,2.5,-3e2]"#,
            r#"{"xs":[1,,2]}"#,
            r#"{"xs":[1 2]}"#,
            r#"{"xs":[01]}"#,
            r#"{"xs":[1e999]}"#,
            r#"{"xs":["a",[1]]}"#,
            r#"{"xs":[1],}"#,
            r#"{,"xs":[1]}"#,
            r#"{"xs" [1]}"#,
            r#"{"xs":[1]} x"#,
            r#"[1,2]"#,
            r#""\ud800""#,
            "",
            "{",
            "[",
        ] {
            let tree = Value::parse(text).map(|_| ());
            assert_eq!(pull(text).map(|_| ()), tree, "{text}");
        }
        assert_eq!(pull(r#"{"xs":[1,"a",-2.5]}"#).unwrap(), [1.0, -2.5]);
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
