#![deny(missing_docs)]

//! A small, dependency-free JSON library for the repo's exports and
//! stored documents (Chrome traces, telemetry streams, blame reports,
//! `tsdb` runs and their catalog, benchmark results).
//!
//! The workspace builds in hermetic environments with no registry access, so
//! serialization cannot rely on external crates. This module provides the
//! subset of JSON the project needs: a [`Value`] tree, a strict recursive
//! descent parser, and a compact writer whose output is byte-stable (object
//! keys keep insertion order, integers print without an exponent).
//!
//! ```
//! use microjson::Value;
//!
//! let v = Value::parse(r#"{"name":"resnet","batch":32,"gpu":true}"#).unwrap();
//! assert_eq!(v.get("batch").and_then(Value::as_u64), Some(32));
//! assert_eq!(v.to_string(), r#"{"name":"resnet","batch":32,"gpu":true}"#);
//! ```

use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts; beyond this the input is
/// rejected rather than risking a stack overflow.
const MAX_DEPTH: u32 = 128;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits in `u64` (the common case for the
    /// repo's counters, costs and nanosecond durations).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            Value::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Looks up a field of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object field, reporting a decode error when the
    /// value is not an object or the field is absent.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error::decode(format!("missing field {key:?}")))
    }

    /// Parses a JSON document. Trailing non-whitespace input is an error.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Serializes compactly (serde_json-style: no spaces) into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => write_u64(*n, out),
            Value::Int(n) => {
                if *n < 0 {
                    out.push('-');
                }
                write_u64(n.unsigned_abs(), out);
            }
            Value::Float(x) => write_f64(*x, out),
            Value::Str(s) => write_escaped(s, out),
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
                    write_escaped(k, out);
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
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::UInt(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
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

/// Writes `n` in decimal, allocating nothing beyond `out`'s growth. The
/// digits are pushed as chars, which spares them the UTF-8 check a `&str`
/// would take.
pub fn write_u64(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[i..].iter().map(|&d| char::from(d)));
}

/// Writes `x` as Rust's `Display` prints it (the shortest form that
/// round-trips, never an exponent), with `.0` appended to integral values
/// so they read back as floats. NaN and the infinities, which JSON cannot
/// hold, write `null` as serde_json does. Allocates nothing beyond `out`'s
/// growth.
pub fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let start = out.len();
        write!(out, "{x}").expect("writing to a String cannot fail");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a quoted JSON string: quotes, backslashes and control
/// characters are escaped, everything else (multibyte text included) is
/// copied raw. A string that needs no escape, the common case, is copied
/// with one `push_str`. Allocates nothing beyond `out`'s growth.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // One pass with no early exit, which compiles without a branch per byte.
    let clean = !s.bytes().fold(false, |dirty, b| dirty | (b < 0x20) | (b == b'"') | (b == b'\\'));
    if clean {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// A parse or decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the failure, when known (parse errors).
    pub pos: Option<usize>,
    msg: String,
}

impl Error {
    /// A structural decode error (missing field, wrong type) with no
    /// associated input position.
    pub fn decode(msg: impl Into<String>) -> Error {
        Error {
            pos: None,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "{} at byte {pos}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for Error {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> Error {
        Error {
            pos: Some(self.pos),
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: u32) -> Result<Value, Error> {
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
            let value = self.value(depth + 1)?;
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

    fn array(&mut self, depth: u32) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut s)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, s: &mut String) -> Result<(), Error> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match b {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'b' => s.push('\u{8}'),
            b'f' => s.push('\u{c}'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    hi
                };
                s.push(char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'0') {
            // JSON forbids leading zeros: "0" is fine, "01" is not.
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in ["null", "true", "false", "0", "42", "-7", "3.5", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "roundtrip of {text}");
        }
    }

    #[test]
    fn numbers_classify() {
        assert_eq!(Value::parse("18446744073709551615").unwrap(), Value::UInt(u64::MAX));
        assert_eq!(Value::parse("-3").unwrap(), Value::Int(-3));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(Value::parse("7").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn object_preserves_order_and_nests() {
        let text = r#"{"b":[1,2,{"c":null}],"a":{"x":true}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(
            v.get("b").unwrap().as_array().unwrap()[2]
                .get("c")
                .unwrap(),
            &Value::Null
        );
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\" } ").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":"x"}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{8}\u{c}\r\u{1}ü".into());
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
        assert!(text.contains("\\u0001"));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Value::parse(r#""é😀""#).unwrap(),
            Value::Str("é😀".into())
        );
        assert!(Value::parse(r#""\ud800""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn garbage_is_rejected() {
        for bad in [
            "", "nul", "{", "[1,", "{\"a\"}", "{\"a\":1,}", "01x", "01", "-01", "1 2", "\"",
            "--1", "+1", "[1]]",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn every_control_char_roundtrips_through_escapes() {
        let raw: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let v = Value::Str(raw.clone());
        let text = v.to_string();
        // The wire form is pure ASCII with nothing unescaped below 0x20.
        assert!(text.bytes().all(|b| (0x20..0x80).contains(&b)));
        assert_eq!(Value::parse(&text).unwrap(), v);
        // The short forms are preferred where JSON defines them.
        for esc in ["\\b", "\\t", "\\n", "\\f", "\\r", "\\u0000", "\\u001f"] {
            assert!(text.contains(esc), "missing {esc} in {text}");
        }
        // Raw (unescaped) control characters in input are rejected.
        assert!(Value::parse("\"\u{1}\"").is_err());
        assert!(Value::parse("\"\n\"").is_err());
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        assert_eq!(Value::parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        assert_eq!(Value::parse(r#""\u00e9""#).unwrap(), Value::Str("é".into()));
        assert_eq!(
            Value::parse(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("😀".into())
        );
        // A high surrogate must be followed by an escaped low half.
        assert!(Value::parse(r#""\ud83dx""#).is_err());
        assert!(Value::parse(r#""\ud83dA""#).is_err());
        assert!(Value::parse(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn unicode_text_roundtrips_byte_stable() {
        // Multibyte text is written raw (not \u-escaped); a parse/write
        // cycle of the wire form must reproduce it byte for byte.
        let v = Value::Str("héllo ✓ 😀 \u{7f} end".into());
        let text = v.to_string();
        let reparsed = Value::parse(&text).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn escaped_and_raw_keys_roundtrip_in_objects() {
        let v = Value::Object(vec![
            ("tab\tkey".into(), Value::UInt(1)),
            ("quote\"key".into(), Value::UInt(2)),
            ("emoji😀".into(), Value::UInt(3)),
        ]);
        let text = v.to_string();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("tab\tkey").unwrap().as_u64(), Some(1));
        assert_eq!(back.get("quote\"key").unwrap().as_u64(), Some(2));
        assert_eq!(back.get("emoji😀").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn field_reports_missing() {
        let v = Value::parse(r#"{"a":1}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_u64(), Some(1));
        let err = v.field("b").unwrap_err();
        assert!(err.to_string().contains("\"b\""));
    }

    #[test]
    fn float_formatting_stays_a_float() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn float_writer_matches_display() {
        let zeros = |n: usize| "0".repeat(n);
        let pins = [
            (0.0, "0.0".to_string()),
            (-0.0, "-0.0".to_string()),
            (1e-7, "0.0000001".to_string()),
            (1e21, format!("1{}.0", zeros(21))),
            (0.1 + 0.2, "0.30000000000000004".to_string()),
            (5e-324, format!("0.{}5", zeros(323))),
            (f64::MAX, format!("17976931348623157{}.0", zeros(292))),
            (123.456, "123.456".to_string()),
            (f64::NAN, "null".to_string()),
            (f64::INFINITY, "null".to_string()),
            (f64::NEG_INFINITY, "null".to_string()),
        ];
        for (x, want) in pins {
            // A '.' already in `out` must not suppress the ".0" suffix.
            let mut out = String::from("[1.5,");
            write_f64(x, &mut out);
            assert_eq!(out[5..], want, "write_f64({x:?})");
            assert_eq!(Value::Float(x).to_string(), want, "Value::Float({x:?})");
        }
    }

    #[test]
    fn string_writer_output_is_pinned() {
        let pins = [
            ("", r#""""#),
            ("critical path", r#""critical path""#),
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("\n", r#""\n""#),
            ("\r", r#""\r""#),
            ("\t", r#""\t""#),
            ("\u{8}", r#""\b""#),
            ("\u{c}", r#""\f""#),
            ("\u{1f}", r#""\u001f""#),
            ("\u{0}", r#""\u0000""#),
            ("a\"b\\c\nd", r#""a\"b\\c\nd""#),
            ("héllo ✓ 😀 \u{7f}", "\"héllo ✓ 😀 \u{7f}\""),
            ("ü\tü", "\"ü\\tü\""),
            ("😀\"", "\"😀\\\"\""),
        ];
        for (raw, want) in pins {
            // Written after text already in `out`, which must stay.
            let mut out = String::from("[");
            write_escaped(raw, &mut out);
            assert_eq!(out[1..], *want, "write_escaped({raw:?})");
        }
    }

    #[test]
    fn integer_writers_print_plain_decimal() {
        for (v, want) in [
            (Value::UInt(0), "0"),
            (Value::UInt(u64::MAX), "18446744073709551615"),
            (Value::Int(-1), "-1"),
            (Value::Int(7), "7"),
            (Value::Int(i64::MIN), "-9223372036854775808"),
        ] {
            assert_eq!(v.to_string(), want);
        }
    }
}
