//! Offline facade for the slice of `serde_json` this workspace uses.
//!
//! The build environment cannot reach crates.io, so this shim implements
//! exactly the subset the observability layer needs: an owned [`Value`]
//! tree, serialization via [`to_string`] / `Display`, and parsing via
//! [`from_str`]. Objects are backed by a `BTreeMap`, so serialization is
//! key-sorted and therefore deterministic — the property every exported
//! trace artifact in this workspace relies on. For code that uses only
//! that slice, swapping back to the real crate is a one-line change in
//! the workspace manifest (the real `serde_json::Value` sorts object
//! keys the same way by default).
//!
//! The snapshot codec (`vdap-ckpt` and the fleet engine's `Snap`
//! trait) also uses four items the real crate does not have:
//! [`write_value`], [`write_string`] and [`write_number`] append text
//! straight into a `String` without building a tree, and
//! [`from_str_canonical`] refuses any text that is not byte-for-byte
//! what the writers produce. Swapping back means reimplementing those
//! four over the real crate's `Value` in a module of their own (the
//! canonical parse can be a plain parse plus a byte comparison with
//! the writer's output, at the cost of a second pass). The pinned
//! snapshot bytes depend on the writers' exact output, which the tests
//! below compare against the original `Display` formatter.
//!
//! Numbers are stored as `f64`. Integral values in `±2^53` round-trip
//! exactly and print without a fractional part, which covers every
//! number the trace exporter emits (microsecond timestamps, ids,
//! counters).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as `f64`; integral values print as integers).
    Number(f64),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object with key-sorted (deterministic) serialization.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup: `value["key"]`-style access without panicking.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The array items when this value is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents when this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when this value is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64` when it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(f64::from(n))
    }
}

/// Appends `s` as a JSON string literal: quote, backslash, `\n`, `\r`
/// and `\t` get short escapes, other control characters `\u00xx`, and
/// everything else (multi-byte UTF-8 included) is copied as is, one run
/// of plain bytes at a time.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
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
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if short.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Appends a JSON number: an integral value within `±2^53` as a plain
/// integer, any other finite value in Rust's shortest round-trip form,
/// and NaN or ±∞ (which JSON cannot express) as `null`, like
/// serde_json's arbitrary-precision feature does for unrepresentable
/// floats.
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        // Exact: the value is an integer of at most 54 bits.
        let mut m = (n as i64).unsigned_abs();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
    } else {
        // Writing into a `String` cannot fail.
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

/// Appends the compact JSON text of `value`, object members in key
/// order: the bytes [`to_string`] returns.
pub fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        write_value(&mut text, self);
        f.write_str(&text)
    }
}

/// Serializes a value to its compact JSON text.
///
/// Infallible for this shim's `Value` (the real crate returns a
/// `Result` for serializer-level errors that cannot occur here), but
/// keeps the `Result` signature so call sites match the real API.
///
/// # Errors
///
/// Never fails.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut text = String::new();
    write_value(&mut text, value);
    Ok(text)
}

/// Why a JSON text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for Error {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Accept only the bytes [`write_value`] writes for the parsed value.
    canonical: bool,
    /// Reused buffer for canonical number checks.
    scratch: String,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, canonical: bool) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            canonical,
            scratch: String::new(),
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error {
            msg: msg.to_string(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) -> Result<(), Error> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.canonical && self.pos != start {
            self.pos = start;
            return self.err("whitespace in canonical text");
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws()?;
        match self.peek() {
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        // An escape-free string is one slice of the input. Both ends sit
        // next to an ASCII byte, so they are char boundaries.
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(self.text[start..self.pos - 1].to_string());
                }
                b'\\' => break,
                0..=0x1f if self.canonical => return self.err("raw control character"),
                _ => self.pos += 1,
            }
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'/' | b'b' | b'f' if self.canonical => {
                            return self.err("escape not in canonical form")
                        }
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error {
                                    msg: "bad \\u escape".into(),
                                    offset: self.pos,
                                })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| Error {
                                msg: "bad \\u escape".into(),
                                offset: self.pos,
                            })?;
                            if self.canonical
                                && (code >= 0x20
                                    || matches!(code, 0x09 | 0x0a | 0x0d)
                                    || hex.bytes().any(|h| h.is_ascii_uppercase()))
                            {
                                return self.err("escape not in canonical form");
                            }
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's artifacts; map unpaired
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                0..=0x1f if self.canonical => {
                    self.pos -= 1;
                    return self.err("raw control character");
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return self.err("truncated UTF-8");
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len]).map_err(|_| {
                        Error {
                            msg: "bad UTF-8".into(),
                            offset: start,
                        }
                    })?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let Ok(n) = text.parse::<f64>() else {
            return self.err("bad number");
        };
        if self.canonical {
            self.scratch.clear();
            write_number(&mut self.scratch, n);
            if self.scratch != text {
                self.pos = start;
                return self.err("number not in canonical form");
            }
        }
        Ok(Value::Number(n))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws()?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws()?;
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws()?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws()?;
            let key_at = self.pos;
            let key = self.parse_string()?;
            if self.canonical && map.last_key_value().is_some_and(|(last, _)| *last >= key) {
                self.pos = key_at;
                return self.err("object keys out of order");
            }
            self.skip_ws()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws()?;
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        let value = self.parse_value()?;
        self.skip_ws()?;
        if self.pos != self.bytes.len() {
            return self.err("trailing characters");
        }
        Ok(value)
    }
}

/// Parses a JSON text into a [`Value`].
///
/// # Errors
///
/// Returns an [`Error`] naming the byte offset of the first syntax
/// violation, including trailing garbage after a complete value.
pub fn from_str(text: &str) -> Result<Value, Error> {
    Parser::new(text, false).parse_document()
}

/// Parses a JSON text that must be in canonical form: exactly the bytes
/// [`to_string`] writes for the value it parses to. No whitespace,
/// object keys strictly ascending (so no duplicates), numbers as
/// [`write_number`] prints them, and strings escaped as
/// [`write_string`] escapes them. Not part of the real crate's API.
///
/// # Errors
///
/// Returns an [`Error`] at the first syntax violation or the first byte
/// that is not canonical.
pub fn from_str_canonical(text: &str) -> Result<Value, Error> {
    Parser::new(text, true).parse_document()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    /// The `Display` formatter the direct writer replaced, kept as the
    /// reference its bytes must match.
    mod reference {
        use super::super::Value;
        use std::fmt::{self, Write};

        fn write_escaped(f: &mut impl Write, s: &str) -> fmt::Result {
            f.write_char('"')?;
            for c in s.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => f.write_char(c)?,
                }
            }
            f.write_char('"')
        }

        fn write_number(f: &mut impl Write, n: f64) -> fmt::Result {
            if !n.is_finite() {
                return f.write_str("null");
            }
            if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                write!(f, "{}", n as i64)
            } else {
                write!(f, "{n}")
            }
        }

        pub(super) struct Old<'a>(pub(super) &'a Value);

        impl fmt::Display for Old<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    Value::Null => f.write_str("null"),
                    Value::Bool(b) => write!(f, "{b}"),
                    Value::Number(n) => write_number(f, *n),
                    Value::String(s) => write_escaped(f, s),
                    Value::Array(items) => {
                        f.write_str("[")?;
                        for (i, item) in items.iter().enumerate() {
                            if i > 0 {
                                f.write_str(",")?;
                            }
                            write!(f, "{}", Old(item))?;
                        }
                        f.write_str("]")
                    }
                    Value::Object(map) => {
                        f.write_str("{")?;
                        for (i, (k, v)) in map.iter().enumerate() {
                            if i > 0 {
                                f.write_str(",")?;
                            }
                            write_escaped(f, k)?;
                            f.write_str(":")?;
                            write!(f, "{}", Old(v))?;
                        }
                        f.write_str("}")
                    }
                }
            }
        }
    }

    fn hostile_strings() -> Vec<String> {
        let mut all: String = (0u8..0x20).map(char::from).collect();
        all.push_str("\"\\/ plain é ✓ 🚗 \u{7f}");
        vec![
            String::new(),
            "plain".into(),
            "\"".into(),
            "\\".into(),
            "a\"b\\c\nd".into(),
            "région/ЛТЕ/車両".into(),
            "🚗".into(),
            all,
        ]
    }

    fn edge_numbers() -> Vec<f64> {
        let p53 = 2f64.powi(53);
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            p53,
            -p53,
            p53 + 2.0,
            -(p53 + 2.0),
            1.5,
            -2.25,
            1e300,
            1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
    }

    #[test]
    fn direct_writer_matches_the_display_formatter() {
        let mut items: Vec<Value> = hostile_strings().into_iter().map(Value::String).collect();
        items.extend(edge_numbers().into_iter().map(Value::Number));
        items.extend([Value::Null, Value::Bool(true), Value::Bool(false)]);
        let keyed = hostile_strings()
            .into_iter()
            .zip(items.iter().cloned())
            .collect::<BTreeMap<_, _>>();
        let nested = Value::Array(vec![
            Value::Object(keyed),
            Value::Array(items.clone()),
            Value::Array(vec![]),
            Value::Object(BTreeMap::new()),
        ]);
        for v in items.iter().chain([&nested]) {
            let want = reference::Old(v).to_string();
            let mut got = String::new();
            write_value(&mut got, v);
            assert_eq!(got, want);
            assert_eq!(to_string(v).expect("serialize"), want);
            assert_eq!(v.to_string(), want);
        }
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Number(n).to_string(), "null");
        }
        assert_eq!(Value::Number(-0.0).to_string(), "0");
        assert_eq!(
            Value::Number(2f64.powi(53) + 2.0).to_string(),
            "9007199254740994"
        );
    }

    #[test]
    fn strings_round_trip_escaped_and_escape_free() {
        for s in hostile_strings() {
            let text = Value::String(s.clone()).to_string();
            assert_eq!(from_str(&text).expect("parse"), Value::String(s.clone()));
            assert_eq!(
                from_str_canonical(&text).expect("canonical parse"),
                Value::String(s)
            );
        }
        // Escapes the writer never produces still parse leniently.
        let lenient = from_str("\"\\/\\b\\f\\u0041\\u00E9\"").expect("parse");
        assert_eq!(lenient, Value::from("/\u{8}\u{c}Aé"));
    }

    #[test]
    fn canonical_parse_refuses_what_the_writer_would_not_write() {
        let v = obj(&[
            ("a", Value::Array(vec![Value::from(1u32), Value::Null])),
            ("b", Value::from("x\ny")),
        ]);
        let text = v.to_string();
        assert_eq!(from_str_canonical(&text).expect("canonical"), v);
        for bad in [
            " {\"a\":1}",
            "{\"a\": 1}",
            "[1 ,2]",
            "{\"b\":1,\"a\":2}",
            "{\"a\":1,\"a\":2}",
            "1.0",
            "-0",
            "01",
            "1e2",
            "\"\\/\"",
            "\"\\u0041\"",
            "\"\\u000A\"",
            "\"\\u000a\"",
            "\"\\u001F\"",
            "\"\u{1}\"",
        ] {
            assert!(from_str(bad).is_ok(), "{bad:?} is valid JSON");
            assert!(from_str_canonical(bad).is_err(), "{bad:?} is not canonical");
        }
    }

    #[test]
    fn values_round_trip() {
        let v = obj(&[
            ("name", Value::from("fleet \"trace\"\n")),
            ("ts", Value::from(1_234_567u64)),
            ("dur", Value::Number(1.5)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "args",
                Value::Array(vec![Value::from(0u32), obj(&[("k", Value::from("v"))])]),
            ),
        ]);
        let text = to_string(&v).expect("serialize");
        let back = from_str(&text).expect("parse");
        assert_eq!(back, v);
        assert_eq!(to_string(&back).expect("serialize"), text);
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Value::from(42u64).to_string(), "42");
        assert_eq!(Value::Number(-3.0).to_string(), "-3");
        assert_eq!(Value::Number(2.25).to_string(), "2.25");
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let v = obj(&[("b", Value::Null), ("a", Value::Null)]);
        assert_eq!(v.to_string(), "{\"a\":null,\"b\":null}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("{\"a\":}").is_err());
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("true false").is_err());
        assert!(from_str("").is_err());
    }

    #[test]
    fn accessors_narrow_types() {
        let v = from_str("{\"n\": 7, \"s\": \"x\", \"a\": [1]}").expect("parse");
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Value::as_array).map(Vec::len), Some(1));
        assert_eq!(v.get("missing"), None);
    }
}
