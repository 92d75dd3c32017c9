//! A minimal JSON-lines codec for the server protocol.
//!
//! The workspace has no registry dependencies (so no serde); the
//! protocol only ever exchanges *flat* objects whose values are strings,
//! integers, booleans or null, and this module implements exactly that:
//! [`parse_object`] for inbound request lines, and [`escape`] plus the
//! [`ObjWriter`] builder for outbound lines. Nested arrays/objects are
//! rejected — by the protocol's design there is no request that needs
//! them.
//!
//! Outbound objects are emitted in exactly the order fields are pushed
//! into the [`ObjWriter`], and every `Response::to_json` path routes
//! through it — so identical state serializes to identical bytes, run
//! to run. The `stats` and `metrics` ops lean on this: scrapers can
//! diff response lines textually.

use std::fmt::Write as _;

/// A flat JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    /// Fractional numbers appear only in *responses* (hit rates); no
    /// request field is fractional.
    Float(f64),
    Bool(bool),
    Null,
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one line as a flat JSON object, returning its key/value pairs
/// in source order. Duplicate keys are allowed (last one wins at lookup
/// via [`get`]).
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, found {}",
                        show(other)
                    ))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing content after JSON object".to_owned());
    }
    Ok(pairs)
}

/// Looks a key up in a parsed object (last occurrence wins).
pub fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Escapes `s` for embedding in a JSON string literal (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Builds one flat JSON object with **caller-controlled, deterministic
/// key order**: fields appear in exactly the order they are pushed, and
/// every value formats through one code path (integers as-is, floats
/// with four decimals, strings escaped). Serializing the same fields in
/// the same order therefore yields byte-identical lines — the stability
/// contract behind `stats` and `metrics` responses.
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

impl ObjWriter {
    /// Starts an empty object (`{`).
    pub fn new() -> ObjWriter {
        ObjWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Appends `"key":<unsigned integer>`.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends `"key":<signed integer>`.
    pub fn field_i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends `"key":<float>` with four decimals (the protocol's rate
    /// format; non-finite values become `null`).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.4}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends `"key":true|false`.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends `"key":"escaped string"`.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    /// Appends a parsed [`Value`] (strings escaped, floats in rate
    /// format, nulls literal).
    pub fn field_value(&mut self, key: &str, value: &Value) -> &mut Self {
        match value {
            Value::Str(s) => self.field_str(key, s),
            Value::Int(n) => self.field_i64(key, *n),
            Value::Float(x) => self.field_f64(key, *x),
            Value::Bool(b) => self.field_bool(key, *b),
            Value::Null => {
                self.key(key);
                self.buf.push_str("null");
                self
            }
        }
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn show(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("'{}'", b as char),
        None => "end of line".to_owned(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected '{}', found {}",
                want as char,
                show(other)
            )),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.integer(),
            Some(b'[' | b'{') => Err("nested arrays/objects are not part of the protocol".into()),
            other => Err(format!("expected a value, found {}", show(other))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal (expected `{word}`)"))
        }
    }

    fn integer(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            return Err("exponent notation is not part of the protocol".into());
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are utf-8");
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Fast-forward over plain UTF-8 runs.
            let run_start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_owned())?,
            );
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or("truncated \\u escape")?;
                        self.pos += 4;
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign, as in `\u+041`.
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err("bad \\u escape".into());
                        }
                        let code = hex.iter().fold(0, |code, &d| {
                            code * 16 + char::from(d).to_digit(16).expect("a hex digit")
                        });
                        // Surrogate pairs are rejected rather than paired:
                        // the protocol is ASCII in practice.
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("bad escape {}", show(other))),
                },
                other => return Err(format!("unterminated string (at {})", show(other))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let pairs = parse_object(r#"{"op":"equiv","lhs":"!Int.End!","id":7,"warm":true,"x":null}"#)
            .unwrap();
        assert_eq!(get(&pairs, "op").unwrap().as_str(), Some("equiv"));
        assert_eq!(get(&pairs, "lhs").unwrap().as_str(), Some("!Int.End!"));
        assert_eq!(get(&pairs, "id").unwrap().as_int(), Some(7));
        assert_eq!(get(&pairs, "warm"), Some(&Value::Bool(true)));
        assert_eq!(get(&pairs, "x"), Some(&Value::Null));
        assert_eq!(get(&pairs, "missing"), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f — π";
        let line = format!(r#"{{"s":"{}"}}"#, escape(nasty));
        let pairs = parse_object(&line).unwrap();
        assert_eq!(get(&pairs, "s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn whitespace_and_empty_objects() {
        assert!(parse_object("  { }  ").unwrap().is_empty());
        let pairs = parse_object(" { \"a\" : 1 , \"b\" : \"x\" } ").unwrap();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn accepts_fractional_rates() {
        let pairs = parse_object(r#"{"rate":0.9871,"neg":-1.5}"#).unwrap();
        assert_eq!(get(&pairs, "rate"), Some(&Value::Float(0.9871)));
        assert_eq!(get(&pairs, "neg"), Some(&Value::Float(-1.5)));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}extra",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a":1e9}"#,
            r#"{"a":[1]}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":"\u+041"}"#,
            r#"{"a":"\u-041"}"#,
            r#"{"a":"\u 41"}"#,
            "not json at all",
        ] {
            assert!(parse_object(bad).is_err(), "accepted: {bad}");
        }
        // Four hex digits of either case are an escape.
        let pairs = parse_object(r#"{"a":"\u0041\u00E9\u00e9"}"#).unwrap();
        assert_eq!(get(&pairs, "a").unwrap().as_str(), Some("Aéé"));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let pairs = parse_object(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(get(&pairs, "a").unwrap().as_int(), Some(2));
    }

    #[test]
    fn obj_writer_emits_fields_in_push_order() {
        let mut w = ObjWriter::new();
        w.field_u64("id", 7)
            .field_str("op", "metrics")
            .field_bool("warm", true)
            .field_i64("delta", -2)
            .field_f64("rate", 0.5)
            .field_value("x", &Value::Null);
        assert_eq!(
            w.finish(),
            r#"{"id":7,"op":"metrics","warm":true,"delta":-2,"rate":0.5000,"x":null}"#
        );
        assert_eq!(ObjWriter::new().finish(), "{}");
    }

    #[test]
    fn obj_writer_output_is_byte_stable_and_round_trips() {
        let build = || {
            let mut w = ObjWriter::new();
            w.field_str("s", "a\"b\\c\nd").field_u64("n", 42);
            w.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b, "same fields, same order => same bytes");
        let pairs = parse_object(&a).unwrap();
        assert_eq!(get(&pairs, "s").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(get(&pairs, "n").unwrap().as_int(), Some(42));
    }
}
