//! JSON reader/writer for golden files.
//!
//! The runtime codec, `advcomp_wire::json`, cannot hold a golden, so this
//! module keeps its own value model and parser and shares only the wire
//! codec's string escaper ([`Escaped`]). Two properties rule the runtime
//! model out:
//!
//! * **f32 bit-exactness through a text round-trip.** Values are written
//!   with Rust's shortest-round-trip `{:?}` formatting and kept as *raw
//!   number tokens* when parsed, so the consumer re-parses the exact token
//!   with `str::parse::<f32>`, with no intermediate f64 rounding. An f64
//!   value model holding the f32 `0.1` would print `0.10000000149011612`.
//! * **Insertion-ordered keys.** Objects are backed by a `Vec`, which makes
//!   the writer deterministic: regenerating an unchanged golden produces a
//!   byte-identical file, so `git diff` is a drift detector, and
//!   `golden::compare_json` checks the order. A `BTreeMap` would sort them.
//!
//! A parser generic over both value models would branch on its caller, so
//! the two stay separate.

use advcomp_wire::json::Escaped;
use std::fmt::Write as _;

/// A JSON value. Numbers are raw tokens (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal token.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

/// Parse or serialization failure with a byte offset for context.
#[derive(Debug, Clone)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it went wrong.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Number from an `f32`, shortest round-trip representation.
    pub fn from_f32(v: f32) -> Json {
        assert!(v.is_finite(), "golden values must be finite, got {v}");
        Json::Num(format!("{v:?}"))
    }

    /// Number from a `usize`.
    pub fn from_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// Array of `f32` numbers.
    pub fn f32_array(values: &[f32]) -> Json {
        Json::Arr(values.iter().copied().map(Json::from_f32).collect())
    }

    /// Array of `usize` numbers.
    pub fn usize_array(values: &[usize]) -> Json {
        Json::Arr(values.iter().copied().map(Json::from_usize).collect())
    }

    /// The value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as an `f32`, re-parsed from the raw token.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Elementwise `f32` decoding of an array value.
    pub fn as_f32_vec(&self) -> Option<Vec<f32>> {
        self.as_arr()?.iter().map(Json::as_f32).collect()
    }

    /// Elementwise `usize` decoding of an array value.
    pub fn as_usize_vec(&self) -> Option<Vec<usize>> {
        self.as_arr()?.iter().map(Json::as_usize).collect()
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => {
                let _ = write!(out, "{}", Escaped(s));
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Scalar-only arrays (the big data payloads) stay on one
                // line to keep golden files compact and diffable per tensor.
                let flat = items
                    .iter()
                    .all(|i| matches!(i, Json::Num(_) | Json::Str(_) | Json::Bool(_)));
                if flat {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write_pretty(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, indent + 1);
                        item.write_pretty(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    let _ = write!(out, "{}: ", Escaped(k));
                    v.write_pretty(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] with a byte offset on malformed input.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing data", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.to_string(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected '{}'", c as char), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(&format!("expected '{word}'"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(err("expected a number", start));
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("bad utf8", start))?;
    // Validate the token eagerly so later as_f32() cannot fail silently.
    token
        .parse::<f64>()
        .map_err(|_| err("malformed number", start))?;
    Ok(Json::Num(token.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        let hex = std::str::from_utf8(hex).map_err(|_| err("bad utf8", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err("bad \\u escape", *pos))?;
                        out.push(char::from_u32(code).ok_or_else(|| err("bad codepoint", *pos))?);
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err("bad utf8", *pos))?;
                let c = rest.chars().next().expect("non-empty by construction");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let values = [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            std::f32::consts::PI,
            1.0e-38,
            3.4e38,
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x3f80_0001), // 1.0 + 1 ulp
        ];
        for &v in &values {
            let text = Json::from_f32(v).to_pretty_string();
            let back = parse(&text).unwrap().as_f32().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v:?} via {text:?}");
        }
    }

    #[test]
    fn object_round_trip_preserves_order_and_content() {
        let doc = Json::Obj(vec![
            ("zeta".into(), Json::from_usize(3)),
            ("alpha".into(), Json::f32_array(&[1.5, -2.25])),
            ("name".into(), Json::Str("a \"quoted\"\nvalue".into())),
            ("flag".into(), Json::Bool(true)),
        ]);
        let text = doc.to_pretty_string();
        let back = parse(&text).unwrap();
        assert_eq!(doc, back);
        // Deterministic writer: same document, same bytes.
        assert_eq!(text, back.to_pretty_string());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1.2.3", "[1] x"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": [true, "x"]}}"#;
        let v = parse(text).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_f32_vec().unwrap(),
            vec![1.0, 2.5, -300.0]
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }
}
