//! The runtime JSON codec: value model, parser, writer and the one string
//! escaper.
//!
//! The vendored `serde_json` stub only serialises, so parsing lives here: a
//! strict recursive-descent parser over objects, arrays, strings, f64
//! numbers, booleans and null. It reads serve's request frames, the sweep
//! coordinator's messages and the journal's point and event files. Depth
//! and size limits guard against adversarial input, since the parser sits
//! directly on the network boundary.
//!
//! Numbers are f64 and parse with `str::parse::<f64>`, which is correctly
//! rounded. A writer that prints a float with `{:?}` (the shortest token
//! that round-trips) therefore gets the same bits back, `-0.0` and
//! subnormals included. Such writers format their records themselves and
//! call [`Escaped`] for strings: [`Json`]'s `Display` prints integral floats
//! as integers and `-0.0` as `0`, which is compact but not bit-exact.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. BTreeMap keeps serialisation deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects (`None` for other variants / missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integral number that f64 holds
    /// exactly (at most 2^53 − 1). Above that, the parsed f64 may already
    /// differ from the integer that was written, so it is refused.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = ((1u64 << 53) - 1) as f64;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice of elements, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document from UTF-8 bytes (must consume all input).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(bytes: &[u8]) -> Result<Json, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "input is not utf-8".to_string())?;
        let mut p = Parser {
            chars: text.char_indices().peekable(),
            text,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if let Some((i, _)) = p.chars.peek() {
            return Err(format!("trailing bytes at offset {i}"));
        }
        Ok(value)
    }
}

/// An object builder for response construction.
#[derive(Debug, Default)]
pub struct JsonObj(BTreeMap<String, Json>);

impl JsonObj {
    /// Creates an empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a member, consuming and returning the builder.
    pub fn set(mut self, key: &str, value: Json) -> Self {
        self.0.insert(key.to_string(), value);
        self
    }

    /// Finishes into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => Escaped(s).fmt(f),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    Escaped(k).fmt(f)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// `Display`s a string as a JSON string literal, quotes included.
///
/// This is the one escape table of the workspace: [`Json`]'s `Display`,
/// the sweep journal and coordinator messages of `advcomp-core`, and the
/// golden-file writer of `advcomp-testkit` all print strings through it,
/// so every writer and this module's parser agree on the escape set.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"")?;
        for c in self.0.chars() {
            match c {
                '"' => write!(f, "\\\"")?,
                '\\' => write!(f, "\\\\")?,
                '\n' => write!(f, "\\n")?,
                '\r' => write!(f, "\\r")?,
                '\t' => write!(f, "\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        write!(f, "\"")
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    text: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some((_, c)) = self.chars.peek() {
            if c.is_ascii_whitespace() {
                self.chars.next();
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at offset {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.chars.peek().copied() {
            Some((_, '{')) => self.object(depth),
            Some((_, '[')) => self.array(depth),
            Some((_, '"')) => Ok(Json::Str(self.string()?)),
            Some((_, 't')) => self.keyword("true", Json::Bool(true)),
            Some((_, 'f')) => self.keyword("false", Json::Bool(false)),
            Some((_, 'n')) => self.keyword("null", Json::Null),
            Some((_, c)) if c == '-' || c.is_ascii_digit() => self.number(),
            Some((i, c)) => Err(format!("unexpected '{c}' at offset {i}")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                _ => return Err(format!("invalid literal (expected '{word}')")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = match self.chars.peek() {
            Some((i, _)) => *i,
            None => return Err("unexpected end of input in number".into()),
        };
        let mut end = start;
        while let Some((i, c)) = self.chars.peek().copied() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        let slice = &self.text[start..end];
        let n: f64 = slice
            .parse()
            .map_err(|_| format!("invalid number '{slice}'"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number '{slice}'"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        // Surrogates are replaced rather than rejected; the
                        // protocol never ships them in practice.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some((i, c)) => return Err(format!("bad escape '\\{c}' at offset {i}")),
                    None => return Err("unterminated escape".into()),
                },
                Some((i, c)) if (c as u32) < 0x20 => {
                    return Err(format!("raw control character at offset {i}"))
                }
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if let Some((_, ']')) = self.chars.peek() {
            self.chars.next();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => continue,
                Some((_, ']')) => return Ok(Json::Arr(items)),
                Some((i, c)) => return Err(format!("expected ',' or ']' at {i}, found '{c}'")),
                None => return Err("unterminated array".into()),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if let Some((_, '}')) = self.chars.peek() {
            self.chars.next();
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => return Ok(Json::Obj(map)),
                Some((i, c)) => return Err(format!("expected ',' or '}}' at {i}, found '{c}'")),
                None => return Err("unterminated object".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_request_shape() {
        let text = br#"{"id": 3, "input": [0.5, -1.25e-2, 3, 0.30000000000000004], "probs": true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        let input = v.get("input").unwrap().as_array().unwrap();
        assert_eq!(input.len(), 4);
        assert_eq!(input[1].as_f64(), Some(-0.0125));
        assert_eq!(input[3].as_f64().unwrap().to_bits(), 0.3f64.to_bits() + 1);
        assert_eq!(v.get("probs").unwrap().as_bool(), Some(true));
        // Serialise and reparse: stable.
        let text2 = v.to_string();
        assert_eq!(Json::parse(text2.as_bytes()).unwrap(), v);
    }

    #[test]
    fn scalars() {
        assert_eq!(Json::parse(b"null").unwrap(), Json::Null);
        assert_eq!(Json::parse(b"true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(b"-4.5").unwrap(), Json::Num(-4.5));
        assert_eq!(
            Json::parse(br#""a\"b\nA""#).unwrap(),
            Json::Str("a\"b\nA".into())
        );
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\nret\r",
            "ctl\u{1}",
            "π",
        ] {
            let text = Escaped(s).to_string();
            assert_eq!(Json::parse(text.as_bytes()).unwrap(), Json::Str(s.into()));
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":}",
            b"nul",
            b"1 2",
            b"\"unterminated",
            b"{\"a\" 1}",
            b"[1e999]",  // overflows to inf
            b"\xff\xfe", // not utf-8
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        // Valid numbers that are not exact u64s: 2^64 (where `u64::MAX as
        // f64` lands) and 2^53 + 1 (which parses to 2^53).
        for big in [
            &b"18446744073709551616"[..],
            b"9007199254740993",
            b"-1",
            b"1.5",
        ] {
            assert_eq!(Json::parse(big).unwrap().as_u64(), None, "{big:?}");
        }
        assert_eq!(
            Json::parse(b"9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
    }

    #[test]
    fn rejects_deep_nesting() {
        let mut evil = vec![b'['; 200];
        evil.extend(vec![b']'; 200]);
        assert!(Json::parse(&evil).is_err());
    }

    #[test]
    fn builder_and_display() {
        let v = JsonObj::new()
            .set("status", Json::Str("ok".into()))
            .set("id", Json::Num(7.0))
            .set("suspect", Json::Num(0.25))
            .build();
        let s = v.to_string();
        assert_eq!(s, r#"{"id":7,"status":"ok","suspect":0.25}"#);
    }

    #[test]
    fn integral_floats_print_as_integers() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(5.5).to_string(), "5.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
