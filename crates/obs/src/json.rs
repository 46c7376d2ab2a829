//! A minimal JSON value type with an emitter and a parser.
//!
//! The build environment is offline, so the journal and metrics
//! exporters hand-roll their JSON exactly like the sweep harness does —
//! but through one shared, escaping-correct value type instead of ad-hoc
//! `format!` strings. Objects preserve insertion order so emitted
//! records are byte-stable.

use std::fmt;

/// A JSON value. Numbers are split into integers and floats so counters
/// round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers (all omislice counters and ids).
    Int(i64),
    /// Unsigned integers that exceed `i64` (nanosecond totals).
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Key-value pairs in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value under `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer content, when this is a number without a fraction.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::UInt(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The array elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object pairs, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Recursively removes every object key for which `drop` returns
    /// true — how tests strip timing fields before byte-comparing
    /// journals across thread counts.
    pub fn strip_keys(&mut self, drop: &dyn Fn(&str) -> bool) {
        match self {
            Json::Object(pairs) => {
                pairs.retain(|(k, _)| !drop(k));
                for (_, v) in pairs.iter_mut() {
                    v.strip_keys(drop);
                }
            }
            Json::Array(items) => {
                for v in items.iter_mut() {
                    v.strip_keys(drop);
                }
            }
            _ => {}
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        self.write_into(&mut buf);
        f.write_str(&buf)
    }
}

impl Json {
    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    // Keep a fraction marker so the value parses back as
                    // a float.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parses one JSON document. Rejects trailing garbage and nesting deeper
/// than [`MAX_PARSE_DEPTH`] (a hostile `[[[[...` would otherwise overflow
/// the stack — the parser may see network request bodies).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

/// Maximum container nesting the parser accepts. Journals nest three or
/// four levels; 128 leaves generous headroom without risking the stack.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step:
            // both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                other => return Err(format!("bad escape `\\{}`", other as char)),
            });
        }
    }

    /// Decodes a `\u` escape (its `\u` already consumed), joining a
    /// UTF-16 surrogate pair into one char. A lone surrogate becomes
    /// U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).expect("a surrogate pair decodes to a scalar"));
            }
            // Not a pair: the second escape decodes on its own.
            self.pos = after_high;
        }
        Ok(char::from_u32(high).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &b in hex {
            code = code * 16 + (b as char).to_digit(16).ok_or("bad \\u escape")?;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number `{text}`"))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Json::Int(n))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("bad number `{text}`"))
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                self.pos
            ))
        } else {
            Ok(())
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        let v = self.array_inner();
        self.depth -= 1;
        v
    }

    fn array_inner(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        let v = self.object_inner();
        self.depth -= 1;
        v
    }

    fn object_inner(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Json::object([
            ("a", Json::Int(-3)),
            ("b", Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("c", Json::str("he\"llo\n")),
            ("d", Json::Float(1.5)),
            ("e", Json::UInt(u64::MAX)),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn escapes_control_characters() {
        let text = Json::str("\u{1}\t").to_string();
        assert_eq!(text, "\"\\u0001\\t\"");
        assert_eq!(parse(&text).unwrap(), Json::str("\u{1}\t"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2,]garbage").is_err());
        assert!(parse("nulL").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn hostile_deep_nesting_errors_instead_of_overflowing() {
        let deep_arrays = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
        let err = parse(&deep_arrays).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");

        let deep_objects = format!("{}1{}", "{\"k\":".repeat(100_000), "}".repeat(100_000));
        let err = parse(&deep_objects).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn moderate_nesting_still_parses() {
        let nested = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&nested).is_ok());
    }

    #[test]
    fn accessors_and_strip() {
        let mut v = parse(r#"{"iter":1,"elapsed_ns":99,"sub":{"wall_ns":5,"n":2}}"#).unwrap();
        assert_eq!(v.get("iter").and_then(Json::as_int), Some(1));
        v.strip_keys(&|k| k.ends_with("_ns"));
        assert_eq!(v.get("elapsed_ns"), None);
        assert_eq!(v.get("sub").unwrap().get("wall_ns"), None);
        assert_eq!(
            v.get("sub").unwrap().get("n").and_then(Json::as_int),
            Some(2)
        );
    }

    #[test]
    fn huge_strings_parse_in_linear_time() {
        // 8 MiB, the largest body serve accepts, mixing ASCII,
        // multi-byte chars, and escapes: parsing must stay linear in the
        // string's length.
        let mut big = String::with_capacity(8 << 20);
        while big.len() < 8 << 20 {
            big.push_str("abcdefgh\u{e9}\u{1f600}\"\\\n");
        }
        let text = Json::str(big.clone()).to_string();
        let start = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), Json::Str(big));
        assert!(start.elapsed().as_secs() < 10, "{:?}", start.elapsed());
    }

    #[test]
    fn surrogate_pairs_join_into_one_char() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::str("\u{1f600}"));
        assert_eq!(parse(r#""a\u00e9b""#).unwrap(), Json::str("a\u{e9}b"));
        // Lone or mismatched halves decode to U+FFFD, and the next escape
        // still decodes on its own.
        assert_eq!(parse(r#""\ud83d""#).unwrap(), Json::str("\u{fffd}"));
        assert_eq!(parse(r#""\ude00x""#).unwrap(), Json::str("\u{fffd}x"));
        assert_eq!(parse(r#""\ud83d\u0041""#).unwrap(), Json::str("\u{fffd}A"));
        assert!(parse(r#""\ud83d\uZZZZ""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""unterminated\"#).is_err());
    }

    #[test]
    fn float_output_keeps_fraction_marker() {
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert!(matches!(parse("2.0").unwrap(), Json::Float(_)));
    }
}
