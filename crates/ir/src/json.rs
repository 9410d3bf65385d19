//! The workspace's one JSON codec: a value model, a strict parser, and a
//! compact and a pretty writer.
//!
//! The workspace builds fully offline (no `serde_json`; DESIGN.md §4), and
//! every JSON shape it speaks is small and fixed — ECC-set interchange
//! (`quartz_gen::json`), audit sidecars and reports (`quartz_gen::audit`),
//! bench reports (`quartz_bench::report`) and the daemon wire protocol
//! (`quartz_serve::wire`). Each of those is a shape mapping over [`Json`];
//! this module is the only place JSON text is read or written. The parser
//! is *generic over values* because request bodies arrive from untrusted
//! clients: it must reject arbitrary garbage with a useful diagnostic, and
//! it bounds nesting depth so a hostile body cannot overflow a stack.
//!
//! Every parse error carries the **position** of the offending byte (line,
//! column, byte offset; the column counts characters, not bytes) —
//! including truncation errors, which point at the end of the input
//! ("unexpected end of input at …"). Shape errors found after parsing are
//! positioned the same way through [`locate`]. The round-trip property
//! `parse(write(v)) == v` holds for every value this module can represent
//! and is enforced by proptests.
//!
//! Object member order is preserved (members are a `Vec`, not a map), which
//! keeps encoding deterministic: the same value always serializes to the
//! same bytes.

use std::fmt::Write as _;

/// A JSON value. Numbers are split into integer and float forms so ids and
/// counters round-trip exactly (no 2^53 loss for the u64 ids the wire
/// carries).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer in `i128` range (covers `u64` and `i64` exactly).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, member order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The integer payload as `usize`, if in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to pretty-printed JSON, newline-terminated: 2-space
    /// indent, `"key": value` members, one member or item per line, and
    /// `{}` / `[]` for empty containers. Scalars print as in the compact
    /// form.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 2);
                    item.write_pretty(out, indent + 2);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Object(members) if !members.is_empty() => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 2);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 2);
                }
                newline(out, indent);
                out.push('}');
            }
            _ => self.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                // f64 -> shortest round-trippable decimal; JSON has no
                // non-finite literals, map them to null like serde_json.
                if f.is_finite() {
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes to compact JSON (no whitespace), deterministically: the same
/// value always produces the same bytes (object member order is preserved).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push(' ');
    }
}

fn write_json_string(out: &mut String, s: &str) {
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

/// A JSON parse error with the position of the offending byte. Truncated
/// input reports the position of the end of the input, so a client that
/// sent a torn body learns exactly where its payload stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte, in characters.
    pub column: usize,
    /// 0-based byte offset of the offending byte.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at line {}, column {} (byte {})",
            self.message, self.line, self.column, self.offset
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document, requiring the whole input to be
/// consumed (trailing non-whitespace is an error).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Positions a shape error found *after* parsing: `message` reported at the
/// value reached from the root of `input` by `path`, where each step is a
/// child index (an array item, or an object member in document order).
///
/// [`Json`] carries no spans, so decoders that walk a parsed tree record the
/// path they took and, on the error path only, re-walk the text with the
/// same parser to find the value's first byte. `input` must be the text the
/// tree was parsed from; a path that runs off the document reports the
/// position where the walk stopped.
pub fn locate(input: &str, path: &[usize], message: impl Into<String>) -> JsonError {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    for &step in path {
        let in_object = parser.peek() == Some(b'{');
        parser.pos += 1;
        for i in 0..=step {
            parser.skip_ws();
            if in_object {
                // The input already parsed, so the key, ':' and ','
                // delimiters are where the grammar puts them.
                let _ = parser.string();
                parser.skip_ws();
                parser.pos += 1;
                parser.skip_ws();
            }
            if i < step {
                let _ = parser.value(0);
                parser.skip_ws();
                parser.pos += 1;
            }
        }
    }
    parser.error(message)
}

/// Nesting bound: deeper inputs are rejected (a flat wire protocol never
/// comes close; unbounded recursion would let a hostile body overflow the
/// connection thread's stack).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else if b & 0xC0 != 0x80 {
                // Columns count characters: UTF-8 continuation bytes
                // (0b10xx_xxxx) do not start a new one.
                column += 1;
            }
        }
        JsonError {
            message: message.into(),
            line,
            column,
            offset: self.pos,
        }
    }

    fn eof_error(&self, expecting: &str) -> JsonError {
        self.error(format!("unexpected end of input, expecting {expecting}"))
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => {
                Err(self.error(format!("expected '{}', found '{}'", b as char, got as char)))
            }
            None => Err(self.eof_error(&format!("'{}'", b as char))),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else if self.bytes.len() - self.pos < text.len()
            && text
                .as_bytes()
                .starts_with(&self.bytes[self.pos..self.bytes.len()])
        {
            self.pos = self.bytes.len();
            Err(self.eof_error(&format!("literal '{text}'")))
        } else {
            Err(self.error(format!("invalid literal, expecting '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("maximum nesting depth exceeded"));
        }
        match self.peek() {
            None => Err(self.eof_error("a JSON value")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(format!("unexpected character '{}'", b as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or ']' in array, found '{}'",
                        b as char
                    )))
                }
                None => return Err(self.eof_error("',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return match self.peek() {
                    Some(b) => {
                        Err(self
                            .error(format!("expected object key string, found '{}'", b as char)))
                    }
                    None => Err(self.eof_error("an object key")),
                };
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        b as char
                    )))
                }
                None => return Err(self.eof_error("',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.eof_error("closing '\"' of string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.eof_error("an escape character"));
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
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        self.pos -= 4;
                                        return Err(
                                            self.error("invalid low surrogate in \\u escape")
                                        );
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                                } else {
                                    return Err(self.error("unpaired high surrogate in \\u escape"));
                                }
                            } else if (0xDC00..0xE000).contains(&first) {
                                self.pos -= 4;
                                return Err(self.error("unpaired low surrogate in \\u escape"));
                            } else {
                                first
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                        }
                        _ => {
                            self.pos -= 1;
                            return Err(
                                self.error(format!("invalid escape character '{}'", esc as char))
                            );
                        }
                    }
                }
                _ if b < 0x20 => {
                    self.pos -= 1;
                    return Err(self.error("unescaped control character in string"));
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b. The input
                    // is a &str, so the sequence is valid by construction.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input is valid UTF-8");
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.eof_error("4 hex digits of \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            self.pos += 1;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digit_run();
        if int_digits == 0 {
            return match self.peek() {
                Some(_) => Err(self.error("invalid number: expected digits")),
                None => Err(self.eof_error("digits of a number")),
            };
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.digit_run() == 0 {
                return match self.peek() {
                    Some(_) => Err(self.error("invalid number: expected fractional digits")),
                    None => Err(self.eof_error("fractional digits of a number")),
                };
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return match self.peek() {
                    Some(_) => Err(self.error("invalid number: expected exponent digits")),
                    None => Err(self.eof_error("exponent digits of a number")),
                };
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Json::Float(f)),
            Err(_) => Err(self.error("number out of range")),
        }
    }

    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-12", Json::Int(-12)),
            ("18446744073709551615", Json::Int(u64::MAX as i128)),
            ("1.5", Json::Float(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
            assert_eq!(parse(&value.to_string()).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Object(vec![
            ("id".into(), Json::Int(7)),
            (
                "trace".into(),
                Json::Array(vec![Json::Int(30), Json::Int(12), Json::Int(0)]),
            ),
            ("qasm".into(), Json::Str("OPENQASM 2.0;\nh q[0];".into())),
            ("nested".into(), Json::Object(vec![])),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t nul \u{1} unicode ü 𝄞";
        let v = Json::Str(s.into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // Escaped surrogate pair decodes to the astral char.
        assert_eq!(parse("\"\\ud834\\udd1e\"").unwrap(), Json::Str("𝄞".into()));
        // The exact escape table: quotes and backslashes are escaped, the
        // common control characters get their short forms, the rest \u00XX.
        let encode = |s: &str| Json::Str(s.into()).to_string();
        assert_eq!(encode("plain"), "\"plain\"");
        assert_eq!(encode("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(encode("x\n\t\u{1}"), "\"x\\n\\t\\u0001\"");
    }

    #[test]
    fn parser_handles_nesting_and_rejects_garbage() {
        let v = parse(r#"{"a":[1,-2,{"b":"x"}],"c":3}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_u64), Some(3));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[1], Json::Int(-2));
        assert_eq!(a[2].get("b").and_then(Json::as_str), Some("x"));
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn strings_preserve_escapes_and_non_ascii() {
        let v = parse(r#"{"k":"π/4 → rz\n\"quoted\""}"#).unwrap();
        assert_eq!(
            v.get("k").and_then(Json::as_str),
            Some("π/4 → rz\n\"quoted\"")
        );
        assert!(parse(r#""bad \A escape""#).is_err());
    }

    #[test]
    fn pretty_layout_is_fixed() {
        let v = Json::Object(vec![
            ("name".into(), Json::Str("x".into())),
            ("threads".into(), Json::Int(4)),
            ("rate".into(), Json::Float(12.5)),
            ("nan".into(), Json::Float(f64::NAN)),
            ("empty_object".into(), Json::Object(vec![])),
            ("empty_array".into(), Json::Array(vec![])),
            (
                "items".into(),
                Json::Array(vec![Json::Str("0x01".into()), Json::Null]),
            ),
            (
                "nested".into(),
                Json::Object(vec![("k".into(), Json::Bool(true))]),
            ),
        ]);
        let expected = "{\n  \"name\": \"x\",\n  \"threads\": 4,\n  \"rate\": 12.5,\n  \
            \"nan\": null,\n  \"empty_object\": {},\n  \"empty_array\": [],\n  \
            \"items\": [\n    \"0x01\",\n    null\n  ],\n  \
            \"nested\": {\n    \"k\": true\n  }\n}\n";
        assert_eq!(v.pretty(), expected);
        // Pretty and compact text parse back to the same value (NaN aside,
        // which is written as null).
        let finite = Json::Object(match v {
            Json::Object(members) => members.into_iter().filter(|(k, _)| k != "nan").collect(),
            _ => unreachable!(),
        });
        assert_eq!(parse(&finite.pretty()).unwrap(), finite);
        assert_eq!(Json::Array(vec![]).pretty(), "[]\n");
    }

    #[test]
    fn locate_points_at_the_value_a_path_reaches() {
        let text = "{\"a\": 1,\n \"ππ\": [true, {\"x\": \"y\"}]}";
        // Root.
        assert_eq!(locate(text, &[], "root").offset, 0);
        // Member 0 ("a") -> the `1`.
        let err = locate(text, &[0], "bad a");
        assert_eq!((err.offset, err.line, err.column), (6, 1, 7));
        assert_eq!(err.message, "bad a");
        // Member 1, item 1, member 0 -> the `"y"`, after two 2-byte chars.
        let err = locate(text, &[1, 1, 0], "bad x");
        assert_eq!(&text[err.offset..err.offset + 3], "\"y\"");
        assert_eq!((err.line, err.column, err.offset), (2, 21, 31));
        assert_eq!(err.to_string(), "bad x at line 2, column 21 (byte 31)");
    }

    #[test]
    fn truncated_inputs_carry_the_end_position() {
        for text in [
            "{\"qasm\":\"OPENQ",
            "{\"qasm\"",
            "[1,2",
            "\"unterminated",
            "tru",
            "12.",
            "{\"a\":",
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.message.contains("unexpected end of input"),
                "{text}: {err}"
            );
            assert_eq!(err.offset, text.len(), "{text}");
        }
    }

    #[test]
    fn malformed_inputs_point_at_the_offending_byte() {
        let err = parse("{\"a\":1,\n  \"b\": nope}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.offset > 0);
        let err = parse("[1, 2,]").unwrap_err();
        assert_eq!(err.offset, 6);
        let err = parse("{\"a\":1} trailing").unwrap_err();
        assert!(err.message.contains("trailing"));
        // Columns count characters, not bytes: the two-byte 'π' before the
        // offending '!' (byte 6 but the 6th character) must not shift it.
        let err = parse("{\"π\":!}").unwrap_err();
        assert_eq!((err.line, err.column, err.offset), (1, 6, 6));
        let err = parse("{\"ππ\":!}").unwrap_err();
        assert_eq!((err.line, err.column, err.offset), (1, 7, 8));
    }

    #[test]
    fn depth_bound_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting depth"));
    }
}
