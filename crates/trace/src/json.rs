//! A minimal JSON reader and writer (RFC 8259), the workspace's one
//! JSON implementation above `bw-core`.
//!
//! The workspace deliberately carries no external JSON dependency.
//! [`parse`] is a straightforward recursive-descent parser producing an
//! owned [`Value`] tree; it accepts everything the workspace emits and
//! the standard surface Perfetto emits back (numbers, strings with
//! escapes, nested arrays/objects). [`Writer`] is its streaming
//! counterpart: every snapshot, trace and report emitter in `bw-trace`,
//! `bw-serve` and `bw-bench` builds its document through it, so string
//! escaping and separator placement live in exactly one place, and
//! `parse(write(v)) == v` is property-tested below.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not preserved; duplicate keys keep the
    /// last occurrence.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(out)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(out)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c)
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(c) => {
                    // Re-assemble multi-byte UTF-8 from the source slice.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let end = start + width;
                        let s = self
                            .bytes
                            .get(start..end)
                            .and_then(|b| std::str::from_utf8(b).ok())
                            .ok_or_else(|| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// A streaming writer of compact JSON (no insignificant whitespace).
///
/// Calls mirror the document's structure — `begin_object`, `key`, a
/// value, …, `end_object` — and chain. The writer places the `,`
/// separators and escapes every string; it does not check that begins
/// and ends balance or that keys alternate with values, so a caller
/// that mis-nests produces a malformed document (which [`parse`], and
/// every round-trip test built on it, rejects).
///
/// ```
/// use bw_trace::json::{parse, Writer};
///
/// let mut w = Writer::new();
/// w.begin_object().key("model").string("mlp \"a\"").key("depths");
/// w.begin_array().uint(0).uint(2).end_array().end_object();
/// let text = w.finish();
/// assert_eq!(text, r#"{"model":"mlp \"a\"","depths":[0,2]}"#);
/// assert!(parse(&text).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Whether the next key or value must be preceded by a `,`: true
    /// after a value or a closed container, false after an opener or a
    /// key.
    need_comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer is pre-sized for `bytes` of output.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: String::with_capacity(bytes),
            need_comma: false,
        }
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.need_comma {
            self.out.push(',');
        }
        self.need_comma = true;
    }

    fn open(&mut self, c: char) -> &mut Self {
        self.sep();
        self.out.push(c);
        self.need_comma = false;
        self
    }

    fn close(&mut self, c: char) -> &mut Self {
        self.out.push(c);
        self.need_comma = true;
        self
    }

    /// Opens an object (as a value).
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array (as a value).
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next call supplies its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(':');
        self.need_comma = false;
        self
    }

    /// Writes a string value, escaped per RFC 8259 §7: the quote, the
    /// backslash, and every control character below U+0020 (`\n`, `\r`
    /// and `\t` by their short forms, the rest as `\u00XX`). Everything
    /// else, including non-BMP text, passes through as UTF-8.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        // Copy the clean runs between escapes whole; the bytes that need
        // escaping are all ASCII, so slicing at them stays on char
        // boundaries.
        let mut clean_from = 0;
        for (i, b) in s.bytes().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x00..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[clean_from..i]);
            clean_from = i + 1;
            if short.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(short);
            }
        }
        self.out.push_str(&s[clean_from..]);
        self.out.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{n}");
        self
    }

    /// Writes a signed integer value.
    pub fn int(&mut self, n: i64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{n}");
        self
    }

    /// Writes a float with exactly `decimals` digits after the point.
    /// JSON has no NaN or infinity; those are written as `null`.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.sep();
        let _ = write!(self.out, "{v:.decimals$}");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Splices in `json`, which must already be one complete JSON value
    /// (the literals).
    fn raw(&mut self, json: &str) -> &mut Self {
        self.sep();
        self.out.push_str(json);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The writer's inverse of [`parse`], which only the round-trip
    /// tests need: every emitter writes its documents field by field.
    impl Writer {
        /// Writes a float in its shortest form that parses back to the
        /// same `f64` (non-finite values as `null`).
        fn float(&mut self, v: f64) -> &mut Self {
            if !v.is_finite() {
                return self.null();
            }
            self.sep();
            let _ = write!(self.out, "{v}");
            self
        }

        /// Writes a parsed [`Value`] tree.
        fn value(&mut self, v: &Value) -> &mut Self {
            match v {
                Value::Null => self.null(),
                Value::Bool(b) => self.bool(*b),
                Value::Num(n) => self.float(*n),
                Value::Str(s) => self.string(s),
                Value::Arr(items) => {
                    self.begin_array();
                    for item in items {
                        self.value(item);
                    }
                    self.end_array()
                }
                Value::Obj(fields) => {
                    self.begin_object();
                    for (k, field) in fields {
                        self.key(k).value(field);
                    }
                    self.end_object()
                }
            }
        }
    }

    /// Builds an arbitrary [`Value`] from an entropy tape: strings draw
    /// on every class the escaper distinguishes (quote, backslash, all
    /// 32 control characters, DEL, BMP and non-BMP scalars), numbers on
    /// integers and arbitrary finite bit patterns.
    fn value_from(tape: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
        fn text(tape: &mut impl Iterator<Item = u64>) -> String {
            let len = tape.next().unwrap_or(0) % 12;
            (0..len)
                .map(|_| {
                    let x = tape.next().unwrap_or(0);
                    match x % 7 {
                        0 => char::from((x >> 8) as u8 % 0x20),
                        1 => ['"', '\\', '/', '\u{7f}'][(x >> 8) as usize % 4],
                        2 => char::from(b' ' + (x >> 8) as u8 % 95),
                        3 => {
                            ['é', '\u{2028}', '\u{ffff}', '😀', '\u{10ffff}'][(x >> 8) as usize % 5]
                        }
                        _ => char::from_u32((x >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                    }
                })
                .collect()
        }
        let x = tape.next().unwrap_or(0);
        let width = (x >> 8) as usize % 4;
        match x % if depth == 0 { 5 } else { 7 } {
            0 => Value::Null,
            1 => Value::Bool(x & 0x100 != 0),
            2 => Value::Num((tape.next().unwrap_or(0) as i64 >> ((x >> 8) % 64)) as f64),
            3 => {
                let v = f64::from_bits(tape.next().unwrap_or(0));
                Value::Num(if v.is_finite() { v } else { 0.5 })
            }
            4 => Value::Str(text(tape)),
            5 => Value::Arr((0..width).map(|_| value_from(tape, depth - 1)).collect()),
            _ => Value::Obj(
                (0..width)
                    .map(|_| (text(tape), value_from(tape, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_inverts_write(tape in prop::collection::vec(any::<u64>(), 1..96)) {
            let v = value_from(&mut tape.into_iter(), 3);
            let mut w = Writer::new();
            w.value(&v);
            let text = w.finish();
            prop_assert_eq!(parse(&text), Ok(v), "{}", text);
        }
    }

    #[test]
    fn writer_escapes_every_control_character_and_passes_non_bmp_through() {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        let s = format!("{all_controls}\"\\ é 😀 \u{10ffff}");
        let mut w = Writer::new();
        w.string(&s);
        let text = w.finish();
        assert!(
            text.bytes().all(|b| b >= 0x20),
            "raw control byte in {text:?}"
        );
        assert!(text.contains("\\u0000") && text.contains("\\u001f") && text.contains("\\n"));
        assert!(text.contains("😀"), "non-BMP text is not escaped");
        assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn writer_places_separators_and_formats_numbers() {
        let mut w = Writer::new();
        w.begin_object().key("a").begin_array().end_array();
        w.key("b")
            .begin_array()
            .uint(1)
            .int(-2)
            .float(1.5e-4)
            .fixed(2.0, 3);
        w.float(f64::NAN).bool(true).null().end_array();
        w.key("c")
            .begin_object()
            .key("d")
            .raw("{\"e\": 1}")
            .end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":[],"b":[1,-2,0.00015,2.000,null,true,null],"c":{"d":{"e": 1}}}"#
        );
    }

    #[test]
    fn parses_the_workspace_snapshot_shape() {
        let v = parse(
            r#"{"models":[{"model":"mlp \"a\"","submitted":3,"latency":{"p99_s":1.5e-3}}],
                "queue_depths":[0,2],"workers_alive":[true,false],"x":null}"#,
        )
        .unwrap();
        let models = v.get("models").unwrap().as_arr().unwrap();
        assert_eq!(models[0].get("model").unwrap().as_str(), Some("mlp \"a\""));
        assert_eq!(models[0].get("submitted").unwrap().as_num(), Some(3.0));
        assert_eq!(
            models[0].get("latency").unwrap().get("p99_s").unwrap(),
            &Value::Num(1.5e-3)
        );
        assert_eq!(v.get("x"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "01x",
            "{\"a\":1} trailing",
            "\"bad \\q escape\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn handles_escapes_and_unicode() {
        let v = parse(r#""tab\there é 😀 ünïcode""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there é 😀 ünïcode"));
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(parse("-12.5e2").unwrap().as_num(), Some(-1250.0));
        assert_eq!(parse("0").unwrap().as_num(), Some(0.0));
    }
}
