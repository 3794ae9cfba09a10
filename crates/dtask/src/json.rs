//! Minimal JSON document model and writer.
//!
//! The workspace builds fully offline (every third-party dependency is an
//! in-tree shim), so instead of `serde`/`serde_json` this module provides the
//! one thing the runtime needs: a small ordered JSON value type with a
//! correct, escaping writer. [`crate::snapshot::StatsSnapshot`] and the
//! Chrome-trace exporter ([`crate::trace`]) both serialize through it, so
//! bench output and runtime snapshots share one schema and one writer.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so exported documents are
/// deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert/append a field (builder style; does not deduplicate keys).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.put(key, value);
        self
    }

    /// Append a field in place (the `&mut` form of [`Json::set`]).
    pub fn put(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(fields) = self {
            fields.push((key.to_string(), value.into()));
        }
    }

    /// The field `key` of an object, appended as an empty object if absent.
    /// Lets a document be filled in any order while its key order is fixed by
    /// first touch.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn entry(&mut self, key: &str) -> &mut Json {
        let Json::Obj(fields) = self else {
            panic!("Json::entry on a non-object");
        };
        let at = fields
            .iter()
            .position(|(k, _)| k == key)
            .unwrap_or_else(|| {
                fields.push((key.to_string(), Json::obj()));
                fields.len() - 1
            });
        &mut fields[at].1
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Array elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document (strict: exactly one value, nothing but
    /// whitespace after it). Numbers parse to `f64`; `null`/`true`/`false`,
    /// strings with the standard escapes (incl. `\uXXXX` and surrogate
    /// pairs), arrays, and objects are all supported. Errors carry a byte
    /// offset. This is the read half of the snapshot schema: everything
    /// [`Json::to_string_compact`] writes parses back to an equal value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                let (k, v) = &fields[i];
                write_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * step {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..depth * step {
                out.push(' ');
            }
        }
    }
    out.push(close);
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

// ---- recursive-descent parser ----------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The skipped run is valid UTF-8 (input is &str and we stopped
            // only on ASCII boundaries).
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
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
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => return Err(format!("control byte in string at {}", self.pos)),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-ascii \\u escape".to_string())?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj()
            .set("name", "trace")
            .set("n", 3u64)
            .set("ok", true)
            .set("items", Json::Arr(vec![Json::Num(1.5), Json::Null]));
        assert_eq!(
            doc.to_string_compact(),
            r#"{"name":"trace","n":3,"ok":true,"items":[1.5,null]}"#
        );
        let pretty = doc.to_string_pretty();
        assert!(pretty.contains("\n  \"name\": \"trace\""));
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn integral_floats_render_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string_compact(), "42");
        assert_eq!(Json::Num(0.25).to_string_compact(), "0.25");
    }

    #[test]
    fn get_and_as_accessors() {
        let doc = Json::obj().set("x", 7u64);
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(7.0));
        assert!(doc.get("y").is_none());
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::obj()
            .set("name", "snap\"shot\\\n")
            .set("n", 3u64)
            .set("x", 0.25)
            .set("neg", -17i64)
            .set("ok", true)
            .set("none", Json::Null)
            .set("items", Json::Arr(vec![Json::Num(1.5), Json::Null]))
            .set("nested", Json::obj().set("deep", Json::Arr(vec![])));
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parse_escapes_and_unicode() {
        assert_eq!(
            Json::parse(r#""a\u0041\n\t\" \u00e9""#).unwrap(),
            Json::Str("aA\n\t\" é".into())
        );
        // Surrogate pair → one astral char.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(Json::parse("1e-3").unwrap(), Json::Num(0.001));
        assert_eq!(
            Json::parse("9007199254740991").unwrap(),
            Json::Num(9.007199254740991e15)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{a:1}",
            "[1]extra",
            "\"\\ud800\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
