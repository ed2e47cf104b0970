//! A hand-rolled JSON value type with writer and parser.
//!
//! The workspace must build with zero external dependencies, so this module
//! replaces `serde_json` for the small structured-output needs of the
//! observability layer and the experiment harness: rendering metric
//! snapshots and event records as JSON-lines, and parsing them back in
//! tests. Object key order is preserved (insertion order), which keeps the
//! emitted telemetry deterministic.

use std::fmt;

/// A JSON value.
///
/// Integers are kept separate from floats so counters render without a
/// decimal point and survive a round-trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without decimal point).
    Int(i64),
    /// A floating-point number. Non-finite values render as `null` since
    /// JSON has no representation for them.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Builds an array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                out.push_str(itoa(*i).as_str());
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // Rust's shortest round-trip formatting; ensure a decimal
                    // marker so the value parses back as a float.
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (both `Int` and `Float` coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// # Errors
    /// Returns a [`JsonError`] describing the first syntax problem, or the
    /// first array or object nested deeper than [`MAX_JSON_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn itoa(i: i64) -> String {
    i.to_string()
}

fn write_escaped(s: &str, out: &mut String) {
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
        f.write_str(&self.render())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Self {
        Json::Int(i)
    }
}
impl From<i32> for Json {
    fn from(i: i32) -> Self {
        Json::Int(i64::from(i))
    }
}
impl From<u32> for Json {
    fn from(i: u32) -> Self {
        Json::Int(i64::from(i))
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Self {
        // Counters beyond i64::MAX lose exactness either way; saturate.
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Self {
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}
impl From<&[f64]> for Json {
    fn from(xs: &[f64]) -> Self {
        Json::Arr(xs.iter().map(|&x| Json::Float(x)).collect())
    }
}
impl From<&&str> for Json {
    fn from(s: &&str) -> Self {
        Json::Str((*s).to_string())
    }
}
impl From<&String> for Json {
    fn from(s: &String) -> Self {
        Json::Str(s.clone())
    }
}
impl From<Vec<f64>> for Json {
    fn from(xs: Vec<f64>) -> Self {
        Json::Arr(xs.into_iter().map(Json::Float).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Self {
        o.map_or(Json::Null, Into::into)
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Object field access; missing keys and non-objects yield `Null`.
    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Json> for &str {
    fn eq(&self, other: &Json) -> bool {
        other.as_str() == Some(*self)
    }
}

/// Builds a [`Json`] value with object-literal syntax, mirroring the
/// `serde_json::json!` call sites it replaced:
///
/// ```
/// # use segrout_obs::json;
/// let row = json!({"step": 3, "mlu": 1.25, "label": "joint"});
/// assert_eq!(row["step"].as_i64(), Some(3));
/// ```
///
/// Supported forms: `json!(null)`, `json!([e1, e2, ...])`,
/// `json!({"key": expr, ...})` (keys must be string literals), and
/// `json!(expr)` for any `Into<Json>` expression. Unlike `serde_json`,
/// object/array literals do not nest inside one invocation — build nested
/// values with separate `json!` calls or [`Json::obj`]/[`Json::arr`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Json::Arr(vec![ $( $crate::Json::from($elem) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Json::Obj(vec![ $( ($key.to_string(), $crate::Json::from($value)) ),* ])
    };
    ($other:expr) => { $crate::Json::from($other) };
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so a bound keeps a hostile line (say, a few
/// hundred thousand `[`) from overflowing the stack; every document this
/// workspace reads nests a handful of levels deep.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parse error: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
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
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-42).render(), "-42");
        assert_eq!(Json::Float(0.5).render(), "0.5");
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).render(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn renders_nested() {
        let v = Json::obj([("name", Json::from("x")), ("vals", Json::arr([1i64, 2, 3]))]);
        assert_eq!(v.render(), r#"{"name":"x","vals":[1,2,3]}"#);
    }

    #[test]
    fn parses_what_it_renders() {
        let v = Json::obj([
            ("s", Json::from("hé\\\"llo\t")),
            ("i", Json::from(9_007_199_254_740_993i64)),
            ("f", Json::from(-1.25e-7)),
            ("a", Json::arr(vec![Json::Null, Json::Bool(false)])),
            ("o", Json::obj([("k", 1u64)])),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_whitespace_and_rejects_garbage() {
        assert_eq!(
            Json::parse(" { \"a\" : [ 1 , 2.5 ] } ").unwrap(),
            Json::obj([("a", Json::arr(vec![Json::Int(1), Json::Float(2.5)]))])
        );
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_JSON_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
        // Objects count too, and a hostile depth is an error, not a crash.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_JSON_DEPTH + 1),
            "}".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(300_000)).is_err());
    }

    #[test]
    fn control_chars_roundtrip() {
        let s = Json::Str("\u{1}\u{1f}".into());
        assert_eq!(s.render(), "\"\\u0001\\u001f\"");
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
    }
}
