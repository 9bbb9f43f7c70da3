//! Minimal JSON support: a value tree, a recursive-descent parser, and the
//! escaping/formatting helpers shared by every hand-written JSON emitter in
//! the workspace (the obs report, the run ledger, the bench binaries).
//!
//! The workspace is offline (no `serde_json`), but the run-ledger tooling
//! must *read back* what it writes — `adamel-report` summarizes and diffs
//! ledgers, and CI asserts every emitted line round-trips. This module is
//! deliberately small: it parses standard JSON into a [`Json`] tree
//! (objects keep [`BTreeMap`] order per the `hashmap-order` rule) and makes
//! no attempt at zero-copy or streaming — ledger lines are short. The
//! daemon parses untrusted request lines with it too, so nesting is capped
//! at [`MAX_DEPTH`].

use std::collections::BTreeMap;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one request of ~100 000 `[`
/// overflows a 2 MiB worker stack and aborts the process; no document the
/// workspace reads or writes nests deeper than about 10.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Numbers are stored as `f64` (the JSON data model); [`Json::as_u64`]
/// recovers exact integers up to 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in sorted key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document, requiring that nothing but whitespace
    /// follows it.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    ///
    /// # Examples
    ///
    /// ```
    /// use adamel_obs::json::Json;
    /// let v = Json::parse("{\"a\": [1, true, null]}").expect("valid");
    /// assert_eq!(v.get("a").and_then(|a| a.as_array()).map(Vec::len), Some(3));
    /// ```
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer, if it is one below
    /// 2^53. From 2^53 on, an `f64` no longer tells a literal from its
    /// neighbour (2^53 + 1 parses to 2^53), so such values are refused.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() <= 0.0 && *v < 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at offset {}", self.pos)
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // [
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // {
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected `\"`"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            // Surrogate pair: a second \uXXXX must follow.
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(hi))
                            };
                            out.push(c.unwrap_or('\u{fffd}'));
                            // hex4 advanced past the digits; compensate for
                            // the shared `pos += 1` below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (source is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self.bytes.get(self.pos..end).ok_or_else(|| self.err("truncated \\u"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u digits"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u digits"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

/// Escapes a string for embedding in a JSON string literal. Metric names
/// and span paths are ASCII identifiers in practice, but emitters must
/// never produce invalid JSON regardless of input.
///
/// # Examples
///
/// ```
/// assert_eq!(adamel_obs::json::escape("a\"b\n"), "a\\\"b\\n");
/// ```
pub fn escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
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

/// Formats an `f64` for JSON: finite values print with Rust's shortest
/// round-trip repr, non-finite values become `null` (JSON has no NaN).
///
/// # Examples
///
/// ```
/// assert_eq!(adamel_obs::json::fmt_f64(0.25), "0.25");
/// assert_eq!(adamel_obs::json::fmt_f64(f64::NAN), "null");
/// ```
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Ok(Json::Null));
        assert_eq!(Json::parse("true"), Ok(Json::Bool(true)));
        assert_eq!(Json::parse(" false "), Ok(Json::Bool(false)));
        assert_eq!(Json::parse("42"), Ok(Json::Num(42.0)));
        assert_eq!(Json::parse("-1.5e2"), Ok(Json::Num(-150.0)));
        assert_eq!(Json::parse("\"hi\""), Ok(Json::Str("hi".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse("{\"a\": [1, {\"b\": null}], \"c\": \"x\"}").expect("valid");
        let a = v.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn parses_empty_containers() {
        assert_eq!(Json::parse("[]"), Ok(Json::Arr(Vec::new())));
        assert_eq!(Json::parse("{}"), Ok(Json::Obj(BTreeMap::new())));
        assert_eq!(Json::parse("[ ]"), Ok(Json::Arr(Vec::new())));
    }

    #[test]
    fn string_escapes_round_trip() {
        for raw in ["plain", "a\"b", "back\\slash", "tab\tnl\n", "unicode \u{1}"] {
            let doc = format!("\"{}\"", escape(raw));
            assert_eq!(Json::parse(&doc), Ok(Json::Str(raw.to_string())), "{raw:?}");
        }
    }

    #[test]
    fn unicode_escapes_including_surrogates() {
        assert_eq!(Json::parse("\"\\u0041\""), Ok(Json::Str("A".into())));
        // U+1F600 as a surrogate pair.
        assert_eq!(Json::parse("\"\\ud83d\\ude00\""), Ok(Json::Str("\u{1F600}".into())));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(Json::parse("\"ü\""), Ok(Json::Str("ü".into())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"unterminated", "tru", "1.2.3", "{} extra"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        // Depth is nesting, not the count of containers: siblings reuse a level.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
        let chains = ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)];
        for deep in std::iter::once(arrays(MAX_DEPTH + 1)).chain(chains) {
            let err = Json::parse(&deep).expect_err("too deep");
            assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(2f64.powi(53)).as_u64(), None);
    }

    #[test]
    fn parses_own_report_style_output() {
        let doc = "{\n  \"schema\": \"adamel-obs/v1\",\n  \"spans\": {\n    \"a/b\": {\"count\": 2, \"buckets\": [[1, 2, 2]]}\n  }\n}";
        let v = Json::parse(doc).expect("valid");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("adamel-obs/v1"));
        let span = v.get("spans").and_then(|s| s.get("a/b")).expect("span");
        assert_eq!(span.get("count").and_then(Json::as_u64), Some(2));
    }
}
