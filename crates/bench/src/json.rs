//! Minimal hand-rolled JSON emission and parsing for the CI-facing bins.
//!
//! The workspace builds with zero external crates, so the `--json` output
//! of `gates`, `fuzz`, `chaos` and `respec` is assembled with this writer
//! instead of serde.
//! The small recursive-descent [`parse`] below reads JSON back: `respec`
//! schema-checks its own document with it, and the `brbench` package
//! parses its result files with it. The schemas are flat enough that an
//! object builder plus an array joiner covers everything.

/// Escapes `s` for inclusion inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Builds one JSON object, field by field, in insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds a float field. Non-finite values become `null` (JSON has no
    /// NaN/Infinity).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.fields.push(format!("\"{}\":{v}", escape(key)));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a field whose value is already-rendered JSON (an object or
    /// array built elsewhere).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders already-JSON items as an array.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// Renders strings as an array of JSON string literals.
pub fn string_array(items: &[String]) -> String {
    let rendered: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    array(&rendered)
}

/// A parsed JSON value ([`parse`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks a field up in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document. Total: any input yields `Ok` or a
/// position-tagged error message, never a panic.
///
/// # Errors
///
/// Returns `(byte offset, message)` on malformed input.
pub fn parse(text: &str) -> Result<Json, (usize, String)> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err((pos, "trailing data after JSON value".into()));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), (usize, String)> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err((*pos, format!("expected {lit:?}")))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, (usize, String)> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err((*pos, "unexpected end of input".into())),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err((*pos, "expected ',' or ']'".into())),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err((*pos, "expected ',' or '}'".into())),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, (usize, String)> {
    if b.get(*pos) != Some(&b'"') {
        return Err((*pos, "expected string".into()));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err((*pos, "unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or((*pos, "bad \\u escape".to_string()))?;
                        // Surrogates and astral escapes are not needed by
                        // our own schemas; map unpaired surrogates to the
                        // replacement character rather than erroring.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err((*pos, "bad escape".into())),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let end = (*pos + len).min(b.len());
                match std::str::from_utf8(&b[*pos..end]) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err((*pos, "invalid UTF-8 in string".into())),
                }
                *pos = end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, (usize, String)> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or((start, "expected number".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_nesting() {
        let inner = Obj::new().str("msg", "a \"b\"\nc\\d").int("n", 3).build();
        let outer = Obj::new()
            .bool("ok", true)
            .num("pct", 1.5)
            .raw("items", &array(&[inner]))
            .build();
        assert_eq!(
            outer,
            r#"{"ok":true,"pct":1.5,"items":[{"msg":"a \"b\"\nc\\d","n":3}]}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Obj::new().num("x", f64::NAN).build(), r#"{"x":null}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Obj::new()
            .str("label", "pr6 \"before\"\n")
            .num("seconds", 1.25)
            .int("events", 42)
            .bool("ok", true)
            .raw("stages", &array(&[Obj::new().num("s", 0.5).build()]))
            .build();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("label").unwrap().as_str(), Some("pr6 \"before\"\n"));
        assert_eq!(v.get("seconds").unwrap().as_num(), Some(1.25));
        assert_eq!(v.get("events").unwrap().as_num(), Some(42.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let stages = v.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages[0].get("s").unwrap().as_num(), Some(0.5));
    }

    #[test]
    fn parse_is_total_on_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "01x",
            "[}",
            "{]",
            "\"bad \\q escape\"",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Whitespace, nesting, escapes, negative/exponent numbers all parse.
        let v = parse(" { \"a\" : [ -1.5e2 , null , { } ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[0].as_num(),
            Some(-150.0)
        );
    }
}
