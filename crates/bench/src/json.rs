//! Minimal JSON emission *and parsing* for the CI bench artifacts.
//!
//! The offline build environment vendors no serialization framework, and
//! the artifacts are flat tables of numbers — a tiny hand-rolled builder
//! keeps the harness dependency-free and the output `jq`-friendly. The
//! matching recursive-descent [`parse`] exists for `hpv-bench diff`, which
//! reads two artifacts back and renders their trend.

/// Builder for one JSON object, fields in insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field (escapes quotes and backslashes).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!("{}:{}", quote(key), quote(value)));
        self
    }

    /// Adds a finite-number field (`NaN`/infinities become `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() { format!("{value}") } else { "null".to_owned() };
        self.fields.push(format!("{}:{rendered}", quote(key)));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("{}:{value}", quote(key)));
        self
    }

    /// Adds a pre-rendered JSON value (nested object or array).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push(format!("{}:{value}", quote(key)));
        self
    }

    /// Renders the object.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders a JSON array from pre-rendered values.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced by [`JsonObject::num`] for non-finite input).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (`None` for other variants/missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description (with byte offset) of the first
/// syntax error, including trailing garbage after the document.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing characters at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at {}", self.pos))?;
                            // Surrogates (emitted only for non-BMP chars,
                            // which the artifacts never contain) collapse
                            // to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_owned())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_objects() {
        let obj = JsonObject::new().str("name", "fig2").num("rel", 1.0).int("n", 200).build();
        assert_eq!(obj, r#"{"name":"fig2","rel":1,"n":200}"#);
    }

    #[test]
    fn escapes_and_nests() {
        let inner = JsonObject::new().str("k", "a\"b\\c").build();
        let outer = JsonObject::new().raw("rows", array([inner])).build();
        assert_eq!(outer, r#"{"rows":[{"k":"a\"b\\c"}]}"#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonObject::new().num("x", f64::NAN).build(), r#"{"x":null}"#);
        assert_eq!(JsonObject::new().num("x", f64::INFINITY).build(), r#"{"x":null}"#);
    }

    #[test]
    fn parses_what_the_builder_emits() {
        let rows = array([
            JsonObject::new().str("variant", "opt\"imized\\").num("rel", 0.995).build(),
            JsonObject::new().str("variant", "static").num("rel", 1.0).build(),
        ]);
        let doc = JsonObject::new()
            .str("experiment", "x")
            .int("n", 200)
            .num("nan", f64::NAN)
            .raw("rows", rows)
            .build();
        let parsed = parse(&doc).expect("round-trip");
        assert_eq!(parsed.get("experiment").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(parsed.get("n").and_then(JsonValue::as_f64), Some(200.0));
        assert_eq!(parsed.get("nan"), Some(&JsonValue::Null));
        let JsonValue::Arr(rows) = parsed.get("rows").expect("rows") else {
            panic!("rows must parse as an array")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("variant").and_then(JsonValue::as_str), Some("opt\"imized\\"));
        assert_eq!(rows[1].get("rel").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn parses_whitespace_negatives_exponents_and_literals() {
        let parsed = parse(" { \"a\" : [ -1.5e2 , true , false , null ] } ").expect("parse");
        assert_eq!(
            parsed.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(-150.0),
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null,
            ]))
        );
        assert_eq!(parse("{}").expect("empty object"), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").expect("empty array"), JsonValue::Arr(vec![]));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
