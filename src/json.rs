//! The workspace's one JSON emitter/parser pair.
//!
//! No serde exists in this workspace, so the machine-readable documents —
//! the `BENCH_*.json` kernel snapshots (`spnerf-bench`) and the serve
//! report (`spnerf-serve`) — are emitted by hand with stable key order and
//! re-parsed by the strict recursive-descent [`parse_json`] behind their
//! validators. [`json_escape`] and [`json_f64`] are the two value
//! emitters both documents share.
//!
//! Parsing is bounded: containers may nest at most [`MAX_DEPTH`] deep, so
//! hostile input (say, 200 000 `[`) is a typed error instead of a stack
//! overflow.

/// The deepest container nesting [`parse_json`] accepts. The documents
/// this workspace emits nest at most 3 deep (report → `tenants` → tenant
/// object; snapshot → `kernels` → kernel object).
pub const MAX_DEPTH: usize = 32;

/// Escapes `s` for use inside a JSON string literal (without the quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number that always reads as a float: Rust's
/// deterministic shortest representation, with `.0` appended to integral
/// values (`250` → `250.0`).
///
/// # Panics
///
/// Panics on NaN and infinities, which JSON cannot represent — a
/// non-finite statistic is a bug in its producer.
pub fn json_f64(x: f64) -> String {
    assert!(x.is_finite(), "non-finite value cannot be serialized to JSON");
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// A parsed JSON value — the minimal tree the validators walk. Object keys
/// keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Every token before this one is ASCII or a whole char, so
            // `pos` sits on a char boundary.
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(e) = self.peek() else { return Err(self.err("bad escape")) };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    /// One value whose enclosing containers are `depth` deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        let open = self.peek();
        if matches!(open, Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(self.err(&format!("containers nest deeper than {MAX_DEPTH}")));
        }
        match open {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage and containers
/// nested deeper than [`MAX_DEPTH`].
///
/// # Errors
///
/// Returns a byte-positioned message on any syntax error.
///
/// # Examples
///
/// ```
/// use spnerf::json::{parse_json, Json};
///
/// let doc = parse_json(r#"{"a": [1, true]}"#).unwrap();
/// assert_eq!(doc.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(2));
/// assert!(parse_json(&"[".repeat(200_000)).is_err());
/// ```
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { text: s, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn depth_is_bounded_at_max_depth() {
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok(), "MAX_DEPTH levels parse");
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nest deeper"), "{err}");
        // Objects count toward the same bound as arrays.
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&objects).is_err());
        // Far past the bound is an error, not a stack overflow.
        assert!(parse_json(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn strings_keep_multibyte_characters() {
        assert_eq!(parse_json("\"é→✓\""), Ok(Json::Str("é→✓".to_string())));
        assert!(parse_json("\"é").is_err(), "unterminated after a multibyte char");
    }

    #[test]
    fn emitters_round_trip_through_the_parser() {
        let hostile = "a\"b\\c\nd\te\u{1}";
        let doc = format!("\"{}\"", json_escape(hostile));
        assert_eq!(parse_json(&doc), Ok(Json::Str(hostile.to_string())));
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.0025), "0.0025");
        assert!(json_f64(1e21).contains(['e', '.']));
        assert_eq!(parse_json(&json_f64(37.0)), Ok(Json::Num(37.0)));
    }
}
