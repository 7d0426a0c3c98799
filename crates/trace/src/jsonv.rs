//! A minimal JSON value and parser — just enough to read back the
//! machine-generated documents this workspace emits (profiles, serve
//! protocol lines, load reports). The workspace deliberately has no
//! serde; every producer writes fixed-field-order JSON via
//! [`crate::json`], and consumers read it with this module.
//!
//! The parser is strict where it matters (structure, escapes, numbers)
//! and tolerant where it does not (field order, unknown fields — object
//! fields are kept in document order and looked up by name).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array, in document order.
    Arr(Vec<JsonValue>),
    /// An object: `(key, value)` pairs in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up an object field by name (first match wins).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so an unbounded depth would let one
/// hostile line overflow the stack. The documents this workspace writes
/// nest at most eight levels (a served `sweep_result` line); 64 levels
/// fit a 256 KiB thread stack even in an unoptimized build.
pub const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document. Trailing non-whitespace, and
/// nesting deeper than [`MAX_DEPTH`], are errors; the message names the
/// byte offset of the first problem.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut r = Reader { bytes: text.as_bytes(), pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.error("trailing data"));
    }
    Ok(v)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, val: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape at once.
                    // Both are ASCII, so the run ends on a character
                    // boundary, and checking only the run keeps a long
                    // string linear, not quadratic, in its length.
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let run = &rest[..run.unwrap_or(rest.len())];
                    s.push_str(std::str::from_utf8(run).map_err(|_| self.error("invalid utf-8"))?);
                    self.pos += run.len();
                }
            }
        }
    }

    /// Parses one value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Obj(fields));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(JsonValue::Num)
                    .ok_or_else(|| self.error("bad number"))
            }
            None => Err(self.error("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,"x\n",true,null],"b":{"c":false}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_str(), Some("x\n"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn round_trips_escapes_from_the_writer() {
        let doc = format!("{{\"k\":{}}}", crate::json::string("a\"b\\c\nd\t\u{1}"));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("a\"b\\c\nd\t\u{1}"));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(e.contains("nesting deeper than"), "{e}");
        // Far past the limit, on a thread with a small stack: the parser
        // stops at the limit instead of recursing through the input.
        let deep = format!("{{\"op\":\"ping\",\"x\":{}}}", nested(100_000));
        let e = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&deep))
            .unwrap()
            .join()
            .unwrap()
            .expect_err("100,000 levels");
        assert!(e.contains("nesting deeper than"), "{e}");
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Checking UTF-8 from each character to the end of the input made
        // these 4 MiB strings take minutes; `msprof diff` reads profiles
        // of 33 MB.
        let text = "é\u{1F600}ab".repeat(1 << 19);
        let doc = format!("[{},\"\\\"{text}\"]", crate::json::string(&text));
        let v = parse(&doc).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(text.as_str()));
        assert_eq!(items[1].as_str(), Some(format!("\"{text}").as_str()));
    }

    #[test]
    fn numbers_distinguish_integers() {
        let v = parse("[7,7.25,-1]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(7));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[1].as_f64(), Some(7.25));
        assert_eq!(a[2].as_u64(), None);
    }
}
