//! Minimal JSON: string escaping for the writers, and one strict
//! recursive-descent parser that builds a [`Value`] tree for reading back
//! our own artifacts (`runs/*.json` reports, chrome traces, and trace and
//! flight-recorder JSONL lines through [`crate::trace::read_jsonl`]).
//!
//! The grammar is RFC 8259's: numbers need digits before a `.`, after it
//! and after an exponent; strings reject raw control characters; `\u`
//! escapes take exactly four hex digits; nothing but whitespace may follow
//! the value; nesting is capped at [`MAX_DEPTH`]. Every failure is an `Err`
//! naming the byte offset, never a panic.
//!
//! Two choices make the tree exact enough to write back byte for byte: an
//! integer literal keeps its exact value ([`Value::Int`]), and an object
//! keeps its members in document order.

/// Appends `s` to `out` with JSON string escaping applied (quotes are *not*
/// added by this function).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                let hex = b"0123456789abcdef";
                out.push(hex[(b as usize >> 4) & 0xf] as char);
                out.push(hex[b as usize & 0xf] as char);
            }
            c => out.push(c),
        }
    }
}

/// Maximum nesting depth accepted; our artifacts nest ~5 deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent) in `i128` range, read
    /// exactly, so every `u64` and `i64` survives. `-0` is not one: it is
    /// the float `-0.0`.
    Int(i128),
    /// Any other JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (the last of duplicate keys wins); `None` on
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .rev()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object members in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.i += 1; // consume '{'
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.i += 1;
            self.skip_ws();
            out.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.i += 1; // consume '['
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // consume opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let unescaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(unescaped);
                    self.i += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // One UTF-8 scalar: the input came from a `&str`, so
                    // its boundaries are valid.
                    let start = self.i;
                    self.i += 1;
                    while matches!(self.peek(), Some(c) if c & 0xc0 == 0x80) {
                        self.i += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.s[start..self.i]) {
                        out.push_str(s);
                    }
                }
            }
        }
    }

    /// The four hex digits after `\u` (the cursor is on the `u` and is
    /// left on the last digit). A lone surrogate decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            self.i += 1;
            match self.peek().and_then(|c| char::from(c).to_digit(16)) {
                Some(d) => code = code * 16 + d,
                None => return Err(self.err("invalid \\u escape")),
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.digits() == 0 {
            return Err(self.err("expected digits"));
        }
        let integer = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or_default();
        match text.parse::<i128>() {
            Ok(n) if integer && (n != 0 || !text.starts_with('-')) => Ok(Value::Int(n)),
            _ => text
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn accepts_wellformed_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":null}"#,
            r#"  { "x" : 0.25 }  "#,
        ] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "01x",
            "1.",
            "1e",
            "-",
            "nul",
            "1 2",
            "{} {}",
            "{'a':1}",
            "{a:1}",
            "\"raw \u{1} control\"",
            "\"\\u+abc\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse("true"), Ok(Value::Bool(true)));
        assert_eq!(parse(" -2.5e1 "), Ok(Value::Num(-25.0)));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::Str("a\nb".to_owned())));
        let v = parse("{\"k\":[1,2,{\"x\":\"y\"}]}").unwrap_or(Value::Null);
        let arr = v.get("k").and_then(Value::as_array).unwrap_or(&[]);
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("x").and_then(Value::as_str), Some("y"));
    }

    #[test]
    fn integers_are_exact_and_the_last_duplicate_key_wins() {
        for (text, want) in [
            ("18446744073709551615", Value::Int(u64::MAX.into())),
            ("-9223372036854775808", Value::Int(i64::MIN.into())),
            ("3.0", Value::Num(3.0)),
            ("1e2", Value::Num(100.0)),
        ] {
            assert_eq!(parse(text), Ok(want));
        }
        let v = parse("{\"z\":1,\"a\":2,\"z\":3}").unwrap_or(Value::Null);
        assert_eq!(v.get("z"), Some(&Value::Int(3)));
    }

    #[test]
    fn depth_cap_rejects_bombs() {
        let bomb = "[".repeat(400) + &"]".repeat(400);
        assert!(parse(&bomb).is_err());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).is_ok(), "the cap itself is accepted");
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u00e9\\u2713\""), Ok(Value::Str("é✓".to_owned())));
        assert_eq!(parse("\"µs\""), Ok(Value::Str("µs".to_owned())));
        assert_eq!(parse("\"\\ud800\""), Ok(Value::Str("\u{fffd}".to_owned())));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The reader is exposed to artifacts on disk, which a crashed
            // writer can truncate or interleave arbitrarily: any byte
            // input must come back as `Err`, never a panic or a stack
            // overflow (the depth cap guards the recursive descent).
            #[test]
            fn arbitrary_strings_never_panic(s in ".{0,256}") {
                let _ = parse(&s);
            }

            #[test]
            fn arbitrary_bytes_never_panic(b in proptest::collection::vec(any::<u8>(), 0..512)) {
                let s = String::from_utf8_lossy(&b);
                let _ = parse(&s);
            }

            #[test]
            fn structural_soup_never_panics(s in "[\\[\\]{}\",:0-9eE.+-]{0,600}") {
                // Heavy on JSON structure bytes so deep nesting and dangling
                // delimiters actually get exercised, not just rejected at
                // the first byte.
                let _ = parse(&s);
            }

            #[test]
            fn valid_scalars_always_parse(n in -1e9f64..1e9) {
                let v = parse(&format!("{n}")).map(|v| v.as_f64());
                prop_assert_eq!(v, Ok(Some(n)));
            }
        }
    }
}
