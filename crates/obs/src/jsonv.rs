//! A minimal JSON value DOM for reading back our own artifacts
//! (`runs/*.json` reports, flight-recorder JSONL lines).
//!
//! `stellaris-telemetry` already has a validating JSON *recognizer*
//! ([`stellaris_telemetry::validate_json`]); this module adds the value
//! tree the `obs diff`/`obs attribute` subcommands need. It parses the
//! subset our writers emit — which is standard JSON — with a recursion
//! depth cap, and returns `Result` everywhere rather than panicking.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted; our artifacts nest ~5 deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (f64 loses no precision our writers use beyond
    /// u64 > 2^53 counters, which never carry semantic meaning that large).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is normalised (sorted) by the map.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value truncated to u64 (negative → 0).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| if n <= 0.0 { 0 } else { n as u64 })
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

    /// Object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", char::from(c), self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected , or ] at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            out.insert(key, self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected , or }} at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
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
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u at offset {}", self.i))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xc0) == 0x80 {
                        self.i += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.b[start..self.i]) {
                        out.push_str(s);
                    }
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "1 2", "\"open", "nul", "{a:1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn depth_cap_rejects_bombs() {
        let bomb = "[".repeat(400) + &"]".repeat(400);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u00e9\\u2713\""), Ok(Value::Str("é✓".to_owned())));
        assert_eq!(parse("\"µs\""), Ok(Value::Str("µs".to_owned())));
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
                let v = parse(&format!("{n}"));
                prop_assert!(v.is_ok(), "{n} must parse: {v:?}");
            }
        }
    }

    #[test]
    fn roundtrips_a_telemetry_jsonl_line() {
        let line = "{\"type\":\"span\",\"name\":\"core.round\",\"id\":7,\"parent\":0,\"tid\":3,\"ts_us\":12,\"dur_us\":900,\"fields\":{\"round\":2,\"degraded\":true}}";
        let v = parse(line).unwrap_or(Value::Null);
        assert_eq!(v.get("name").and_then(Value::as_str), Some("core.round"));
        assert_eq!(v.get("dur_us").and_then(Value::as_u64), Some(900));
        let fields = v.get("fields").cloned().unwrap_or(Value::Null);
        assert_eq!(fields.get("round").and_then(Value::as_u64), Some(2));
        assert_eq!(fields.get("degraded"), Some(&Value::Bool(true)));
    }
}
