//! Lossless tokenizer for Rust-shaped source text.
//!
//! The analyzer cannot use `syn` — the
//! build environment has no registry access — so everything downstream works
//! from a token stream instead of an AST. The invariant that makes that
//! workable is *losslessness*: the tokens produced by [`tokenize`] partition
//! the input exactly, so `tokens.map(|t| &src[t.start..t.end]).concat()`
//! reassembles the original source byte for byte. Byte offsets computed on
//! any rendering of the stream (such as [`crate::source::mask`]) therefore
//! line up with the original file.
//!
//! Boundary decisions (is `r"` a raw-string prefix or an identifier tail?)
//! mirror the byte-level state machine the linter originally shipped, so the
//! masked view is stable across the refactor.

/// Kind of one source token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// A run of ASCII whitespace.
    Whitespace,
    /// `// ...` up to (not including) the newline.
    LineComment,
    /// `/* ... */`, nesting-aware; unterminated comments run to EOF.
    BlockComment,
    /// String literal, including an optional `b` prefix.
    Str,
    /// Raw string literal (`r"..."`, `br#"..."#`), prefix and hashes
    /// included in the span.
    RawStr,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    CharLit,
    /// A lifetime (`'a`, `'static`) or a lone `'`.
    Lifetime,
    /// Identifier / keyword / number; non-ASCII bytes are absorbed into
    /// word runs so token boundaries stay on UTF-8 character boundaries.
    Word,
    /// A single ASCII punctuation byte.
    Punct,
}

/// One token. Spans are byte offsets into the tokenized text; consecutive
/// tokens abut (`tok[i].end == tok[i + 1].start`).
#[derive(Clone, Copy, Debug)]
pub struct Tok {
    /// What this token is.
    pub kind: TokKind,
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
    /// For `Str`/`RawStr`/`CharLit`: the content span between the opening
    /// delimiter and the closing delimiter. `inner_end == end` means the
    /// literal is unterminated (EOF before the closing quote). Other kinds
    /// carry `(start, end)` here.
    pub inner_start: usize,
    /// See [`Tok::inner_start`].
    pub inner_end: usize,
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Splits `text` into a lossless token stream.
pub fn tokenize(text: &str) -> Vec<Tok> {
    let bytes = text.as_bytes();
    let n = bytes.len();
    let mut toks: Vec<Tok> = Vec::new();
    let push = |toks: &mut Vec<Tok>, kind, start, end, inner: Option<(usize, usize)>| {
        let (inner_start, inner_end) = inner.unwrap_or((start, end));
        toks.push(Tok {
            kind,
            start,
            end,
            inner_start,
            inner_end,
        });
    };
    let mut i = 0usize;
    // True when the previous byte outside a literal/comment was an ASCII
    // identifier character; that demotes `r"` / `b"` from a literal prefix
    // to an identifier tail (`for_b"x"` is not a byte string).
    let mut prev_ident = false;
    while i < n {
        let c = bytes[i];
        let start = i;
        match c {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                i += 2;
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
                push(&mut toks, TokKind::LineComment, start, i, None);
                prev_ident = false;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && bytes[i] == b'/' && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                push(&mut toks, TokKind::BlockComment, start, i, None);
                prev_ident = false;
            }
            b'r' | b'b' if !prev_ident => {
                // Possible raw/byte literal prefix: r", r#", br", b", b'.
                let mut j = i + 1;
                if c == b'b' && j < n && bytes[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0usize;
                while j < n && bytes[j] == b'#' && (bytes[i] == b'r' || bytes[i + 1] == b'r') {
                    hashes += 1;
                    j += 1;
                }
                if j < n && bytes[j] == b'"' && (hashes > 0 || bytes[j - 1] == b'r') {
                    let (end, content_end) = scan_raw_string(bytes, j, hashes);
                    push(
                        &mut toks,
                        TokKind::RawStr,
                        start,
                        end,
                        Some((j + 1, content_end)),
                    );
                    i = end;
                    prev_ident = false;
                    continue;
                }
                if c == b'b' && i + 1 < n && bytes[i + 1] == b'"' {
                    let (end, content_end) = scan_string(bytes, i + 1);
                    push(
                        &mut toks,
                        TokKind::Str,
                        start,
                        end,
                        Some((i + 2, content_end)),
                    );
                    i = end;
                    prev_ident = false;
                    continue;
                }
                if c == b'b' && i + 1 < n && bytes[i + 1] == b'\'' {
                    let (end, content_end) = scan_char(bytes, i + 1);
                    push(
                        &mut toks,
                        TokKind::CharLit,
                        start,
                        end,
                        Some((i + 2, content_end)),
                    );
                    i = end;
                    prev_ident = false;
                    continue;
                }
                i += 1;
                while i < n && (is_ident_byte(bytes[i]) || bytes[i] >= 0x80) {
                    i += 1;
                }
                push(&mut toks, TokKind::Word, start, i, None);
                prev_ident = is_ident_byte(bytes[i - 1]);
            }
            b'"' => {
                let (end, content_end) = scan_string(bytes, i);
                push(
                    &mut toks,
                    TokKind::Str,
                    start,
                    end,
                    Some((i + 1, content_end)),
                );
                i = end;
                prev_ident = false;
            }
            b'\'' => {
                if is_char_literal(bytes, i) {
                    let (end, content_end) = scan_char(bytes, i);
                    push(
                        &mut toks,
                        TokKind::CharLit,
                        start,
                        end,
                        Some((i + 1, content_end)),
                    );
                    i = end;
                } else {
                    i += 1;
                    while i < n && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    push(&mut toks, TokKind::Lifetime, start, i, None);
                    prev_ident = i > start + 1;
                    continue;
                }
                prev_ident = false;
            }
            c if is_ident_byte(c) || c >= 0x80 => {
                i += 1;
                while i < n && (is_ident_byte(bytes[i]) || bytes[i] >= 0x80) {
                    i += 1;
                }
                push(&mut toks, TokKind::Word, start, i, None);
                prev_ident = is_ident_byte(bytes[i - 1]);
            }
            c if c.is_ascii_whitespace() => {
                i += 1;
                while i < n && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                push(&mut toks, TokKind::Whitespace, start, i, None);
                prev_ident = false;
            }
            _ => {
                i += 1;
                push(&mut toks, TokKind::Punct, start, i, None);
                prev_ident = false;
            }
        }
    }
    toks
}

/// 'x' / '\..' vs a lifetime: a lifetime is `'ident` NOT closed by a quote.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    let n = bytes.len();
    if i + 1 >= n {
        return false;
    }
    if bytes[i + 1] == b'\\' {
        return true;
    }
    // Multi-byte UTF-8 scalar, e.g. 'é': not a lifetime either way.
    if bytes[i + 1] >= 0x80 {
        return true;
    }
    let ident_start = bytes[i + 1] == b'_' || bytes[i + 1].is_ascii_alphabetic();
    if !ident_start {
        // e.g. '3', ' ', '(' — chars, or a stray quote; treat as literal.
        return i + 2 < n && bytes[i + 2] == b'\'';
    }
    // 'a' (char) iff closed immediately; 'a.. / 'static are lifetimes.
    i + 2 < n && bytes[i + 2] == b'\''
}

/// Returns `(token_end, content_end)`; `content_end` is the closing quote's
/// offset, or `token_end` when unterminated.
fn scan_string(bytes: &[u8], quote: usize) -> (usize, usize) {
    let n = bytes.len();
    let mut i = quote + 1;
    while i < n {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return (i + 1, i),
            _ => i += 1,
        }
    }
    (n, n)
}

fn scan_raw_string(bytes: &[u8], quote: usize, hashes: usize) -> (usize, usize) {
    let n = bytes.len();
    let mut i = quote + 1;
    while i < n {
        if bytes[i] == b'"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < n && bytes[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return (i + 1 + hashes, i);
            }
        }
        i += 1;
    }
    (n, n)
}

fn scan_char(bytes: &[u8], quote: usize) -> (usize, usize) {
    let n = bytes.len();
    let mut i = quote + 1;
    while i < n {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return (i + 1, i),
            _ => i += 1,
        }
    }
    (n, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reassemble(src: &str) -> String {
        tokenize(src).iter().map(|t| &src[t.start..t.end]).collect()
    }

    fn assert_partition(src: &str) {
        let toks = tokenize(src);
        let mut at = 0;
        for t in &toks {
            assert_eq!(t.start, at, "gap/overlap at {at} in {src:?}");
            assert!(t.end > t.start, "empty token in {src:?}");
            at = t.end;
        }
        assert_eq!(at, src.len(), "tokens must cover {src:?}");
        assert_eq!(reassemble(src), src);
    }

    #[test]
    fn partitions_representative_sources() {
        for src in [
            "",
            "fn f<'a>(x: &'a str) { let s = \"q\"; }",
            "let a = r#\"raw \"x\" \"#; let b = b\"bytes\"; let c = br##\"deep\"##;",
            "// comment\n/* block /* nested */ */ let x = 'c';",
            "let n = 0b1010 + 0xff; let t = b'\\n';",
            "\"unterminated",
            "r#\"unterminated raw",
            "'unclosed_char_or_lifetime",
            "\"trailing escape \\",
            "héllo || wörld.fn_r\"not raw\"",
        ] {
            assert_partition(src);
        }
    }

    #[test]
    fn classifies_literals_and_lifetimes() {
        let toks = tokenize("'a 'x' b'y' r\"s\" \"t\"");
        let kinds: Vec<TokKind> = toks
            .iter()
            .filter(|t| t.kind != TokKind::Whitespace)
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                TokKind::Lifetime,
                TokKind::CharLit,
                TokKind::CharLit,
                TokKind::RawStr,
                TokKind::Str,
            ]
        );
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let toks = tokenize("r#foo");
        assert_eq!(toks[0].kind, TokKind::Word);
        assert_eq!(toks[1].kind, TokKind::Punct);
        assert_eq!(toks[2].kind, TokKind::Word);
    }

    #[test]
    fn identifier_tail_r_is_not_a_prefix() {
        // `xr"..."`: the `r` belongs to the identifier, the quote opens a
        // plain string.
        let toks = tokenize("xr\"s\"");
        assert_eq!(toks[0].kind, TokKind::Word);
        assert_eq!(&"xr\"s\""[toks[0].start..toks[0].end], "xr");
        assert_eq!(toks[1].kind, TokKind::Str);
    }

    #[test]
    fn inner_span_marks_termination() {
        let t = tokenize("\"ab\"")[0];
        assert_eq!((t.inner_start, t.inner_end, t.end), (1, 3, 4));
        let t = tokenize("\"ab")[0];
        assert_eq!(t.inner_end, t.end, "unterminated marker");
    }
}
