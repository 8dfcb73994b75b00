//! Lexical source model under every rule: comment/string masking,
//! test-region detection, statement spans, and the `lint:allow` escape
//! hatch.
//!
//! The analyzer is token-based rather than AST-based (the build environment
//! has no registry access for `syn`), so every rule runs over a *masked*
//! view of the file in which comments and string/char literals are replaced
//! by spaces. Token searches therefore never match inside literals or docs,
//! and byte offsets in the masked text line up exactly with the original
//! source. The masked view is a rendering of the lossless token stream from
//! [`crate::token`].

use std::collections::HashMap;

use crate::token::{tokenize, TokKind};

/// A preprocessed source file.
pub struct SourceFile {
    /// Original text, for extracting `lint:allow` comments.
    pub text: String,
    /// Same length as `text`, with comments and string/char literal
    /// contents replaced by spaces (newlines preserved).
    pub masked: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    pub line_starts: Vec<usize>,
    /// For each line (0-based), whether it falls inside `#[cfg(test)]` /
    /// `#[test]` code.
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    /// Preprocesses `text`.
    pub fn parse(text: &str) -> Self {
        let masked = mask(text);
        let line_starts = line_starts(text);
        let test_lines = test_regions(&masked, &line_starts);
        Self {
            text: text.to_string(),
            masked,
            line_starts,
            test_lines,
        }
    }

    /// 1-based line number containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether byte `offset` is inside a test region.
    pub fn in_test(&self, offset: usize) -> bool {
        let line = self.line_of(offset);
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// The line-comment text (`// ...` onward) of 1-based line `line`, if
    /// the line carries a *real* comment — `//` in masked text means the
    /// marker is not inside a string literal. Doc comments (`///`, `//!`)
    /// are documentation, not directives, and return `None`.
    pub fn comment_text(&self, line: usize) -> Option<&str> {
        let (start, end) = self.line_span(line);
        let masked_line = &self.masked[start..end];
        let at = masked_line.find("//")?;
        let comment = self.text[start + at..end].trim_end_matches(['\n', '\r']);
        if comment.starts_with("///") || comment.starts_with("//!") {
            return None;
        }
        Some(comment)
    }

    fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|e| e - 1)
            .unwrap_or(self.text.len());
        (start, end.max(start))
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' && i + 1 < text.len() {
            starts.push(i + 1);
        }
    }
    starts
}

/// Replaces comments and string/char literal contents with spaces, by
/// rendering the token stream: code tokens are copied, literal contents and
/// comment bodies become spaces (newlines preserved so line numbers agree),
/// and delimiters that anchor downstream searches — the `//` marker, quote
/// characters, literal `b` prefixes — are kept.
pub fn mask(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    for t in tokenize(text) {
        match t.kind {
            TokKind::Whitespace | TokKind::Word | TokKind::Punct | TokKind::Lifetime => {
                out[t.start..t.end].copy_from_slice(&bytes[t.start..t.end]);
            }
            TokKind::LineComment => {
                out[t.start] = b'/';
                out[t.start + 1] = b'/';
            }
            TokKind::BlockComment => {
                for i in t.start..t.end {
                    if bytes[i] == b'\n' {
                        out[i] = b'\n';
                    }
                }
            }
            TokKind::Str | TokKind::CharLit => {
                let quote = if t.kind == TokKind::Str { b'"' } else { b'\'' };
                if bytes[t.start] == b'b' {
                    out[t.start] = b'b';
                }
                out[t.inner_start - 1] = quote;
                if t.inner_end < t.end {
                    out[t.inner_end] = quote;
                }
                // Replay the escape walk so `\<newline>` is consumed like
                // any other escape; bare newlines survive (Str only — char
                // literals have no multi-line form worth preserving).
                let mut i = t.inner_start;
                while i < t.inner_end {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'\n' if t.kind == TokKind::Str => {
                            out[i] = b'\n';
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            TokKind::RawStr => {
                // Prefix (`r`, `br`, hashes) and trailing hashes mask to
                // spaces; only the quotes and inner newlines survive.
                out[t.inner_start - 1] = b'"';
                if t.inner_end < t.end {
                    out[t.inner_end] = b'"';
                }
                for i in t.inner_start..t.inner_end {
                    if bytes[i] == b'\n' {
                        out[i] = b'\n';
                    }
                }
            }
        }
    }
    String::from_utf8(out).expect("masking preserves UTF-8: non-ASCII only inside masked spans")
}

/// Marks lines covered by `#[cfg(test)]` items and `#[test]` functions.
fn test_regions(masked: &str, line_starts: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; line_starts.len()];
    let bytes = masked.as_bytes();
    for attr in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(pos) = masked[from..].find(attr) {
            let at = from + pos;
            from = at + attr.len();
            // Scan forward for the item's opening brace; a `;` first means
            // the attribute decorates a braceless item (e.g. `use`).
            let mut i = at + attr.len();
            let mut open = None;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => {
                        open = Some(i);
                        break;
                    }
                    b';' => break,
                    _ => i += 1,
                }
            }
            let Some(open) = open else { continue };
            let close = match_brace(bytes, open);
            let first = line_of(line_starts, at);
            let last = line_of(line_starts, close.min(bytes.len().saturating_sub(1)));
            for line in first..=last {
                if let Some(f) = flags.get_mut(line - 1) {
                    *f = true;
                }
            }
        }
    }
    flags
}

/// Byte offset of the `}` matching the `{` at `open` (or EOF).
pub fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

fn line_of(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Splits the masked text into expression-level statement spans, the
/// extent of a temporary lock guard. Boundaries: `;`, `{`, `}`, `=>`, and commas at
/// top-level paren/bracket depth relative to the span start (so match arms
/// separate, but arguments of one call — where temporaries coexist — do
/// not).
pub fn statement_spans(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    let mut start = 0usize;
    let mut depth = 0i64;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b';' | b'{' | b'}' => {
                spans.push((start, i));
                start = i + 1;
                depth = 0;
            }
            b',' if depth <= 0 => {
                spans.push((start, i));
                start = i + 1;
            }
            b'=' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                spans.push((start, i));
                start = i + 2;
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < bytes.len() {
        spans.push((start, bytes.len()));
    }
    spans
}

/// Raw occurrences of `token` in `hay` (no boundary check), in order.
pub fn find_token(hay: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(token) {
        let at = from + pos;
        from = at + token.len();
        out.push(at);
    }
    out
}

/// True when `token` at `at` in `hay` sits on identifier boundaries, so
/// `.unwrap()` does not match `.unwrap_or()` and `as f32` does not match
/// `has f32x`.
pub fn boundary_ok(hay: &str, at: usize, token: &str) -> bool {
    let bytes = hay.as_bytes();
    let ident = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    let first = token.as_bytes()[0];
    let last = token.as_bytes()[token.len() - 1];
    if ident(first) && at > 0 && ident(bytes[at - 1]) {
        return false;
    }
    let end = at + token.len();
    if ident(last) && end < bytes.len() && ident(bytes[end]) {
        return false;
    }
    true
}

/// Every rule the analyzer can emit or suppress. (L1–L6, A7, A10 and A11
/// were retired to clippy, rustc, A2, the counting-allocator test or to
/// construction.)
pub const KNOWN_RULES: [(&str, &str); 8] = [
    ("A1", "lock-order"),
    ("A2", "held-guard"),
    ("A3", "channel-topology"),
    ("A4", "determinism-taint"),
    ("A5", "atomics-ordering"),
    ("A6", "float-reduction-order"),
    ("A8", "panic-reachability"),
    ("A9", "hot-alloc"),
];

/// The id and name a malformed `lint:allow` comment is reported under. It
/// is not a rule, so no allow can name it, and the finding cannot be
/// silenced.
pub const MALFORMED_ALLOW: (&str, &str) = ("allow", "malformed-allow");

/// Parses `A2` / `a2` / `held-guard` style spellings to the canonical id.
pub fn canonical_rule(s: &str) -> Option<&'static str> {
    let t = s.trim();
    KNOWN_RULES
        .iter()
        .find(|(id, name)| t.eq_ignore_ascii_case(id) || t == *name)
        .map(|&(id, _)| id)
}

/// Human-readable name of a rule id (`A2` → `held-guard`).
pub fn rule_name(id: &str) -> &'static str {
    KNOWN_RULES
        .iter()
        .chain([&MALFORMED_ALLOW])
        .find(|(i, _)| *i == id)
        .map_or("unknown", |&(_, name)| name)
}

/// Parsed `lint:allow` markers: line -> allowed rule ids (with
/// justification?).
pub struct Allows {
    by_line: HashMap<usize, Vec<(&'static str, bool)>>,
    /// Malformed allows discovered while parsing, as `(line, message)`.
    pub errors: Vec<(usize, String)>,
}

/// Extracts `// lint:allow(<rule>): <why>` markers from real comments.
pub fn parse_allows(src: &SourceFile) -> Allows {
    let mut by_line: HashMap<usize, Vec<(&'static str, bool)>> = HashMap::new();
    let mut errors = Vec::new();
    for line_no in 1..=src.line_count() {
        let Some(comment) = src.comment_text(line_no) else {
            continue;
        };
        let Some(tag_at) = comment.find("lint:allow(") else {
            continue;
        };
        if src.test_lines.get(line_no - 1).copied().unwrap_or(false) {
            // Test code may quote or exercise allow syntax freely.
            continue;
        }
        let rest = &comment[tag_at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            errors.push((line_no, "malformed lint:allow: missing `)`".to_string()));
            continue;
        };
        let Some(rule) = canonical_rule(&rest[..close]) else {
            errors.push((
                line_no,
                format!("unknown lint rule `{}` in lint:allow", &rest[..close]),
            ));
            continue;
        };
        let after = rest[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        let justified = !justification.is_empty();
        if !justified {
            errors.push((
                line_no,
                format!(
                    "lint:allow({rule}) requires a justification: `// lint:allow({rule}): <why>`"
                ),
            ));
        }
        by_line.entry(line_no).or_default().push((rule, justified));
    }
    Allows { by_line, errors }
}

impl Allows {
    /// Whether rule `id` is suppressed at `line` (same line or line above).
    pub fn suppressed(&self, id: &str, line: usize) -> bool {
        for l in [line, line.saturating_sub(1)] {
            if l == 0 {
                continue;
            }
            if let Some(entries) = self.by_line.get(&l) {
                if entries.iter().any(|&(r, justified)| r == id && justified) {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_block_comments() {
        let src = "let a = 1; // unwrap()\nlet b = /* panic! */ 2;\n";
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("panic"));
        assert!(m.contains("let a = 1;"));
        assert!(m.contains("let b ="));
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn masks_strings_and_chars_but_not_lifetimes() {
        let src = r#"fn f<'a>(x: &'a str) { let s = "unwrap()"; let c = 'u'; }"#;
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("fn f<'a>(x: &'a str)"));
        assert!(m.contains("let c = '"));
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let src = r###"let a = r#"panic!("x")"#; let b = b"unwrap()"; let c = br"expect(";"###;
        let m = mask(src);
        assert!(!m.contains("panic"));
        assert!(!m.contains("unwrap"));
        assert!(!m.contains("expect"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = r#"let s = "a\"unwrap()\""; s.len();"#;
        let m = mask(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("s.len();"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner panic! */ still comment */ let x = 1;";
        let m = mask(src);
        assert!(!m.contains("panic"));
        assert!(m.contains("let x = 1;"));
    }

    #[test]
    fn mask_preserves_length_and_newlines() {
        let src = "let s = \"line1\nline2\"; /* c\nc */ // tail\nnext();\n";
        let m = mask(src);
        assert_eq!(m.len(), src.len());
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                assert_eq!(m.as_bytes()[i], b'\n', "newline at {i} must survive");
            }
        }
    }

    #[test]
    fn detects_cfg_test_module_region() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn prod2() {}\n";
        let f = SourceFile::parse(src);
        assert!(!f.test_lines[0], "prod line not test");
        assert!(f.test_lines[2], "mod tests body is test");
        assert!(f.test_lines[3]);
        assert!(!f.test_lines[5], "after region not test");
    }

    #[test]
    fn detects_test_fn_region() {
        let src = "fn a() {}\n#[test]\nfn t() {\n    boom();\n}\nfn b() {}\n";
        let f = SourceFile::parse(src);
        assert!(!f.test_lines[0]);
        assert!(f.test_lines[2]);
        assert!(f.test_lines[3]);
        assert!(!f.test_lines[5]);
    }

    #[test]
    fn cfg_test_on_braceless_item_is_ignored() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() { body(); }\n";
        let f = SourceFile::parse(src);
        assert!(
            !f.test_lines[2],
            "fn after cfg(test) use must not be marked"
        );
    }

    #[test]
    fn statement_spans_split_on_arrows_and_semis() {
        let m = "let a = x.lock(); match y { A => p.lock(), B => q.send(r) }".to_string();
        let spans = statement_spans(&m);
        let texts: Vec<&str> = spans.iter().map(|&(s, e)| m[s..e].trim()).collect();
        assert!(texts.contains(&"let a = x.lock()"));
        assert!(texts
            .iter()
            .any(|t| t.contains("p.lock()") && !t.contains("q.send")));
    }

    #[test]
    fn call_arguments_stay_in_one_span() {
        let m = "f(a.lock(), b.recv())".to_string();
        let spans = statement_spans(&m);
        assert!(spans
            .iter()
            .any(|&(s, e)| m[s..e].contains("a.lock()") && m[s..e].contains("b.recv()")));
    }

    #[test]
    fn line_of_is_one_based() {
        let f = SourceFile::parse("a\nb\nc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(4), 3);
        assert_eq!(f.line_count(), 3);
    }

    #[test]
    fn canonical_rule_accepts_ids_and_names() {
        assert_eq!(canonical_rule("a9"), Some("A9"));
        assert_eq!(canonical_rule("lock-order"), Some("A1"));
        assert_eq!(canonical_rule("A2"), Some("A2"));
        assert_eq!(canonical_rule("held-guard"), Some("A2"));
        assert_eq!(canonical_rule("L9"), None);
        assert_eq!(canonical_rule("L1"), None, "retired to clippy");
        assert_eq!(canonical_rule("L3"), None, "retired into A2");
        assert_eq!(canonical_rule("A7"), None, "retired to clippy and rustc");
        assert_eq!(canonical_rule("allow"), None, "not a rule");
    }

    #[test]
    fn allows_parse_and_suppress_analyzer_rules() {
        let src = SourceFile::parse(
            "fn f() {\n    // lint:allow(A1): shard order is fixed by kind_index\n    both();\n}\n",
        );
        let allows = parse_allows(&src);
        assert!(allows.errors.is_empty());
        assert!(allows.suppressed("A1", 3), "line after comment");
        assert!(!allows.suppressed("A2", 3), "other rules unaffected");
    }
}
