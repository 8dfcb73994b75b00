//! Output rendering for analyzer findings: human text and SARIF 2.1.0.
//!
//! All serialization is hand-rolled — the workspace vendors no JSON library,
//! so we emit the (small, fixed-shape) documents directly.

use crate::analyses::Finding;
use crate::source::{KNOWN_RULES, MALFORMED_ALLOW};
use std::fmt::Write as _;

/// Output format selector for the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Human,
    Sarif,
}

impl Format {
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "human" => Some(Format::Human),
            "sarif" => Some(Format::Sarif),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON double-quoted literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Render findings as plain human-readable lines (one per finding).
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    out
}

/// Render findings as a minimal SARIF 2.1.0 log with one run.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"stellaris-analyze\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/stellaris\",\n");
    out.push_str("          \"rules\": [");
    for (i, (id, name)) in KNOWN_RULES.iter().chain([&MALFORMED_ALLOW]).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n            {{\"id\": \"{}\", \"name\": \"{}\"}}",
            json_escape(id),
            json_escape(name)
        );
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}\n          ]\n        }}",
            json_escape(f.rule),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line
        );
    }
    if findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

/// Render findings in the requested format.
pub fn render(findings: &[Finding], format: Format) -> String {
    match format {
        Format::Human => render_human(findings),
        Format::Sarif => render_sarif(findings),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                rule: "A1",
                file: "crates/x/src/a.rs".to_string(),
                line: 10,
                message: "lock-order cycle — potential deadlock: `a` -> `b`".to_string(),
            },
            Finding {
                rule: "A2",
                file: "crates/x/src/b.rs".to_string(),
                line: 3,
                message: "guard \"g\" live across\nrecv".to_string(),
            },
        ]
    }

    #[test]
    fn json_escape_handles_quotes_newlines_and_controls() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }

    #[test]
    fn human_output_is_one_line_per_finding() {
        let text = render_human(&sample());
        // The embedded newline in the second message makes this 3 text lines,
        // but each finding starts with its file path.
        assert_eq!(text.matches("crates/x/src/").count(), 2);
        assert!(text.contains("A1 (lock-order)"));
    }

    #[test]
    fn sarif_output_declares_rules_and_results() {
        let text = render_sarif(&sample());
        assert!(text.contains("\"version\": \"2.1.0\""));
        assert!(text.contains("\"id\": \"A1\""));
        assert!(text.contains("\"id\": \"A2\""));
        assert!(text.contains("\"id\": \"A3\""));
        assert!(text.contains("\"ruleId\": \"A2\""));
        assert!(text.contains("\"startLine\": 10"));
    }

    #[test]
    fn empty_findings_render_a_valid_document() {
        assert!(render_sarif(&[]).contains("\"results\": []"));
    }

    #[test]
    fn format_parse_round_trips() {
        assert_eq!(Format::parse("human"), Some(Format::Human));
        assert_eq!(Format::parse("json"), None);
        assert_eq!(Format::parse("sarif"), Some(Format::Sarif));
        assert_eq!(Format::parse("xml"), None);
    }
}
