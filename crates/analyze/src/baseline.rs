//! Baseline files: a way to adopt the analyzer on a codebase with
//! pre-existing findings without fixing them all up front.
//!
//! A baseline is a text file of known findings, one per line:
//!
//! ```text
//! rule<TAB>file<TAB>message
//! ```
//!
//! Blank lines and lines starting with `#` are ignored. Line numbers are
//! deliberately *not* part of the key — edits above a finding must not
//! invalidate the baseline entry.

use std::collections::HashMap;

/// One baselined finding identity: `(rule, file, message)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BaselineKey {
    pub rule: String,
    pub file: String,
    pub message: String,
}

/// A parsed baseline: multiset of known finding identities.
#[derive(Debug, Default)]
pub struct Baseline {
    counts: HashMap<BaselineKey, usize>,
    /// Counts as parsed, before any `take` — the difference against
    /// `counts` is what actually matched (used by `--prune-baseline`).
    original: HashMap<BaselineKey, usize>,
}

impl Baseline {
    /// Parses baseline text. Returns `Err` with a 1-based line number and
    /// message for the first malformed line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts: HashMap<BaselineKey, usize> = HashMap::new();
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (rule, file, message) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(f), Some(m)) => (r, f, m),
                _ => {
                    return Err(format!(
                        "baseline line {}: expected `rule<TAB>file<TAB>message`",
                        idx + 1
                    ));
                }
            };
            let key = BaselineKey {
                rule: rule.to_string(),
                file: file.to_string(),
                message: message.to_string(),
            };
            *counts.entry(key).or_insert(0) += 1;
        }
        Ok(Baseline {
            original: counts.clone(),
            counts,
        })
    }

    /// True when the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total number of baselined entries (counting duplicates).
    pub fn len(&self) -> usize {
        self.counts.values().sum()
    }

    /// Consumes one matching entry if present; returns whether it matched.
    /// Each baseline line absorbs at most one finding, so two identical
    /// findings need two identical baseline lines.
    pub fn take(&mut self, rule: &str, file: &str, message: &str) -> bool {
        let key = BaselineKey {
            rule: rule.to_string(),
            file: file.to_string(),
            message: message.to_string(),
        };
        match self.counts.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(&key);
                }
                true
            }
            _ => false,
        }
    }

    /// Entries that were never matched by any finding — candidates for
    /// removal from the baseline file (the underlying issue was fixed).
    pub fn stale(&self) -> Vec<BaselineKey> {
        let mut keys: Vec<BaselineKey> = self
            .counts
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort_by(|a, b| (&a.rule, &a.file, &a.message).cmp(&(&b.rule, &b.file, &b.message)));
        keys
    }

    /// Entries that *were* matched by findings in this run, with their
    /// matched multiplicity — the baseline as it should be rewritten to
    /// drop stale lines (`--prune-baseline`).
    pub fn matched(&self) -> Vec<BaselineKey> {
        let mut keys = Vec::new();
        for (key, &orig) in &self.original {
            let remaining = self.counts.get(key).copied().unwrap_or(0);
            for _ in 0..orig.saturating_sub(remaining) {
                keys.push(key.clone());
            }
        }
        keys.sort_by(|a, b| (&a.rule, &a.file, &a.message).cmp(&(&b.rule, &b.file, &b.message)));
        keys
    }
}

/// Renders findings as baseline text, sorted for stable diffs.
pub fn render_baseline<'a, I>(entries: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a str, &'a str)>,
{
    let mut lines: Vec<String> = entries
        .into_iter()
        .map(|(rule, file, message)| {
            // Tabs/newlines inside a message would corrupt the format; the
            // renderers never emit them, but flatten defensively.
            let msg = message.replace(['\t', '\n', '\r'], " ");
            format!("{rule}\t{file}\t{msg}")
        })
        .collect();
    lines.sort();
    let mut out = String::from("# stellaris baseline: rule<TAB>file<TAB>message, one per line.\n");
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_blanks() {
        let b = Baseline::parse("# header\n\nA1\tsrc/a.rs\tcycle here\n").expect("parses");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn parse_rejects_missing_fields() {
        let err = Baseline::parse("A1\tsrc/a.rs\n").expect_err("malformed");
        assert!(err.contains("line 1"), "got: {err}");
    }

    #[test]
    fn take_consumes_entries_individually() {
        let text = "A2\tsrc/a.rs\tmsg\nA2\tsrc/a.rs\tmsg\n";
        let mut b = Baseline::parse(text).expect("parses");
        assert!(b.take("A2", "src/a.rs", "msg"));
        assert!(b.take("A2", "src/a.rs", "msg"));
        assert!(!b.take("A2", "src/a.rs", "msg"));
    }

    #[test]
    fn message_with_tabs_is_preserved_by_splitn() {
        // splitn(3) keeps any further tabs inside the message field.
        let mut b = Baseline::parse("A1\tsrc/a.rs\tpart\tmore\n").expect("parses");
        assert!(b.take("A1", "src/a.rs", "part\tmore"));
    }

    #[test]
    fn stale_lists_unmatched_entries_sorted() {
        let mut b = Baseline::parse("A3\tsrc/b.rs\torphan\nA1\tsrc/a.rs\tcycle\n").expect("parses");
        assert!(b.take("A1", "src/a.rs", "cycle"));
        let stale = b.stale();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "A3");
    }

    #[test]
    fn matched_keeps_only_consumed_entries_with_multiplicity() {
        let text =
            "A1\tsrc/a.rs\tcycle\nA2\tsrc/b.rs\tmsg\nA2\tsrc/b.rs\tmsg\nA3\tsrc/c.rs\tgone\n";
        let mut b = Baseline::parse(text).expect("parses");
        assert!(b.take("A1", "src/a.rs", "cycle"));
        assert!(b.take("A2", "src/b.rs", "msg"));
        // One A2 duplicate and the A3 entry go unmatched (stale).
        let matched = b.matched();
        let keys: Vec<(&str, &str)> = matched
            .iter()
            .map(|k| (k.rule.as_str(), k.file.as_str()))
            .collect();
        assert_eq!(keys, [("A1", "src/a.rs"), ("A2", "src/b.rs")]);
        // Rewriting from `matched` drops stale lines but keeps live ones.
        let pruned = render_baseline(
            matched
                .iter()
                .map(|k| (k.rule.as_str(), k.file.as_str(), k.message.as_str())),
        );
        assert!(!pruned.contains("gone"));
        assert_eq!(pruned.matches("A2\t").count(), 1, "multiplicity pruned");
        Baseline::parse(&pruned).expect("stays parseable");
    }

    #[test]
    fn render_is_sorted_and_round_trips() {
        let text = render_baseline(vec![
            ("A2", "src/b.rs", "later"),
            ("A1", "src/a.rs", "first"),
        ]);
        let a1 = text.find("A1\t").expect("A1 present");
        let a2 = text.find("A2\t").expect("A2 present");
        assert!(a1 < a2);
        let b = Baseline::parse(&text).expect("round trips");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn render_flattens_embedded_newlines() {
        let text = render_baseline(vec![("A2", "src/a.rs", "two\nlines")]);
        assert!(text.contains("two lines"));
        Baseline::parse(&text).expect("stays parseable");
    }
}
