//! What one phase of a run reports, and the line format a child process
//! hands it to its parent in.
//!
//! Lines on the child's stdout: `m <name> <value>` (metric), `c <name>
//! <0|1> <detail>` (correctness check), `a <attempted> <failed>` (ops),
//! `k <hex>` (final checksum). Anything else is ignored.

use std::collections::BTreeMap;

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    /// (name, passed, detail)
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub checksum: Option<u64>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_owned(), passed, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Folds the metrics and checks of a phase that ran no operations of
    /// its own into this report.
    pub fn absorb(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.checks.extend(other.checks);
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("m {name} {value:?}\n"));
        }
        for (name, ok, detail) in &self.checks {
            out.push_str(&format!("c {name} {} {detail}\n", u8::from(*ok)));
        }
        out.push_str(&format!("a {} {}\n", self.attempted, self.failed));
        if let Some(k) = self.checksum {
            out.push_str(&format!("k {k:016x}\n"));
        }
        out
    }

    pub fn from_lines(text: &str) -> Report {
        let mut r = Report::default();
        for line in text.lines() {
            let mut it = line.splitn(4, ' ');
            match (it.next(), it.next(), it.next()) {
                (Some("m"), Some(name), Some(v)) => {
                    if let Ok(v) = v.parse() {
                        r.metric(name, v);
                    }
                }
                (Some("c"), Some(name), Some(ok)) => {
                    r.check(name, ok == "1", it.next().unwrap_or("").to_owned());
                }
                (Some("a"), Some(a), Some(f)) => {
                    r.attempted = a.parse().unwrap_or(0);
                    r.failed = f.parse().unwrap_or(0);
                }
                (Some("k"), Some(k), None) => r.checksum = u64::from_str_radix(k, 16).ok(),
                _ => {}
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_roundtrip() {
        let mut r = Report::default();
        r.metric("env_steps_per_s", 10234.567891234);
        r.metric("core.grad_yield", 1.0);
        r.check("weights_finite", true, "all 138k finite".into());
        r.check("degraded_rounds", false, "2 rounds degraded".into());
        r.attempted = 200;
        r.failed = 200;
        r.checksum = Some(0xdead_beef);
        let back = Report::from_lines(&format!("noise\n{}", r.to_lines()));
        assert_eq!(back, r);
        assert!(!back.correct());
    }
}
