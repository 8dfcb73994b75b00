//! # stellaris-obs
//!
//! The answers layer on top of `stellaris-telemetry`'s raw spans and
//! metrics (DESIGN.md §13):
//!
//! * **[`report`]** — the run ledger: every `TrainResult` serialises into
//!   a structured `RunReport` (config hash, seed, staleness summary,
//!   stage attribution, cost, faults, SLO verdicts) under `runs/*.json`.
//! * **[`diff`](mod@diff)** — threshold-based comparison of two reports with a CI
//!   pass/fail verdict; straggler/retry stage growth, cost and fault
//!   regressions surface as named keys.
//! * **[`dash`]** — the plain-text live dashboard panel the `obs` binary
//!   tails while a sim runs.
//!
//! Artifacts are read back with `stellaris_telemetry::json`, the one JSON
//! parser of the workspace.
//!
//! The flight recorder and the critical-path analyzer themselves live in
//! `stellaris_telemetry::{recorder, attribution}` so every crate can feed
//! them without a dependency cycle; this crate consumes their output.

#![warn(missing_docs)]

pub mod dash;
pub mod diff;
pub mod report;

pub use dash::Dashboard;
pub use diff::{diff, DiffOptions, DiffReport};
pub use report::{config_hash, maybe_write_report, RunReport, SloVerdict};

use stellaris_telemetry::json::{self, Value};
use stellaris_telemetry::{attribution, AttrEvent};

/// Parses flight-recorder / trace JSONL text into analysis-ready events,
/// skipping blank lines; fails on the first malformed line.
pub fn parse_jsonl_events(text: &str) -> Result<Vec<AttrEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no name", i + 1))?
            .to_owned();
        let span = v.get("type").and_then(Value::as_str) == Some("span");
        let round = if name == "core.round" {
            v.get("fields")
                .and_then(|f| f.get("round"))
                .and_then(Value::as_u64)
        } else {
            None
        };
        out.push(AttrEvent {
            name,
            span,
            id: v.get("id").and_then(Value::as_u64).unwrap_or(0),
            parent: v.get("parent").and_then(Value::as_u64).unwrap_or(0),
            tid: v.get("tid").and_then(Value::as_u64).unwrap_or(0),
            ts_us: v.get("ts_us").and_then(Value::as_u64).unwrap_or(0),
            dur_us: v.get("dur_us").and_then(Value::as_u64).unwrap_or(0),
            round,
        });
    }
    Ok(out)
}

/// Convenience: parse a JSONL dump and attribute it in one step.
pub fn attribute_jsonl(text: &str) -> Result<attribution::RunAttribution, String> {
    parse_jsonl_events(text).map(|ev| attribution::attribute(&ev))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_roundtrip_attributes_like_live_events() {
        let jsonl = "\
{\"type\":\"span\",\"name\":\"core.round\",\"id\":1,\"parent\":0,\"tid\":1,\"ts_us\":0,\"dur_us\":100,\"fields\":{\"round\":4}}
{\"type\":\"span\",\"name\":\"nn.backward\",\"id\":2,\"parent\":1,\"tid\":1,\"ts_us\":10,\"dur_us\":80,\"fields\":{}}
{\"type\":\"instant\",\"name\":\"bench.progress\",\"id\":3,\"parent\":0,\"tid\":1,\"ts_us\":50,\"dur_us\":0,\"fields\":{}}
";
        let run = attribute_jsonl(jsonl).unwrap_or_default();
        assert_eq!(run.rounds.len(), 1);
        assert_eq!(run.rounds[0].round, 4);
        let compute = run.rounds[0].stages[&stellaris_telemetry::Stage::Compute];
        assert_eq!(compute.blamed_us, 80);
        assert!((run.coverage() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn malformed_jsonl_reports_line_numbers() {
        let err = parse_jsonl_events("{\"name\":\"x\"}\nnot json")
            .err()
            .unwrap_or_default();
        assert!(err.contains("line 2"), "{err}");
    }
}
