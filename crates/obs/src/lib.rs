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
//! * **[`validate`](mod@validate)** — the structural checks on a trace's
//!   three artefacts that `obs validate` and CI run.
//!
//! Span dumps are read back with `stellaris_telemetry::read_jsonl` and
//! reports with `stellaris_telemetry::json`, the one JSON parser.
//!
//! The flight recorder and the critical-path analyzer themselves live in
//! `stellaris_telemetry::{recorder, attribution}` so every crate can feed
//! them without a dependency cycle; this crate consumes their output.

#![warn(missing_docs)]

pub mod dash;
pub mod diff;
pub mod report;
pub mod validate;

pub use dash::Dashboard;
pub use diff::{diff, DiffOptions, DiffReport};
pub use report::{config_hash, maybe_write_report, RunReport, SloVerdict};
pub use validate::{validate, Validated};

use stellaris_telemetry::{attribution, read_jsonl, AttrEvent};

/// Reads a flight-recorder or trace JSONL dump and attributes it in one
/// step; fails on the first malformed line.
pub fn attribute_jsonl(text: &str) -> Result<attribution::RunAttribution, String> {
    let events: Vec<AttrEvent> = read_jsonl(text)?
        .iter()
        .map(AttrEvent::from_event)
        .collect();
    Ok(attribution::attribute(&events))
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
}
