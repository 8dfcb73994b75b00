//! CI smoke validator for `STELLARIS_TRACE` artifacts.
//!
//! Usage:
//!
//! ```text
//! validate_trace <base> [--expect-span NAME]... [--expect-metric NAME]...
//! ```
//!
//! Given the base path a bench binary was run with (`STELLARIS_TRACE=<base>`),
//! checks that:
//!
//! * `<base>.jsonl` exists, every line is well-formed JSON with a `name` key;
//! * span IDs are unique, every referenced parent ID closes over the span
//!   set (no dangling parents), instants carry zero duration, and
//!   `ts_us + dur_us` never overflows `u64`;
//! * `<base>.trace.json` exists and is one well-formed JSON object with a
//!   `traceEvents` array (chrome://tracing format) whose begin/end (`"B"`/
//!   `"E"`) phase events — if any — are balanced;
//! * `<base>.prom` exists and parses as Prometheus text exposition with
//!   cumulative histogram buckets and `+Inf == _count`;
//! * every `--expect-span NAME` occurs as an event name in the JSONL;
//! * every `--expect-metric NAME` occurs as a sample in the exposition;
//! * when the parameter plane ran (the
//!   `stellaris_core_grads_aggregated_total` counter is present), the
//!   `stellaris_core_staleness_count` histogram count equals it — every
//!   committed gradient is recorded exactly once.
//!
//! A flight-recorder dump base (`flight-<reason>`) validates with the same
//! invocation — its `recorder.dump` meta line additionally surfaces a LOUD
//! (non-fatal) warning when the trace pipeline dropped events.
//!
//! Exits non-zero with a diagnostic on the first failure.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::collections::HashSet;
use std::process::ExitCode;

use stellaris_telemetry::{validate_json, validate_prometheus};

fn fail(msg: &str) -> ExitCode {
    eprintln!("validate_trace: FAIL: {msg}");
    ExitCode::FAILURE
}

/// Extracts `"key":<digits>` from a JSONL event line. The writer emits
/// bare unsigned integers for these structural keys, so a digit scan is
/// exact (no string field can match: text values open with `"`).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Reads one unlabelled `name value` sample from a Prometheus exposition.
fn prom_sample(prom: &str, name: &str) -> Option<u64> {
    prom.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(base) = argv.next() else {
        return fail("usage: validate_trace <base> [--expect-span N]... [--expect-metric N]...");
    };
    let mut expect_spans = Vec::new();
    let mut expect_metrics = Vec::new();
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--expect-span" => expect_spans.push(value),
            "--expect-metric" => expect_metrics.push(value),
            _ => return fail(&format!("unknown flag {flag}")),
        }
    }

    // JSONL event log.
    let jsonl_path = format!("{base}.jsonl");
    let jsonl = match std::fs::read_to_string(&jsonl_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("read {jsonl_path}: {e}")),
    };
    let mut events = 0usize;
    let mut span_ids: HashSet<u64> = HashSet::new();
    let mut parents: Vec<(usize, u64)> = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = validate_json(line) {
            return fail(&format!("{jsonl_path}:{}: {e}", i + 1));
        }
        if !line.contains("\"name\":") {
            return fail(&format!("{jsonl_path}:{}: event without name", i + 1));
        }
        let (Some(id), Some(parent), Some(ts), Some(dur)) = (
            field_u64(line, "id"),
            field_u64(line, "parent"),
            field_u64(line, "ts_us"),
            field_u64(line, "dur_us"),
        ) else {
            return fail(&format!(
                "{jsonl_path}:{}: missing id/parent/ts_us/dur_us",
                i + 1
            ));
        };
        if ts.checked_add(dur).is_none() {
            return fail(&format!(
                "{jsonl_path}:{}: ts_us + dur_us overflows u64",
                i + 1
            ));
        }
        let is_span = line.contains("\"type\":\"span\"");
        if is_span {
            if !span_ids.insert(id) {
                return fail(&format!("{jsonl_path}:{}: duplicate span id {id}", i + 1));
            }
        } else if dur != 0 {
            return fail(&format!(
                "{jsonl_path}:{}: instant with nonzero dur_us {dur}",
                i + 1
            ));
        }
        if parent != 0 {
            parents.push((i + 1, parent));
        }
        if line.contains("\"name\":\"recorder.dump\"") {
            if let Some(dropped) = field_u64(line, "dropped_events") {
                if dropped > 0 {
                    eprintln!(
                        "validate_trace: WARNING: ***** flight-recorder dump reports {dropped} \
                         DROPPED trace events — the dump is incomplete *****"
                    );
                }
            }
        }
        events += 1;
    }
    if events == 0 {
        return fail(&format!("{jsonl_path}: no events"));
    }
    // Parent-ID closure: every referenced parent exists in the dump.
    for (lineno, parent) in &parents {
        if !span_ids.contains(parent) {
            return fail(&format!(
                "{jsonl_path}:{lineno}: parent {parent} not present in dump"
            ));
        }
    }
    for name in &expect_spans {
        let needle = format!("\"name\":\"{name}\"");
        if !jsonl.contains(&needle) {
            return fail(&format!("{jsonl_path}: no span named {name:?}"));
        }
    }

    // chrome://tracing file.
    let chrome_path = format!("{base}.trace.json");
    let chrome = match std::fs::read_to_string(&chrome_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("read {chrome_path}: {e}")),
    };
    if let Err(e) = validate_json(&chrome) {
        return fail(&format!("{chrome_path}: {e}"));
    }
    if !chrome.contains("\"traceEvents\"") {
        return fail(&format!("{chrome_path}: missing traceEvents"));
    }
    // Begin/end balance. Our writer emits complete ("X") events, so both
    // counts are normally zero — but any future B/E emission must pair up.
    let begins = chrome.matches("\"ph\":\"B\"").count();
    let ends = chrome.matches("\"ph\":\"E\"").count();
    if begins != ends {
        return fail(&format!(
            "{chrome_path}: unbalanced begin/end events ({begins} B vs {ends} E)"
        ));
    }

    // Prometheus exposition.
    let prom_path = format!("{base}.prom");
    let prom = match std::fs::read_to_string(&prom_path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("read {prom_path}: {e}")),
    };
    if let Err(e) = validate_prometheus(&prom) {
        return fail(&format!("{prom_path}: {e}"));
    }
    let samples = prom
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .count();
    if samples == 0 {
        return fail(&format!("{prom_path}: no samples"));
    }
    for name in &expect_metrics {
        if !prom.lines().any(|l| {
            l.starts_with(name.as_str())
                && matches!(l.as_bytes().get(name.len()), Some(b' ' | b'{' | b'_'))
        }) {
            return fail(&format!("{prom_path}: no metric named {name:?}"));
        }
    }

    // Parameter-plane conservation: every committed gradient increments
    // the `stellaris_core_grads_aggregated_total` counter once and records
    // its staleness once in the `stellaris_core_staleness` histogram, so
    // the two counts agree. Vacuous when the counter is absent (a trace
    // from a run that built no parameter server, e.g. the simulator).
    if let Some(total) = prom_sample(&prom, "stellaris_core_grads_aggregated_total") {
        let recorded = prom_sample(&prom, "stellaris_core_staleness_count").unwrap_or(0);
        if recorded != total {
            return fail(&format!(
                "{prom_path}: stellaris_core_staleness_count is {recorded} \
                 but stellaris_core_grads_aggregated_total is {total}"
            ));
        }
    }

    println!(
        "validate_trace: OK ({events} events, {samples} prom samples, {} expected spans, {} expected metrics)",
        expect_spans.len(),
        expect_metrics.len()
    );
    ExitCode::SUCCESS
}
