//! The structural checks every trace artefact must pass: a
//! `STELLARIS_TRACE=<base>` run and a flight-recorder dump
//! (`flight-<reason>`) both leave the three files of
//! [`stellaris_telemetry::write_artefacts`], and [`validate`] reads all
//! three (DESIGN.md §8, §13).
//!
//! * `<base>.jsonl` parses through [`stellaris_telemetry::read_jsonl`] and
//!   holds at least one event; span ids are unique, every non-zero parent
//!   is a span in the file, instants have zero duration, and
//!   `ts_us + dur_us` does not overflow `u64`;
//! * every expected span name occurs;
//! * `<base>.trace.json` is one JSON object with a `traceEvents` array
//!   whose begin/end (`"B"`/`"E"`) events, if any, balance;
//! * `<base>.prom` passes [`validate_prometheus`], has samples and has
//!   every expected metric;
//! * when the parameter plane ran (`stellaris_core_grads_aggregated_total`
//!   is present), `stellaris_core_staleness_count` equals it: every
//!   committed gradient is recorded exactly once.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashSet;
use std::path::Path;

use stellaris_telemetry::json::{self, Value};
use stellaris_telemetry::{artefact, read_jsonl, validate_prometheus, EventKind, FieldValue};

/// What a passing artefact set held.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Validated {
    /// Events in `<base>.jsonl`.
    pub events: usize,
    /// Trace events the run dropped, as a flight-recorder dump's
    /// `recorder.dump` meta line reports them (0 elsewhere). The artefacts
    /// pass, but the dump is incomplete and the caller should say so loudly.
    pub dropped_events: u64,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Reads one unlabelled `name value` sample from a Prometheus exposition.
fn prom_sample(prom: &str, name: &str) -> Option<u64> {
    prom.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Runs every check in the module doc over the artefacts at `base`; the
/// first failure is the `Err`, naming its file.
pub fn validate(
    base: &Path,
    expect_spans: &[&str],
    expect_metrics: &[&str],
) -> Result<Validated, String> {
    let path = artefact(base, ".jsonl");
    let fail = |what: String| format!("{}: {what}", path.display());
    let events = read_jsonl(&read(&path)?).map_err(fail)?;
    if events.is_empty() {
        return Err(fail("no events".to_owned()));
    }
    let mut span_ids = HashSet::new();
    let mut dropped_events = 0;
    for e in &events {
        if e.ts_us.checked_add(e.dur_us).is_none() {
            return Err(fail(format!(
                "{} {}: ts_us + dur_us overflows u64",
                e.name, e.id
            )));
        }
        match e.kind {
            EventKind::Span if !span_ids.insert(e.id) => {
                return Err(fail(format!("duplicate span id {}", e.id)));
            }
            EventKind::Instant if e.dur_us != 0 => {
                return Err(fail(format!("instant {} has dur_us {}", e.name, e.dur_us)));
            }
            _ => {}
        }
        if e.name == "recorder.dump" {
            for (k, v) in &e.fields {
                if let ("dropped_events", FieldValue::U64(n)) = (*k, v) {
                    dropped_events = *n;
                }
            }
        }
    }
    if let Some(e) = events
        .iter()
        .find(|e| e.parent != 0 && !span_ids.contains(&e.parent))
    {
        return Err(fail(format!(
            "{} {}: parent {} is not a span in the file",
            e.name, e.id, e.parent
        )));
    }
    if let Some(name) = expect_spans
        .iter()
        .find(|n| !events.iter().any(|e| e.name == **n))
    {
        return Err(fail(format!("no span named {name:?}")));
    }

    let path = artefact(base, ".trace.json");
    let fail = |what: String| format!("{}: {what}", path.display());
    let chrome = json::parse(&read(&path)?).map_err(fail)?;
    let Some(trace_events) = chrome.get("traceEvents").and_then(Value::as_array) else {
        return Err(fail("no traceEvents array".to_owned()));
    };
    let phases = |ph: &str| {
        trace_events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
            .count()
    };
    // The writer emits complete ("X") events, so both counts are normally
    // zero; any B/E emission must pair up.
    let (begins, ends) = (phases("B"), phases("E"));
    if begins != ends {
        return Err(fail(format!(
            "unbalanced begin/end events ({begins} B vs {ends} E)"
        )));
    }

    let path = artefact(base, ".prom");
    let fail = |what: String| format!("{}: {what}", path.display());
    let prom = read(&path)?;
    validate_prometheus(&prom).map_err(fail)?;
    if !prom
        .lines()
        .any(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        return Err(fail("no samples".to_owned()));
    }
    if let Some(name) = expect_metrics.iter().find(|name| {
        !prom.lines().any(|l| {
            l.starts_with(**name)
                && matches!(l.as_bytes().get(name.len()), Some(b' ' | b'{' | b'_'))
        })
    }) {
        return Err(fail(format!("no metric named {name:?}")));
    }
    if let Some(total) = prom_sample(&prom, "stellaris_core_grads_aggregated_total") {
        let recorded = prom_sample(&prom, "stellaris_core_staleness_count").unwrap_or(0);
        if recorded != total {
            return Err(fail(format!(
                "stellaris_core_staleness_count is {recorded} \
                 but stellaris_core_grads_aggregated_total is {total}"
            )));
        }
    }
    Ok(Validated {
        events: events.len(),
        dropped_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use stellaris_telemetry::{write_artefacts, Event, Registry};

    /// A root span, its child span and an instant under the child.
    fn clean() -> Vec<Event> {
        let ev = |kind, name, id, parent, dur_us| Event {
            kind,
            name,
            id,
            parent,
            tid: 1,
            ts_us: 10,
            dur_us,
            fields: Vec::new(),
        };
        vec![
            ev(EventKind::Span, "core.round", 1, 0, 50),
            ev(EventKind::Span, "core.round", 2, 1, 20),
            ev(EventKind::Instant, "core.mark", 3, 2, 0),
        ]
    }

    /// An exposition whose plane counted `aggregated` commits and recorded
    /// `recorded` staleness samples.
    fn prom(aggregated: u64, recorded: u64) -> String {
        let reg = Registry::new();
        reg.counter("stellaris_core_grads_aggregated_total")
            .add(aggregated);
        let h = reg.histogram("stellaris_core_staleness");
        (0..recorded).for_each(|_| h.record(1));
        reg.render_prometheus()
    }

    /// A directory of artefact sets, removed when the test ends.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    impl Scratch {
        fn new(test: &str) -> Self {
            let dir = format!("stellaris-obs-validate-{test}-{}", std::process::id());
            Self(std::env::temp_dir().join(dir))
        }

        /// Writes the artefacts of `events` under `<dir>/<tag>`, with `prom`
        /// as the exposition (or none).
        fn write(&self, tag: &str, events: &[Event], prom: Option<&str>) -> PathBuf {
            let base = self.0.join(tag);
            assert!(write_artefacts(&base, events).is_ok());
            let path = artefact(&base, ".prom");
            assert!(prom
                .map_or_else(|| std::fs::remove_file(&path), |p| std::fs::write(&path, p))
                .is_ok());
            base
        }
    }

    fn err(base: &Path) -> String {
        validate(base, &[], &[]).err().unwrap_or_default()
    }

    #[test]
    fn clean_artefacts_pass_with_their_expectations() {
        let dir = Scratch::new("clean");
        let base = dir.write("clean", &clean(), Some(&prom(3, 3)));
        let spans = ["core.round", "core.mark"];
        let ok = validate(&base, &spans, &["stellaris_core_staleness"]);
        assert_eq!(
            ok,
            Ok(Validated {
                events: 3,
                dropped_events: 0
            })
        );
        let e = validate(&base, &["nn.backward"], &[])
            .err()
            .unwrap_or_default();
        assert!(e.contains("no span named \"nn.backward\""), "{e}");
        let e = validate(&base, &[], &["stellaris_nope"])
            .err()
            .unwrap_or_default();
        assert!(e.contains("no metric named"), "{e}");

        // A dump that dropped events passes, and says how many it lost.
        let mut dump = clean();
        dump.insert(0, dump[2].clone());
        dump[0].name = "recorder.dump";
        (dump[0].id, dump[0].parent) = (u64::MAX, 0);
        dump[0].fields = vec![("reason", "manual".into()), ("dropped_events", 9u64.into())];
        let ok = validate(&dir.write("dropped", &dump, Some(&prom(0, 0))), &[], &[]);
        assert_eq!(ok.map(|v| v.dropped_events), Ok(9));
    }

    #[test]
    fn each_defect_fails_naming_its_file() {
        let p = Some(prom(0, 0));
        let p = p.as_deref();
        let defect = |edit: fn(&mut Vec<Event>)| {
            let mut events = clean();
            edit(&mut events);
            events
        };
        let dir = Scratch::new("defects");
        for (tag, events, prom, want) in [
            ("dangling", defect(|e| e[2].parent = 99), p, "core.mark 3: parent 99 is not a span"),
            ("duplicate", defect(|e| e[1].id = 1), p, "jsonl: duplicate span id 1"),
            ("instant", defect(|e| e[2].dur_us = 4), p, "instant core.mark has dur_us 4"),
            ("overflow", defect(|e| e[0].ts_us = u64::MAX), p, "overflows u64"),
            ("empty", Vec::new(), p, "empty.jsonl: no events"),
            ("noprom", clean(), None, "read "),
            ("badprom", clean(), Some("stellaris_x{ 1\n"), "badprom.prom: "),
            ("emptyprom", clean(), Some("# only comments\n"), "emptyprom.prom: no samples"),
            (
                "stale",
                clean(),
                Some(&prom(5, 4)),
                "stellaris_core_staleness_count is 4 but stellaris_core_grads_aggregated_total is 5",
            ),
        ] {
            let e = err(&dir.write(tag, &events, prom));
            assert!(e.contains(want), "{tag}: {e}");
        }

        let base = dir.write("badjsonl", &clean(), p);
        assert!(std::fs::write(artefact(&base, ".jsonl"), "{}\n").is_ok());
        let e = err(&base);
        assert!(e.contains("badjsonl.jsonl: line 1"), "{e}");
        let base = dir.write("badchrome", &clean(), p);
        let unbalanced = "{\"traceEvents\":[{\"ph\":\"B\"}]}";
        assert!(std::fs::write(artefact(&base, ".trace.json"), unbalanced).is_ok());
        let e = err(&base);
        assert!(
            e.contains("badchrome.trace.json: unbalanced begin/end"),
            "{e}"
        );
    }
}
