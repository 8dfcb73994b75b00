//! End-to-end exercise of the observability layer (DESIGN.md §13): the
//! flight recorder, the per-round critical-path analyzer and the run
//! ledger + diff, driven through a real clean run and a same-seed chaos
//! run of the tiny training configuration.
//!
//! The trace sink, metrics registry and flight recorder are all
//! process-global, so this file keeps everything in a single test
//! function — no other test in this binary records events.

use std::path::PathBuf;

use stellaris::prelude::*;
use stellaris_obs::{diff, DiffOptions, RunReport};
use stellaris_telemetry as telemetry;
use stellaris_telemetry::{attribution, json, recorder, AttrEvent, RecorderConfig};

fn flight_dir() -> PathBuf {
    PathBuf::from("target/test-flight-obs")
}

/// The tiny training configuration (3 rounds of 128 timesteps). Its rounds
/// close inside a stage span (`core.round_close`), so a scheduler
/// preemption in the bookkeeping between rounds is attributed time, not an
/// unattributed hole that pulls coverage under 0.95.
fn run_cfg() -> TrainConfig {
    TrainConfig::test_tiny(EnvId::PointMass, 17)
}

fn recorder_cfg() -> RecorderConfig {
    RecorderConfig {
        dir: flight_dir(),
        // A generous window/capacity so the whole tiny run is retained,
        // and a low fault threshold so the chaos run trips an auto-dump.
        window_us: u64::MAX / 4,
        capacity: 1 << 18,
        fault_spike_threshold: 5,
        ..RecorderConfig::default()
    }
}

/// Parses a flight-recorder JSONL dump and checks its structural
/// invariants: every line is valid JSON, the first line is the
/// `recorder.dump` meta event, and every span's parent id refers to a
/// span present in the dump (or 0).
fn validate_dump(text: &str) {
    let mut span_ids = std::collections::HashSet::new();
    let mut parents = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("dump line {}: {e}", i + 1));
        let name = v.get("name").and_then(json::Value::as_str).expect("name");
        if i == 0 {
            assert_eq!(name, "recorder.dump", "meta event must lead the dump");
            let fields = v.get("fields").expect("meta fields");
            assert!(fields.get("reason").is_some(), "meta carries the trigger");
            continue;
        }
        if v.get("type").and_then(json::Value::as_str) == Some("span") {
            span_ids.insert(v.get("id").and_then(json::Value::as_u64).expect("id"));
        }
        let parent = v.get("parent").and_then(json::Value::as_u64).unwrap_or(0);
        if parent != 0 {
            parents.push((i + 1, parent));
        }
    }
    for (line_no, parent) in parents {
        assert!(
            span_ids.contains(&parent),
            "dump line {line_no}: parent {parent} not in dump (closure violated)"
        );
    }
}

#[test]
fn flight_recorder_attribution_and_ledger_end_to_end() {
    let _ = std::fs::remove_dir_all(flight_dir());
    recorder::install_panic_hook();

    // ---- Clean baseline run -------------------------------------------
    recorder::arm(recorder_cfg());
    let cfg_clean = run_cfg();
    let res_clean = train(&cfg_clean);
    assert!(res_clean.policy_updates > 0);

    telemetry::flush_thread();
    let events: Vec<AttrEvent> = telemetry::drain()
        .iter()
        .map(AttrEvent::from_event)
        .collect();
    let attr_clean = attribution::attribute(&events);
    assert!(
        !attr_clean.rounds.is_empty(),
        "clean run must yield round windows"
    );
    assert!(
        attr_clean.coverage() >= 0.95,
        "clean-run attribution coverage {:.3} < 0.95\n{}",
        attr_clean.coverage(),
        attr_clean.render_table()
    );
    let report_clean = RunReport::new(&cfg_clean, &res_clean, Some(attr_clean));
    assert!(report_clean.slo_pass(), "clean tiny run must pass its SLOs");

    // ---- Same-seed chaos run ------------------------------------------
    // Re-arming clears the ring and the fired-trigger latches.
    recorder::arm(recorder_cfg());
    let dumps_before = recorder::dump_count();
    let cfg_chaos = run_cfg().with_chaos(99);
    let res_chaos = train(&cfg_chaos);

    // The chaos fault rate trips the fault-spike trigger mid-run.
    assert!(
        recorder::dump_count() > dumps_before,
        "chaos run must fire an automatic flight-recorder dump"
    );
    let auto_dump = flight_dir().join("flight-fault_spike.jsonl");
    assert!(auto_dump.exists(), "missing {}", auto_dump.display());

    // A manual postmortem dump after the run retains the whole window
    // (the ring is independent of the drained sink).
    telemetry::flush_thread();
    let base = recorder::dump("e2e").expect("manual dump while armed");
    let jsonl = std::fs::read_to_string(format!("{}.jsonl", base.display())).expect("read dump");
    validate_dump(&jsonl);
    assert!(
        PathBuf::from(format!("{}.trace.json", base.display())).exists(),
        "dump must also write the chrome trace"
    );

    // Critical-path attribution over the dump: >= 95% of round wall time
    // lands in named stages, and chaos-only stages show up.
    let attr_chaos = stellaris_obs::attribute_jsonl(&jsonl).expect("attribute dump");
    assert!(
        attr_chaos.coverage() >= 0.95,
        "chaos-dump attribution coverage {:.3} < 0.95\n{}",
        attr_chaos.coverage(),
        attr_chaos.render_table()
    );
    let totals = attr_chaos.stage_totals();
    let raw_of = |stage| totals.get(&stage).map_or(0, |b| b.raw_us);
    assert!(
        raw_of(attribution::Stage::Straggle) > 0,
        "chaos run must record straggle time"
    );
    let report_chaos = RunReport::new(&cfg_chaos, &res_chaos, Some(attr_chaos));

    // ---- Ledger + diff -------------------------------------------------
    let runs_dir = flight_dir().join("runs");
    let path_a = report_clean
        .write_named(&runs_dir, "clean.json")
        .expect("write clean");
    let path_b = report_chaos
        .write_named(&runs_dir, "chaos.json")
        .expect("write chaos");
    let parse =
        |p: &PathBuf| json::parse(&std::fs::read_to_string(p).expect("read")).expect("json");
    let d = diff(&parse(&path_a), &parse(&path_b), &DiffOptions::default());
    assert!(!d.pass(), "chaos vs clean must regress");
    let keys: Vec<&str> = d.regressions().iter().map(|r| r.key.as_str()).collect();
    assert!(
        keys.iter().any(|k| k.starts_with("stage.straggle")),
        "straggle stage must regress under chaos, got {keys:?}"
    );
    assert!(
        keys.iter().any(|k| k.starts_with("stage.retry/backoff")),
        "retry/backoff stage must regress under chaos, got {keys:?}"
    );
    assert!(
        keys.iter().any(|k| k.starts_with("faults.")),
        "fault counters must regress under chaos, got {keys:?}"
    );

    // ---- Panic hook ----------------------------------------------------
    // Last, because the hook prints the panic before dumping: a worker
    // thread panic while armed produces the postmortem artifacts.
    let worker = std::thread::spawn(|| panic!("obs_e2e: deliberate crash"));
    assert!(worker.join().is_err());
    let panic_dump = flight_dir().join("flight-panic.jsonl");
    assert!(panic_dump.exists(), "panic must leave a flight dump");
    let panic_text = std::fs::read_to_string(&panic_dump).expect("read panic dump");
    validate_dump(&panic_text);
    recorder::disarm();
}
