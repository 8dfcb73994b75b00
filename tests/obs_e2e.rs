//! End-to-end exercise of the observability layer (DESIGN.md §13): the
//! flight recorder, the per-round critical-path analyzer and the run
//! ledger + diff, driven through a real clean run and a same-seed chaos
//! run of the tiny training configuration.
//!
//! The trace sink, metrics registry and flight recorder are all
//! process-global, so this file keeps everything in a single test
//! function — no other test in this binary records events.

use std::path::{Path, PathBuf};

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

/// Checks a flight-recorder dump at `base`: its three artefacts pass
/// `obs validate`'s checks, and the `recorder.dump` meta event leads the
/// JSONL carrying the trigger `reason`.
fn check_dump(base: &Path) -> String {
    stellaris_obs::validate(base, &[], &[]).unwrap_or_else(|e| panic!("{e}"));
    let jsonl = std::fs::read_to_string(format!("{}.jsonl", base.display())).expect("read dump");
    let events = telemetry::read_jsonl(&jsonl).expect("dump parses");
    assert_eq!(
        events[0].name, "recorder.dump",
        "meta event must lead the dump"
    );
    assert!(
        events[0].fields.iter().any(|(k, _)| *k == "reason"),
        "meta carries the trigger"
    );
    jsonl
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
    let base = recorder::dump("e2e").expect("manual dump while armed");
    let jsonl = check_dump(&base);

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
    check_dump(&flight_dir().join("flight-panic"));
    recorder::disarm();
}
