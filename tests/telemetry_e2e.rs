//! End-to-end observability check (DESIGN.md §8): a tiny training run with
//! tracing enabled must emit spans from every instrumented layer, and the
//! staleness histogram must agree exactly with the orchestrator's own
//! staleness log (the Fig. 3b derivation).
//!
//! The trace sink and metrics registry are process-global, so this file keeps
//! everything in a single test function: no other test in this binary records
//! events, which is what makes the exact-count assertion below sound.

use std::collections::BTreeSet;

use stellaris::prelude::*;
use stellaris_telemetry as telemetry;

#[test]
fn tiny_run_traces_all_layers_and_matches_staleness_log() {
    telemetry::enable();

    let cfg = TrainConfig::test_tiny(EnvId::PointMass, 7);
    let res = train(&cfg);
    assert_eq!(res.rows.len(), 3, "tiny config runs three rounds");
    assert!(res.policy_updates > 0, "run must aggregate gradients");

    telemetry::flush_thread();
    let events = telemetry::drain();
    assert_eq!(telemetry::dropped_events(), 0, "tiny run must fit the sink");
    assert!(
        !events.is_empty(),
        "tracing was enabled but drained nothing"
    );

    // Spans from all four instrumented layers, plus the RL crate.
    let names: BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    for required in [
        "core.round",
        "core.round_wait",
        "core.aggregation",
        "serverless.invoke",
        "nn.backward",
        "nn.forward",
        "rl.rollout_collect",
    ] {
        assert!(
            names.contains(required),
            "missing span {required:?}: have {names:?}"
        );
    }

    // Every event must serialise to valid JSONL.
    let mut jsonl = Vec::new();
    telemetry::write_jsonl(&events, &mut jsonl).expect("write_jsonl");
    let jsonl = String::from_utf8(jsonl).expect("jsonl is utf-8");
    for line in jsonl.lines() {
        telemetry::validate_json(line).expect("each JSONL line parses");
    }

    // Chrome trace export must also be valid JSON.
    let mut chrome = Vec::new();
    telemetry::write_chrome_trace(&events, &mut chrome).expect("write_chrome_trace");
    let chrome = String::from_utf8(chrome).expect("chrome trace is utf-8");
    telemetry::validate_json(&chrome).expect("chrome trace parses");

    // Acceptance criterion: the staleness histogram records exactly one sample
    // per aggregated gradient. `train` logs every aggregated gradient's
    // staleness in `staleness_log`, and the parameter shard's commit records
    // the same value into the histogram, so the counts must match exactly.
    let staleness = telemetry::global().histogram("stellaris_core_staleness");
    assert_eq!(
        staleness.count(),
        res.staleness_log.len() as u64,
        "staleness histogram must have one sample per aggregated gradient"
    );
    assert!(staleness.count() > 0, "run must record staleness samples");

    // The full exposition must parse, and must carry the round counter.
    let prom = telemetry::global().render_prometheus();
    telemetry::validate_prometheus(&prom).expect("prometheus exposition parses");
    assert!(
        prom.contains("stellaris_core_staleness"),
        "exposition lists staleness"
    );
    assert!(
        prom.contains("stellaris_core_rounds_total"),
        "exposition lists rounds"
    );
}
