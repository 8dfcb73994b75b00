//! End-to-end observability check (DESIGN.md §8): a tiny training run with
//! tracing enabled must emit spans from every instrumented layer, and the
//! staleness histogram must agree exactly with the orchestrator's own
//! staleness log (the Fig. 3b derivation).
//!
//! The trace sink and metrics registry are process-global, so this file keeps
//! everything in a single test function: no other test in this binary records
//! events, which is what makes the exact-count assertion below sound.

use stellaris::prelude::*;
use stellaris_telemetry as telemetry;

#[test]
fn tiny_run_traces_all_layers_and_matches_staleness_log() {
    telemetry::enable();

    let cfg = TrainConfig::test_tiny(EnvId::PointMass, 7);
    let res = train(&cfg);
    assert_eq!(res.rows.len(), 3, "tiny config runs three rounds");
    assert!(res.policy_updates > 0, "run must aggregate gradients");

    let events = telemetry::drain();
    assert_eq!(telemetry::dropped_events(), 0, "tiny run must fit the sink");
    assert!(
        !events.is_empty(),
        "tracing was enabled but drained nothing"
    );

    // The run's three artefacts pass `obs validate`, with spans from all
    // four instrumented layers plus the RL crate.
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry-e2e");
    telemetry::write_artefacts(&base, &events).expect("write artefacts");
    let spans = [
        "core.round",
        "core.round_wait",
        "core.aggregation",
        "serverless.invoke",
        "nn.backward",
        "nn.forward",
        "rl.rollout_collect",
    ];
    let metrics = ["stellaris_core_staleness", "stellaris_core_rounds_total"];
    let checked = stellaris_obs::validate(&base, &spans, &metrics).map(|v| v.events);
    assert_eq!(checked, Ok(events.len()), "every event reads back");

    // Acceptance criterion: the staleness histogram records exactly one sample
    // per aggregated gradient. `train` logs every aggregated gradient's
    // staleness in `staleness_log`, and the parameter server's commit records
    // the same value into the histogram, so the counts must match exactly.
    let staleness = telemetry::global().histogram("stellaris_core_staleness");
    assert_eq!(
        staleness.count(),
        res.staleness_log.len() as u64,
        "staleness histogram must have one sample per aggregated gradient"
    );
    assert!(staleness.count() > 0, "run must record staleness samples");
}
