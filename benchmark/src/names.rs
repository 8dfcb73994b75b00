//! Every metric the benchmark emits, by name: unit, direction, bound, and —
//! for layer metrics — which end-to-end metric on which workload it is
//! expected to move (written down before anything was measured; README.md
//! has the reasoning). `BENCHMARK.json` is generated from these tables by
//! `--describe`, and a test keeps the checked-in file equal to them.

use crate::cycle;
use crate::e2e::stage_names;
use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds are the widest the contract allows: the sizing box drifts by
/// 10-20% over minutes (README, "Why the bounds are 25%").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "env_steps_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// (metric, workload) this layer metric is expected to move.
    pub moves: (&'static str, &'static str),
}

const STEPS: &str = "env_steps_per_s";
const USD: &str = "serverless.usd_per_mstep";
const TTT: &str = "core.time_to_target_s";
const HOPPER: &str = "hopper_mlp_async";
const INVADERS: &str = "invaders_cnn_async";
const REMOTE: &str = "hopper_mlp_remote_tcp";
const SYNC: &str = "hopper_mlp_sync";
const FANIN: &str = "pointmass_fanin";

/// (name, unit, better, moves) of the metrics with fixed names.
const FIXED: &[(&str, &str, &str, (&str, &str))] = &[
    // ----- read from TrainResult / RemoteRunReport / the registry, untraced --
    ("core.round_s_p50", "s", "lower", (STEPS, SYNC)),
    ("core.round_s_p90", "s", "lower", (STEPS, SYNC)),
    ("core.timer.actor_sampling_s", "s", "lower", (STEPS, HOPPER)),
    ("core.timer.gradient_s", "s", "lower", (STEPS, INVADERS)),
    ("core.timer.aggregation_s", "s", "lower", (STEPS, FANIN)),
    ("core.timer.cache_s", "s", "lower", (STEPS, FANIN)),
    ("core.timer.data_loading_s", "s", "lower", (STEPS, SYNC)),
    ("core.learner_invocations", "count", "higher", (USD, FANIN)),
    ("core.policy_updates", "count", "higher", (TTT, SYNC)),
    ("core.grads_aggregated", "count", "higher", (USD, FANIN)),
    ("core.grad_yield", "ratio", "higher", (STEPS, FANIN)),
    ("core.staleness_mean", "updates", "lower", (TTT, SYNC)),
    ("core.staleness_max", "updates", "lower", (TTT, SYNC)),
    ("core.degraded_rounds", "count", "lower", (STEPS, HOPPER)),
    ("core.time_to_target_s", "s", "lower", (STEPS, SYNC)),
    ("cache.queue.shed_total", "count", "lower", (STEPS, FANIN)),
    ("serverless.cold_starts", "count", "lower", (USD, FANIN)),
    (
        "serverless.usd_per_mstep",
        "USD/Mstep",
        "lower",
        (STEPS, HOPPER),
    ),
    ("core.remote.full_pulls", "count", "lower", (STEPS, REMOTE)),
    (
        "core.remote.delta_pulls",
        "count",
        "higher",
        (STEPS, REMOTE),
    ),
    (
        "core.remote.policy_bytes_full",
        "B",
        "lower",
        (STEPS, REMOTE),
    ),
    (
        "core.remote.policy_bytes_delta",
        "B",
        "lower",
        (STEPS, REMOTE),
    ),
    ("core.remote.recovered", "count", "lower", (STEPS, REMOTE)),
    (
        "core.remote.wire_bytes_per_step",
        "B/step",
        "lower",
        (STEPS, REMOTE),
    ),
    (
        "serverless.process.cold_spawns",
        "count",
        "lower",
        (STEPS, REMOTE),
    ),
    (
        "serverless.process.warm_reuses",
        "count",
        "higher",
        (STEPS, REMOTE),
    ),
    // ----- isolated probes -----------------------------------------------------
    ("envs.step.p50_us", "us", "lower", (STEPS, HOPPER)),
    ("envs.reset.p50_us", "us", "lower", (STEPS, HOPPER)),
    ("rl.act.p50_us", "us", "lower", (STEPS, HOPPER)),
    ("nn.gemm.p50_us", "us", "lower", (STEPS, INVADERS)),
    ("nn.gemm.gflops", "GFLOP/s", "higher", (STEPS, INVADERS)),
    ("nn.forward_batch.p50_us", "us", "lower", (STEPS, INVADERS)),
    ("cache.frame.rtt.p50_us", "us", "lower", (STEPS, REMOTE)),
    (
        "serverless.process.spawn_ms",
        "ms",
        "lower",
        (STEPS, REMOTE),
    ),
    ("telemetry.span_ns", "ns", "lower", (STEPS, HOPPER)),
    ("telemetry.span_off_ns", "ns", "lower", (STEPS, HOPPER)),
    // ----- derived -------------------------------------------------------------
    (
        "cycle.self_frac_coverage",
        "ratio",
        "higher",
        (STEPS, HOPPER),
    ),
    ("core.serial_steps_per_s", "1/s", "higher", (STEPS, HOPPER)),
    ("core.parallel_speedup", "ratio", "higher", (STEPS, HOPPER)),
    ("attr.coverage", "ratio", "higher", (STEPS, HOPPER)),
    ("telemetry.overhead_frac", "ratio", "lower", (STEPS, HOPPER)),
];

/// Which end-to-end number a cycle span is expected to move.
fn span_moves(span: &str) -> (&'static str, &'static str) {
    match span {
        "serverless.invoke" => (USD, FANIN),
        "rl.collect" | "rl.load_snapshot" => (STEPS, HOPPER),
        "rl.gradient" => (STEPS, INVADERS),
        "rl.dataload" => (STEPS, SYNC),
        "cache.codec.encode_batch" | "cache.codec.decode_batch" => (STEPS, REMOTE),
        _ => (STEPS, FANIN),
    }
}

fn stage_moves(stage: &str) -> (&'static str, &'static str, &'static str) {
    match stage {
        "rollout" => ("higher", STEPS, HOPPER),
        "compute" => ("higher", STEPS, INVADERS),
        "eval" | "data-loading" => ("lower", STEPS, SYNC),
        "round-gate" | "straggle" | "retry" => ("lower", STEPS, HOPPER),
        "invoke" => ("lower", USD, FANIN),
        _ => ("lower", STEPS, FANIN),
    }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = FIXED
        .iter()
        .map(|&(name, unit, better, moves)| Layer {
            name: name.to_owned(),
            unit,
            better,
            moves,
        })
        .collect();
    for span in cycle::SPANS {
        out.push(Layer {
            name: format!("{span}.p50_us"),
            unit: "us",
            better: "lower",
            moves: span_moves(span),
        });
        out.push(Layer {
            name: format!("{span}.self_frac"),
            unit: "ratio",
            better: "lower",
            moves: span_moves(span),
        });
    }
    for stage in stage_names() {
        let (better, metric, workload) = stage_moves(stage);
        out.push(Layer {
            name: format!("attr.{stage}_frac"),
            unit: "ratio",
            better,
            moves: (metric, workload),
        });
    }
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let layers = per_layer();
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(layers.iter().map(|m| m.name.as_str()));
        for name in all {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name.to_owned()), "duplicate name {name:?}");
        }
        assert!(layers.len() <= 128);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn every_layer_metric_moves_a_known_metric_on_a_known_workload() {
        let layers = per_layer();
        for m in &layers {
            let (metric, workload) = m.moves;
            assert!(
                END_TO_END.iter().any(|e| e.name == metric)
                    || layers.iter().any(|l| l.name == metric),
                "{}: unknown metric {metric}",
                m.name
            );
            assert!(
                WORKLOADS.iter().any(|w| w.name == workload),
                "{}: unknown workload {workload}",
                m.name
            );
            assert!(["higher", "lower"].contains(&m.better));
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
