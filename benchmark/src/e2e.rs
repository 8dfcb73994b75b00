//! One real training run of a workload: warm-up, timed window, correctness
//! checks, end-to-end metrics, and the layer metrics the program itself
//! reports (`TrainResult`, `RemoteRunReport`, the metrics registry).
//!
//! Runs inside a child process of the runner so telemetry and arena globals
//! start clean and `VmHWM` belongs to this run alone.

use std::time::Instant;

use crate::api::{
    attribute, evaluate, make_env, metrics_registry, snapshot_checksum, trace, train, AttrEvent,
    Cluster, EnvConfig, PolicySnapshot, ProcessConfig, RemoteFleet, RemoteRunReport, Stage,
    TrainResult, WireTransport, ALL_STAGES,
};
use crate::report::Report;
use crate::stats::{quantile, tail_quantile};
use crate::workloads::{Driver, Workload};

/// Rounds of the untimed warm-up that precedes every timed window.
pub const WARMUP_ROUNDS: usize = 3;

/// Window of the moving average `core.time_to_target_s` is read from.
const TARGET_WINDOW: usize = 5;

/// The name `attr.<stage>_frac` metrics use for each attribution stage.
pub fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::RoundGate => "round-gate",
        Stage::Eval => "eval",
        Stage::QueueWait => "queue-wait",
        Stage::Invoke => "invoke",
        Stage::Straggle => "straggle",
        Stage::Retry => "retry",
        Stage::Enqueue => "enqueue",
        Stage::Codec => "codec",
        Stage::DataLoad => "data-loading",
        Stage::Rollout => "rollout",
        Stage::Aggregation => "aggregation",
        Stage::Compute => "compute",
    }
}

pub fn stage_names() -> Vec<&'static str> {
    ALL_STAGES.iter().map(|s| stage_name(*s)).collect()
}

fn proc_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.trim_start().strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Bytes the loopback interface has carried so far: payload plus TCP/IP
/// headers, for the whole network namespace. (`/proc/self/io` does not see
/// sockets: the standard library sends with `send`/`recv`, which bypass the
/// `rchar`/`wchar` accounting.)
fn loopback_bytes() -> u64 {
    proc_field("/proc/net/dev", "lo:")
}

fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

fn counter(name: &str) -> u64 {
    metrics_registry().counter(name).get()
}

/// Microseconds the platform has billed to a function kind so far.
fn exec_us(kind: &str) -> u64 {
    metrics_registry()
        .histogram(&format!("stellaris_serverless_exec_us_{kind}"))
        .sum()
}

fn remote_fleet(w: &Workload, seed: u64, rounds: usize, worker_bin: &str) -> RemoteFleet {
    let proc_cfg = ProcessConfig {
        transport: WireTransport::Tcp,
        ..ProcessConfig::default()
    };
    RemoteFleet::new(
        worker_bin,
        vec!["worker".to_owned()],
        proc_cfg,
        w.train_config(seed, rounds),
    )
}

/// Runs the workload for `rounds` rounds and discards the result: the
/// warm-up, and the whole of a set-up sample.
pub fn warm_up(w: &Workload, seed: u64, worker_bin: &str) -> Result<(), String> {
    match w.driver {
        Driver::RemoteTcp => remote_fleet(w, seed, WARMUP_ROUNDS, worker_bin)
            .run()
            .map(|_| ())
            .map_err(|e| format!("remote warm-up failed: {e}")),
        Driver::Async | Driver::Sync => {
            train(&w.train_config(seed, WARMUP_ROUNDS));
            Ok(())
        }
    }
}

/// The timed run. With `telemetry` the program's own tracer is on for the
/// timed window and the 12-stage attribution is reported on top.
pub fn run(
    w: &Workload,
    seed: u64,
    rounds: usize,
    worker_bin: &str,
    telemetry: bool,
) -> Result<Report, String> {
    warm_up(w, seed, worker_bin)?;
    let mut r = Report::default();
    let shed0 = counter("stellaris_cache_queue_shed_total");
    let (learner0, actor0) = (exec_us("learner"), exec_us("actor"));
    if telemetry {
        trace::enable();
    }
    let wire0 = loopback_bytes();
    let t0 = Instant::now();
    let outcome = match w.driver {
        Driver::RemoteTcp => Outcome::Remote(
            remote_fleet(w, seed, rounds, worker_bin)
                .run()
                .map_err(|e| format!("remote run failed: {e}"))?,
        ),
        Driver::Async | Driver::Sync => Outcome::Local(train(&w.train_config(seed, rounds))),
    };
    let wall = t0.elapsed().as_secs_f64();
    let wire = loopback_bytes().saturating_sub(wire0);
    if telemetry {
        trace::flush_thread();
        trace::disable();
        attribution_metrics(&mut r);
    }
    let shed = counter("stellaris_cache_queue_shed_total") - shed0;
    let steps = rounds as u64 * w.steps_per_round();

    r.metric("env_steps_per_s", steps as f64 / wall);
    r.metric("peak_rss_mib", peak_rss_mib());
    r.metric(
        "core.remote.wire_bytes_per_step",
        wire as f64 / steps as f64,
    );
    r.metric("cache.queue.shed_total", shed as f64);

    let want_invocations = rounds as u64 * w.invocations_per_round();
    match outcome {
        Outcome::Local(res) => local_metrics(w, &res, seed, steps, want_invocations, shed, &mut r),
        Outcome::Remote(rep) => {
            // §VIII-A bill over what the fleet's platform recorded: the
            // same per-function-second prices `bill_serverless` applies.
            let cluster = Cluster::regular();
            let usd = (exec_us("learner") - learner0) as f64 / 1e6 * cluster.learner_fn_price()
                + (exec_us("actor") - actor0) as f64 / 1e6 * cluster.actor_fn_price();
            r.metric("serverless.usd_per_mstep", usd * 1e6 / steps as f64);
            remote_metrics(&rep, want_invocations, &mut r);
        }
    }
    Ok(r)
}

enum Outcome {
    Local(TrainResult),
    Remote(RemoteRunReport),
}

fn local_metrics(
    w: &Workload,
    res: &TrainResult,
    seed: u64,
    steps: u64,
    want_invocations: u64,
    shed: u64,
    r: &mut Report,
) {
    r.metric(
        "serverless.usd_per_mstep",
        res.cost.total() * 1e6 / steps as f64,
    );

    let durations: Vec<f64> = res.rows.iter().map(|row| row.round_duration_s).collect();
    r.metric("core.round_s_p50", quantile(&durations, 0.5));
    let tail = tail_quantile(durations.len(), 0.90);
    r.metric("core.round_s_p90", quantile(&durations, tail));
    r.metric("core.timer.actor_sampling_s", res.timers.actor_sampling_s);
    r.metric("core.timer.gradient_s", res.timers.gradient_s);
    r.metric("core.timer.aggregation_s", res.timers.aggregation_s);
    r.metric("core.timer.cache_s", res.timers.cache_s);
    r.metric("core.timer.data_loading_s", res.timers.data_loading_s);
    r.metric("core.learner_invocations", res.learner_invocations as f64);
    r.metric("core.policy_updates", res.policy_updates as f64);
    r.metric("core.grads_aggregated", res.grads_aggregated as f64);
    r.metric(
        "core.grad_yield",
        res.grads_aggregated as f64 / res.learner_invocations.max(1) as f64,
    );
    let n = res.staleness_log.len().max(1) as f64;
    r.metric(
        "core.staleness_mean",
        res.staleness_log.iter().sum::<u64>() as f64 / n,
    );
    r.metric("core.staleness_max", res.max_staleness() as f64);
    r.metric("core.degraded_rounds", res.degraded_rounds as f64);
    r.metric("serverless.cold_starts", res.cold_starts as f64);

    // The async round loop gives up on a round's step target after 120 s;
    // every minibatch a collected batch yields is invoked before shutdown.
    let slow_rounds = durations.iter().filter(|d| **d >= 120.0).count() as u64;
    let missed = slow_rounds + u64::from(res.learner_invocations < want_invocations);

    let snap = &res.final_snapshot;
    r.check(
        "weights_finite",
        snap.flat.iter().all(|x| x.is_finite()),
        format!("{} scalars", snap.flat.len()),
    );
    r.check(
        "version_advanced",
        snap.version > 0,
        format!("final version {}", snap.version),
    );
    r.check(
        "slots_leaked",
        res.slots_leaked == 0,
        format!("{} leaked", res.slots_leaked),
    );
    r.check(
        "degraded_rounds",
        res.degraded_rounds == 0,
        format!("{} degraded", res.degraded_rounds),
    );
    r.check(
        "step_targets_met",
        res.rows.len() as u64 * w.steps_per_round() == steps && missed == 0,
        format!(
            "{} rows, {} of {want_invocations} invocations, {slow_rounds} timed-out rounds",
            res.rows.len(),
            res.learner_invocations
        ),
    );

    if w.driver == Driver::Sync {
        r.checksum = Some(snapshot_checksum(snap));
    }
    if let Some(target) = w.reward_target {
        // Seconds until the 5-round moving average of the per-round
        // evaluation reward first reaches the target; 0 when it never does
        // (some seeds plateau below it — see README).
        let rewards: Vec<f32> = res.rows.iter().map(|row| row.reward).collect();
        let hit = (TARGET_WINDOW..=rewards.len()).find(|end| {
            let window = &rewards[end - TARGET_WINDOW..*end];
            window.iter().sum::<f32>() / TARGET_WINDOW as f32 >= target
        });
        r.metric(
            "core.time_to_target_s",
            hit.map_or(0.0, |end| res.rows[end - 1].wall_time_s),
        );
    }
    if let Some(floor) = w.reward_floor {
        let reward = final_reward(w, snap, seed);
        r.check(
            "reward_floor",
            reward >= floor,
            format!("reward {reward:.2} vs floor {floor}"),
        );
    }

    r.attempted = res.learner_invocations;
    r.failed = shed + res.degraded_rounds + res.faults.exhausted + missed;
}

/// Mean return of the final weights over three fresh episodes, outside the
/// timed window.
fn final_reward(w: &Workload, snap: &PolicySnapshot, seed: u64) -> f32 {
    let mut policy = w.policy(seed);
    policy.load_snapshot(snap);
    let mut env = make_env(w.env, EnvConfig::default());
    evaluate(&policy, env.as_mut(), 3, seed ^ 0xbe7c)
}

fn remote_metrics(rep: &RemoteRunReport, want_invocations: u64, r: &mut Report) {
    r.metric("core.learner_invocations", rep.learner_invocations as f64);
    r.metric("core.grads_aggregated", rep.grads_aggregated as f64);
    r.metric(
        "core.grad_yield",
        rep.grads_aggregated as f64 / rep.learner_invocations.max(1) as f64,
    );
    r.metric("core.policy_updates", rep.final_version as f64);
    let n = rep.staleness_log.len().max(1) as f64;
    r.metric(
        "core.staleness_mean",
        rep.staleness_log.iter().sum::<u64>() as f64 / n,
    );
    r.metric(
        "core.staleness_max",
        rep.staleness_log.iter().max().copied().unwrap_or(0) as f64,
    );
    r.metric("core.remote.full_pulls", rep.policy_full_pulls as f64);
    r.metric("core.remote.delta_pulls", rep.policy_delta_pulls as f64);
    r.metric(
        "core.remote.policy_bytes_full",
        rep.policy_bytes_full as f64,
    );
    r.metric(
        "core.remote.policy_bytes_delta",
        rep.policy_bytes_delta as f64,
    );
    r.metric("core.remote.recovered", rep.recovered as f64);
    r.metric("serverless.process.cold_spawns", rep.cold_spawns as f64);
    r.metric("serverless.process.warm_reuses", rep.warm_reuses as f64);
    r.metric("serverless.cold_starts", rep.cold_spawns as f64);

    r.check(
        "version_advanced",
        rep.final_version > 0,
        format!("final version {}", rep.final_version),
    );
    // With faults off every minibatch is one successful invocation (cold
    // worker inits are recorded on top); the staleness gate may still hold
    // the last few gradients pending when the run ends.
    r.check(
        "step_targets_met",
        rep.learner_invocations >= want_invocations,
        format!(
            "{} invocations for {want_invocations} minibatches",
            rep.learner_invocations
        ),
    );
    r.check(
        "degraded_rounds",
        rep.faults.exhausted == 0,
        format!("{} exhausted", rep.faults.exhausted),
    );
    r.checksum = Some(rep.final_checksum);
    r.attempted = rep.learner_invocations;
    r.failed = rep.faults.exhausted + want_invocations.saturating_sub(rep.learner_invocations);
}

/// Reads the program's own trace of the timed window and reports the
/// 12-stage blame table as fractions of round wall.
fn attribution_metrics(r: &mut Report) {
    let events: Vec<AttrEvent> = trace::drain().iter().map(AttrEvent::from_event).collect();
    let attr = attribute(&events);
    let wall = attr.wall_us().max(1) as f64;
    r.metric("attr.coverage", attr.coverage());
    let totals = attr.stage_totals();
    for stage in ALL_STAGES {
        let blamed = totals.get(&stage).map_or(0, |b| b.blamed_us);
        r.metric(
            &format!("attr.{}_frac", stage_name(stage)),
            blamed as f64 / wall,
        );
    }
    r.metric("telemetry.dropped_events", trace::dropped_events() as f64);
}
