//! The Stellaris training orchestrator (Fig. 4's workflow), in process.
//!
//! [`train`] drives the schedules of [`crate::cycle`] over
//! `local::LocalActors` and `local::LocalLearners`, whose function bodies
//! run on threads behind the serverless platform. `Async` learners run
//! [`crate::cycle::async_round`], so staleness is emergent from genuine
//! thread racing, not scripted. `Sync` runs
//! [`crate::cycle::lockstep_round`], the RLlib-style baselines and, at
//! `n = 1`, MinionsRL's single learner. Both close their rounds through one ledger: each round's
//! counters are tallied where it ends, and its policy is judged —
//! evaluation episodes and the probe KL, on a host of its own — right after
//! it (lock-step) or while the next round runs (asynchronous).

use std::collections::VecDeque;
use std::time::Duration;

use stellaris_envs::{make_env, Env};
use stellaris_nn::{OptimizerKind, Tensor};
use stellaris_rl::{evaluate, DistParams, PolicyNet, PolicySnapshot};
use stellaris_serverless::{
    bill_hybrid, bill_serverful, bill_serverless, CostBreakdown, FaultReport, FunctionKind,
    Platform,
};
use stellaris_telemetry as telemetry;

use crate::config::{Deployment, LearnerMode, TrainConfig};
use crate::cycle::{async_round, fresh_net, lockstep_round, CycleTotals};
use crate::local::{LocalActors, LocalLearners, Pending, Resident, Run};
use crate::metrics::{TimerReport, TrainRow};
use crate::parameter::ShardedParameterServer;

/// Everything a finished training job reports.
#[derive(Clone, Debug)]
pub struct TrainResult {
    /// Per-round metric rows.
    pub rows: Vec<TrainRow>,
    /// Staleness of every aggregated gradient (Fig. 3b data).
    pub staleness_log: Vec<u64>,
    /// Component timers (Fig. 14 data).
    pub timers: TimerReport,
    /// Final evaluation reward.
    pub final_reward: f32,
    /// Total cost in USD under the configured billing model.
    pub cost: CostBreakdown,
    /// Total wall-clock seconds.
    pub wall_time_s: f64,
    /// Total learner-function invocations.
    pub learner_invocations: u64,
    /// Total policy updates.
    pub policy_updates: u64,
    /// GPU-slot utilisation over the run (Fig. 3a data).
    pub gpu_utilization: f64,
    /// Cold starts paid.
    pub cold_starts: u64,
    /// Configuration label.
    pub label: String,
    /// The final trained policy weights (loadable via
    /// `PolicyNet::load_snapshot` into an architecture-compatible net).
    pub final_snapshot: stellaris_rl::PolicySnapshot,
    /// Gradients actually folded into the policy (each contributes one
    /// `staleness_log` entry).
    pub grads_aggregated: u64,
    /// Rounds in which at least one invocation or transfer exhausted its
    /// retries and the round proceeded with fewer gradients (the quorum
    /// degradation path).
    pub degraded_rounds: u64,
    /// Platform slots not returned by the end of the run. Must be zero:
    /// anything else means a permit leaked through a failure path.
    pub slots_leaked: u64,
    /// Everything the fault plan injected and every retry it observed.
    pub faults: FaultReport,
}

impl TrainResult {
    /// Mean reward over the last `n` rounds (stable "final reward" metric).
    pub fn final_reward_mean(&self, n: usize) -> f32 {
        let tail = &self.rows[self.rows.len().saturating_sub(n)..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().map(|r| r.reward).sum::<f32>() / tail.len() as f32
        }
    }

    /// Largest observed gradient staleness, `0` when nothing was aggregated
    /// (degenerate configs with zero policy updates must not panic here).
    pub fn max_staleness(&self) -> u64 {
        self.staleness_log.iter().max().copied().unwrap_or(0)
    }
}

/// The canonical starting policy: fresh weights, or the configured resume
/// snapshot loaded on top (function bodies still start from fresh weights
/// and pull the canonical ones on their first cycle).
fn initial_policy(cfg: &TrainConfig) -> PolicyNet {
    let mut policy = fresh_net(cfg);
    if let Some(snap) = &cfg.initial_snapshot {
        use stellaris_nn::ParamSet;
        assert_eq!(
            snap.flat.len(),
            policy.num_scalars(),
            "resume snapshot does not match this config's architecture"
        );
        policy.load_snapshot(snap);
    }
    policy
}

/// The one constructor of the parameter function: the configured starting
/// policy, the topology's aggregation rule and Adam (the paper's optimizer
/// for both algorithms). [`train`] and `RemoteFleet::run` both obtain their
/// server here.
pub fn parameter_plane(cfg: &TrainConfig) -> ShardedParameterServer {
    ShardedParameterServer::new(initial_policy(cfg), cfg.learner_mode.rule(), 1, || {
        OptimizerKind::Adam.build(cfg.algo.lr())
    })
}

/// Runs a training job: the asynchronous schedule for `Async` learners,
/// the lock-step one for `Sync`, both over in-process actor and learner
/// halves.
pub fn train(cfg: &TrainConfig) -> TrainResult {
    let n_learners = match cfg.learner_mode {
        LearnerMode::Async { .. } => cfg.max_learners.max(1),
        LearnerMode::Sync { n } => n.max(1),
    };
    let run = Run::start(cfg, n_learners);
    let asynchronous = run.asynchronous();
    let ledger = std::thread::scope(|s| {
        let mut actors = LocalActors::new(s, &run);
        let mut learners = LocalLearners::new(s, &run, n_learners);
        let judge = Resident::spawn(s, Judge::new(cfg));
        let mut ledger = Ledger::default();
        let mut totals = CycleTotals::default();
        let mut staged = None;
        // The asynchronous round whose policy is judged while the next runs.
        let mut judging = None;
        for round in 0..cfg.rounds {
            let mut round_span = telemetry::span_with("core.round", vec![("round", round.into())]);
            let (server, timers) = (&run.server, &run.timers);
            let Ok(()) = if asynchronous {
                let lead = round + 1 < cfg.rounds;
                async_round(
                    &mut actors,
                    &mut learners,
                    server,
                    cfg,
                    timers,
                    &mut totals,
                    &mut staged,
                    lead,
                )
            } else {
                lockstep_round(&mut actors, &mut learners, server, cfg, timers, &mut totals)
            };
            // The round's close: its judge dispatched, its row tallied, the
            // last round's verdict recorded.
            let _close = telemetry::span("core.round_close");
            if let Some((row, judged)) = judging.take() {
                ledger.close(row, verdict(judged), &mut actors);
            }
            // The judge is handed the probe once, by move, the first round
            // it exists.
            let probe = totals.probe_obs.take();
            let snap = server.snapshot();
            let judged = judge.invoke(move |judge| judge.judge(&snap, probe));
            if asynchronous {
                judging = Some((ledger.tally(&run, round, &totals, &mut round_span), judged));
            } else {
                let verdict = verdict(judged);
                let row = ledger.tally(&run, round, &totals, &mut round_span);
                ledger.close(row, verdict, &mut actors);
            }
        }
        if let Some((row, judged)) = judging {
            ledger.close(row, verdict(judged), &mut actors);
        }
        ledger
    });
    report(run, ledger)
}

/// Assembles the job's report. Every server accessor takes and releases
/// its own guard, so none is held across a platform lock.
fn report(run: Run, ledger: Ledger) -> TrainResult {
    let (cfg, platform) = (run.cfg, &run.platform);
    let wall = run.start.elapsed();
    let mut timers = run.timers.report();
    // Startup overhead from the platform's own accounting.
    timers.startup_s = platform
        .records()
        .iter()
        .map(|r| r.startup.as_secs_f64())
        .sum();
    let (cold_starts, _) = platform.start_counts();
    TrainResult {
        staleness_log: run.server.staleness_log().to_vec(),
        timers,
        final_reward: ledger.rows.last().map(|r| r.reward).unwrap_or(0.0),
        cost: cost_for(cfg, platform, wall),
        wall_time_s: wall.as_secs_f64(),
        learner_invocations: learner_invocations(platform),
        policy_updates: run.server.updates(),
        gpu_utilization: platform.gpu_utilization(),
        cold_starts,
        label: cfg.label(),
        final_snapshot: run.server.snapshot(),
        grads_aggregated: run.server.grads_aggregated(),
        degraded_rounds: ledger.degraded_rounds,
        slots_leaked: platform.leaked_slots(),
        faults: platform.faults().report(),
        rows: ledger.rows,
    }
}

/// Judges a round's policy: its evaluation reward, and the mean KL from
/// the policy judged before it on a fixed probe (the first observation
/// batch any actor produced).
struct Judge {
    env: Box<dyn Env>,
    policy: PolicyNet,
    episodes: usize,
    seed: u64,
    probe_obs: Option<Tensor>,
    /// The previously judged policy on the probe.
    prev_probe: Option<DistParams>,
}

impl Judge {
    fn new(cfg: &TrainConfig) -> Self {
        Self {
            env: make_env(cfg.env_id, cfg.env_cfg),
            policy: fresh_net(cfg),
            episodes: cfg.eval_episodes,
            seed: cfg.seed ^ 0xe7a1,
            probe_obs: None,
            prev_probe: None,
        }
    }

    /// Returns `snap`'s `(reward, policy_kl)`, taking the `probe` when it
    /// first exists. The probe KL is a forward pass over a full actor batch
    /// — the other half of judging the policy — so it is staged with the
    /// evaluation episodes.
    fn judge(&mut self, snap: &PolicySnapshot, probe: Option<Tensor>) -> (f32, f32) {
        let mut eval = telemetry::span("core.eval");
        self.probe_obs = self.probe_obs.take().or(probe);
        // The round the probe first appears, `policy` still holds the
        // weights the KL is measured from (the initial net in round 0).
        let prev_probe = self.prev_probe.take().or_else(|| {
            let obs = self.probe_obs.as_ref()?;
            Some(self.policy.dist_params(obs))
        });
        self.policy.load_snapshot(snap);
        let reward = evaluate(&self.policy, self.env.as_mut(), self.episodes, self.seed);
        self.prev_probe = self
            .probe_obs
            .as_ref()
            .map(|obs| self.policy.dist_params(obs));
        let policy_kl = match (&prev_probe, &self.prev_probe) {
            (Some(prev), Some(cur)) => prev.mean_kl_to(cur),
            _ => 0.0,
        };
        eval.field("reward", f64::from(reward));
        (reward, policy_kl)
    }
}

/// Waits for a round's `(reward, policy_kl)` from its judge. The judge's
/// host outlives every round, so the verdict always comes back.
fn verdict(judged: Pending<(f32, f32)>) -> (f32, f32) {
    judged.joined().unwrap_or_default()
}

/// The per-round record: the running totals at the last round's end, and
/// the rows so far.
#[derive(Default)]
struct Ledger {
    rows: Vec<TrainRow>,
    /// When the last round ended, from the run's start.
    last_round_end: Duration,
    prev_updates: u64,
    prev_invocations: u64,
    prev_episodes: u64,
    prev_staleness_len: u64,
    prev_degraded: u64,
    degraded_rounds: u64,
}

impl Ledger {
    /// Ends `round`: advances the staleness schedule and takes the round's
    /// counters. The row still lacks its judge's verdict.
    fn tally(
        &mut self,
        run: &Run,
        round: usize,
        totals: &CycleTotals,
        round_span: &mut telemetry::SpanGuard,
    ) -> TrainRow {
        let server = &run.server;
        server.advance_round();
        let staleness_len = server.staleness_log().recorded();
        let new = (staleness_len - self.prev_staleness_len) as usize;
        let mean_staleness = server.mean_recent_staleness(new.max(1));
        let updates = server.updates();
        let invocations = learner_invocations(&run.platform);
        let now = run.start.elapsed();
        let cost = cost_for(run.cfg, &run.platform, now);
        let row = TrainRow {
            round,
            wall_time_s: now.as_secs_f64(),
            round_duration_s: (now - self.last_round_end).as_secs_f64(),
            learner_invocations: invocations - self.prev_invocations,
            episodes: totals.episodes - self.prev_episodes,
            reward: 0.0,
            mean_staleness,
            cost_usd: cost.total(),
            learner_cost_usd: cost.learner_usd,
            actor_cost_usd: cost.actor_usd,
            policy_updates: updates - self.prev_updates,
            policy_kl: 0.0,
        };
        self.last_round_end = now;
        self.prev_updates = updates;
        self.prev_invocations = invocations;
        self.prev_episodes = totals.episodes;
        self.prev_staleness_len = staleness_len;
        if totals.degraded > self.prev_degraded {
            self.degraded_rounds += 1;
            round_span.field("degraded", true);
            telemetry::recorder::note_degraded_round();
        }
        self.prev_degraded = totals.degraded;
        let metrics = telemetry::global();
        metrics
            .gauge("stellaris_core_degraded_rounds")
            .set(self.degraded_rounds as f64);
        round_span.field("mean_staleness", mean_staleness);
        metrics.counter("stellaris_core_rounds_total").inc();
        row
    }

    /// Records `row` with its judge's `(reward, policy_kl)` and lets the
    /// fleet's actors rescale on the reward.
    fn close(&mut self, row: TrainRow, (reward, policy_kl): (f32, f32), actors: &mut LocalActors) {
        actors.rescale(reward);
        self.rows.push(TrainRow {
            reward,
            policy_kl,
            ..row
        });
    }
}

/// Learner-function invocations the platform has counted (failures
/// included; a lock-step hold is billed but is not an invocation).
pub(crate) fn learner_invocations(platform: &Platform) -> u64 {
    platform.invocations(FunctionKind::Learner)
}

fn cost_for(cfg: &TrainConfig, platform: &Platform, wall: Duration) -> CostBreakdown {
    let records = platform.records();
    match cfg.deployment {
        Deployment::Serverless => bill_serverless(&cfg.cluster, &records),
        Deployment::Serverful => bill_serverful(&cfg.cluster, wall),
        Deployment::Hybrid => {
            let actor_records: Vec<_> = records
                .iter()
                .copied()
                .filter(|r| r.kind == FunctionKind::Actor)
                .collect();
            bill_hybrid(&cfg.cluster, wall, &actor_records)
        }
    }
}

/// Smoothed reward curve: mean over a trailing window (used by figures).
pub fn smooth(rewards: &[f32], window: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(rewards.len());
    // bound: popped back down to `window` on every push below.
    let mut buf: VecDeque<f32> = VecDeque::new();
    for &r in rewards {
        buf.push_back(r);
        if buf.len() > window.max(1) {
            buf.pop_front();
        }
        out.push(buf.iter().sum::<f32>() / buf.len() as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::AggregationRule;
    use crate::remote::snapshot_checksum;
    use stellaris_envs::EnvId;

    #[test]
    fn async_tiny_run_completes_with_sane_metrics() {
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 1);
        let res = train(&cfg);
        assert_eq!(res.rows.len(), 3);
        assert!(
            res.learner_invocations > 0,
            "learners must have been invoked"
        );
        assert!(res.policy_updates > 0, "policy must have been updated");
        assert!(res.final_reward.is_finite());
        assert!(res.cost.total() > 0.0);
        assert!(res.wall_time_s > 0.0);
        for row in &res.rows {
            assert!(row.reward.is_finite());
            assert!(row.cost_usd >= 0.0);
        }
        // Cumulative cost is nondecreasing.
        for w in res.rows.windows(2) {
            assert!(w[1].cost_usd >= w[0].cost_usd - 1e-12);
        }
    }

    #[test]
    fn sync_tiny_run_completes() {
        let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 2);
        cfg.learner_mode = LearnerMode::Sync { n: 2 };
        cfg.deployment = Deployment::Serverful;
        let res = train(&cfg);
        assert_eq!(res.rows.len(), 3);
        assert!(res.policy_updates > 0);
        assert_eq!(
            res.staleness_log.iter().max().copied().unwrap_or(0),
            0,
            "synchronous learners never see staleness"
        );
        assert!(
            res.cost.total() > 0.0,
            "serverful billing charges wall time"
        );
        assert_eq!(res.degraded_rounds, 0);
    }

    /// `TrainRow::policy_kl` per round, frozen at the commit that still
    /// forwarded the probe through a second `PolicyNet` every round
    /// (identical in debug and release). The `ChainMdp` rounds 2–3 were
    /// re-pinned when the Tanh activations moved from the platform libm's
    /// `tanhf` to `nn::gemm::tanh`, and again when every product kernel
    /// moved to one fused multiply-add per term (a KL move under 0.5%); the
    /// `Sync { n: 2 }` fold is unchanged.
    #[test]
    fn policy_kl_golden() {
        for (env, seed, golden) in [
            (
                EnvId::PointMass,
                3,
                [0x395a_cb00u32, 0x3833_6600, 0x3772_2000],
            ),
            (EnvId::ChainMdp, 2, [0x36cb_37a8, 0x362f_ccec, 0x363b_9b02]),
        ] {
            let mut cfg = TrainConfig::test_tiny(env, seed);
            cfg.learner_mode = LearnerMode::Sync { n: 2 };
            cfg.deployment = Deployment::Serverful;
            let kl: Vec<u32> = train(&cfg)
                .rows
                .iter()
                .map(|r| r.policy_kl.to_bits())
                .collect();
            assert_eq!(kl, golden, "{env:?}");
        }
    }

    /// `snapshot_checksum` of the final policy of lock-step SpaceInvaders
    /// runs: the only goldens whose training path passes through the
    /// convolutions, forward (actors, critic batch, probe) and backward.
    /// Identical in debug and release, and on the explicit AVX-512, the
    /// portable and the FMA-less `x86-64` builds, which run different
    /// convolution kernels. Re-pinned when every product kernel moved to one
    /// fused multiply-add per term, which rounds once where the separate
    /// multiply and add rounded twice.
    #[test]
    fn cnn_sync_golden() {
        use stellaris_envs::EnvConfig;
        for (seed, frames_42, golden) in [
            (1, false, 0xcba4_a63d_e104_d8c1u64),
            (5, false, 0x6f14_5cb3_2e98_bcb2),
            (1, true, 0xc0ff_9b80_eda8_50f5),
            (5, true, 0x593a_4058_994e_f5a2),
        ] {
            let mut cfg = TrainConfig::test_tiny(EnvId::SpaceInvaders, seed);
            cfg.learner_mode = LearnerMode::Sync { n: 2 };
            cfg.deployment = Deployment::Serverful;
            if frames_42 {
                cfg.env_cfg = EnvConfig::default();
                cfg.rounds = 2;
            }
            let got = snapshot_checksum(&train(&cfg).final_snapshot);
            assert_eq!(
                format!("{got:016x}"),
                format!("{golden:016x}"),
                "seed {seed}, 42-px frames {frames_42}"
            );
        }
    }

    #[test]
    fn single_learner_mode_runs() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 3);
        cfg.learner_mode = LearnerMode::Sync { n: 1 };
        let res = train(&cfg);
        assert!(res.policy_updates > 0);
    }

    #[test]
    fn async_staleness_emerges_with_multiple_learners() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 4);
        cfg.learner_mode = LearnerMode::Async {
            rule: AggregationRule::PureAsync,
        };
        cfg.max_learners = 4;
        cfg.rounds = 4;
        let res = train(&cfg);
        assert!(!res.staleness_log.is_empty());
        // With four racing learners some gradient should arrive stale.
        // (`max_staleness()` instead of `.max().unwrap()`: the latter
        // panicked on empty logs in degenerate zero-update configs.)
        let max_staleness = res.max_staleness();
        assert!(
            max_staleness >= 1,
            "expected some staleness, got {max_staleness}"
        );
    }

    #[test]
    fn zero_update_run_reports_zero_staleness_without_panicking() {
        // Regression: a config whose learners all fail produces zero policy
        // updates and an empty staleness log. `max_staleness()` must report
        // 0 — the old `.max().copied().unwrap()` idiom panicked here.
        use stellaris_serverless::{FaultConfig, RetryPolicy};
        let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 7);
        cfg.rounds = 1;
        // Serverful actors bypass the platform, so trajectories still flow;
        // every learner invocation fails with no retry budget.
        cfg.deployment = Deployment::Serverful;
        cfg.faults = FaultConfig {
            seed: 7,
            invoke_failure: 1.0,
            ..FaultConfig::off()
        };
        cfg.retry = RetryPolicy::none();
        let res = train(&cfg);
        assert_eq!(res.policy_updates, 0, "all learners failed");
        assert!(res.staleness_log.is_empty());
        assert_eq!(res.max_staleness(), 0, "empty log must report 0, not panic");
        assert_eq!(res.grads_aggregated, 0);
        assert!(res.degraded_rounds >= 1, "the starved round is degraded");
        assert!(res.faults.injected_failures > 0);
        assert!(res.faults.exhausted > 0);
        assert_eq!(res.slots_leaked, 0);
        assert_eq!(res.rows.len(), 1, "the run still completes its round");
    }

    #[test]
    fn smooth_is_trailing_mean() {
        let s = smooth(&[1.0, 3.0, 5.0, 7.0], 2);
        assert_eq!(s, vec![1.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn dynamic_actors_run() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 5);
        cfg.dynamic_actors = true;
        cfg.n_actors = 3;
        let res = train(&cfg);
        assert_eq!(res.rows.len(), cfg.rounds);
    }

    /// Regression: the lock-step schedule ignored `dynamic_actors`, so
    /// MinionsRL (`Sync { n: 1 }`) ran without its actor scaling. Round 0 now
    /// collects on two of four actor slots, so it draws other episodes.
    #[test]
    fn sync_schedule_honours_dynamic_actors() {
        let run = |dynamic| {
            let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 6);
            cfg.learner_mode = LearnerMode::Sync { n: 1 };
            cfg.n_actors = 4;
            cfg.rounds = 2;
            cfg.dynamic_actors = dynamic;
            snapshot_checksum(&train(&cfg).final_snapshot)
        };
        assert_eq!(run(true), run(true), "lock-step stays deterministic");
        assert_ne!(run(true), run(false), "the active actors changed");
    }

    /// Both schedules consume `round_timesteps / actor_steps` collects a
    /// round, dealt over the actor slots: three of 32 steps at 100, where
    /// lock-step used to run two full waves of two (128 steps).
    #[test]
    fn indivisible_budget_is_the_same_for_both_schedules() {
        for mode in [
            LearnerMode::Sync { n: 1 },
            LearnerMode::Async {
                rule: AggregationRule::PureAsync,
            },
        ] {
            let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 1);
            cfg.round_timesteps = 100;
            cfg.learner_mode = mode;
            let res = train(&cfg);
            let invocations: Vec<u64> = res.rows.iter().map(|r| r.learner_invocations).collect();
            assert_eq!(invocations, vec![3; cfg.rounds], "{}", cfg.label());
        }
    }

    /// Two lock-step learners finish a wave apart, so the earlier one's
    /// wait is billed as a hold each wave (`bill_hold_adds_slot_time` in
    /// the platform pins that the hold stays on the bill); the rows still
    /// count one invocation per mini-batch, four of 32 steps a round.
    #[test]
    fn lockstep_holds_are_billed_but_not_counted_as_invocations() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 1);
        cfg.learner_mode = LearnerMode::Sync { n: 2 };
        let res = train(&cfg);
        let invocations: Vec<u64> = res.rows.iter().map(|r| r.learner_invocations).collect();
        assert_eq!(invocations, vec![4; cfg.rounds]);
        assert_eq!(res.learner_invocations, 4 * cfg.rounds as u64);
    }
}
