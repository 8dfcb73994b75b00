//! The Stellaris training orchestrator (Fig. 4's workflow).
//!
//! The asynchronous path wires real threads through the distributed cache:
//! actor threads pull the latest policy and publish trajectory batches
//! (Step ①); a GPU data-loader thread stages GAE-processed mini-batches and
//! exports pointers (`Arc<SampleBatch>`) into the work queue (§V-B); learner
//! workers are invoked through the serverless platform, compute gradients
//! with the global IS-truncation cap and submit them to the cache (Step ②);
//! the parameter thread performs staleness-aware aggregation and publishes
//! each new policy snapshot (Step ③). Staleness is therefore *emergent*
//! from genuine thread racing, not scripted.
//!
//! The synchronous path implements the serverful baselines (RLlib-style
//! multi-learner data parallelism, single-learner MinionsRL): it is the
//! shared lock-step cycle ([`crate::cycle::lockstep_round`]) over
//! `LocalFleet` — scoped threads behind the serverless platform and the
//! router. Both schedules hold the same function bodies
//! ([`crate::cycle::ActorBody`], [`crate::cycle::LearnerBody`]), aggregate
//! through the one parameter plane ([`parameter_plane`]) and close their
//! rounds through the one ledger (`Run`).

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use stellaris_cache::{BlockingQueue, Cache, LatencyModel, ShardedGradientQueue};
use stellaris_envs::{make_env, Env};
use stellaris_nn::Tensor;
use stellaris_rl::{evaluate, fill_gae, DistParams, PolicyNet, PolicySnapshot, SampleBatch};
use stellaris_serverless::{
    bill_hybrid, bill_serverful, bill_serverless, CostBreakdown, FaultPlan, FaultReport,
    FunctionKind, OverheadMode, Platform, StartupProfile,
};
use stellaris_telemetry as telemetry;

use crate::aggregation::SspThrottle;
use crate::autoscale::LearnerAutoscaler;
use crate::config::{Deployment, LearnerMode, TrainConfig};
use crate::cycle::{fresh_net, lockstep_round, ActorBody, CycleTotals, Fleet, LearnerBody};
use crate::messages::GradientMsg;
use crate::metrics::{Component, TimerReport, Timers, TrainRow};
use crate::parameter::ShardedParameterServer;
use crate::transport::{Delivered, Placement, Router};
use crate::truncation::RatioBoard;

/// Cache key under which the canonical policy snapshot is published.
pub const POLICY_KEY: &str = "policy:latest";

/// Reads the published policy snapshot, mapping a missing or corrupt frame
/// (fault injection can corrupt stored bytes) to `None` so callers degrade
/// the wave instead of panicking mid-round.
fn read_snapshot(cache: &Cache) -> Option<PolicySnapshot> {
    cache.get_obj(POLICY_KEY).ok()
}

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

/// The one constructor of the parameter plane: the configured starting
/// policy, the topology's aggregation rule, `param_shards` shards and one
/// optimizer per shard. `train_async`, `train_sync` and
/// `RemoteFleet::run` all obtain their server here.
pub fn parameter_plane(cfg: &TrainConfig) -> ShardedParameterServer {
    ShardedParameterServer::new(
        initial_policy(cfg),
        cfg.learner_mode.rule(),
        cfg.param_shards,
        || cfg.optimizer.build(cfg.algo.lr()),
    )
}

/// Runs a training job, dispatching on the learner topology.
pub fn train(cfg: &TrainConfig) -> TrainResult {
    match cfg.learner_mode {
        LearnerMode::Async { .. } => train_async(cfg),
        LearnerMode::Sync { n } => train_sync(cfg, n.max(1)),
        LearnerMode::Single => train_sync(cfg, 1),
    }
}

/// What both in-process schedules run on and report through: the shared
/// substrates (cache, platform, router, timers, the parameter plane) and
/// the per-round ledger (evaluation, `TrainRow` assembly, degraded-round
/// accounting). The schedule itself — free-running threads or lock-step
/// waves — stays with the caller.
struct Run<'a> {
    cfg: &'a TrainConfig,
    start: Instant,
    cache: Arc<Cache>,
    platform: Arc<Platform>,
    router: Arc<Router>,
    timers: Arc<Timers>,
    server: Arc<ShardedParameterServer>,
    eval_env: Box<dyn Env>,
    eval_policy: PolicyNet,
    /// First observation batch any actor produced: the fixed probe the
    /// per-round policy KL is measured on.
    probe_obs: Option<Tensor>,
    /// The previous round's policy on the probe — what this round's KL is
    /// measured from.
    prev_probe: Option<DistParams>,
    rows: Vec<TrainRow>,
    last_round_end: Instant,
    prev_updates: u64,
    prev_invocations: u64,
    prev_episodes: u64,
    prev_staleness_len: u64,
    prev_degraded: u64,
    degraded_rounds: u64,
}

impl<'a> Run<'a> {
    /// Builds the substrates with `learner_slots` prewarmed learner
    /// functions and publishes the starting policy.
    fn start(cfg: &'a TrainConfig, learner_slots: usize) -> Self {
        let start = Instant::now();
        let cache = Arc::new(Cache::new(16, LatencyModel::lan_recorded()));
        let faults = Arc::new(FaultPlan::new(cfg.faults.clone()));
        let platform = Arc::new(
            Platform::new(
                learner_slots,
                cfg.n_actors,
                StartupProfile::default(),
                OverheadMode::Record,
            )
            .with_faults(faults.clone()),
        );
        let router = Arc::new(Router::with_faults(cache.clone(), faults));
        platform.prewarm(FunctionKind::Learner, learner_slots);
        platform.prewarm(FunctionKind::Actor, cfg.n_actors);
        let server = Arc::new(parameter_plane(cfg));
        // Snapshot first: `put_obj` locks cache shards, which must never
        // happen while a parameter-shard guard is live.
        let snapshot0 = server.snapshot();
        cache.put_obj(POLICY_KEY, &snapshot0);
        Self {
            cfg,
            start,
            cache,
            platform,
            router,
            timers: Arc::new(Timers::default()),
            server,
            eval_env: make_env(cfg.env_id, cfg.env_cfg),
            eval_policy: fresh_net(cfg),
            probe_obs: None,
            prev_probe: None,
            rows: Vec::with_capacity(cfg.rounds),
            last_round_end: Instant::now(),
            prev_updates: 0,
            prev_invocations: 0,
            prev_episodes: 0,
            prev_staleness_len: 0,
            prev_degraded: 0,
            degraded_rounds: 0,
        }
    }

    /// Closes one round: evaluates `snap` (the previous round's policy when
    /// the published frame was unreadable), advances the staleness
    /// schedule, and appends the round's `TrainRow` from the running totals
    /// `episodes` / `degraded_events`. Returns the evaluation reward.
    fn close_round(
        &mut self,
        round: usize,
        round_span: &mut telemetry::SpanGuard,
        snap: Option<PolicySnapshot>,
        episodes: u64,
        degraded_events: u64,
    ) -> f32 {
        let cfg = self.cfg;
        // The round the probe first appears, `eval_policy` still holds the
        // weights the KL is measured from (the initial net in round 0).
        let prev_probe = self.prev_probe.take().or_else(|| {
            let obs = self.probe_obs.as_ref()?;
            Some(self.eval_policy.dist_params(obs))
        });
        if let Some(snap) = snap {
            self.eval_policy.load_snapshot(&snap);
        }
        // The probe KL is a forward pass over a full actor batch — the
        // other half of judging the round's policy — so it is staged with
        // the evaluation episodes rather than left unattributed.
        let (reward, policy_kl) = {
            let _eval = telemetry::span("core.eval");
            let reward = evaluate(
                &self.eval_policy,
                self.eval_env.as_mut(),
                cfg.eval_episodes,
                cfg.seed ^ 0xe7a1,
            );
            self.prev_probe = self
                .probe_obs
                .as_ref()
                .map(|obs| self.eval_policy.dist_params(obs));
            let policy_kl = match (&prev_probe, &self.prev_probe) {
                (Some(prev), Some(cur)) => prev.mean_kl_to(cur),
                _ => 0.0,
            };
            (reward, policy_kl)
        };

        self.server.advance_round();
        let staleness_len = self.server.staleness_log().recorded();
        let new = (staleness_len - self.prev_staleness_len) as usize;
        let mean_staleness = self.server.mean_recent_staleness(new.max(1));
        let updates = self.server.updates();
        let invocations = learner_invocations(&self.platform);
        let cost = cost_for(cfg, &self.platform, self.start.elapsed());
        let now = Instant::now();
        self.rows.push(TrainRow {
            round,
            wall_time_s: self.start.elapsed().as_secs_f64(),
            round_duration_s: (now - self.last_round_end).as_secs_f64(),
            learner_invocations: invocations - self.prev_invocations,
            episodes: episodes - self.prev_episodes,
            reward,
            mean_staleness,
            cost_usd: cost.total(),
            learner_cost_usd: cost.learner_usd,
            actor_cost_usd: cost.actor_usd,
            policy_updates: updates - self.prev_updates,
            policy_kl,
        });
        self.last_round_end = now;
        self.prev_updates = updates;
        self.prev_invocations = invocations;
        self.prev_episodes = episodes;
        self.prev_staleness_len = staleness_len;
        if degraded_events > self.prev_degraded {
            self.degraded_rounds += 1;
            round_span.field("degraded", true);
            telemetry::recorder::note_degraded_round();
        }
        self.prev_degraded = degraded_events;
        let metrics = telemetry::global();
        metrics
            .gauge("stellaris_core_degraded_rounds")
            .set(self.degraded_rounds as f64);
        round_span.field("reward", f64::from(reward));
        round_span.field("mean_staleness", mean_staleness);
        metrics.counter("stellaris_core_rounds_total").inc();
        reward
    }

    /// Assembles the job's report. Every server accessor takes and releases
    /// its own shard guard, so none is held across a platform lock.
    fn finish(mut self, degraded_events: u64) -> TrainResult {
        // Worker threads outlive the last round's bookkeeping pass; losses
        // they report between that check and shutdown still degraded the
        // final round.
        if degraded_events > self.prev_degraded && self.cfg.rounds > 0 {
            self.degraded_rounds += 1;
        }
        let cfg = self.cfg;
        let platform = &self.platform;
        let wall = self.start.elapsed();
        let mut timers = self.timers.report();
        // Startup overhead + cache latency from the substrates' own accounting.
        timers.startup_s = platform
            .records()
            .iter()
            .map(|r| r.startup.as_secs_f64())
            .sum();
        let (cold_starts, _) = platform.start_counts();
        TrainResult {
            staleness_log: self.server.staleness_log().to_vec(),
            timers,
            final_reward: self.rows.last().map(|r| r.reward).unwrap_or(0.0),
            cost: cost_for(cfg, platform, wall),
            wall_time_s: wall.as_secs_f64(),
            learner_invocations: learner_invocations(platform),
            policy_updates: self.server.updates(),
            gpu_utilization: platform.gpu_utilization(cfg.max_learners),
            cold_starts,
            label: cfg.label(),
            final_snapshot: self.server.snapshot(),
            grads_aggregated: self.server.grads_aggregated(),
            degraded_rounds: self.degraded_rounds,
            slots_leaked: platform.leaked_slots(),
            faults: platform.faults().report(),
            rows: self.rows,
        }
    }
}

/// Learner-function invocations the platform has recorded (failures included).
pub(crate) fn learner_invocations(platform: &Platform) -> u64 {
    platform
        .records()
        .iter()
        .filter(|r| r.kind == FunctionKind::Learner)
        .count() as u64
}

/// Step ① for one actor slot, shared by both in-process schedules: pull
/// `snap` and collect through the platform's fault/retry/billing path
/// (serverful actors bypass it). `None` once the retry budget is spent.
fn invoke_collect(
    cfg: &TrainConfig,
    platform: &Platform,
    timers: &Timers,
    actor: &mut ActorBody,
    snap: &PolicySnapshot,
) -> Option<SampleBatch> {
    let mut collect = || {
        let _t = timers.span(Component::ActorSampling);
        actor.collect(snap, cfg.actor_steps)
    };
    if cfg.deployment == Deployment::Serverful {
        return Some(collect());
    }
    platform
        .invoke_retry(
            FunctionKind::Actor,
            &cfg.retry,
            cfg.invoke_deadline,
            &mut collect,
        )
        .ok()
        .map(|(batch, _rec)| batch)
}

/// The Step ②→③ hop, shared by both in-process schedules: a gradient
/// crosses from its learner's VM to the parameter function's host, subject
/// to frame drop/corruption with retry. `None` when it is permanently lost.
fn submit(
    cfg: &TrainConfig,
    router: &Router,
    msg: GradientMsg,
    key: &str,
) -> Option<Delivered<GradientMsg>> {
    let src = Placement {
        vm: 1 + msg.learner_id,
    };
    router
        .send_with_retry(
            Arc::new(msg),
            src,
            Placement { vm: 0 },
            false,
            key,
            &cfg.retry,
        )
        .ok()
        .map(|(_tier, delivered)| delivered)
}

// ---------------------------------------------------------------------------
// Asynchronous schedule (Stellaris and the Fig. 11a ablation baselines)
// ---------------------------------------------------------------------------

fn train_async(cfg: &TrainConfig) -> TrainResult {
    let mut run = Run::start(cfg, cfg.max_learners);
    let cache = run.cache.clone();
    let platform = run.platform.clone();
    let router = run.router.clone();
    let timers = run.timers.clone();
    let server = run.server.clone();

    let board = Arc::new(match cfg.truncation_rho {
        Some(rho) => RatioBoard::new(rho),
        None => RatioBoard::disabled(),
    });
    let throttle = cfg
        .learner_mode
        .rule()
        .ssp_bound()
        .map(|b| Arc::new(SspThrottle::new(b)));
    let autoscaler = Arc::new(if cfg.dynamic_learners {
        LearnerAutoscaler::new(1, cfg.max_learners.max(1))
    } else {
        LearnerAutoscaler::pinned(cfg.max_learners.max(1))
    });

    // The round gate below releases the next round's quota only once the
    // staged backlog is back under `full_pool_backlog()`, which bounds both
    // queues by the round, not by the run. Staleness-aware admission
    // (ROADMAP item 5) is the owner of anything finer.
    // bound: one round's actor batches; the data loader drains it continuously.
    let traj_q: Arc<BlockingQueue<SampleBatch>> = Arc::new(BlockingQueue::new());
    // bound: `full_pool_backlog()` plus one round's mini-batches; drained before `train_async` returns.
    let work_q: Arc<BlockingQueue<Arc<SampleBatch>>> = Arc::new(BlockingQueue::new());
    // Generous cap: learners produce at most one gradient apiece per round
    // and the aggregator drains every round, so the shed path only fires if
    // a consumer wedges — in which case dropping the *oldest* (stalest)
    // gradient is exactly what the staleness-aware rule would discount
    // anyway. Under normal operation no payload is ever shed, so bounding
    // the queue does not perturb same-seed reproducibility.
    let grad_cap = 8 * cfg.max_learners.max(8);
    // Learners hash into `grad_lanes` independent bounded MPSC lanes so a
    // 10k-learner fan-in never serialises on one queue lock; one lane (the
    // default) is a single bounded queue.
    let grad_q: Arc<ShardedGradientQueue<String>> =
        Arc::new(ShardedGradientQueue::bounded(cfg.grad_lanes, grad_cap));
    let stop = Arc::new(AtomicBool::new(false));
    let steps = Arc::new(AtomicU64::new(0));
    // Actors sample up to the current round's data budget and then idle,
    // so every topology consumes the same number of timesteps per round
    // (the paper fixes the per-round trajectory volume across baselines).
    // `sample_claims` hands out quota atomically so racing actors cannot
    // overshoot the budget.
    let astep = cfg.actor_steps as u64;
    // At least one actor batch per round: a quota of zero would let every
    // round "complete" without sampling anything.
    let round_quota = (cfg.round_timesteps as u64 / astep).max(1) * astep;
    let sample_target = Arc::new(AtomicU64::new(round_quota));
    let sample_claims = Arc::new(AtomicU64::new(0));
    let episodes = Arc::new(AtomicU64::new(0));
    // Retry-exhausted invocations/transfers: each one means some work was
    // permanently lost and the round degraded to a quorum of what arrived.
    let degraded_events = Arc::new(AtomicU64::new(0));
    let active_actors = Arc::new(AtomicUsize::new(if cfg.dynamic_actors {
        (cfg.n_actors / 2).max(1)
    } else {
        cfg.n_actors
    }));
    let probe_obs: Arc<Mutex<Option<Tensor>>> = Arc::new(Mutex::new(None));

    let gamma = cfg.algo.gamma();
    let lambda = cfg.algo.gae_lambda();

    crossbeam::thread::scope(|s| {
        // ----- actors (Step ①) -------------------------------------------------
        for a in 0..cfg.n_actors {
            let cache = cache.clone();
            let platform = platform.clone();
            let traj_q = traj_q.clone();
            let stop = stop.clone();
            let steps = steps.clone();
            let episodes = episodes.clone();
            let timers = timers.clone();
            let active = active_actors.clone();
            let probe = probe_obs.clone();
            let target_steps = sample_target.clone();
            let claims = sample_claims.clone();
            let degraded = degraded_events.clone();
            let cfg = cfg.clone();
            s.spawn(move |_| {
                let mut actor = ActorBody::new(&cfg, a);
                while !stop.load(Ordering::Acquire) {
                    if a >= active.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    // Claim one collect's worth of this round's quota.
                    let claimed = claims.fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                        (c + cfg.actor_steps as u64 <= target_steps.load(Ordering::Acquire))
                            .then_some(c + cfg.actor_steps as u64)
                    });
                    if claimed.is_err() {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    // An unreadable snapshot or a spent retry budget loses
                    // this collect: refund the claimed quota so the round's
                    // data budget can still be met by a later attempt (here
                    // or on another actor).
                    let batch = read_snapshot(&cache).and_then(|snap| {
                        invoke_collect(&cfg, &platform, &timers, &mut actor, &snap)
                    });
                    let Some(batch) = batch else {
                        claims.fetch_sub(cfg.actor_steps as u64, Ordering::AcqRel);
                        degraded.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    {
                        let mut p = probe.lock();
                        if p.is_none() {
                            *p = Some(batch.obs.clone());
                        }
                    }
                    steps.fetch_add(batch.len() as u64, Ordering::Release);
                    episodes.fetch_add(batch.episode_returns.len() as u64, Ordering::Relaxed);
                    traj_q.push(batch);
                }
                // The scope waits for this closure, not for the thread's
                // locals to be torn down: put its spans in the sink now,
                // before the caller reads the trace.
                telemetry::flush_thread();
            });
        }

        // ----- GPU data loader (§V-B) ------------------------------------------
        {
            let traj_q = traj_q.clone();
            let work_q = work_q.clone();
            let timers = timers.clone();
            let minibatch = cfg.minibatch;
            s.spawn(move |_| {
                while let Some(mut batch) = traj_q.pop() {
                    let _t = timers.span(Component::DataLoading);
                    fill_gae(&mut batch, gamma, lambda);
                    batch.normalize_advantages();
                    for mb in batch.minibatches(minibatch) {
                        // Staging in "GPU memory": the Arc is the exported
                        // pointer learners dereference without copying.
                        work_q.push(Arc::new(mb));
                    }
                }
                work_q.close();
                telemetry::flush_thread();
            });
        }

        // ----- learner workers (Step ②) ----------------------------------------
        let mut learner_threads = Vec::with_capacity(cfg.max_learners);
        for l in 0..cfg.max_learners {
            let cache = cache.clone();
            let platform = platform.clone();
            let router = router.clone();
            let work_q = work_q.clone();
            let grad_q = grad_q.clone();
            let board = board.clone();
            let throttle = throttle.clone();
            let timers = timers.clone();
            let server = server.clone();
            let autoscaler = autoscaler.clone();
            let degraded = degraded_events.clone();
            let cfg = cfg.clone();
            let down = StopOnPanic(stop.clone());
            learner_threads.push(s.spawn(move |_| {
                let _down = down;
                let mut learner = LearnerBody::new(&cfg);
                loop {
                    // Dynamic learner orchestration: workers beyond the
                    // autoscaler's current pool size idle without holding
                    // GPU slots.
                    if !autoscaler.admits(l) {
                        if work_q.is_closed() && work_q.is_empty() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    autoscaler.observe(work_q.len());
                    let Some(mb) = work_q.pop_timeout(Duration::from_millis(20)) else {
                        if work_q.is_closed() && work_q.is_empty() {
                            break;
                        }
                        continue;
                    };
                    let token = throttle.as_ref().map(|t| t.begin(server.clock()));
                    // A retried invocation re-reads the *current* snapshot,
                    // so a straggler's re-execution carries fresh
                    // `base_version` — its residual staleness is exactly
                    // what the Eq. 3 threshold and Eq. 4 weight absorb.
                    let mut compute = || {
                        let _t = timers.span(Component::Gradient);
                        // An unreadable snapshot degrades this learner's
                        // wave instead of panicking the worker thread.
                        let snap = read_snapshot(&cache)?;
                        let msg = learner.gradient(&snap, &mb, board.cap(), l);
                        board.publish(l, msg.is_ratio);
                        Some(msg)
                    };
                    let out = platform.invoke_retry(
                        FunctionKind::Learner,
                        &cfg.retry,
                        cfg.invoke_deadline,
                        &mut compute,
                    );
                    if let (Some(th), Some(t)) = (&throttle, token) {
                        th.end(t);
                    }
                    let msg = match out {
                        Ok((Some(msg), _rec)) => msg,
                        Ok((None, _)) | Err(_) => {
                            // Gradient permanently lost (retries exhausted)
                            // or the snapshot was unreadable: the round
                            // proceeds with whatever the other learners
                            // deliver.
                            degraded.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let base_version = msg.base_version;
                    let sent = {
                        let _t = timers.span(Component::Cache);
                        let key = format!("grad:{}", cache.incr("grad_seq"));
                        submit(&cfg, &router, msg, &key).map(|delivered| {
                            cache.put_obj(&key, delivered.get());
                            key
                        })
                    };
                    match sent {
                        // Lane choice is keyed by learner id: a learner
                        // always lands on the same lane and never touches
                        // a global queue lock.
                        Some(key) => grad_q.push(l as u64, key, base_version),
                        None => {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }

        // ----- parameter function (Step ③) -------------------------------------
        {
            let cache = cache.clone();
            let grad_q = grad_q.clone();
            let server = server.clone();
            let timers = timers.clone();
            s.spawn(move |_| {
                while let Some((key, _base_version)) = grad_q.pop_any() {
                    let _t = timers.span(Component::Aggregation);
                    let Ok(msg) = cache.take_obj::<GradientMsg>(&key) else {
                        continue;
                    };
                    let applied = server.offer(&msg);
                    let clock = server.clock();
                    if applied > 0 {
                        let snap = server.snapshot();
                        cache.put_obj(POLICY_KEY, &snap);
                    }
                    // Publish the aggregation clock so dequeues can histogram
                    // each gradient's staleness at consumption time.
                    grad_q.advance_clock(clock);
                }
                telemetry::flush_thread();
            });
        }

        // ----- round control + evaluation ---------------------------------------
        let mut last_reward = f32::NEG_INFINITY;
        let depth_gauge = telemetry::global().gauge("stellaris_core_work_queue_depth");
        let backlog_cap = autoscaler.full_pool_backlog();
        for round in 0..cfg.rounds {
            let mut round_span = telemetry::span_with("core.round", vec![("round", round.into())]);
            let target = (round as u64 + 1) * round_quota;
            sample_target.store(target, Ordering::Release);
            let deadline = Instant::now() + Duration::from_secs(120);
            {
                let _wait = telemetry::span("core.round_wait");
                // A round is over once its quota is sampled and staged and
                // the staged backlog is back within what the full learner
                // pool asks for. Until then the actors idle on the spent
                // quota, so a learner-bound run holds a few staged batches,
                // not every batch the actors can race ahead by.
                while (steps.load(Ordering::Acquire) < target
                    || !traj_q.is_empty()
                    || work_q.len() > backlog_cap)
                    && Instant::now() < deadline
                    && !stop.load(Ordering::Acquire)
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            // A learner died (`StopOnPanic`): nobody may be left to drain
            // the backlog, so go to shutdown, which re-raises its panic.
            if stop.load(Ordering::Acquire) {
                break;
            }
            depth_gauge.set(work_q.len() as f64);
            if run.probe_obs.is_none() {
                run.probe_obs = probe_obs.lock().clone();
            }
            // Evaluate the published canonical policy.
            let reward = run.close_round(
                round,
                &mut round_span,
                read_snapshot(&cache),
                episodes.load(Ordering::Relaxed),
                degraded_events.load(Ordering::Relaxed),
            );

            // MinionsRL-style dynamic actor scaling.
            if cfg.dynamic_actors {
                let cur = active_actors.load(Ordering::Acquire);
                let next = if reward > last_reward {
                    (cur + 2).min(cfg.n_actors)
                } else {
                    cur.saturating_sub(1).max(1)
                };
                active_actors.store(next, Ordering::Release);
            }
            last_reward = reward;
        }

        // ----- shutdown ---------------------------------------------------------
        stop.store(true, Ordering::Release);
        traj_q.close();
        // work_q is NOT closed here: the data loader closes it after
        // draining traj_q, so minibatches staged during shutdown still
        // reach the learners instead of being dropped by a closed queue.
        // For the same reason the gradient plane closes only once the
        // learners are done: a gradient computed during the drain is
        // offered, not pushed at a closed queue.
        retire_learners(learner_threads, &grad_q);
    })
    // lint:allow(A8): deliberate re-panic — a child thread died and the run cannot continue
    // lint:allow(L1): re-raising a child thread's panic is the intended failure path
    .expect("orchestrator thread panicked");

    run.finish(degraded_events.load(Ordering::Relaxed))
}

/// Raises the run's stop flag when its thread unwinds.
struct StopOnPanic(Arc<AtomicBool>);

impl Drop for StopOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Last step of `train_async`'s shutdown: waits for every learner thread,
/// closes the gradient plane, then re-raises the first learner panic. The
/// close comes before the re-raise because the parameter function blocks
/// in `pop_any` until the plane closes and the thread scope waits for the
/// parameter function: unwinding with the plane still open would hang the
/// run instead of failing it.
fn retire_learners(
    learners: Vec<crossbeam::thread::ScopedJoinHandle<'_, ()>>,
    grad_q: &ShardedGradientQueue<String>,
) {
    let joined: Vec<_> = learners.into_iter().map(|l| l.join()).collect();
    grad_q.close();
    if let Some(payload) = joined.into_iter().find_map(Result::err) {
        std::panic::resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Synchronous schedule (serverful baselines and MinionsRL's single learner)
// ---------------------------------------------------------------------------

/// One scoped thread per slot, joined in slot order; a child's panic is
/// re-raised on the caller.
fn per_slot<S: Send, T: Send>(
    slots: impl Iterator<Item = S>,
    work: impl Fn(S) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = slots.map(|slot| s.spawn(|| work(slot))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// The in-process venue of the lock-step cycle: one scoped thread per
/// actor slot and per learner slot, each invoked through the serverless
/// platform (fault injection, retry, billing), gradients crossing to the
/// aggregator's VM through the router.
struct LocalFleet<'r, 'c> {
    run: &'r Run<'c>,
    actors: &'r mut [ActorBody],
    learners: &'r mut [LearnerBody],
}

impl Fleet for LocalFleet<'_, '_> {
    type Error = Infallible;

    /// Publishes `snap` under [`POLICY_KEY`]; every actor wave then pulls
    /// it back out of the cache, as a deployed actor function would.
    fn collect(&mut self, snap: &PolicySnapshot) -> Result<Vec<Option<SampleBatch>>, Infallible> {
        let run = self.run;
        let (cfg, platform, timers) = (run.cfg, &*run.platform, &*run.timers);
        run.cache.put_obj(POLICY_KEY, snap);
        let waves = cfg.round_timesteps.div_ceil(cfg.n_actors * cfg.actor_steps);
        let mut batches = Vec::new();
        for _ in 0..waves.max(1) {
            // An unreadable snapshot degrades the whole wave rather than
            // panicking the round loop.
            let Some(snap) = read_snapshot(&run.cache) else {
                batches.extend(self.actors.iter().map(|_| None));
                continue;
            };
            batches.extend(per_slot(self.actors.iter_mut(), |actor| {
                invoke_collect(cfg, platform, timers, actor, &snap)
            }));
        }
        Ok(batches)
    }

    fn wave_width(&self, _minibatches: usize) -> usize {
        self.learners.len()
    }

    /// One data-parallel wave: mini-batch `l` goes to learner slot `l`, no
    /// IS-truncation cap (every member differentiates the same snapshot).
    fn gradients(
        &mut self,
        snap: &PolicySnapshot,
        wave: Vec<SampleBatch>,
    ) -> Result<Vec<(usize, GradientMsg)>, Infallible> {
        let run = self.run;
        let (cfg, platform, timers) = (run.cfg, &*run.platform, &*run.timers);
        // No barrier here: a barrier sized to the wave deadlocks the
        // moment one member exhausts its retries and never arrives.
        // Each learner instead reports its finish instant, and the
        // synchronous hold — a learner function keeps its slot (and its
        // bill running) while it waits for the wave's stragglers, the
        // economic cost of synchrony the paper's Fig. 2(b)/8 expose —
        // is billed after the join from `wave_end - finish`.
        let slots = wave.iter().zip(self.learners.iter_mut()).enumerate();
        let results = per_slot(slots, |(l, (mb, learner))| {
            let mut compute = || {
                let _t = timers.span(Component::Gradient);
                learner.gradient(snap, mb, None, l)
            };
            platform
                .invoke_retry(
                    FunctionKind::Learner,
                    &cfg.retry,
                    cfg.invoke_deadline,
                    &mut compute,
                )
                .ok()
                .map(|(msg, _rec)| (msg, Instant::now()))
        });
        if let Some(wave_end) = results.iter().flatten().map(|(_, t)| *t).max() {
            for (_, finish) in results.iter().flatten() {
                platform.bill_hold(FunctionKind::Learner, wave_end - *finish);
            }
        }
        // A gradient lost on the way to the aggregator shrinks the wave.
        let sent = results.into_iter().flatten().filter_map(|(m, _)| {
            let l = m.learner_id;
            let key = format!("grad:sync:{}:{l}", snap.version);
            submit(cfg, &run.router, m, &key).map(|d| (l, d.into_owned()))
        });
        Ok(sent.collect())
    }
}

fn train_sync(cfg: &TrainConfig, n_learners: usize) -> TrainResult {
    let mut run = Run::start(cfg, n_learners);
    let mut actors: Vec<_> = (0..cfg.n_actors).map(|a| ActorBody::new(cfg, a)).collect();
    let mut learners: Vec<_> = (0..n_learners).map(|_| LearnerBody::new(cfg)).collect();
    let mut totals = CycleTotals::default();
    for round in 0..cfg.rounds {
        let mut round_span = telemetry::span_with("core.round", vec![("round", round.into())]);
        let mut fleet = LocalFleet {
            run: &run,
            actors: &mut actors,
            learners: &mut learners,
        };
        let Ok(()) = lockstep_round(&mut fleet, &run.server, cfg, &run.timers, &mut totals);
        if run.probe_obs.is_none() {
            run.probe_obs = totals.probe_obs.clone();
        }
        let snap = run.server.snapshot();
        run.close_round(
            round,
            &mut round_span,
            Some(snap),
            totals.episodes,
            totals.degraded,
        );
    }
    run.finish(totals.degraded)
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

    /// Learners are still draining the staged mini-batches when the last
    /// round gate opens; closing the gradient plane before they finish
    /// drops every gradient computed from then on at a closed queue.
    #[test]
    fn drain_phase_gradients_are_offered() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 5);
        cfg.learner_mode = LearnerMode::Async {
            rule: AggregationRule::PureAsync,
        };
        cfg.rounds = 1;
        cfg.round_timesteps = 1024;
        cfg.minibatch = 8;
        cfg.max_learners = 1;
        let res = train(&cfg);
        assert_eq!(res.learner_invocations, 128, "one per mini-batch");
        assert_eq!(
            res.grads_aggregated, res.learner_invocations,
            "every computed gradient reaches the parameter function"
        );
    }

    /// A learner panic must fail the run: the plane is closed before the
    /// panic is re-raised, so the parameter function (blocked in `pop_any`)
    /// exits and the thread scope can report the failure. The watchdog
    /// turns a regression into a failed assertion rather than a hung test.
    #[test]
    fn learner_panic_fails_the_run_instead_of_hanging_it() {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let grad_q: ShardedGradientQueue<String> = ShardedGradientQueue::bounded(1, 8);
            let stop = Arc::new(AtomicBool::new(false));
            let offered = AtomicU64::new(0);
            let run = crossbeam::thread::scope(|s| {
                s.spawn(|_| {
                    while grad_q.pop_any().is_some() {
                        offered.fetch_add(1, Ordering::Relaxed);
                    }
                });
                let down = StopOnPanic(stop.clone());
                let learner = s.spawn(|_| {
                    let _down = down;
                    grad_q.push(0, "grad:1".to_string(), 0);
                    panic!("learner died");
                });
                retire_learners(vec![learner], &grad_q);
            });
            let _ = done.send((
                run.is_err(),
                offered.load(Ordering::Relaxed),
                stop.load(Ordering::Acquire),
            ));
        });
        let (failed, offered, stopped) = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("shutdown hung on a dead learner");
        assert!(failed, "the learner's panic is the run's failure");
        assert_eq!(offered, 1, "what it pushed before dying is still offered");
        assert!(stopped, "the round loop is told to stop waiting");
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

        // Regression: the sync loop used to ignore `param_shards`. Two
        // shards commit twice per wave, so the same deterministic wave
        // sequence reports exactly twice the updates.
        let sharded = train(&cfg.with_sharding(2, 1));
        assert!(sharded.final_snapshot.flat.iter().all(|w| w.is_finite()));
        assert!(sharded.grads_aggregated > 0);
        assert_eq!(sharded.policy_updates, 2 * res.policy_updates);
        assert_eq!(sharded.degraded_rounds, 0);
    }

    /// `TrainRow::policy_kl` per round, frozen at the commit that still
    /// forwarded the probe through a second `PolicyNet` every round
    /// (identical in debug and release). The `ChainMdp` rounds 2–3 were
    /// re-pinned when the Tanh activations moved from the platform libm's
    /// `tanhf` to `nn::gemm::tanh`; the `Sync { n: 2 }` fold is unchanged.
    #[test]
    fn policy_kl_golden() {
        for (env, seed, golden) in [
            (
                EnvId::PointMass,
                3,
                [0x395a_cb00u32, 0x3833_6600, 0x3772_2000],
            ),
            (EnvId::ChainMdp, 2, [0x36cb_37a8, 0x3630_ac44, 0x363a_bb72]),
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

    #[test]
    fn single_learner_mode_runs() {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 3);
        cfg.learner_mode = LearnerMode::Single;
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
    fn unreadable_policy_snapshot_degrades_instead_of_panicking() {
        // Regression: both round loops used to `.expect()` the snapshot
        // read; a corrupt frame under POLICY_KEY panicked a worker thread
        // and took the whole run down with it.
        let cache = Cache::new(4, LatencyModel::off());
        assert!(read_snapshot(&cache).is_none(), "missing key degrades");
        cache.put(POLICY_KEY, bytes::Bytes::from_static(b"\xff\x00garbage"));
        assert!(read_snapshot(&cache).is_none(), "corrupt frame degrades");
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 11);
        let snap = initial_policy(&cfg).snapshot();
        cache.put_obj(POLICY_KEY, &snap);
        let got = read_snapshot(&cache).expect("valid snapshot must round-trip");
        assert_eq!(got.version, snap.version);
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
}
