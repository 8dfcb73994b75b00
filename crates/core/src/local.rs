//! The in-process venue of the cycle: the substrates a training run shares
//! (`Run`: serverless platform, timers, parameter function, Eq. 2's ratio
//! board) and the in-process links the dispatcher (`dispatch`) drives, whose
//! functions run on threads beside them. `remote` holds the socket links,
//! whose functions are child processes.
//!
//! Data moves the way §V-B moves it between functions on one server, over
//! shared memory: actor functions collect under the policy the cycle hands
//! them (Step ①), and learner functions differentiate against the cycle's
//! published policy — asynchronous ones with Eq. 2's global IS-truncation
//! cap, under SSP behind a dispatch throttle — and hand each gradient to
//! the aggregator by value (Step ②). Every function is invoked through the
//! serverless platform: the faults the dispatcher drew for the call, retry,
//! billing.

use std::convert::Infallible;
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

use stellaris_rl::{PolicySnapshot, SampleBatch};
use stellaris_serverless::{
    FaultPlan, Faults, FunctionKind, OverheadMode, Platform, StartupProfile,
};

use crate::aggregation::SspThrottle;
use crate::config::{Deployment, LearnerMode, TrainConfig};
use crate::cycle::{ActorBody, LearnerBody};
use crate::dispatch::{no_faults, Draw, Link, Minibatch, Slots};
use crate::messages::GradientMsg;
use crate::metrics::{Component, Timers};
use crate::orchestrator::parameter_plane;
use crate::parameter::ShardedParameterServer;
use crate::truncation::RatioBoard;

/// The substrates both schedules run on in process.
pub(crate) struct Run<'a> {
    pub(crate) cfg: &'a TrainConfig,
    pub(crate) start: Instant,
    pub(crate) platform: Platform,
    pub(crate) timers: Timers,
    pub(crate) server: ShardedParameterServer,
    /// Eq. 2's global view for asynchronous learners; disabled for
    /// lock-step waves, whose members all differentiate one snapshot.
    board: RatioBoard,
    throttle: Option<SspThrottle>,
}

impl<'a> Run<'a> {
    /// Whether this run's learners are asynchronous.
    pub(crate) fn asynchronous(&self) -> bool {
        matches!(self.cfg.learner_mode, LearnerMode::Async { .. })
    }

    /// Builds the substrates with `learner_slots` prewarmed learner
    /// functions.
    pub(crate) fn start(cfg: &'a TrainConfig, learner_slots: usize) -> Self {
        let start = Instant::now();
        let platform = Platform::new(
            learner_slots,
            cfg.n_actors,
            StartupProfile::default(),
            OverheadMode::Record,
        )
        .with_faults(Arc::new(FaultPlan::new(cfg.faults.clone())));
        platform.prewarm(FunctionKind::Learner, learner_slots);
        platform.prewarm(FunctionKind::Actor, cfg.n_actors);
        let asynchronous = matches!(cfg.learner_mode, LearnerMode::Async { .. });
        Self {
            cfg,
            start,
            platform,
            timers: Timers::default(),
            server: parameter_plane(cfg),
            board: match cfg.truncation_rho {
                Some(rho) if asynchronous => RatioBoard::new(rho),
                _ => RatioBoard::disabled(),
            },
            throttle: cfg.learner_mode.rule().ssp_bound().map(SspThrottle::new),
        }
    }

    /// The run's `n_learners` learner slots: a lock-step wave is one
    /// mini-batch per slot.
    pub(crate) fn learners<'s>(
        &'s self,
        scope: &'s Scope<'s, '_>,
        n_learners: usize,
    ) -> Slots<'s, LocalLearner<'s>> {
        let links = (0..n_learners)
            .map(|_| LocalLearner(self, LearnerBody::new(self.cfg)))
            .collect();
        let (lockstep, dynamic) = (!self.asynchronous(), self.cfg.dynamic_learners);
        let (width, draw) = (Some(n_learners), FaultPlan::draw_invocation);
        Slots::new(scope, &self.platform, links, lockstep, width, draw, dynamic)
    }

    /// The run's `n_actors` actor slots, collecting `round_timesteps /
    /// actor_steps` batches a round, at least one. Serverful actors bypass
    /// the platform, so no fault reaches them.
    pub(crate) fn actors<'s>(&'s self, scope: &'s Scope<'s, '_>) -> Slots<'s, LocalActor<'s>> {
        let cfg = self.cfg;
        let links = (0..cfg.n_actors)
            .map(|a| LocalActor(self, ActorBody::new(cfg, a)))
            .collect();
        let (lockstep, dynamic) = (!self.asynchronous(), cfg.dynamic_actors);
        let width = Some((cfg.round_timesteps / cfg.actor_steps).max(1));
        let draw: Draw = match cfg.deployment {
            Deployment::Serverful => no_faults,
            _ => FaultPlan::draw_invocation,
        };
        Slots::new(scope, &self.platform, links, lockstep, width, draw, dynamic)
    }
}

/// An in-process learner function: its body, invoked through the run's
/// platform.
pub(crate) struct LocalLearner<'a>(&'a Run<'a>, LearnerBody);

impl Link for LocalLearner<'_> {
    type Job = Minibatch;
    type Out = GradientMsg;
    type Error = Infallible;

    /// Step ② for one mini-batch. The invocation reads the published
    /// policy when it starts — a retry re-reads it, so a straggler's
    /// re-execution carries a fresher `base_version`, whose residual
    /// staleness is what the Eq. 3 threshold and Eq. 4 weight absorb. The
    /// gradient is handed to the aggregator as it is.
    fn call(
        &mut self,
        (policy, mb): Minibatch,
        _i: usize,
        l: usize,
        faults: Faults,
        _wave: u64,
    ) -> Result<Option<GradientMsg>, Infallible> {
        let LocalLearner(run, body) = self;
        let (cfg, board, throttle) = (run.cfg, &run.board, run.throttle.as_ref());
        let token = throttle.map(|t| t.begin(policy.get().version));
        let mut compute = || {
            let _t = run.timers.span(Component::Gradient);
            let msg = body.gradient(&policy.get(), &mb, board.cap(), l);
            board.publish(l, msg.is_ratio);
            msg
        };
        let (retry, deadline) = (&cfg.retry, cfg.invoke_deadline);
        let out =
            run.platform
                .invoke_with(FunctionKind::Learner, retry, deadline, faults, &mut compute);
        if let (Some(th), Some(t)) = (throttle, token) {
            th.end(t);
        }
        Ok(out.ok().map(|(msg, _rec)| msg))
    }
}

/// An in-process actor function: its body, invoked through the run's
/// platform (serverful actors bypass it).
pub(crate) struct LocalActor<'a>(&'a Run<'a>, ActorBody);

impl Link for LocalActor<'_> {
    type Job = Arc<PolicySnapshot>;
    type Out = SampleBatch;
    type Error = Infallible;

    /// Step ①: pulls `snap` and collects `actor_steps` under it.
    fn call(
        &mut self,
        snap: Arc<PolicySnapshot>,
        _i: usize,
        _l: usize,
        faults: Faults,
        _wave: u64,
    ) -> Result<Option<SampleBatch>, Infallible> {
        let LocalActor(run, body) = self;
        let cfg = run.cfg;
        let mut collect = || {
            let _t = run.timers.span(Component::ActorSampling);
            body.collect(&snap, cfg.actor_steps)
        };
        if cfg.deployment == Deployment::Serverful {
            return Ok(Some(collect()));
        }
        let (retry, deadline) = (&cfg.retry, cfg.invoke_deadline);
        let out =
            run.platform
                .invoke_with(FunctionKind::Actor, retry, deadline, faults, &mut collect);
        Ok(out.ok().map(|(batch, _rec)| batch))
    }
}
