//! The training cycle (Fig. 4), its two schedules, and the function bodies
//! they drive.
//!
//! The paper has one cycle — actors pull the policy and collect (Step ①),
//! learner functions differentiate (Step ②), the parameter function gates
//! and commits (Step ③). *Where* a function runs is deployment, and *when*
//! Step ③ sees each gradient is the schedule. This module holds the
//! venue-independent half of that split:
//!
//! * [`ActorBody`] and [`LearnerBody`] are the two function bodies; every
//!   venue and the remote worker process hold these, so both sides of a
//!   socket compute identically.
//! * [`Actors`] and [`Learners`] are a fleet's two halves. The product
//!   implements each once, in the dispatcher (`dispatch::Slots`), over
//!   slots whose links reach threads behind the serverless platform
//!   (`local`) or child processes behind framed sockets (`remote`).
//! * [`lockstep_round`] and [`async_round`] are the two schedules, each
//!   written once over the two halves, and both own the data loader.
//!   Lock-step cuts waves against one snapshot, offers in mini-batch order
//!   and commits at a barrier. Asynchronous offers each gradient as it lands,
//!   republishes the policy on every commit, and collects the next round
//!   while this round's learners run.

use std::sync::Arc;

use parking_lot::Mutex;
use stellaris_envs::make_env;
use stellaris_nn::{ParamSet, Tensor};
use stellaris_rl::{
    fill_gae, impact_gradients, ppo_gradients, ImpactLearner, PolicyNet, PolicySnapshot,
    PolicySpec, RolloutWorker, SampleBatch,
};
use stellaris_telemetry as telemetry;

use crate::aggregation::AggregationRule;
use crate::config::{Algo, TrainConfig};
use crate::messages::GradientMsg;
use crate::metrics::{Component, Timers};
use crate::parameter::ShardedParameterServer;

/// Fresh weights for `cfg`'s architecture and seed: where every replica
/// (actor, learner, evaluator, the parameter plane) starts.
pub fn fresh_net(cfg: &TrainConfig) -> PolicyNet {
    let mut env = make_env(cfg.env_id, cfg.env_cfg);
    env.reset(cfg.seed);
    let mut spec = PolicySpec::for_env(env.as_ref());
    spec.hidden = cfg.hidden;
    PolicyNet::new(spec, cfg.seed)
}

/// The actor-function body (Step ①): a rollout stream and a policy replica.
pub struct ActorBody {
    rollout: RolloutWorker,
    policy: PolicyNet,
}

impl ActorBody {
    /// The actor function in `slot`. Its rollout stream is seeded
    /// `seed * 1000 + slot` on every venue, so a remote collect and an
    /// in-process collect draw identical episodes.
    pub fn new(cfg: &TrainConfig, slot: usize) -> Self {
        Self {
            rollout: RolloutWorker::new(
                make_env(cfg.env_id, cfg.env_cfg),
                cfg.seed.wrapping_mul(1000).wrapping_add(slot as u64),
            ),
            policy: fresh_net(cfg),
        }
    }

    /// An upper bound on the encoded size of a `steps`-step batch from
    /// [`ActorBody::collect`] ([`SampleBatch::encoded_len_bound`]).
    pub fn batch_len_bound(&self, steps: u64) -> u64 {
        SampleBatch::encoded_len_bound(&self.policy.spec, self.rollout.env_name(), steps)
    }

    /// Pulls `snap` into the replica and collects `steps` timesteps under it.
    pub fn collect(&mut self, snap: &PolicySnapshot, steps: usize) -> SampleBatch {
        self.policy.load_snapshot(snap);
        self.rollout.collect(&self.policy, steps)
    }
}

/// The learner-function body (Step ②): a policy replica plus IMPACT's
/// target-network state, which is created on the first gradient and must
/// persist across invocations (a fresh target every call would degenerate
/// the ratio to 1). It owns no rollout environment.
pub struct LearnerBody {
    algo: Algo,
    policy: PolicyNet,
    impact: Option<ImpactLearner>,
}

impl LearnerBody {
    /// A learner function for `cfg`'s algorithm.
    pub fn new(cfg: &TrainConfig) -> Self {
        Self {
            algo: cfg.algo,
            policy: fresh_net(cfg),
            impact: None,
        }
    }

    /// Scalars in the learner's network: the length a snapshot it loads
    /// must have.
    pub fn num_scalars(&self) -> usize {
        self.policy.num_scalars()
    }

    /// Loads `snap`, runs the algorithm's gradient pass over `batch` with
    /// the global IS-truncation `cap`, and wraps the result for the
    /// parameter function.
    pub fn gradient(
        &mut self,
        snap: &PolicySnapshot,
        batch: &SampleBatch,
        cap: Option<f32>,
        learner_id: usize,
    ) -> GradientMsg {
        let policy = &mut self.policy;
        policy.load_snapshot(snap);
        let (grads, stats) = match &self.algo {
            Algo::Ppo(pc) => ppo_gradients(policy, batch, pc, cap),
            Algo::Impact(ic) => {
                let state = self
                    .impact
                    .get_or_insert_with(|| ImpactLearner::new(policy));
                let target = state.target_net(policy);
                let out = impact_gradients(policy, &target, batch, ic, cap);
                state.maybe_refresh(policy, ic);
                out
            }
        };
        GradientMsg {
            learner_id,
            grads,
            base_version: snap.version,
            batch_len: batch.len(),
            is_ratio: stats.mean_ratio,
            kl: stats.kl,
            surrogate: stats.surrogate,
        }
    }
}

/// The policy the cycle last published: what a learner function reads when
/// it starts a mini-batch. Lock-step publishes once per wave; the
/// asynchronous schedule republishes on every commit. Clones share it.
#[derive(Clone)]
pub struct Published(Arc<Mutex<Arc<PolicySnapshot>>>);

impl Published {
    /// Publishes `snap` as the first policy.
    pub fn new(snap: PolicySnapshot) -> Self {
        Self(Arc::new(Mutex::new(Arc::new(snap))))
    }

    /// The policy last published.
    pub fn get(&self) -> Arc<PolicySnapshot> {
        self.0.lock().clone()
    }

    /// Replaces the published policy (the old one is freed outside the lock).
    pub fn set(&self, snap: PolicySnapshot) {
        let _old = std::mem::replace(&mut *self.0.lock(), Arc::new(snap));
    }
}

/// A fleet's actor half (Step ①). It *loses* work — a collect that
/// exhausted its retries is `None` — and returns `Err` only when the round
/// cannot go on. It is `Send` because the asynchronous schedule collects
/// the next round on a thread of its own.
pub trait Actors: Send {
    /// What aborts a round (`Infallible` for fleets that only lose work).
    type Error: Send;

    /// The active actor slots collect the round's data budget under
    /// `snap`. One entry per attempted collect, `None` where lost.
    fn collect(
        &mut self,
        snap: &Arc<PolicySnapshot>,
    ) -> Result<Vec<Option<SampleBatch>>, Self::Error>;
}

/// A fleet's learner half (Step ②). It loses gradients the way [`Actors`]
/// loses collects.
pub trait Learners {
    /// What aborts a round.
    type Error;

    /// How many of a round's `minibatches` lock-step differentiates
    /// against one snapshot before it cuts the next.
    fn wave_width(&self, minibatches: usize) -> usize;

    /// One gradient per mini-batch of `wave`, each against the policy
    /// `policy` holds when its learner starts it. Every gradient is handed
    /// to `arrived` on the caller's thread, with its index in `wave`, as
    /// it lands; lost ones never arrive, and the order is the fleet's own.
    fn gradients(
        &mut self,
        policy: &Published,
        wave: Vec<SampleBatch>,
        arrived: &mut dyn FnMut(usize, GradientMsg),
    ) -> Result<(), Self::Error>;
}

/// Running totals the cycle keeps across the rounds of one job.
#[derive(Debug, Default)]
pub struct CycleTotals {
    /// Episodes finished by all collects so far.
    pub episodes: u64,
    /// Collects and gradients permanently lost so far.
    pub degraded: u64,
    /// The first observation batch any actor produced, the fixed probe the
    /// per-round policy KL is measured on, until its judge takes it.
    pub probe_obs: Option<Tensor>,
    /// Whether the probe has been captured: it is captured once, so a
    /// taken probe is not captured again. A run with no judge starts with
    /// it set and never captures one.
    pub probe_captured: bool,
}

/// Counts what a collect brought in — losses, finished episodes, the probe —
/// and keeps the batches that arrived.
fn collected_batches(
    collected: Vec<Option<SampleBatch>>,
    totals: &mut CycleTotals,
) -> Vec<SampleBatch> {
    totals.degraded += collected.iter().filter(|b| b.is_none()).count() as u64;
    let batches: Vec<SampleBatch> = collected.into_iter().flatten().collect();
    totals.episodes += batches
        .iter()
        .map(|b| b.episode_returns.len() as u64)
        .sum::<u64>();
    if !totals.probe_captured {
        totals.probe_obs = batches.first().map(|b| b.obs.clone());
        totals.probe_captured = totals.probe_obs.is_some();
    }
    batches
}

/// The GPU data loader (§V-B): GAE and mini-batching. A batch no longer
/// than one mini-batch is that mini-batch: it moves on as it is, with its
/// episode returns cleared as [`SampleBatch::minibatches`] clears them,
/// rather than being copied.
fn load(batches: Vec<SampleBatch>, cfg: &TrainConfig, timers: &Timers) -> Vec<SampleBatch> {
    let _t = timers.span(Component::DataLoading);
    let (gamma, lambda) = (cfg.algo.gamma(), cfg.algo.gae_lambda());
    let mut minibatches = Vec::new();
    for mut b in batches {
        fill_gae(&mut b, gamma, lambda);
        b.normalize_advantages();
        if (1..=cfg.minibatch).contains(&b.len()) {
            b.episode_returns = Vec::new();
            minibatches.push(b);
        } else {
            minibatches.extend(b.minibatches(cfg.minibatch));
        }
    }
    minibatches
}

/// One round of the lock-step cycle: collect → GAE and mini-batching → per
/// wave: snapshot, gradients, offer in mini-batch order, barrier commit.
///
/// Offers stream during the wave: each gradient that completes the
/// mini-batch-order prefix is offered as it lands, and the rest in
/// mini-batch order once the wave returns. An `Err` from the learner half
/// (over processes: no worker could be spawned) fails the round after
/// every gradient that landed was offered.
///
/// The barrier is the synchronous topologies' quorum rule: under a
/// `FullSync` rule a wave that ends short of its group (a lost gradient, a
/// mini-batch count the group size does not divide) commits what arrived
/// instead of carrying it into the next wave's weights.
pub fn lockstep_round<A: Actors, L: Learners<Error = A::Error>>(
    actors: &mut A,
    learners: &mut L,
    server: &ShardedParameterServer,
    cfg: &TrainConfig,
    timers: &Timers,
    totals: &mut CycleTotals,
) -> Result<(), A::Error> {
    let policy = Published::new(server.snapshot());
    let collected = actors.collect(&policy.get())?;
    let minibatches = load(collected_batches(collected, totals), cfg, timers);

    let barrier = matches!(cfg.learner_mode.rule(), AggregationRule::FullSync { .. });
    let width = learners.wave_width(minibatches.len()).max(1);
    let mut rest = minibatches.into_iter().peekable();
    while rest.peek().is_some() {
        let wave: Vec<SampleBatch> = rest.by_ref().take(width).collect();
        let sent = wave.len();
        // Only a commit moves the clock, so an unmoved clock means the
        // published policy still is the server's state.
        if policy.get().version != server.clock() {
            policy.set(server.snapshot());
        }
        // The reorder window: gradients are offered in mini-batch order,
        // the contiguous prefix as it lands and whatever a lost one held
        // back once the wave returns. The published policy does not move
        // inside a wave, so when an offer happens cannot reach the bits.
        let mut window: Vec<Option<GradientMsg>> = (0..sent).map(|_| None).collect();
        let (mut next, mut landed) = (0, 0);
        let ran = learners.gradients(&policy, wave, &mut |i, msg| {
            landed += 1;
            let _agg = timers.span(Component::Aggregation);
            if let Some(slot) = window.get_mut(i) {
                *slot = Some(msg);
            }
            while let Some(msg) = window.get_mut(next).and_then(Option::take) {
                server.offer(&msg);
                next += 1;
            }
        });
        let _agg = timers.span(Component::Aggregation);
        for msg in window.into_iter().flatten() {
            server.offer(&msg);
        }
        ran?;
        totals.degraded += (sent - landed) as u64;
        if barrier && server.pending() > 0 {
            server.commit_pending();
        }
    }
    Ok(())
}

/// One round of the asynchronous schedule, over the same two halves.
///
/// `staged` carries the actors' one-round lead: this round's batches,
/// collected during the previous round (`None` in round 0, which collects
/// its own first). The round's mini-batches stream through the learner
/// half, each learner reading the policy last published when it starts
/// one. Each gradient is offered on this thread as it lands, where Eq. 3
/// gates it and Eq. 4 weights it, and a commit republishes the policy.
/// With `lead`, the actor half meanwhile collects the next round under the
/// policy this round started from and leaves it in `staged`.
///
/// Both halves join before this returns, so a panic or an `Err` in either
/// surfaces here, after every gradient that landed was offered, and no
/// more than one round is ever staged.
#[expect(
    clippy::too_many_arguments,
    reason = "the two halves are borrowed apart so one can collect while the other learns"
)]
pub fn async_round<A: Actors, L: Learners<Error = A::Error>>(
    actors: &mut A,
    learners: &mut L,
    server: &ShardedParameterServer,
    cfg: &TrainConfig,
    timers: &Timers,
    totals: &mut CycleTotals,
    staged: &mut Option<Vec<SampleBatch>>,
    lead: bool,
) -> Result<(), A::Error> {
    // The caller only waits on the halves from here on (staged work wins
    // the attribution of any instant it overlaps).
    let _wait = telemetry::span("core.round_wait");
    let policy = Published::new(server.snapshot());
    let batches = match staged.take() {
        Some(batches) => batches,
        None => collected_batches(actors.collect(&policy.get())?, totals),
    };
    let start = policy.get();
    let (lost, next) = std::thread::scope(|s| {
        let next = lead.then(|| {
            s.spawn(move || {
                let next = actors.collect(&start);
                telemetry::flush_thread();
                next
            })
        });
        let minibatches = load(batches, cfg, timers);
        let sent = minibatches.len();
        let mut landed = 0;
        let ran = learners.gradients(&policy, minibatches, &mut |_, msg| {
            landed += 1;
            let _agg = timers.span(Component::Aggregation);
            if server.offer(&msg) > 0 {
                policy.set(server.snapshot());
            }
        });
        let next = next.map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        (ran.map(|()| sent - landed), next)
    });
    totals.degraded += lost? as u64;
    if let Some(next) = next {
        *staged = Some(collected_batches(next?, totals));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearnerMode;
    use crate::orchestrator::parameter_plane;
    use crate::remote::snapshot_checksum;
    use std::collections::VecDeque;
    use std::time::Duration;
    use stellaris_envs::EnvId;

    /// Why a scripted half failed the round: the round, and for the learner
    /// half the mini-batch of the round.
    #[derive(Debug, PartialEq)]
    enum Failed {
        Collect(usize),
        Gradient(usize, usize),
    }

    /// Two actor slots returning a canned batch, gradients from a real
    /// learner body, and a script for both halves (see each half).
    struct ScriptedFleet {
        actors: ScriptedActors,
        learners: ScriptedLearners,
    }

    impl ScriptedFleet {
        fn new(cfg: &TrainConfig, steps: usize, width: usize) -> Self {
            let snap = fresh_net(cfg).snapshot();
            Self::with_batch(cfg, ActorBody::new(cfg, 0).collect(&snap, steps), width)
        }

        fn with_batch(cfg: &TrainConfig, canned: SampleBatch, width: usize) -> Self {
            ScriptedFleet {
                actors: ScriptedActors {
                    canned,
                    lost: Vec::new(),
                    fails_at: None,
                    delay: Duration::ZERO,
                    returned: 0,
                    round: 0,
                },
                learners: ScriptedLearners {
                    learner: LearnerBody::new(cfg),
                    width,
                    orders: Vec::new(),
                    lost: Vec::new(),
                    panics_at: None,
                    fails_at: None,
                    observes: None,
                    offered_at_start: Vec::new(),
                    arrivals: Vec::new(),
                    memo: None,
                    round: 0,
                    next_minibatch: 0,
                    sent: 0,
                    delivered: 0,
                },
            }
        }

        /// Starts `round` on both halves; its mini-batches are numbered from
        /// its first wave.
        fn begin(&mut self, round: usize) {
            self.actors.round = round;
            self.learners.round = round;
            self.learners.next_minibatch = 0;
        }

        /// One lock-step round over both halves.
        fn lockstep(
            &mut self,
            server: &ShardedParameterServer,
            cfg: &TrainConfig,
            totals: &mut CycleTotals,
        ) -> Result<(), Failed> {
            let (actors, learners) = (&mut self.actors, &mut self.learners);
            lockstep_round(actors, learners, server, cfg, &Timers::default(), totals)
        }

        /// One asynchronous round over both halves.
        fn asynchronous(
            &mut self,
            server: &ShardedParameterServer,
            cfg: &TrainConfig,
            totals: &mut CycleTotals,
            staged: &mut Option<Vec<SampleBatch>>,
            lead: bool,
        ) -> Result<(), Failed> {
            let (actors, learners) = (&mut self.actors, &mut self.learners);
            async_round(
                actors,
                learners,
                server,
                cfg,
                &Timers::default(),
                totals,
                staged,
                lead,
            )
        }
    }

    /// Gradients by `(policy version, policy checksum, mini-batch of the
    /// round)`.
    type Memo = std::collections::HashMap<(u64, u64, usize), GradientMsg>;

    /// Two actor slots returning `canned`, each collect taking `delay`.
    struct ScriptedActors {
        canned: SampleBatch,
        /// The `(round, slot)` collects that never arrive.
        lost: Vec<(usize, usize)>,
        /// The round whose collect fails.
        fails_at: Option<usize>,
        delay: Duration,
        /// Collects that have returned, failed or not.
        returned: u64,
        round: usize,
    }

    /// `width` learner slots over one real learner body, landing in the
    /// round's order.
    struct ScriptedLearners {
        learner: LearnerBody,
        width: usize,
        /// Per round, a permutation of the slots: the order they land in at
        /// every turn of that round (first to last where no entry is given).
        orders: Vec<Vec<usize>>,
        /// The `(round, mini-batch of the round)` gradients that never
        /// arrive.
        lost: Vec<(usize, usize)>,
        /// The `(round, mini-batch of the round)` whose learner panics.
        panics_at: Option<(usize, usize)>,
        /// The `(round, mini-batch of the round)` whose learner fails the
        /// round.
        fails_at: Option<(usize, usize)>,
        /// The plane a learner reads before each gradient it computes, and
        /// before it hands each gradient over.
        observes: Option<Arc<ShardedParameterServer>>,
        /// `(round, mini-batch, gradients offered)` at each start.
        offered_at_start: Vec<(usize, usize, u64)>,
        /// `(round, clock, gradient)` for each gradient handed over, in
        /// arrival order.
        arrivals: Vec<(usize, u64, GradientMsg)>,
        /// Gradients already computed.
        memo: Option<Memo>,
        round: usize,
        next_minibatch: usize,
        /// Mini-batches handed to the learner half.
        sent: u64,
        /// Gradients handed back.
        delivered: u64,
    }

    impl Actors for ScriptedActors {
        type Error = Failed;

        fn collect(
            &mut self,
            _snap: &Arc<PolicySnapshot>,
        ) -> Result<Vec<Option<SampleBatch>>, Failed> {
            std::thread::sleep(self.delay);
            self.returned += 1;
            if self.fails_at == Some(self.round) {
                return Err(Failed::Collect(self.round));
            }
            let arrives = |slot| !self.lost.contains(&(self.round, slot));
            Ok((0..2)
                .map(|slot| arrives(slot).then(|| self.canned.clone()))
                .collect())
        }
    }

    impl Learners for ScriptedLearners {
        type Error = Failed;

        fn wave_width(&self, _minibatches: usize) -> usize {
            self.width
        }

        /// Slot `l` serves mini-batches `l, l + width, ...`, starting each
        /// (reading the policy) when its previous one has landed; at every
        /// turn the busy slots land in the round's order.
        fn gradients(
            &mut self,
            policy: &Published,
            wave: Vec<SampleBatch>,
            arrived: &mut dyn FnMut(usize, GradientMsg),
        ) -> Result<(), Failed> {
            let first = self.next_minibatch;
            self.next_minibatch += wave.len();
            self.sent += wave.len() as u64;
            let order = match self.orders.get(self.round) {
                Some(order) => order.clone(),
                None => (0..self.width).collect(),
            };
            let mut shares: Vec<VecDeque<(usize, SampleBatch)>> =
                (0..self.width).map(|_| VecDeque::new()).collect();
            for (i, mb) in wave.into_iter().enumerate() {
                shares[i % self.width].push_back((i, mb));
            }
            let start = |share: &mut VecDeque<(usize, SampleBatch)>| {
                share.pop_front().map(|(i, mb)| (i, mb, policy.get()))
            };
            let mut running: Vec<_> = shares.iter_mut().map(start).collect();
            while running.iter().any(Option::is_some) {
                for &l in &order {
                    let Some((i, mb, snap)) = running[l].take() else {
                        continue;
                    };
                    let id = (self.round, first + i);
                    assert_ne!(self.panics_at, Some(id), "scripted learner panic");
                    if self.fails_at == Some(id) {
                        return Err(Failed::Gradient(id.0, id.1));
                    }
                    if !self.lost.contains(&id) {
                        if let Some(plane) = &self.observes {
                            let offered = plane.grads_aggregated() + plane.pending() as u64;
                            self.offered_at_start.push((id.0, id.1, offered));
                        }
                        let learner = &mut self.learner;
                        let mut msg = match &mut self.memo {
                            None => learner.gradient(&snap, &mb, None, l),
                            // The learner's gradient is a pure function of
                            // the policy and the mini-batch, and every
                            // round cuts the same mini-batches.
                            Some(memo) => memo
                                .entry((snap.version, snapshot_checksum(&snap), id.1))
                                .or_insert_with(|| learner.gradient(&snap, &mb, None, l))
                                .clone(),
                        };
                        msg.learner_id = l;
                        self.delivered += 1;
                        if let Some(plane) = &self.observes {
                            self.arrivals.push((id.0, plane.clock(), msg.clone()));
                        }
                        arrived(i, msg);
                    }
                    running[l] = start(&mut shares[l]);
                }
            }
            Ok(())
        }
    }

    fn tiny(mode: LearnerMode) -> TrainConfig {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 13);
        cfg.learner_mode = mode;
        cfg
    }

    /// Regression (remote + `Sync`): a wave that ended short of its group
    /// used to stay pending across the wave and round boundary and commit
    /// mixed with gradients cut from the next snapshot.
    #[test]
    fn short_wave_commits_at_the_barrier() {
        let cfg = tiny(LearnerMode::Sync { n: 2 });
        let server = parameter_plane(&cfg);
        // One collect of 96 steps = three mini-batches: waves [0, 1] and [2].
        let mut fleet = ScriptedFleet::new(&cfg, 96, 2);
        fleet.actors.lost = vec![(0, 1)];
        fleet.learners.lost = vec![(0, 1)];
        let mut totals = CycleTotals::default();
        fleet
            .lockstep(&server, &cfg, &mut totals)
            .expect("the script fails nowhere");
        assert_eq!(server.pending(), 0, "nothing crosses the round boundary");
        assert_eq!(server.grads_aggregated(), 2);
        assert_eq!(server.staleness_log().to_vec(), vec![0, 0]);
        assert_eq!(server.updates(), 2, "each short wave committed on its own");
        assert_eq!(totals.degraded, 2, "one lost collect + one lost gradient");
    }

    #[test]
    fn load_moves_a_single_minibatch_and_splits_longer_batches() {
        // A batch of exactly one mini-batch comes out as that mini-batch
        // with its observation buffer moved, not copied; a batch of two
        // still splits. Either way the result is what `minibatches` makes
        // of the batch after GAE, episode returns cleared included.
        let cfg = tiny(LearnerMode::Sync { n: 2 });
        let size = cfg.minibatch;
        let snap = fresh_net(&cfg).snapshot();
        let mut actor = ActorBody::new(&cfg, 0);
        for steps in [size, 2 * size] {
            let mut batch = actor.collect(&snap, steps);
            batch.episode_returns = vec![1.0, 2.0];
            let mut want = batch.clone();
            fill_gae(&mut want, cfg.algo.gamma(), cfg.algo.gae_lambda());
            want.normalize_advantages();
            let want = want.minibatches(size);
            let obs = batch.obs.data().as_ptr();
            let got = load(vec![batch], &cfg, &Timers::default());
            assert_eq!(got.len(), steps / size);
            assert_eq!(got, want);
            assert_eq!(got[0].obs.data().as_ptr() == obs, steps == size);
        }
    }

    /// The probe is the first batch's observations, captured once: once
    /// its judge has taken it, a later collect captures nothing, and a
    /// run that starts with `probe_captured` set never holds one.
    #[test]
    fn the_probe_is_captured_once_and_taken_by_move() {
        let cfg = tiny(LearnerMode::Sync { n: 2 });
        let snap = fresh_net(&cfg).snapshot();
        let mut actor = ActorBody::new(&cfg, 0);
        let mut totals = CycleTotals::default();
        let first = actor.collect(&snap, cfg.minibatch);
        let want = first.obs.clone();
        collected_batches(vec![None, Some(first)], &mut totals);
        let probe = totals.probe_obs.take();
        assert_eq!(probe, Some(want));
        collected_batches(vec![Some(actor.collect(&snap, cfg.minibatch))], &mut totals);
        assert_eq!(
            totals.probe_obs, None,
            "a taken probe is not captured again"
        );
        let mut judgeless = CycleTotals {
            probe_captured: true,
            ..CycleTotals::default()
        };
        collected_batches(
            vec![Some(actor.collect(&snap, cfg.minibatch))],
            &mut judgeless,
        );
        assert_eq!(judgeless.probe_obs, None);
    }

    /// Three scripted rounds with the conservation laws checked after each;
    /// returns the final checksum and staleness log.
    fn scripted_run(reversed: bool) -> (u64, Vec<u64>) {
        let rule = AggregationRule::Softsync { c: 2 };
        let cfg = tiny(LearnerMode::Async { rule });
        let server = parameter_plane(&cfg);
        // Two collects of 64 steps = four mini-batches: waves of 3 and 1.
        let mut fleet = ScriptedFleet::new(&cfg, 64, 3);
        if reversed {
            fleet.learners.orders = vec![vec![2, 1, 0]; 3];
        }
        fleet.actors.lost = vec![(1, 0)];
        fleet.learners.lost = vec![(0, 2), (2, 0), (2, 3)];
        let mut totals = CycleTotals::default();
        for (round, lost_so_far) in [1, 2, 4].into_iter().enumerate() {
            fleet.begin(round);
            fleet
                .lockstep(&server, &cfg, &mut totals)
                .expect("the script fails nowhere");
            assert_eq!(
                totals.degraded, lost_so_far,
                "round {round}: losses counted"
            );
            assert_eq!(
                fleet.learners.delivered,
                server.grads_aggregated() + server.pending() as u64,
                "round {round}: offered = aggregated + pending"
            );
            assert_eq!(server.clock(), server.updates(), "round {round}: clock");
        }
        assert_eq!(fleet.learners.delivered, 3 + 2 + 2);
        let per_collect = fleet.actors.canned.episode_returns.len() as u64;
        assert_eq!(totals.episodes, 5 * per_collect, "five collects arrived");
        let log = server.staleness_log().to_vec();
        (snapshot_checksum(&server.snapshot()), log)
    }

    #[test]
    fn scripted_rounds_conserve_gradients_and_offer_in_minibatch_order() {
        let in_order = scripted_run(false);
        assert_eq!(in_order.1.len(), 6, "three pairs folded, one pending");
        assert_eq!(
            in_order,
            scripted_run(true),
            "the fleet's delivery order must not reach the weights"
        );
    }

    /// `lockstep_round` as it was before offers streamed: every wave is
    /// collected whole, sorted by mini-batch index, then offered. The oracle
    /// the reorder window is held to (no barrier rule, so no commit step).
    fn collect_and_sort_round(
        fleet: &mut ScriptedFleet,
        server: &ShardedParameterServer,
        cfg: &TrainConfig,
        totals: &mut CycleTotals,
    ) {
        let ScriptedFleet { actors, learners } = fleet;
        let policy = Published::new(server.snapshot());
        let collected = actors
            .collect(&policy.get())
            .expect("the script fails nowhere");
        let minibatches = load(
            collected_batches(collected, totals),
            cfg,
            &Timers::default(),
        );
        let width = learners.wave_width(minibatches.len()).max(1);
        let mut rest = minibatches.into_iter().peekable();
        while rest.peek().is_some() {
            let wave: Vec<SampleBatch> = rest.by_ref().take(width).collect();
            if policy.get().version != server.clock() {
                policy.set(server.snapshot());
            }
            let mut msgs = Vec::new();
            learners
                .gradients(&policy, wave, &mut |i, msg| msgs.push((i, msg)))
                .expect("the script fails nowhere");
            msgs.sort_by_key(|(i, _)| *i);
            for (_, msg) in msgs {
                server.offer(&msg);
            }
        }
    }

    /// Two rounds of one four-wide wave each, the scripted learners reading
    /// the plane before every gradient; with
    /// `streamed` through `lockstep_round`, otherwise through the
    /// collect-and-sort oracle. Returns the final checksum, the staleness
    /// log and what the learners read.
    fn observed_run(
        reversed: bool,
        lost: &[(usize, usize)],
        streamed: bool,
    ) -> (u64, Vec<u64>, Vec<(usize, usize, u64)>) {
        let rule = AggregationRule::Softsync { c: 2 };
        let cfg = tiny(LearnerMode::Async { rule });
        let server = Arc::new(parameter_plane(&cfg));
        // Two collects of 64 steps = four mini-batches, one wave.
        let mut fleet = ScriptedFleet::new(&cfg, 64, 4);
        if reversed {
            fleet.learners.orders = vec![vec![3, 2, 1, 0]; 2];
        }
        fleet.learners.lost = lost.to_vec();
        fleet.learners.observes = Some(Arc::clone(&server));
        let mut totals = CycleTotals::default();
        for round in 0..2 {
            fleet.begin(round);
            if streamed {
                fleet
                    .lockstep(&server, &cfg, &mut totals)
                    .expect("the script fails nowhere");
            } else {
                collect_and_sort_round(&mut fleet, &server, &cfg, &mut totals);
            }
        }
        let log = server.staleness_log().to_vec();
        (
            snapshot_checksum(&server.snapshot()),
            log,
            fleet.learners.offered_at_start,
        )
    }

    #[test]
    fn lockstep_offers_stream_during_the_wave() {
        let (_, _, seen) = observed_run(false, &[], true);
        // Slot `l` computes mini-batch `l`; each learner finds every
        // earlier mini-batch already offered, so mini-batch 0 was offered
        // before the wave's last gradient was computed.
        assert_eq!(
            seen[..4],
            [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3)],
            "offers must stream in mini-batch order as gradients land"
        );
        let (_, _, sorted_seen) = observed_run(false, &[], false);
        assert!(
            sorted_seen[..4].iter().all(|&(_, _, offered)| offered == 0),
            "the collect-and-sort oracle offers nothing until the wave ends"
        );
    }

    #[test]
    fn a_lost_gradient_holds_later_offers_back_in_index_order() {
        let lost = [(0, 1), (1, 2)];
        let (sum, log, seen) = observed_run(false, &lost, true);
        // Mini-batch 1 never lands, so 2 and 3 wait for the wave's end.
        assert_eq!(seen[..3], [(0, 0, 0), (0, 2, 1), (0, 3, 1)]);
        for reversed in [false, true] {
            let (ref_sum, ref_log, _) = observed_run(reversed, &lost, false);
            assert_eq!(
                (sum, &log),
                (ref_sum, &ref_log),
                "reversed {reversed}: the reorder window must end where \
                 collect-and-sort does"
            );
            let streamed = observed_run(reversed, &lost, true);
            assert_eq!((streamed.0, &streamed.1), (ref_sum, &ref_log));
        }
    }

    /// Three `async_round`s over the script (four mini-batches a round over
    /// three learner slots, the third round's collect lost to the lead),
    /// with the conservation laws checked after each; returns the final
    /// checksum and staleness log.
    fn scripted_async_run(reversed: bool) -> (u64, Vec<u64>) {
        let rule = AggregationRule::Softsync { c: 2 };
        let cfg = tiny(LearnerMode::Async { rule });
        let server = parameter_plane(&cfg);
        let mut fleet = ScriptedFleet::new(&cfg, 64, 3);
        if reversed {
            fleet.learners.orders = vec![vec![2, 1, 0]; 3];
        }
        // The collect made during round 1 is round 2's data.
        fleet.actors.lost = vec![(1, 0)];
        fleet.learners.lost = vec![(0, 2), (2, 0)];
        let (mut totals, mut staged) = (CycleTotals::default(), None);
        for (round, lost_so_far) in [1, 2, 3].into_iter().enumerate() {
            fleet.begin(round);
            let lead = round < 2;
            fleet
                .asynchronous(&server, &cfg, &mut totals, &mut staged, lead)
                .expect("the script fails nowhere");
            assert_eq!(staged.is_some(), lead, "round {round}: one round staged");
            assert_eq!(totals.degraded, lost_so_far, "round {round}: losses");
            assert_eq!(
                fleet.learners.delivered,
                server.grads_aggregated() + server.pending() as u64,
                "round {round}: offered = aggregated + pending"
            );
            assert_eq!(server.clock(), server.updates(), "round {round}: clock");
        }
        assert_eq!(fleet.learners.delivered, 3 + 4 + 1);
        let per_collect = fleet.actors.canned.episode_returns.len() as u64;
        assert_eq!(totals.episodes, 5 * per_collect, "five collects arrived");
        (
            snapshot_checksum(&server.snapshot()),
            server.staleness_log().to_vec(),
        )
    }

    #[test]
    fn scripted_async_rounds_replay_and_conserve_gradients() {
        let run = scripted_async_run(false);
        assert!(!run.1.is_empty(), "something committed");
        assert_eq!(
            run,
            scripted_async_run(false),
            "the same script must end on the same bits"
        );
    }

    /// In lock-step the delivery order never reaches the weights
    /// (`scripted_rounds_conserve_gradients_and_offer_in_minibatch_order`);
    /// asynchronously it is the schedule, so reversing it moves both.
    #[test]
    fn async_arrival_order_reaches_the_weights() {
        let (sum, log) = scripted_async_run(false);
        let (rev_sum, rev_log) = scripted_async_run(true);
        assert_ne!(log, rev_log, "staleness log");
        assert_ne!(sum, rev_sum, "weights");
    }

    /// A learner panic fails the run through the round's join instead of
    /// hanging it: the actor half collecting the next round is joined and
    /// the panic re-raised. The watchdog turns a regression into a failed
    /// assertion rather than a hung test.
    #[test]
    fn learner_panic_fails_the_run_instead_of_hanging_it() {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rule = AggregationRule::PureAsync;
            let cfg = tiny(LearnerMode::Async { rule });
            let server = parameter_plane(&cfg);
            let mut fleet = ScriptedFleet::new(&cfg, 64, 3);
            fleet.learners.panics_at = Some((1, 2));
            let (mut totals, mut staged) = (CycleTotals::default(), None);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for round in 0..3 {
                    fleet.begin(round);
                    fleet
                        .asynchronous(&server, &cfg, &mut totals, &mut staged, round < 2)
                        .expect("the script fails nowhere");
                }
            }));
            let sent = done.send((run.is_err(), server.grads_aggregated()));
            assert!(sent.is_ok(), "the watchdog outlives the run");
        });
        let (failed, aggregated) = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("a learner panic hung the round");
        assert!(failed, "the learner's panic is the run's failure");
        assert_eq!(
            aggregated,
            4 + 2,
            "what landed before the panic was offered"
        );
    }

    /// One round of `schedule` over the script; the asynchronous one
    /// collects the next round meanwhile when `lead`.
    fn scripted_round(
        schedule: Schedule,
        fleet: &mut ScriptedFleet,
        server: &ShardedParameterServer,
        cfg: &TrainConfig,
        totals: &mut CycleTotals,
        staged: &mut Option<Vec<SampleBatch>>,
        lead: bool,
    ) -> Result<(), Failed> {
        match schedule {
            Schedule::Async => fleet.asynchronous(server, cfg, totals, staged, lead),
            Schedule::Lockstep => fleet.lockstep(server, cfg, totals),
        }
    }

    /// Rounds of `schedule` over a three-slot script (four mini-batches a
    /// round; asynchronously the actors lead into the next round) until
    /// one fails. Returns that round, its error, the fleet and the plane.
    fn failing_run(
        schedule: Schedule,
        script: impl FnOnce(&mut ScriptedFleet),
    ) -> (usize, Failed, ScriptedFleet, ShardedParameterServer) {
        let mode = match schedule {
            Schedule::Async => LearnerMode::Async {
                rule: AggregationRule::Softsync { c: 2 },
            },
            Schedule::Lockstep => LearnerMode::Sync { n: 2 },
        };
        let cfg = tiny(mode);
        let server = parameter_plane(&cfg);
        let mut fleet = ScriptedFleet::new(&cfg, 64, 3);
        script(&mut fleet);
        let (mut totals, mut staged) = (CycleTotals::default(), None);
        for round in 0..3 {
            fleet.begin(round);
            let ran = scripted_round(
                schedule,
                &mut fleet,
                &server,
                &cfg,
                &mut totals,
                &mut staged,
                round < 2,
            );
            if let Err(failed) = ran {
                return (round, failed, fleet, server);
            }
        }
        panic!("{schedule:?}: the script never failed");
    }

    /// A learner half that fails mid-wave fails the round with its error,
    /// after every gradient that landed was offered: in mini-batch order,
    /// and reversed, where both gradients that landed wait behind the
    /// failing mini-batch 0. Asynchronously the actor half, still
    /// collecting the next round (slowly), is joined first.
    #[test]
    fn a_learner_error_fails_the_round_after_offering_what_landed() {
        let scripts = [(Vec::new(), 2), (vec![vec![2, 1, 0]; 2], 0)];
        for (schedule, collects) in [(Schedule::Lockstep, 2), (Schedule::Async, 3)] {
            for (orders, fails) in scripts.clone() {
                let (round, failed, fleet, server) = failing_run(schedule, |fleet| {
                    fleet.learners.orders = orders.clone();
                    fleet.learners.fails_at = Some((1, fails));
                    fleet.actors.delay = Duration::from_millis(20);
                });
                let at = format!("{schedule:?} {orders:?}");
                assert_eq!((round, failed), (1, Failed::Gradient(1, fails)), "{at}");
                assert_eq!(fleet.learners.delivered, 4 + 2, "{at}: delivered");
                assert_eq!(
                    fleet.learners.delivered,
                    server.grads_aggregated() + server.pending() as u64,
                    "{at}: delivered = aggregated + pending"
                );
                assert_eq!(
                    fleet.actors.returned, collects,
                    "{at}: every collect returned before the round did"
                );
            }
        }
    }

    /// An actor half that fails fails the round with its error: in
    /// lock-step the round's own collect, before any mini-batch; in the
    /// asynchronous schedule the lead collect, after the round's
    /// mini-batches were all offered.
    #[test]
    fn an_actor_error_fails_the_round_after_offering_what_landed() {
        for (schedule, delivered) in [(Schedule::Lockstep, 4), (Schedule::Async, 8)] {
            let (round, failed, fleet, server) =
                failing_run(schedule, |fleet| fleet.actors.fails_at = Some(1));
            assert_eq!((round, failed), (1, Failed::Collect(1)), "{schedule:?}");
            assert_eq!(
                fleet.learners.delivered, delivered,
                "{schedule:?}: delivered"
            );
            assert_eq!(
                fleet.learners.delivered,
                server.grads_aggregated() + server.pending() as u64,
                "{schedule:?}: delivered = aggregated + pending"
            );
        }
    }

    /// Which schedule an enumerated run drives.
    #[derive(Clone, Copy, Debug)]
    enum Schedule {
        /// `async_round` under `StalenessAware { d: 0.96, v: 3 }`.
        Async,
        /// `lockstep_round` under `Sync { n: 2 }`.
        Lockstep,
    }

    /// Eq. 3's decay `d` in the enumerated asynchronous runs (Eq. 4's root
    /// `v` is 3).
    const D: f64 = 0.96;

    /// Every permutation of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in permutations(n - 1) {
            for at in 0..n {
                let mut p = shorter.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// Every choice of one slot order per round.
    fn orders_per_round(width: usize, rounds: usize) -> Vec<Vec<Vec<usize>>> {
        let mut out = vec![Vec::new()];
        for _ in 0..rounds {
            out = out
                .into_iter()
                .flat_map(|prefix: Vec<Vec<usize>>| {
                    permutations(width).into_iter().map(move |p| {
                        let mut next = prefix.clone();
                        next.push(p);
                        next
                    })
                })
                .collect();
        }
        out
    }

    /// Eq. 3 and Eq. 4 spelled out apart from the server, over the arrivals
    /// a run recorded: each gradient is weighted `1/δ^(1/3)` by its staleness δ
    /// against this fold's own clock, and what is held commits once its
    /// mean staleness is within `β_k = max(δ_max, 1) · d^k`, where `δ_max`
    /// is the largest staleness of round 0, whose gate is open.
    struct ReferenceFold {
        params: Vec<Tensor>,
        optimizer: Box<dyn stellaris_nn::Optimizer>,
        sum: crate::aggregation::GradAccumulator,
        /// Base versions of the gradients held.
        held: Vec<u64>,
        clock: u64,
        round: u64,
        delta_max: u64,
    }

    impl ReferenceFold {
        fn new(cfg: &TrainConfig) -> Self {
            use stellaris_nn::ParamSet;
            let net = fresh_net(cfg);
            Self {
                params: net.params().into_iter().cloned().collect(),
                optimizer: stellaris_nn::OptimizerKind::Adam.build(cfg.algo.lr()),
                sum: crate::aggregation::GradAccumulator::new(&net.param_shapes()),
                held: Vec::new(),
                clock: net.version,
                round: 0,
                delta_max: 0,
            }
        }

        fn beta(&self) -> Option<f64> {
            (self.round > 0).then(|| self.delta_max.max(1) as f64 * D.powf(self.round as f64))
        }

        fn arrive(&mut self, msg: &GradientMsg) {
            let delta = self.clock - msg.base_version;
            if self.round == 0 {
                self.delta_max = self.delta_max.max(delta);
            }
            let w = if delta == 0 {
                1.0
            } else {
                1.0 / (delta as f32).powf(1.0 / 3.0)
            };
            self.sum.accumulate(&msg.grads, w);
            self.held.push(msg.base_version);
            let stale: u64 = self.held.iter().map(|b| self.clock - b).sum();
            let mean = stale as f64 / self.held.len() as f64;
            if self.beta().is_none_or(|beta| mean <= beta) {
                self.sum.divide(self.held.len() as f32);
                let mut params: Vec<&mut Tensor> = self.params.iter_mut().collect();
                self.optimizer.step_refs(&mut params, self.sum.grads());
                self.sum.reset();
                self.held.clear();
                self.clock += 1;
            }
        }

        fn checksum(&self) -> u64 {
            let flat = self.params.iter().flat_map(|p| p.data()).copied().collect();
            snapshot_checksum(&PolicySnapshot {
                version: self.clock,
                flat,
            })
        }
    }

    /// Mini-batches a round of an enumerated run: two collects of 64 steps.
    const ENUMERATED_MINIBATCHES: usize = 4;

    /// Where an enumerated round ends: the snapshot checksum, the staleness
    /// log, the clock and the gradients aggregated.
    type RoundEnd = (u64, Vec<u64>, u64, u64);

    /// One enumerated run: `orders.len()` rounds of `schedule`, the slots
    /// landing in `orders[round]`, `lost` the
    /// one gradient that never arrives, and `server.advance_round()` after
    /// every round as the orchestrator's ledger does. The conservation laws
    /// are checked after each round; returns each round's [`RoundEnd`].
    fn enumerated_run(
        schedule: Schedule,
        canned: &SampleBatch,
        orders: &[Vec<usize>],
        lost: Option<(usize, usize)>,
        memo: &mut Memo,
    ) -> Vec<RoundEnd> {
        let mode = match schedule {
            Schedule::Async => LearnerMode::Async {
                rule: AggregationRule::StalenessAware { d: D, v: 3 },
            },
            Schedule::Lockstep => LearnerMode::Sync { n: 2 },
        };
        let cfg = tiny(mode);
        let server = Arc::new(parameter_plane(&cfg));
        let mut fleet = ScriptedFleet::with_batch(&cfg, canned.clone(), orders[0].len());
        fleet.learners.orders = orders.to_vec();
        fleet.learners.lost = lost.into_iter().collect();
        fleet.learners.observes = Some(Arc::clone(&server));
        fleet.learners.memo = Some(std::mem::take(memo));
        let asynchronous = matches!(schedule, Schedule::Async);
        let mut reference = asynchronous.then(|| ReferenceFold::new(&cfg));
        let (mut totals, mut staged) = (CycleTotals::default(), None);
        let (mut delta_max, mut beta) = (0, f64::INFINITY);
        let mut per_round = Vec::new();
        for round in 0..orders.len() {
            fleet.begin(round);
            let lead = asynchronous && round + 1 < orders.len();
            scripted_round(
                schedule,
                &mut fleet,
                &server,
                &cfg,
                &mut totals,
                &mut staged,
                lead,
            )
            .expect("the script fails nowhere");
            server.advance_round();
            let at = format!("{schedule:?} {orders:?} lost {lost:?}, round {round}");
            assert_eq!(staged.is_some(), lead, "{at}: one round staged");

            let sent = (round as u64 + 1) * ENUMERATED_MINIBATCHES as u64;
            assert_eq!(fleet.learners.sent, sent, "{at}: mini-batches sent");
            let lost_so_far = lost.filter(|&(r, _)| r <= round).into_iter().count() as u64;
            assert_eq!(totals.degraded, lost_so_far, "{at}: losses counted");
            assert_eq!(
                fleet.learners.delivered + totals.degraded,
                sent,
                "{at}: delivered + lost = sent"
            );
            let aggregated = server.grads_aggregated();
            assert_eq!(
                fleet.learners.delivered,
                aggregated + server.pending() as u64,
                "{at}: delivered = aggregated + pending"
            );
            assert_eq!(server.clock(), server.updates(), "{at}: clock");
            let log = server.staleness_log();
            assert_eq!(
                log.recorded(),
                aggregated,
                "{at}: one log entry per gradient"
            );

            if asynchronous {
                if round == 0 {
                    // The gate observes each offer at the clock recorded.
                    for (_, clock, msg) in &fleet.learners.arrivals {
                        delta_max = delta_max.max(clock - msg.base_version);
                    }
                }
                let k = round as u64 + 1;
                let want = delta_max.max(1) as f64 * D.powf(k as f64);
                let got = server.beta().expect("a round has passed");
                assert_eq!(got.to_bits(), want.to_bits(), "{at}: β_k = δ_max · d^k");
                assert!(got <= beta, "{at}: β_k never increases");
                beta = got;
            }
            if let Some(fold) = &mut reference {
                for (_, clock, msg) in fleet.learners.arrivals.iter().filter(|a| a.0 == round) {
                    assert_eq!(*clock, fold.clock, "{at}: clock at arrival");
                    fold.arrive(msg);
                }
                fold.round += 1;
                assert_eq!(fold.beta(), server.beta(), "{at}: reference β_k");
                assert_eq!(
                    fold.checksum(),
                    snapshot_checksum(&server.snapshot()),
                    "{at}: the reference fold reaches the server's bits"
                );
            }
            per_round.push((
                snapshot_checksum(&server.snapshot()),
                log.to_vec(),
                server.clock(),
                aggregated,
            ));
        }
        *memo = fleet.learners.memo.take().unwrap_or_default();
        per_round
    }

    /// Every schedule of `width` learner slots: 1 to 3 rounds, every slot
    /// order in every round, with no gradient lost or each single one lost.
    /// Lock-step must end on one checksum and one staleness log whatever
    /// the order; asynchronously the order must reach the weights somewhere
    /// once two slots race. Returns how many runs were made.
    fn every_schedule(schedule: Schedule, width: usize) -> usize {
        let probe = tiny(LearnerMode::Sync { n: 2 });
        let canned = ActorBody::new(&probe, 0).collect(&fresh_net(&probe).snapshot(), 64);
        let mut runs = 0;
        for rounds in 1..=3 {
            let losses = std::iter::once(None).chain(
                (0..rounds).flat_map(|r| (0..ENUMERATED_MINIBATCHES).map(move |i| Some((r, i)))),
            );
            for lost in losses {
                let (mut ends, mut memo) = (Vec::new(), Memo::new());
                for orders in orders_per_round(width, rounds) {
                    ends.push(enumerated_run(schedule, &canned, &orders, lost, &mut memo));
                    runs += 1;
                }
                ends.sort();
                ends.dedup();
                match schedule {
                    Schedule::Lockstep => assert_eq!(
                        ends.len(),
                        1,
                        "{rounds} round(s), lost {lost:?}: the arrival order reached the weights"
                    ),
                    Schedule::Async => assert!(
                        width == 1 || ends.len() > 1,
                        "{rounds} round(s), lost {lost:?}: no order reached the weights"
                    ),
                }
            }
        }
        runs
    }

    /// Runs at `width`: `Σ_{r=1..3} (width!)^r · (1 + 4r)` schedules.
    fn schedule_count(width: usize) -> usize {
        let orders: usize = (1..=width).product();
        (1..=3u32)
            .map(|r| orders.pow(r) * (1 + ENUMERATED_MINIBATCHES * r as usize))
            .sum()
    }

    #[test]
    fn every_async_schedule_of_one_slot() {
        assert_eq!(every_schedule(Schedule::Async, 1), schedule_count(1));
    }

    #[test]
    fn every_async_schedule_of_two_slots() {
        assert_eq!(every_schedule(Schedule::Async, 2), schedule_count(2));
    }

    #[test]
    fn every_async_schedule_of_three_slots() {
        assert_eq!(every_schedule(Schedule::Async, 3), schedule_count(3));
    }

    #[test]
    fn every_lockstep_schedule_of_one_slot() {
        assert_eq!(every_schedule(Schedule::Lockstep, 1), schedule_count(1));
    }

    #[test]
    fn every_lockstep_schedule_of_two_slots() {
        assert_eq!(every_schedule(Schedule::Lockstep, 2), schedule_count(2));
    }

    #[test]
    fn every_lockstep_schedule_of_three_slots() {
        assert_eq!(every_schedule(Schedule::Lockstep, 3), schedule_count(3));
    }
}
