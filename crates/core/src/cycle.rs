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
//! * [`Fleet`] is the execution venue, split into its two roles,
//!   [`Actors`] and [`Learners`], which can be borrowed at once: threads
//!   behind the serverless platform (`local::LocalFleet`) or child
//!   processes behind framed sockets (`remote::ProcessFleet`).
//! * [`lockstep_round`] and [`async_round`] are the two schedules, each
//!   written once over a `Fleet`, and both own the data loader. Lock-step
//!   cuts waves against one snapshot, offers in mini-batch order and
//!   commits at a barrier. Asynchronous offers each gradient as it lands,
//!   republishes the policy on every commit, and collects the next round
//!   while this round's learners run.

use std::sync::Arc;

use parking_lot::Mutex;
use stellaris_envs::make_env;
use stellaris_nn::Tensor;
use stellaris_rl::{
    fill_gae, impact_gradients, impala_gradients, ppo_gradients, ImpactLearner, PolicyNet,
    PolicySnapshot, PolicySpec, RolloutWorker, SampleBatch,
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
            Algo::Impala(ic) => impala_gradients(policy, batch, ic, cap),
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
    /// What aborts a round.
    type Error;

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

impl<A: Actors + ?Sized> Actors for &mut A {
    type Error = A::Error;

    fn collect(
        &mut self,
        snap: &Arc<PolicySnapshot>,
    ) -> Result<Vec<Option<SampleBatch>>, A::Error> {
        (**self).collect(snap)
    }
}

impl<L: Learners + ?Sized> Learners for &mut L {
    type Error = L::Error;

    fn wave_width(&self, minibatches: usize) -> usize {
        (**self).wave_width(minibatches)
    }

    fn gradients(
        &mut self,
        policy: &Published,
        wave: Vec<SampleBatch>,
        arrived: &mut dyn FnMut(usize, GradientMsg),
    ) -> Result<(), L::Error> {
        (**self).gradients(policy, wave, arrived)
    }
}

/// Where the cycle's functions run: an actor half and a learner half that
/// can be borrowed at the same time.
pub trait Fleet {
    /// What aborts a round (`Infallible` for fleets that only lose work).
    type Error: Send;
    /// The actor half.
    type Actors<'f>: Actors<Error = Self::Error>
    where
        Self: 'f;
    /// The learner half.
    type Learners<'f>: Learners<Error = Self::Error>
    where
        Self: 'f;

    /// Borrows both halves.
    fn split(&mut self) -> (Self::Actors<'_>, Self::Learners<'_>);
}

/// Running totals the cycle keeps across the rounds of one job.
#[derive(Debug, Default)]
pub struct CycleTotals {
    /// Episodes finished by all collects so far.
    pub episodes: u64,
    /// Collects and gradients permanently lost so far.
    pub degraded: u64,
    /// The first observation batch any actor produced: the fixed probe the
    /// per-round policy KL is measured on.
    pub probe_obs: Option<Tensor>,
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
    if totals.probe_obs.is_none() {
        totals.probe_obs = batches.first().map(|b| b.obs.clone());
    }
    batches
}

/// The GPU data loader (§V-B): GAE and mini-batching.
fn load(batches: Vec<SampleBatch>, cfg: &TrainConfig, timers: &Timers) -> Vec<SampleBatch> {
    let _t = timers.span(Component::DataLoading);
    let (gamma, lambda) = (cfg.algo.gamma(), cfg.algo.gae_lambda());
    let mut minibatches = Vec::new();
    for mut b in batches {
        fill_gae(&mut b, gamma, lambda);
        b.normalize_advantages();
        minibatches.extend(b.minibatches(cfg.minibatch));
    }
    minibatches
}

/// One round of the lock-step cycle: collect → GAE and mini-batching → per
/// wave: snapshot, gradients, offer in mini-batch order, barrier commit.
///
/// Offers stream during the wave: each gradient that completes the
/// mini-batch-order prefix is offered as it lands. An `Err` from the
/// learner half (over processes: no worker could be spawned) fails the
/// round, possibly after that prefix was offered.
///
/// The barrier is the synchronous topologies' quorum rule: under a
/// `FullSync` rule a wave that ends short of its group (a lost gradient, a
/// mini-batch count the group size does not divide) commits what arrived
/// instead of carrying it into the next wave's weights.
pub fn lockstep_round<F: Fleet>(
    fleet: &mut F,
    server: &ShardedParameterServer,
    cfg: &TrainConfig,
    timers: &Timers,
    totals: &mut CycleTotals,
) -> Result<(), F::Error> {
    let (mut actors, mut learners) = fleet.split();
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
        learners.gradients(&policy, wave, &mut |i, msg| {
            landed += 1;
            let _agg = timers.span(Component::Aggregation);
            if let Some(slot) = window.get_mut(i) {
                *slot = Some(msg);
            }
            while let Some(msg) = window.get_mut(next).and_then(Option::take) {
                server.offer(&msg);
                next += 1;
            }
        })?;
        let _agg = timers.span(Component::Aggregation);
        totals.degraded += (sent - landed) as u64;
        for msg in window.into_iter().flatten() {
            server.offer(&msg);
        }
        if barrier && server.pending() > 0 {
            server.commit_pending();
        }
    }
    Ok(())
}

/// One round of the asynchronous schedule, over the same fleet.
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
/// Both halves join before this returns, so a panic in either surfaces
/// here and no more than one round is ever staged.
pub fn async_round<F: Fleet>(
    fleet: &mut F,
    server: &ShardedParameterServer,
    cfg: &TrainConfig,
    timers: &Timers,
    totals: &mut CycleTotals,
    staged: &mut Option<Vec<SampleBatch>>,
    lead: bool,
) -> Result<(), F::Error> {
    // The caller only waits on the halves from here on (staged work wins
    // the attribution of any instant it overlaps).
    let _wait = telemetry::span("core.round_wait");
    let (mut actors, mut learners) = fleet.split();
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
    use std::convert::Infallible;
    use std::time::Duration;
    use stellaris_envs::EnvId;

    /// Two actor slots returning a canned batch, gradients from a real
    /// learner body, and a script for both: `(round, slot)` collects and
    /// `(round, mini-batch of the round)` gradients that never arrive, and
    /// the order `width` learner slots land in.
    struct ScriptedFleet {
        canned: SampleBatch,
        learner: LearnerBody,
        width: usize,
        /// Slots land last-first instead of first-first.
        reversed: bool,
        lost_collects: Vec<(usize, usize)>,
        lost_gradients: Vec<(usize, usize)>,
        /// The `(round, mini-batch of the round)` whose learner panics.
        panics_at: Option<(usize, usize)>,
        /// The plane a learner reads before each gradient it computes.
        observes: Option<Arc<ShardedParameterServer>>,
        /// `(round, mini-batch, gradients offered)` at each such read.
        offered_at_start: Vec<(usize, usize, u64)>,
        round: usize,
        next_minibatch: usize,
        delivered: u64,
    }

    impl ScriptedFleet {
        fn new(cfg: &TrainConfig, steps: usize, width: usize) -> Self {
            let snap = fresh_net(cfg).snapshot();
            Self {
                canned: ActorBody::new(cfg, 0).collect(&snap, steps),
                learner: LearnerBody::new(cfg),
                width,
                reversed: false,
                lost_collects: Vec::new(),
                lost_gradients: Vec::new(),
                panics_at: None,
                observes: None,
                offered_at_start: Vec::new(),
                round: 0,
                next_minibatch: 0,
                delivered: 0,
            }
        }
    }

    struct ScriptedActors<'f> {
        canned: &'f SampleBatch,
        lost: &'f [(usize, usize)],
        round: usize,
    }

    struct ScriptedLearners<'f> {
        learner: &'f mut LearnerBody,
        width: usize,
        reversed: bool,
        lost: &'f [(usize, usize)],
        panics_at: Option<(usize, usize)>,
        observes: Option<&'f ShardedParameterServer>,
        offered_at_start: &'f mut Vec<(usize, usize, u64)>,
        round: usize,
        next_minibatch: &'f mut usize,
        delivered: &'f mut u64,
    }

    impl Fleet for ScriptedFleet {
        type Error = Infallible;
        type Actors<'f> = ScriptedActors<'f>;
        type Learners<'f> = ScriptedLearners<'f>;

        fn split(&mut self) -> (ScriptedActors<'_>, ScriptedLearners<'_>) {
            // Mini-batches are numbered from the round's first wave.
            self.next_minibatch = 0;
            let actors = ScriptedActors {
                canned: &self.canned,
                lost: &self.lost_collects,
                round: self.round,
            };
            let learners = ScriptedLearners {
                learner: &mut self.learner,
                width: self.width,
                reversed: self.reversed,
                lost: &self.lost_gradients,
                panics_at: self.panics_at,
                observes: self.observes.as_deref(),
                offered_at_start: &mut self.offered_at_start,
                round: self.round,
                next_minibatch: &mut self.next_minibatch,
                delivered: &mut self.delivered,
            };
            (actors, learners)
        }
    }

    impl Actors for ScriptedActors<'_> {
        type Error = Infallible;

        fn collect(
            &mut self,
            _snap: &Arc<PolicySnapshot>,
        ) -> Result<Vec<Option<SampleBatch>>, Infallible> {
            let arrives = |slot| !self.lost.contains(&(self.round, slot));
            Ok((0..2)
                .map(|slot| arrives(slot).then(|| self.canned.clone()))
                .collect())
        }
    }

    impl Learners for ScriptedLearners<'_> {
        type Error = Infallible;

        fn wave_width(&self, _minibatches: usize) -> usize {
            self.width
        }

        /// Slot `l` serves mini-batches `l, l + width, ...`, starting each
        /// (reading the policy) when its previous one has landed; the slots
        /// land in turn, first to last or last to first.
        fn gradients(
            &mut self,
            policy: &Published,
            wave: Vec<SampleBatch>,
            arrived: &mut dyn FnMut(usize, GradientMsg),
        ) -> Result<(), Infallible> {
            let first = *self.next_minibatch;
            *self.next_minibatch += wave.len();
            let mut shares: Vec<VecDeque<(usize, SampleBatch)>> =
                (0..self.width).map(|_| VecDeque::new()).collect();
            for (i, mb) in wave.into_iter().enumerate() {
                shares[i % self.width].push_back((i, mb));
            }
            let start = |share: &mut VecDeque<(usize, SampleBatch)>| {
                share.pop_front().map(|(i, mb)| (i, mb, policy.get()))
            };
            let mut running: Vec<_> = shares.iter_mut().map(start).collect();
            let mut turns: Vec<usize> = (0..self.width).collect();
            if self.reversed {
                turns.reverse();
            }
            while running.iter().any(Option::is_some) {
                for &l in &turns {
                    let Some((i, mb, snap)) = running[l].take() else {
                        continue;
                    };
                    let id = (self.round, first + i);
                    assert_ne!(self.panics_at, Some(id), "scripted learner panic");
                    if !self.lost.contains(&id) {
                        if let Some(plane) = self.observes {
                            let n = plane.n_shards() as u64;
                            let offered = plane.grads_aggregated() / n + plane.pending() as u64;
                            self.offered_at_start.push((id.0, id.1, offered));
                        }
                        let msg = self.learner.gradient(&snap, &mb, None, l);
                        *self.delivered += 1;
                        arrived(i, msg);
                    }
                    running[l] = start(&mut shares[l]);
                }
            }
            Ok(())
        }
    }

    fn tiny(mode: LearnerMode, shards: usize) -> TrainConfig {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 13).with_sharding(shards, 1);
        cfg.learner_mode = mode;
        cfg
    }

    /// Regression (remote + `Sync`): a wave that ended short of its group
    /// used to stay pending across the wave and round boundary and commit
    /// mixed with gradients cut from the next snapshot.
    #[test]
    fn short_wave_commits_at_the_barrier() {
        let cfg = tiny(LearnerMode::Sync { n: 2 }, 1);
        let server = parameter_plane(&cfg);
        // One collect of 96 steps = three mini-batches: waves [0, 1] and [2].
        let mut fleet = ScriptedFleet::new(&cfg, 96, 2);
        fleet.lost_collects = vec![(0, 1)];
        fleet.lost_gradients = vec![(0, 1)];
        let mut totals = CycleTotals::default();
        let Ok(()) = lockstep_round(&mut fleet, &server, &cfg, &Timers::default(), &mut totals);
        assert_eq!(server.pending(), 0, "nothing crosses the round boundary");
        assert_eq!(server.grads_aggregated(), 2);
        assert_eq!(server.staleness_log().to_vec(), vec![0, 0]);
        assert_eq!(server.updates(), 2, "each short wave committed on its own");
        assert_eq!(totals.degraded, 2, "one lost collect + one lost gradient");
    }

    /// Three scripted rounds with the conservation laws checked after each;
    /// returns the final checksum and staleness log.
    fn scripted_run(shards: usize, reversed: bool) -> (u64, Vec<u64>) {
        let rule = AggregationRule::Softsync { c: 2 };
        let cfg = tiny(LearnerMode::Async { rule }, shards);
        let server = parameter_plane(&cfg);
        let n = server.n_shards() as u64;
        assert_eq!(n, shards as u64);
        // Two collects of 64 steps = four mini-batches: waves of 3 and 1.
        let mut fleet = ScriptedFleet::new(&cfg, 64, 3);
        fleet.reversed = reversed;
        fleet.lost_collects = vec![(1, 0)];
        fleet.lost_gradients = vec![(0, 2), (2, 0), (2, 3)];
        let mut totals = CycleTotals::default();
        for (round, lost_so_far) in [1, 2, 4].into_iter().enumerate() {
            fleet.round = round;
            let Ok(()) = lockstep_round(&mut fleet, &server, &cfg, &Timers::default(), &mut totals);
            assert_eq!(
                totals.degraded, lost_so_far,
                "round {round}: losses counted"
            );
            assert_eq!(
                fleet.delivered * n,
                server.grads_aggregated() + server.pending() as u64 * n,
                "round {round}: offered = aggregated + pending on every shard"
            );
            assert_eq!(server.clock(), server.updates(), "round {round}: clock");
        }
        assert_eq!(fleet.delivered, 3 + 2 + 2);
        let per_collect = fleet.canned.episode_returns.len() as u64;
        assert_eq!(totals.episodes, 5 * per_collect, "five collects arrived");
        let log = server.staleness_log().to_vec();
        (snapshot_checksum(&server.snapshot()), log)
    }

    #[test]
    fn scripted_rounds_conserve_gradients_and_offer_in_minibatch_order() {
        for shards in [1, 3] {
            let in_order = scripted_run(shards, false);
            assert_eq!(in_order.1.len(), 6, "three pairs folded, one pending");
            assert_eq!(
                in_order,
                scripted_run(shards, true),
                "{shards} shard(s): the fleet's delivery order must not reach the weights"
            );
        }
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
        let (mut actors, mut learners) = fleet.split();
        let policy = Published::new(server.snapshot());
        let Ok(collected) = actors.collect(&policy.get());
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
            let Ok(()) = learners.gradients(&policy, wave, &mut |i, msg| msgs.push((i, msg)));
            msgs.sort_by_key(|(i, _)| *i);
            for (_, msg) in msgs {
                server.offer(&msg);
            }
        }
    }

    /// Two rounds of one four-wide wave each over `shards` shard(s), the
    /// scripted learners reading the plane before every gradient; with
    /// `streamed` through `lockstep_round`, otherwise through the
    /// collect-and-sort oracle. Returns the final checksum, the staleness
    /// log and what the learners read.
    fn observed_run(
        shards: usize,
        reversed: bool,
        lost: &[(usize, usize)],
        streamed: bool,
    ) -> (u64, Vec<u64>, Vec<(usize, usize, u64)>) {
        let rule = AggregationRule::Softsync { c: 2 };
        let cfg = tiny(LearnerMode::Async { rule }, shards);
        let server = Arc::new(parameter_plane(&cfg));
        // Two collects of 64 steps = four mini-batches, one wave.
        let mut fleet = ScriptedFleet::new(&cfg, 64, 4);
        fleet.reversed = reversed;
        fleet.lost_gradients = lost.to_vec();
        fleet.observes = Some(Arc::clone(&server));
        let mut totals = CycleTotals::default();
        for round in 0..2 {
            fleet.round = round;
            if streamed {
                let Ok(()) =
                    lockstep_round(&mut fleet, &server, &cfg, &Timers::default(), &mut totals);
            } else {
                collect_and_sort_round(&mut fleet, &server, &cfg, &mut totals);
            }
        }
        let log = server.staleness_log().to_vec();
        (
            snapshot_checksum(&server.snapshot()),
            log,
            fleet.offered_at_start,
        )
    }

    #[test]
    fn lockstep_offers_stream_during_the_wave() {
        let (_, _, seen) = observed_run(1, false, &[], true);
        // Slot `l` computes mini-batch `l`; each learner finds every
        // earlier mini-batch already offered, so mini-batch 0 was offered
        // before the wave's last gradient was computed.
        assert_eq!(
            seen[..4],
            [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3)],
            "offers must stream in mini-batch order as gradients land"
        );
        let (_, _, sorted_seen) = observed_run(1, false, &[], false);
        assert!(
            sorted_seen[..4].iter().all(|&(_, _, offered)| offered == 0),
            "the collect-and-sort oracle offers nothing until the wave ends"
        );
    }

    #[test]
    fn a_lost_gradient_holds_later_offers_back_in_index_order() {
        let lost = [(0, 1), (1, 2)];
        for shards in [1, 3] {
            let (sum, log, seen) = observed_run(shards, false, &lost, true);
            // Mini-batch 1 never lands, so 2 and 3 wait for the wave's end.
            assert_eq!(seen[..3], [(0, 0, 0), (0, 2, 1), (0, 3, 1)]);
            for reversed in [false, true] {
                let (ref_sum, ref_log, _) = observed_run(shards, reversed, &lost, false);
                assert_eq!(
                    (sum, &log),
                    (ref_sum, &ref_log),
                    "{shards} shard(s), reversed {reversed}: the reorder window \
                     must end where collect-and-sort does"
                );
                let streamed = observed_run(shards, reversed, &lost, true);
                assert_eq!((streamed.0, &streamed.1), (ref_sum, &ref_log));
            }
        }
    }

    /// Three `async_round`s over the script (four mini-batches a round over
    /// three learner slots, the third round's collect lost to the lead),
    /// with the conservation laws checked after each; returns the final
    /// checksum and staleness log.
    fn scripted_async_run(shards: usize, reversed: bool) -> (u64, Vec<u64>) {
        let rule = AggregationRule::Softsync { c: 2 };
        let cfg = tiny(LearnerMode::Async { rule }, shards);
        let server = parameter_plane(&cfg);
        let n = server.n_shards() as u64;
        let mut fleet = ScriptedFleet::new(&cfg, 64, 3);
        fleet.reversed = reversed;
        // The collect made during round 1 is round 2's data.
        fleet.lost_collects = vec![(1, 0)];
        fleet.lost_gradients = vec![(0, 2), (2, 0)];
        let (mut totals, mut staged) = (CycleTotals::default(), None);
        for (round, lost_so_far) in [1, 2, 3].into_iter().enumerate() {
            fleet.round = round;
            let lead = round < 2;
            let Ok(()) = async_round(
                &mut fleet,
                &server,
                &cfg,
                &Timers::default(),
                &mut totals,
                &mut staged,
                lead,
            );
            assert_eq!(staged.is_some(), lead, "round {round}: one round staged");
            assert_eq!(totals.degraded, lost_so_far, "round {round}: losses");
            assert_eq!(
                fleet.delivered * n,
                server.grads_aggregated() + server.pending() as u64 * n,
                "round {round}: offered = aggregated + pending on every shard"
            );
            assert_eq!(server.clock(), server.updates(), "round {round}: clock");
        }
        assert_eq!(fleet.delivered, 3 + 4 + 1);
        let per_collect = fleet.canned.episode_returns.len() as u64;
        assert_eq!(totals.episodes, 5 * per_collect, "five collects arrived");
        (
            snapshot_checksum(&server.snapshot()),
            server.staleness_log().to_vec(),
        )
    }

    #[test]
    fn scripted_async_rounds_replay_and_conserve_gradients() {
        for shards in [1, 3] {
            let run = scripted_async_run(shards, false);
            assert!(!run.1.is_empty(), "{shards} shard(s): something committed");
            assert_eq!(
                run,
                scripted_async_run(shards, false),
                "{shards} shard(s): the same script must end on the same bits"
            );
        }
    }

    /// In lock-step the delivery order never reaches the weights
    /// (`scripted_rounds_conserve_gradients_and_offer_in_minibatch_order`);
    /// asynchronously it is the schedule, so reversing it moves both.
    #[test]
    fn async_arrival_order_reaches_the_weights() {
        for shards in [1, 3] {
            let (sum, log) = scripted_async_run(shards, false);
            let (rev_sum, rev_log) = scripted_async_run(shards, true);
            assert_ne!(log, rev_log, "{shards} shard(s): staleness log");
            assert_ne!(sum, rev_sum, "{shards} shard(s): weights");
        }
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
            let cfg = tiny(LearnerMode::Async { rule }, 1);
            let server = parameter_plane(&cfg);
            let mut fleet = ScriptedFleet::new(&cfg, 64, 3);
            fleet.panics_at = Some((1, 2));
            let (mut totals, mut staged) = (CycleTotals::default(), None);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for round in 0..3 {
                    fleet.round = round;
                    let Ok(()) = async_round(
                        &mut fleet,
                        &server,
                        &cfg,
                        &Timers::default(),
                        &mut totals,
                        &mut staged,
                        round < 2,
                    );
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
}
