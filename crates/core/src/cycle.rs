//! The lock-step training cycle (Fig. 4) and the function bodies it drives.
//!
//! The paper has one cycle — actors pull the policy and collect (Step ①),
//! learner functions differentiate (Step ②), the parameter function gates
//! and commits (Step ③) — and treats *where* a function runs as deployment.
//! This module holds the venue-independent half of that split:
//!
//! * [`ActorBody`] and [`LearnerBody`] are the two function bodies; every
//!   schedule and the remote worker process hold these, so both sides of a
//!   socket compute identically.
//! * [`Fleet`] is the execution venue: threads behind the serverless
//!   platform (`orchestrator::LocalFleet`) or child processes behind framed
//!   sockets (`remote::ProcessFleet`).
//! * [`lockstep_round`] is the cycle itself, written once over a `Fleet`:
//!   it owns the data loader, the offer order and the wave barrier.
//!
//! The free-running asynchronous pipeline (`orchestrator::train_async`)
//! is a different schedule and only shares the bodies.

use stellaris_envs::make_env;
use stellaris_nn::Tensor;
use stellaris_rl::{
    fill_gae, impact_gradients, impala_gradients, ppo_gradients, ImpactLearner, PolicyNet,
    PolicySnapshot, PolicySpec, RolloutWorker, SampleBatch,
};

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

/// Where the cycle's functions run. A fleet *loses* work (a collect or a
/// gradient that exhausted its retries is simply absent from the result);
/// it returns `Err` only when the round cannot go on.
pub trait Fleet {
    /// What aborts a round (`Infallible` for fleets that only lose work).
    type Error;

    /// Step ①: every actor slot pulls `snap` (the server's current
    /// snapshot) and collects. One entry per attempted collect, `None`
    /// where lost.
    fn collect(&mut self, snap: &PolicySnapshot) -> Result<Vec<Option<SampleBatch>>, Self::Error>;

    /// How many of a round's `minibatches` are differentiated against one
    /// snapshot before the next is cut.
    fn wave_width(&self, minibatches: usize) -> usize;

    /// Step ②: one gradient per mini-batch of `wave`, all against `snap`.
    /// Each is tagged with its index in `wave`; lost ones are absent and
    /// the order is the fleet's own.
    fn gradients(
        &mut self,
        snap: &PolicySnapshot,
        wave: Vec<SampleBatch>,
    ) -> Result<Vec<(usize, GradientMsg)>, Self::Error>;
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

/// One round of the lock-step cycle: collect → GAE and mini-batching → per
/// wave: snapshot, gradients, offer in mini-batch order, barrier commit.
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
    let mut snap = server.snapshot();
    let collected = fleet.collect(&snap)?;
    totals.degraded += collected.iter().filter(|b| b.is_none()).count() as u64;
    let batches: Vec<SampleBatch> = collected.into_iter().flatten().collect();
    totals.episodes += batches
        .iter()
        .map(|b| b.episode_returns.len() as u64)
        .sum::<u64>();
    if totals.probe_obs.is_none() {
        totals.probe_obs = batches.first().map(|b| b.obs.clone());
    }

    // GPU data loader (§V-B): GAE + mini-batching.
    let mut minibatches: Vec<SampleBatch> = Vec::new();
    {
        let _t = timers.span(Component::DataLoading);
        let (gamma, lambda) = (cfg.algo.gamma(), cfg.algo.gae_lambda());
        for mut b in batches {
            fill_gae(&mut b, gamma, lambda);
            b.normalize_advantages();
            minibatches.extend(b.minibatches(cfg.minibatch));
        }
    }

    let barrier = matches!(cfg.learner_mode.rule(), AggregationRule::FullSync { .. });
    let width = fleet.wave_width(minibatches.len()).max(1);
    let mut rest = minibatches.into_iter().peekable();
    while rest.peek().is_some() {
        let wave: Vec<SampleBatch> = rest.by_ref().take(width).collect();
        let sent = wave.len();
        // Only a commit moves the clock, so an unmoved clock means `snap`
        // still is the server's state.
        if snap.version != server.clock() {
            snap = server.snapshot();
        }
        let mut msgs = fleet.gradients(&snap, wave)?;
        let _agg = timers.span(Component::Aggregation);
        totals.degraded += (sent - msgs.len()) as u64;
        msgs.sort_by_key(|(i, _)| *i);
        for (_, msg) in msgs {
            server.offer(&msg);
        }
        if barrier && server.pending() > 0 {
            server.commit_pending();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearnerMode;
    use crate::orchestrator::parameter_plane;
    use crate::remote::snapshot_checksum;
    use std::convert::Infallible;
    use stellaris_envs::EnvId;

    /// Two actor slots returning a canned batch, gradients from a real
    /// learner body, and a loss script for both: `(round, slot)` collects
    /// and `(round, mini-batch of the round)` gradients that never arrive.
    struct ScriptedFleet {
        canned: SampleBatch,
        learner: LearnerBody,
        width: usize,
        /// Hand each wave's gradients back last-first.
        reversed: bool,
        lost_collects: Vec<(usize, usize)>,
        lost_gradients: Vec<(usize, usize)>,
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
                round: 0,
                next_minibatch: 0,
                delivered: 0,
            }
        }
    }

    impl Fleet for ScriptedFleet {
        type Error = Infallible;

        fn collect(
            &mut self,
            _snap: &PolicySnapshot,
        ) -> Result<Vec<Option<SampleBatch>>, Infallible> {
            self.next_minibatch = 0;
            let arrives = |slot| !self.lost_collects.contains(&(self.round, slot));
            Ok((0..2)
                .map(|slot| arrives(slot).then(|| self.canned.clone()))
                .collect())
        }

        fn wave_width(&self, _minibatches: usize) -> usize {
            self.width
        }

        fn gradients(
            &mut self,
            snap: &PolicySnapshot,
            wave: Vec<SampleBatch>,
        ) -> Result<Vec<(usize, GradientMsg)>, Infallible> {
            let first = self.next_minibatch;
            self.next_minibatch += wave.len();
            let mut out = Vec::new();
            for (i, mb) in wave.iter().enumerate() {
                if !self.lost_gradients.contains(&(self.round, first + i)) {
                    out.push((i, self.learner.gradient(snap, mb, None, i % 2)));
                }
            }
            if self.reversed {
                out.reverse();
            }
            self.delivered += out.len() as u64;
            Ok(out)
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
}
