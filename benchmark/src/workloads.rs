//! The five workloads: what each runs and why it exists.
//!
//! Every workload is PPO `PpoConfig::scaled()` at Table II widths
//! (`hidden = 256`), `Deployment::Serverless`, faults off, no invocation
//! deadline, `EnvConfig::default()`. Load is sized for a 2-vCPU box: at most
//! two actor and two learner threads plus the driver.

use crate::api::{
    make_env, AggregationRule, Algo, Deployment, EnvConfig, EnvId, FaultConfig, LearnerMode,
    PolicyNet, PolicySpec, PpoConfig, TrainConfig,
};

/// Table II hidden width of every workload's policy.
pub const HIDDEN: usize = 256;

/// How a workload's rounds are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `train()` with asynchronous learners on the sharded plane.
    Async,
    /// `train()` with `LearnerMode::Sync { n: 2 }` barrier waves.
    Sync,
    /// `RemoteFleet::run` over TCP against `stellaris worker` processes.
    RemoteTcp,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used by `--workload` and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    pub driver: Driver,
    pub env: EnvId,
    pub actors: usize,
    pub learners: usize,
    pub actor_steps: usize,
    pub minibatch: usize,
    pub round_timesteps: usize,
    /// Rounds measured per 10 s of `--seconds` (sized on the 2-vCPU box so
    /// one run at `--seconds 10` measures about ten seconds).
    pub rounds_per_10s: usize,
    pub eval_episodes: usize,
    pub shards: usize,
    pub lanes: usize,
    /// Post-run `evaluate` of the final weights must reach this. A
    /// divergence floor, not a learning bar: at this scale some seeds
    /// plateau at untrained reward, so the floor sits below anything a
    /// finite policy scored over the calibration seeds (see README).
    /// `None` on the remote workload, whose report carries no weights.
    pub reward_floor: Option<f32>,
    /// `core.time_to_target_s` target for the 5-round moving average of
    /// the per-round evaluation reward (sync workload only).
    pub reward_target: Option<f32>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hopper_mlp_async",
        why: "Headline path: Hopper MLP, async staleness-aware learners; CPU-saturated, so rollout and GEMM/backward show in wall by busy share; plane and codec do almost nothing.",
        driver: Driver::Async,
        env: EnvId::Hopper,
        actors: 2,
        learners: 2,
        actor_steps: 512,
        minibatch: 512,
        round_timesteps: 1024,
        rounds_per_10s: 100,
        eval_episodes: 0,
        shards: 1,
        lanes: 1,
        reward_floor: Some(-10.0),
        reward_target: None,
    },
    Workload {
        name: "invaders_cnn_async",
        why: "Learner-bound: SpaceInvaders 42-px CNN; conv forward/backward and pixel-batch traffic dominate, MLP GEMM shapes and physics do nothing; a conv or arena change shows here only.",
        driver: Driver::Async,
        env: EnvId::SpaceInvaders,
        actors: 2,
        learners: 2,
        actor_steps: 128,
        minibatch: 128,
        round_timesteps: 256,
        rounds_per_10s: 100,
        eval_episodes: 0,
        shards: 1,
        lanes: 1,
        reward_floor: Some(0.0),
        reward_target: None,
    },
    Workload {
        name: "hopper_mlp_remote_tcp",
        why: "Strictly serial loop over TCP to three worker processes, 16 x ~1.1 MB request/reply pairs a round: the only path through codec, frames, sockets, spawn and policy pulls; queues and shards do nothing.",
        driver: Driver::RemoteTcp,
        env: EnvId::Hopper,
        actors: 1,
        learners: 2,
        actor_steps: 512,
        minibatch: 32,
        round_timesteps: 512,
        rounds_per_10s: 50,
        eval_episodes: 0,
        shards: 1,
        lanes: 1,
        reward_floor: None,
        reward_target: None,
    },
    Workload {
        name: "hopper_mlp_sync",
        why: "Same layers as hopper_mlp_async driven as Sync{n:2} barrier waves on the classic server: no staleness gate, no gradient queue; bit-reproducible per seed, so it carries the checksum and time-to-target.",
        driver: Driver::Sync,
        env: EnvId::Hopper,
        actors: 2,
        learners: 2,
        actor_steps: 512,
        minibatch: 512,
        round_timesteps: 1024,
        rounds_per_10s: 100,
        eval_episodes: 1,
        shards: 1,
        lanes: 1,
        reward_floor: Some(-10.0),
        reward_target: Some(10.0),
    },
    Workload {
        name: "pointmass_fanin",
        why: "Cheap env, so the 4-shard x 4-lane plane (offer, snapshot, lanes, store, gradient codec) takes its largest share of any workload; sized so the aggregator keeps up; the only multi-shard path.",
        driver: Driver::Async,
        env: EnvId::PointMass,
        actors: 1,
        learners: 2,
        actor_steps: 256,
        minibatch: 128,
        round_timesteps: 512,
        rounds_per_10s: 140,
        eval_episodes: 0,
        shards: 4,
        lanes: 4,
        reward_floor: Some(-5000.0),
        reward_target: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Rounds to measure for a `--seconds` budget.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        (self.rounds_per_10s * seconds as usize / 10).max(3)
    }

    /// Environment steps one round consumes.
    pub fn steps_per_round(&self) -> u64 {
        match self.driver {
            Driver::RemoteTcp => self.actor_steps as u64,
            Driver::Async | Driver::Sync => {
                let a = self.actor_steps as u64;
                (self.round_timesteps as u64 / a).max(1) * a
            }
        }
    }

    /// Learner invocations one round must make for its step target.
    pub fn invocations_per_round(&self) -> u64 {
        let per_collect = self.actor_steps.div_ceil(self.minibatch) as u64;
        self.steps_per_round() / self.actor_steps as u64 * per_collect
    }

    /// A fresh policy of the architecture this workload trains.
    pub fn policy(&self, seed: u64) -> PolicyNet {
        let mut env = make_env(self.env, EnvConfig::default());
        env.reset(seed);
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = HIDDEN;
        PolicyNet::new(spec, seed)
    }

    pub fn train_config(&self, seed: u64, rounds: usize) -> TrainConfig {
        let mut cfg = TrainConfig::stellaris_scaled(self.env, seed);
        cfg.env_cfg = EnvConfig::default();
        cfg.algo = Algo::Ppo(PpoConfig::scaled());
        cfg.learner_mode = match self.driver {
            Driver::Sync => LearnerMode::Sync { n: self.learners },
            Driver::Async | Driver::RemoteTcp => LearnerMode::Async {
                rule: AggregationRule::stellaris_default(),
            },
        };
        cfg.n_actors = self.actors;
        cfg.max_learners = self.learners;
        cfg.actor_steps = self.actor_steps;
        cfg.minibatch = self.minibatch;
        cfg.round_timesteps = self.round_timesteps;
        cfg.rounds = rounds;
        cfg.eval_episodes = self.eval_episodes;
        cfg.hidden = HIDDEN;
        cfg.deployment = Deployment::Serverless;
        cfg.faults = FaultConfig::off();
        cfg.invoke_deadline = None;
        cfg.with_sharding(self.shards, self.lanes)
    }
}
