//! Training-job configuration: algorithm, learner topology, deployment and
//! scale, with paper-faithful and laptop-scale presets.

use std::time::Duration;

use stellaris_envs::{EnvConfig, EnvId};
use stellaris_rl::{ImpactConfig, PolicySnapshot, PpoConfig};
use stellaris_serverless::{Cluster, FaultConfig, RetryPolicy};

use crate::aggregation::AggregationRule;

/// Which DRL algorithm the learners run (§VIII-B1).
#[derive(Clone, Copy, Debug)]
pub enum Algo {
    /// On-policy PPO with GAE and surrogate clipping.
    Ppo(PpoConfig),
    /// Off-policy IMPACT with V-trace and a surrogate target network.
    Impact(ImpactConfig),
}

impl Algo {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Ppo(_) => "PPO",
            Algo::Impact(_) => "IMPACT",
        }
    }

    /// Base learning rate `α_0`.
    pub fn lr(&self) -> f32 {
        match self {
            Algo::Ppo(c) => c.lr,
            Algo::Impact(c) => c.lr,
        }
    }

    /// Discount factor.
    pub fn gamma(&self) -> f32 {
        match self {
            Algo::Ppo(c) => c.gamma,
            Algo::Impact(c) => c.gamma,
        }
    }

    /// GAE `λ` the data loader fills advantages with (IMPACT carries no
    /// `λ` of its own and uses the PPO default).
    pub fn gae_lambda(&self) -> f32 {
        match self {
            Algo::Ppo(c) => c.gae_lambda,
            Algo::Impact(_) => 0.95,
        }
    }
}

/// How learners are hosted and how the job is billed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// Everything serverless: pay per function-second (Stellaris,
    /// MinionsRL).
    Serverless,
    /// Everything serverful: whole VMs reserved for the whole run (vanilla
    /// PPO/IMPACT, RLlib, PAR-RL).
    Serverful,
    /// Serverful GPU VMs + serverless actors.
    Hybrid,
}

/// Learner topology.
#[derive(Clone, Debug)]
pub enum LearnerMode {
    /// Asynchronous learners feeding a delayed-aggregation parameter
    /// function (Stellaris and its ablation baselines).
    Async {
        /// Aggregation rule.
        rule: AggregationRule,
    },
    /// Synchronous multi-learner data parallelism: each round, the batch is
    /// sharded over `n` learners and gradients are plain-averaged. `n = 1`
    /// is one centralized learner (MinionsRL, SEED-RL style).
    Sync {
        /// Learner-group size.
        n: usize,
    },
}

impl LearnerMode {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            LearnerMode::Async { .. } => "async",
            LearnerMode::Sync { .. } => "sync",
        }
    }

    /// The aggregation rule the parameter function runs under this
    /// topology: the configured rule for asynchronous learners, a full
    /// barrier over the learner group for the lock-step ones.
    pub fn rule(&self) -> AggregationRule {
        match self {
            LearnerMode::Async { rule } => rule.clone(),
            LearnerMode::Sync { n } => AggregationRule::FullSync { n: (*n).max(1) },
        }
    }
}

/// Full training-job configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Environment.
    pub env_id: EnvId,
    /// Environment options.
    pub env_cfg: EnvConfig,
    /// Algorithm + hyperparameters.
    pub algo: Algo,
    /// Learner topology.
    pub learner_mode: LearnerMode,
    /// Number of actors (paper: one per CPU core).
    pub n_actors: usize,
    /// Timesteps each actor collects per batch (paper: 1024).
    pub actor_steps: usize,
    /// Maximum concurrent learner functions (paper: 4 per GPU).
    pub max_learners: usize,
    /// Learner mini-batch size `b`.
    pub minibatch: usize,
    /// Training rounds (paper: 50).
    pub rounds: usize,
    /// Timesteps consumed per round (round boundary for evaluation and the
    /// β_k schedule).
    pub round_timesteps: usize,
    /// Global IS-truncation threshold ρ; `None` disables Eq. 2
    /// (the Fig. 11b ablation).
    pub truncation_rho: Option<f32>,
    /// Master seed.
    pub seed: u64,
    /// Evaluation episodes per round.
    pub eval_episodes: usize,
    /// Deployment/billing model.
    pub deployment: Deployment,
    /// Cluster profile for slots and prices.
    pub cluster: Cluster,
    /// Policy hidden width override (256 = Table II; smaller for CI scale).
    pub hidden: usize,
    /// MinionsRL-style dynamic actor scaling.
    pub dynamic_actors: bool,
    /// Backlog-driven learner autoscaling (§V-B's dynamic learner
    /// orchestration): each batch of staged mini-batches sizes the learner
    /// pool that serves it. When false the pool is pinned at every slot.
    pub dynamic_learners: bool,
    /// Resume training from a previous run's final snapshot (architecture
    /// must match this config's env/hidden geometry). Honoured by both
    /// schedules and by the remote fleet.
    pub initial_snapshot: Option<PolicySnapshot>,
    /// Fault-injection plan (seeded chaos); `FaultConfig::off()` disables
    /// every fault class.
    pub faults: FaultConfig,
    /// Retry policy for failed invocations and transport errors.
    pub retry: RetryPolicy,
    /// Per-invocation deadline; invocations finishing later are treated as
    /// stragglers, discarded and re-executed. `None` disables the deadline
    /// (required for bitwise-deterministic runs — deadlines compare
    /// wall-clock time).
    pub invoke_deadline: Option<Duration>,
}

impl TrainConfig {
    /// Stellaris at laptop scale on the given environment: asynchronous
    /// learners, staleness-aware aggregation, global IS truncation, fully
    /// serverless. Defaults keep a full 10-round Hopper run under a minute.
    pub fn stellaris_scaled(env_id: EnvId, seed: u64) -> Self {
        Self {
            env_id,
            env_cfg: EnvConfig::default(),
            algo: Algo::Ppo(PpoConfig::scaled()),
            learner_mode: LearnerMode::Async {
                rule: AggregationRule::stellaris_default(),
            },
            n_actors: 4,
            actor_steps: 128,
            max_learners: 4,
            minibatch: 128,
            rounds: 10,
            round_timesteps: 1024,
            truncation_rho: Some(1.0),
            seed,
            eval_episodes: 2,
            deployment: Deployment::Serverless,
            cluster: Cluster::regular(),
            hidden: 64,
            dynamic_actors: false,
            dynamic_learners: false,
            initial_snapshot: None,
            faults: FaultConfig::off(),
            retry: RetryPolicy::default(),
            invoke_deadline: None,
        }
    }

    /// The paper's §VIII-A setting: 1024-step actor batches, Table II/III
    /// hyperparameters, 50 rounds, regular EC2 cluster.
    pub fn stellaris_paper(env_id: EnvId, seed: u64) -> Self {
        let cluster = Cluster::regular();
        Self {
            env_cfg: EnvConfig::paper(),
            algo: Algo::Ppo(PpoConfig::paper()),
            n_actors: cluster.actor_slots(),
            actor_steps: 1024,
            max_learners: cluster.learner_slots(),
            minibatch: if env_id.is_continuous() { 4096 } else { 256 },
            rounds: 50,
            round_timesteps: 64 * 1024,
            hidden: 256,
            eval_episodes: 10,
            cluster,
            ..Self::stellaris_scaled(env_id, seed)
        }
    }

    /// Tiny configuration for unit/integration tests (seconds, not minutes).
    pub fn test_tiny(env_id: EnvId, seed: u64) -> Self {
        Self {
            env_cfg: EnvConfig::tiny(),
            n_actors: 2,
            actor_steps: 32,
            max_learners: 2,
            minibatch: 32,
            rounds: 3,
            round_timesteps: 128,
            hidden: 16,
            eval_episodes: 1,
            cluster: Cluster::tiny(),
            ..Self::stellaris_scaled(env_id, seed)
        }
    }

    /// Switches the algorithm to IMPACT keeping everything else.
    pub fn with_impact(mut self, cfg: ImpactConfig) -> Self {
        self.algo = Algo::Impact(cfg);
        self
    }

    /// Resumes from a previous run's final weights.
    pub fn resume_from(mut self, snapshot: PolicySnapshot) -> Self {
        self.initial_snapshot = Some(snapshot);
        self
    }

    /// Turns on the default chaos profile (20% invocation failures, 5%
    /// mid-work crashes, 20% stragglers, 20% drops and 10% corruptions of
    /// worker-socket frames (`RemoteFleet`)) with its own seed, keeping
    /// the default retry policy. In process there are no frames, so only
    /// the invocation classes fire.
    pub fn with_chaos(mut self, seed: u64) -> Self {
        self.faults = FaultConfig::chaos(seed);
        self
    }

    /// Returns the config unchanged. The parameter function has no shards
    /// and gradients reach it on the cycle's thread, not through queue
    /// lanes, so both arguments are ignored; the method stays only because
    /// the benchmark's workload table calls it.
    pub fn with_sharding(self, _shards: usize, _lanes: usize) -> Self {
        self
    }

    /// Human-readable label for figures: `"<algo>+<topology>"`.
    pub fn label(&self) -> String {
        let topo = match &self.learner_mode {
            LearnerMode::Async { rule } => rule.name(),
            LearnerMode::Sync { .. } => "sync",
        };
        format!("{}+{}", self.algo.name(), topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_testbed() {
        let c = TrainConfig::stellaris_paper(EnvId::Hopper, 0);
        assert_eq!(c.n_actors, 128, "one actor per CPU core");
        assert_eq!(c.max_learners, 8, "4 learner fns per V100 x 2 GPUs");
        assert_eq!(c.actor_steps, 1024);
        assert_eq!(c.rounds, 50);
        assert_eq!(c.hidden, 256);
        assert_eq!(c.minibatch, 4096, "Table III MuJoCo batch");
        let a = TrainConfig::stellaris_paper(EnvId::Qbert, 0);
        assert_eq!(a.minibatch, 256, "Table III Atari batch");
    }

    #[test]
    fn labels_identify_topologies() {
        let c = TrainConfig::stellaris_scaled(EnvId::Hopper, 0);
        assert_eq!(c.label(), "PPO+stellaris");
        let mut s = c.clone();
        s.learner_mode = LearnerMode::Sync { n: 4 };
        assert_eq!(s.label(), "PPO+sync");
    }

    #[test]
    fn with_impact_switches_algo() {
        let c = TrainConfig::stellaris_scaled(EnvId::Hopper, 0).with_impact(ImpactConfig::scaled());
        assert_eq!(c.algo.name(), "IMPACT");
        assert!(c.algo.lr() > 0.0);
        assert_eq!(c.algo.gamma(), 0.99);
    }
}
