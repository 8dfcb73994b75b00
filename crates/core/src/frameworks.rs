//! Named configurations reproducing every baseline system in the paper's
//! evaluation (Table I rows and the §VIII-B/§VIII-D comparisons), plus the
//! `+Stellaris` integration of each.

use stellaris_envs::EnvId;
use stellaris_rl::{ImpactConfig, PpoConfig};
use stellaris_serverless::Cluster;

use crate::aggregation::AggregationRule;
use crate::config::{Algo, Deployment, LearnerMode, TrainConfig};

/// Stellaris itself: asynchronous staleness-aware learners, global IS
/// truncation, fully serverless (the paper's headline configuration).
pub fn stellaris(env: EnvId, seed: u64) -> TrainConfig {
    TrainConfig::stellaris_scaled(env, seed)
}

/// Vanilla distributed PPO: synchronous multi-learner data parallelism on
/// reserved (serverful) VMs — the "PPO" baseline of Figs. 6 and 8.
pub fn ppo_vanilla(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(env, seed);
    cfg.algo = Algo::Ppo(PpoConfig::scaled());
    cfg.learner_mode = LearnerMode::Sync {
        n: cfg.max_learners,
    };
    cfg.deployment = Deployment::Serverful;
    cfg.truncation_rho = None;
    cfg
}

/// PPO + Stellaris: the same algorithm handed to the asynchronous
/// serverless learner paradigm.
pub fn ppo_stellaris(env: EnvId, seed: u64) -> TrainConfig {
    TrainConfig::stellaris_scaled(env, seed)
}

/// Vanilla IMPACT: the SOTA off-policy baseline (asynchronous actors,
/// synchronous serverful learners with a target network) — Figs. 7 and 8.
pub fn impact_vanilla(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(env, seed).with_impact(ImpactConfig::scaled());
    cfg.learner_mode = LearnerMode::Sync {
        n: cfg.max_learners,
    };
    cfg.deployment = Deployment::Serverful;
    cfg.truncation_rho = None;
    cfg
}

/// IMPACT + Stellaris.
pub fn impact_stellaris(env: EnvId, seed: u64) -> TrainConfig {
    TrainConfig::stellaris_scaled(env, seed).with_impact(ImpactConfig::scaled())
}

/// Ray RLlib-style training: industry-grade synchronous learner group on
/// serverful infrastructure (Fig. 9 baseline).
pub fn rllib(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = ppo_vanilla(env, seed);
    cfg.learner_mode = LearnerMode::Sync {
        n: 4.min(cfg.max_learners.max(1)),
    };
    cfg
}

/// RLlib + Stellaris: "we implement the logic of our asynchronous
/// serverless learner functions inside RLlib's default learner group".
pub fn rllib_stellaris(env: EnvId, seed: u64) -> TrainConfig {
    TrainConfig::stellaris_scaled(env, seed)
}

/// MinionsRL: serverless actors with dynamic scaling feeding a single
/// centralized learner, synchronous updates (Fig. 10 baseline).
pub fn minions_rl(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(env, seed);
    cfg.learner_mode = LearnerMode::Sync { n: 1 };
    cfg.deployment = Deployment::Serverless;
    cfg.dynamic_actors = true;
    cfg.truncation_rho = None;
    cfg
}

/// MinionsRL + Stellaris: keep the dynamically scaled serverless actors,
/// replace the synchronous single learner with asynchronous learners.
pub fn minions_rl_stellaris(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(env, seed);
    cfg.dynamic_actors = true;
    cfg
}

/// PAR-RL: the Argonne HPC RL workload — synchronous data-parallel
/// learners on the reserved HPC cluster (Fig. 12 baseline).
pub fn par_rl(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = ppo_vanilla(env, seed);
    cfg.cluster = Cluster::hpc();
    cfg
}

/// Stellaris on the HPC cluster profile (Fig. 12 comparison).
pub fn stellaris_hpc(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(env, seed);
    cfg.cluster = Cluster::hpc();
    cfg
}

/// Fig. 2 variant: Stellaris without asynchronous learning (synchronous
/// learners, still serverless billing).
pub fn stellaris_no_async(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(env, seed);
    cfg.learner_mode = LearnerMode::Sync {
        n: cfg.max_learners,
    };
    cfg
}

/// Fig. 2 variant: Stellaris without serverless computing (asynchronous
/// learners on reserved VMs, serverful billing).
pub fn stellaris_no_serverless(env: EnvId, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(env, seed);
    cfg.deployment = Deployment::Serverful;
    cfg
}

/// Fig. 11(a) ablation: swap only the aggregation rule.
pub fn with_aggregation(mut cfg: TrainConfig, rule: AggregationRule) -> TrainConfig {
    cfg.learner_mode = LearnerMode::Async { rule };
    cfg
}

/// Fig. 11(b) ablation: disable the global IS truncation.
pub fn without_truncation(mut cfg: TrainConfig) -> TrainConfig {
    cfg.truncation_rho = None;
    cfg
}

/// Table I capability flags for a named framework row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Framework name.
    pub name: &'static str,
    /// Asynchronous learners.
    pub async_learners: bool,
    /// Scalable actors.
    pub scalable_actors: bool,
    /// Supports both on- and off-policy algorithms.
    pub on_and_off_policy: bool,
    /// Serverless infrastructure.
    pub serverless: bool,
}

/// The rows of Table I.
pub fn table1() -> Vec<Capabilities> {
    vec![
        Capabilities {
            name: "Ray RLlib",
            async_learners: false,
            scalable_actors: false,
            on_and_off_policy: true,
            serverless: false,
        },
        Capabilities {
            name: "MSRL",
            async_learners: false,
            scalable_actors: false,
            on_and_off_policy: true,
            serverless: false,
        },
        Capabilities {
            name: "SEED RL",
            async_learners: false,
            scalable_actors: false,
            on_and_off_policy: true,
            serverless: false,
        },
        Capabilities {
            name: "SRL",
            async_learners: false,
            scalable_actors: false,
            on_and_off_policy: true,
            serverless: false,
        },
        Capabilities {
            name: "PQL",
            async_learners: false,
            scalable_actors: false,
            on_and_off_policy: false,
            serverless: false,
        },
        Capabilities {
            name: "MinionsRL",
            async_learners: false,
            scalable_actors: true,
            on_and_off_policy: false,
            serverless: true,
        },
        Capabilities {
            name: "Stellaris",
            async_learners: true,
            scalable_actors: true,
            on_and_off_policy: true,
            serverless: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_have_expected_topologies() {
        let p = ppo_vanilla(EnvId::Hopper, 0);
        assert!(matches!(p.learner_mode, LearnerMode::Sync { .. }));
        assert_eq!(p.deployment, Deployment::Serverful);
        assert!(p.truncation_rho.is_none());

        let m = minions_rl(EnvId::Hopper, 0);
        assert!(matches!(m.learner_mode, LearnerMode::Sync { n: 1 }));
        assert!(m.dynamic_actors);
        assert_eq!(m.deployment, Deployment::Serverless);

        let s = stellaris(EnvId::Hopper, 0);
        assert!(matches!(s.learner_mode, LearnerMode::Async { .. }));
        assert_eq!(s.truncation_rho, Some(1.0));
    }

    #[test]
    fn impact_baseline_is_off_policy() {
        let c = impact_vanilla(EnvId::Qbert, 1);
        assert_eq!(c.algo.name(), "IMPACT");
        assert_eq!(impact_stellaris(EnvId::Qbert, 1).algo.name(), "IMPACT");
    }

    #[test]
    fn hpc_profiles_use_hpc_cluster() {
        let p = par_rl(EnvId::Hopper, 0);
        assert_eq!(p.cluster.total_gpus(), 16);
        let s = stellaris_hpc(EnvId::Hopper, 0);
        assert_eq!(s.cluster.actor_slots(), 960);
    }

    #[test]
    fn fig2_variants_flip_exactly_one_axis() {
        let full = stellaris(EnvId::Hopper, 0);
        let no_async = stellaris_no_async(EnvId::Hopper, 0);
        assert!(matches!(no_async.learner_mode, LearnerMode::Sync { .. }));
        assert_eq!(no_async.deployment, full.deployment);
        let no_sls = stellaris_no_serverless(EnvId::Hopper, 0);
        assert!(matches!(no_sls.learner_mode, LearnerMode::Async { .. }));
        assert_eq!(no_sls.deployment, Deployment::Serverful);
    }

    #[test]
    fn ablation_helpers() {
        let cfg = with_aggregation(stellaris(EnvId::Hopper, 0), AggregationRule::PureAsync);
        match cfg.learner_mode {
            LearnerMode::Async { rule } => assert_eq!(rule.name(), "pure-async"),
            _ => panic!("must stay async"),
        }
        assert!(without_truncation(stellaris(EnvId::Hopper, 0))
            .truncation_rho
            .is_none());
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 7);
        let stellaris_row = rows.last().unwrap();
        assert!(stellaris_row.async_learners && stellaris_row.serverless);
        assert!(
            rows.iter().filter(|r| r.serverless).count() == 2,
            "MinionsRL + Stellaris"
        );
        assert!(rows
            .iter()
            .all(|r| r.name != "Stellaris" || r.on_and_off_policy));
    }
}
