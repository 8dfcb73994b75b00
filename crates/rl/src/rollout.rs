//! Actor-side rollout collection: stepping environments under the current
//! policy and packaging transitions into [`SampleBatch`]es (workflow Step ①
//! of the paper: importance-sampling-driven trajectory collection).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_envs::Env;
use stellaris_nn::Tensor;

use crate::policy::PolicyNet;
use crate::trajectory::SampleBatch;

/// A persistent actor: owns one environment and carries episode state
/// across [`RolloutWorker::collect`] calls.
pub struct RolloutWorker {
    env: Box<dyn Env>,
    obs: Vec<f32>,
    ep_return: f32,
    next_seed: u64,
    rng: ChaCha8Rng,
    /// Total environment steps taken by this worker.
    pub total_steps: u64,
}

impl RolloutWorker {
    /// Creates a worker; `seed` derives both episode seeds and action noise.
    pub fn new(mut env: Box<dyn Env>, seed: u64) -> Self {
        let obs = env.reset(seed);
        Self {
            env,
            obs,
            ep_return: 0.0,
            next_seed: seed.wrapping_mul(6364136223846793005).wrapping_add(1),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            total_steps: 0,
        }
    }

    /// Environment name.
    pub fn env_name(&self) -> &'static str {
        self.env.name()
    }

    /// Collects `steps` transitions under `policy`, returning a batch with
    /// the behaviour-distribution parameters needed for importance sampling
    /// downstream. Advantages/returns are left for the data loader to fill.
    pub fn collect(&mut self, policy: &PolicyNet, steps: usize) -> SampleBatch {
        assert!(steps > 0, "collect needs at least one step");
        let _span = stellaris_telemetry::span_with(
            "rl.rollout_collect",
            vec![("steps", steps.into()), ("env", self.env.name().into())],
        );
        let obs_dim = self.env.obs_dim();
        let continuous = !self.env.action_space().is_discrete();
        let mut obs_rows: Vec<f32> = Vec::with_capacity(steps * obs_dim);
        let mut actions_disc = Vec::new();
        let mut actions_cont: Vec<f32> = Vec::new();
        let mut rewards = Vec::with_capacity(steps);
        let mut dones = Vec::with_capacity(steps);
        let mut logps = Vec::with_capacity(steps);
        let mut values = Vec::with_capacity(steps);
        // The actor-output row each action was sampled from, one per step.
        let dist_width = policy.spec.actor_out();
        let mut dist_rows: Vec<f32> = Vec::with_capacity(steps * dist_width);
        let mut episode_returns = Vec::new();

        for _ in 0..steps {
            obs_rows.extend_from_slice(&self.obs);
            let out = policy.act(&self.obs, &mut self.rng);
            let step = self.env.step(&out.action);
            self.total_steps += 1;
            match &out.action {
                stellaris_envs::Action::Discrete(a) => actions_disc.push(*a),
                stellaris_envs::Action::Continuous(a) => actions_cont.extend_from_slice(a),
            }
            rewards.push(step.reward);
            dones.push(step.done);
            logps.push(out.logp);
            values.push(out.value);
            dist_rows.extend_from_slice(&out.dist_row);
            self.ep_return += step.reward;
            if step.done {
                episode_returns.push(self.ep_return);
                self.ep_return = 0.0;
                self.obs = self.env.reset(self.next_seed);
                self.next_seed = self
                    .next_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1);
            } else {
                self.obs = step.obs;
            }
        }

        let obs = Tensor::from_vec(obs_rows, &[steps, obs_dim]);
        // GEMM rows are independent (nn::gemm exactness contract), so the
        // stacked per-step rows are bitwise `policy.dist_params(&obs)`.
        let dist = Tensor::from_vec(dist_rows, &[steps, dist_width]);
        let (behaviour_mu, behaviour_log_std, behaviour_logits) = match &policy.log_std {
            Some(ls) => (Some(dist), Some(ls.data().to_vec()), None),
            None => (None, None, Some(dist)),
        };
        let bootstrap_value = if dones.last().copied().unwrap_or(true) {
            // Terminal (or degenerate empty) rollout: nothing to bootstrap.
            0.0
        } else {
            let last = Tensor::from_vec(self.obs.clone(), &[1, obs_dim]);
            policy.value_batch(&last)[0]
        };

        SampleBatch {
            env: self.env.name().to_owned(),
            obs,
            actions_disc,
            actions_cont: continuous.then(|| {
                let a = self.env.action_space().dim();
                Tensor::from_vec(actions_cont, &[steps, a])
            }),
            rewards,
            dones,
            behaviour_logp: logps,
            values,
            bootstrap_value,
            advantages: Vec::new(),
            returns: Vec::new(),
            behaviour_mu,
            behaviour_log_std,
            behaviour_logits,
            policy_version: policy.version,
            episode_returns,
        }
    }
}

/// Runs `episodes` evaluation episodes (stochastic policy, fresh seeds) and
/// returns the mean episodic return — the paper's "episodic reward" metric.
pub fn evaluate(policy: &PolicyNet, env: &mut dyn Env, episodes: usize, seed: u64) -> f32 {
    let _span = stellaris_telemetry::span_with(
        "rl.evaluate",
        vec![("episodes", episodes.into()), ("env", env.name().into())],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut total = 0.0f32;
    for ep in 0..episodes {
        let mut obs = env.reset(seed.wrapping_add(ep as u64 * 7919));
        loop {
            let out = policy.act(&obs, &mut rng);
            let step = env.step(&out.action);
            total += step.reward;
            if step.done {
                break;
            }
            obs = step.obs;
        }
    }
    total / episodes.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use stellaris_envs::{make_env, EnvConfig, EnvId};

    fn small_policy(id: EnvId) -> PolicyNet {
        let mut env = make_env(id, EnvConfig::tiny());
        env.reset(0);
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = 16;
        PolicyNet::new(spec, 0)
    }

    #[test]
    fn collect_shapes_continuous() {
        let policy = small_policy(EnvId::PointMass);
        let mut w = RolloutWorker::new(make_env(EnvId::PointMass, EnvConfig::tiny()), 1);
        let b = w.collect(&policy, 20);
        assert_eq!(b.len(), 20);
        assert_eq!(b.obs.shape(), &[20, 6]);
        assert_eq!(b.actions_cont.as_ref().unwrap().shape(), &[20, 2]);
        assert!(b.behaviour_mu.is_some());
        assert!(b.behaviour_logits.is_none());
        assert_eq!(b.policy_version, 0);
        assert_eq!(w.total_steps, 20);
    }

    #[test]
    fn collect_shapes_discrete() {
        let policy = small_policy(EnvId::ChainMdp);
        let mut w = RolloutWorker::new(make_env(EnvId::ChainMdp, EnvConfig::tiny()), 1);
        let b = w.collect(&policy, 15);
        assert_eq!(b.actions_disc.len(), 15);
        assert!(b.behaviour_logits.is_some());
        assert!(b.actions_cont.is_none());
    }

    #[test]
    fn episodes_roll_over_between_collects() {
        let policy = small_policy(EnvId::ChainMdp);
        // tiny max_steps = 80; collect 200 steps so episodes complete.
        let mut w = RolloutWorker::new(make_env(EnvId::ChainMdp, EnvConfig::tiny()), 3);
        let b1 = w.collect(&policy, 100);
        let b2 = w.collect(&policy, 100);
        let finished = b1.episode_returns.len() + b2.episode_returns.len();
        assert!(finished >= 2, "episodes should complete: {finished}");
    }

    #[test]
    fn bootstrap_zero_at_episode_end() {
        let policy = small_policy(EnvId::ChainMdp);
        let mut w = RolloutWorker::new(make_env(EnvId::ChainMdp, EnvConfig::tiny()), 3);
        // tiny cap = 80 steps: collect exactly to a boundary.
        let b = w.collect(&policy, 80);
        assert!(*b.dones.last().unwrap());
        assert_eq!(b.bootstrap_value, 0.0);
    }

    #[test]
    fn evaluate_returns_finite_mean() {
        let policy = small_policy(EnvId::PointMass);
        let mut env = make_env(EnvId::PointMass, EnvConfig::tiny());
        let r = evaluate(&policy, env.as_mut(), 3, 0);
        assert!(r.is_finite());
        assert!(r < 0.0, "PointMass rewards are negative distances");
    }

    #[test]
    fn deterministic_collect_given_same_seed_and_policy() {
        let policy = small_policy(EnvId::PointMass);
        let mut w1 = RolloutWorker::new(make_env(EnvId::PointMass, EnvConfig::tiny()), 5);
        let mut w2 = RolloutWorker::new(make_env(EnvId::PointMass, EnvConfig::tiny()), 5);
        let b1 = w1.collect(&policy, 30);
        let b2 = w2.collect(&policy, 30);
        assert_eq!(b1.obs, b2.obs);
        assert_eq!(b1.rewards, b2.rewards);
        assert_eq!(b1.behaviour_logp, b2.behaviour_logp);
        assert_eq!(b1.behaviour_mu, b2.behaviour_mu);
        assert_eq!(b1.behaviour_log_std, b2.behaviour_log_std);
        assert_eq!(b1.behaviour_logits, b2.behaviour_logits);
    }
}
