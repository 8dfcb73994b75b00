//! IMPACT (Luo et al., ICLR'20): the paper's off-policy baseline —
//! importance-weighted asynchronous training with a clipped *target
//! network* ratio and V-trace advantage correction (§VIII-B).
//!
//! The actor samples under a (possibly stale) behaviour policy; gradients
//! clip the ratio between the learner policy and a slowly updated surrogate
//! target network, while V-trace corrects the value targets for the
//! behaviour/target mismatch.

use stellaris_nn::{Graph, Tensor};

use crate::policy::PolicyNet;
use crate::ppo::LossStats;
use crate::trajectory::SampleBatch;
use crate::vtrace::{vtrace, VtraceInput};

/// IMPACT hyperparameters (Table III column "IMPACT").
#[derive(Clone, Copy, Debug)]
pub struct ImpactConfig {
    /// Base learning rate `α_0`.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Surrogate clip parameter ε.
    pub clip: f32,
    /// KL penalty coefficient.
    pub kl_coeff: f32,
    /// KL target.
    pub kl_target: f32,
    /// Entropy bonus coefficient.
    pub entropy_coeff: f32,
    /// Value-function loss coefficient.
    pub vf_coeff: f32,
    /// Target network update frequency in policy updates.
    pub target_update_freq: u64,
    /// V-trace ρ̄.
    pub rho_bar: f32,
    /// V-trace c̄.
    pub c_bar: f32,
    /// Train batch size for MuJoCo tasks.
    pub batch_mujoco: usize,
    /// Train batch size for Atari tasks.
    pub batch_atari: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
}

impl ImpactConfig {
    /// The exact Table III values.
    pub fn paper() -> Self {
        Self {
            lr: 0.0005,
            gamma: 0.99,
            clip: 0.4,
            kl_coeff: 1.0,
            kl_target: 0.01,
            entropy_coeff: 0.01,
            vf_coeff: 1.0,
            target_update_freq: 1,
            rho_bar: 1.0,
            c_bar: 1.0,
            batch_mujoco: 4096,
            batch_atari: 256,
            grad_clip: 0.5,
        }
    }

    /// Laptop-scale variant (smaller batches, hotter lr).
    pub fn scaled() -> Self {
        Self {
            lr: 1e-3,
            batch_mujoco: 512,
            batch_atari: 128,
            ..Self::paper()
        }
    }
}

/// The learner state IMPACT carries between updates: the live policy plus
/// the surrogate target network it clips against.
pub struct ImpactLearner {
    /// Target-network weights (flat) and the version they were taken at.
    pub target_flat: Vec<f32>,
    /// Updates since the target was refreshed.
    pub since_refresh: u64,
}

impl ImpactLearner {
    /// Initialises the target as a copy of the live policy.
    pub fn new(policy: &PolicyNet) -> Self {
        use stellaris_nn::ParamSet;
        Self {
            target_flat: policy.flatten(),
            since_refresh: 0,
        }
    }

    /// Refreshes the target from the live policy if due.
    pub fn maybe_refresh(&mut self, policy: &PolicyNet, cfg: &ImpactConfig) {
        self.since_refresh += 1;
        if self.since_refresh >= cfg.target_update_freq {
            use stellaris_nn::ParamSet;
            self.target_flat = policy.flatten();
            self.since_refresh = 0;
        }
    }

    /// Materialises the target network.
    pub fn target_net(&self, like: &PolicyNet) -> PolicyNet {
        use stellaris_nn::ParamSet;
        let mut t = like.clone();
        t.load_flat(&self.target_flat);
        t
    }
}

/// Computes IMPACT gradients for one mini-batch.
///
/// `ratio_cap` injects Stellaris' global importance-sampling truncation,
/// exactly as in [`crate::ppo::ppo_gradients`].
pub fn impact_gradients(
    policy: &PolicyNet,
    target: &PolicyNet,
    batch: &SampleBatch,
    cfg: &ImpactConfig,
    ratio_cap: Option<f32>,
) -> (Vec<Tensor>, LossStats) {
    assert!(
        !batch.is_empty(),
        "cannot compute gradients on an empty batch"
    );
    let b = batch.len();
    // V-trace off-policy correction between behaviour and target policies.
    let target_logp = target.logp_plain(batch);
    let vt = vtrace(&VtraceInput {
        behaviour_logp: &batch.behaviour_logp,
        target_logp: &target_logp,
        rewards: &batch.rewards,
        values: &batch.values,
        dones: &batch.dones,
        bootstrap_value: batch.bootstrap_value,
        gamma: cfg.gamma,
        rho_bar: cfg.rho_bar,
        c_bar: cfg.c_bar,
    });
    // Normalise V-trace advantages for scale stability.
    let mut adv = vt.advantages;
    let mean: f32 = adv.iter().sum::<f32>() / b as f32;
    let var: f32 = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / b as f32;
    let std = var.sqrt().max(1e-6);
    for a in &mut adv {
        *a = (*a - mean) / std;
    }

    let g = Graph::new();
    let parts = policy.loss_parts(&g, batch);

    // IMPACT ratio: live policy vs the surrogate target network.
    let target_lp = g.input(Tensor::from_vec(target_logp, &[b]));
    let diff = g.clamp(g.sub(parts.logp_new, target_lp), -20.0, 20.0);
    let ratio = g.exp(diff);
    let ratio_used = match ratio_cap {
        Some(cap) => g.min_scalar(ratio, cap),
        None => ratio,
    };

    let adv_c = g.input(Tensor::from_vec(adv, &[b]));
    let s1 = g.mul(ratio_used, adv_c);
    let clipped = g.clamp(ratio_used, 1.0 - cfg.clip, 1.0 + cfg.clip);
    let s2 = g.mul(clipped, adv_c);
    let surrogate = g.mean_all(g.minimum(s1, s2));

    let vs = g.input(Tensor::from_vec(vt.vs, &[b]));
    let verr = g.sub(parts.value, vs);
    let vf_loss = g.mean_all(g.square(verr));

    let mut loss = g.scale(surrogate, -1.0);
    loss = g.add(loss, g.scale(vf_loss, cfg.vf_coeff));
    loss = g.add(loss, g.scale(parts.entropy, -cfg.entropy_coeff));
    loss = g.add(loss, g.scale(parts.kl, cfg.kl_coeff));

    let (grads, grad_norm) = g.backward_clipped(loss, &parts.param_vars, cfg.grad_clip);

    let ratio_vals = g.value(ratio);
    let stats = LossStats {
        surrogate: g.value(surrogate).data()[0],
        vf_loss: g.value(vf_loss).data()[0],
        entropy: g.value(parts.entropy).data()[0],
        kl: g.value(parts.kl).data()[0],
        clip_frac: ratio_vals
            .data()
            .iter()
            .filter(|&&r| (r - 1.0).abs() > cfg.clip)
            .count() as f32
            / b as f32,
        mean_ratio: ratio_vals.mean(),
        min_ratio: ratio_vals
            .data()
            .iter()
            .fold(f32::INFINITY, |m, &r| m.min(r.abs())),
        grad_norm,
    };
    (grads, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gae::fill_gae;
    use crate::policy::PolicySpec;
    use crate::rollout::RolloutWorker;
    use stellaris_envs::{make_env, EnvConfig, EnvId};
    use stellaris_nn::ParamSet;

    fn setup(id: EnvId) -> (PolicyNet, SampleBatch) {
        let mut env = make_env(id, EnvConfig::tiny());
        env.reset(0);
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = 16;
        let policy = PolicyNet::new(spec, 0);
        let mut w = RolloutWorker::new(env, 11);
        let mut batch = w.collect(&policy, 32);
        fill_gae(&mut batch, 0.99, 0.95);
        (policy, batch)
    }

    #[test]
    fn paper_config_matches_table3() {
        let c = ImpactConfig::paper();
        assert_eq!(c.lr, 0.0005);
        assert_eq!(c.clip, 0.4);
        assert_eq!(c.kl_coeff, 1.0);
        assert_eq!(c.entropy_coeff, 0.01);
        assert_eq!(c.target_update_freq, 1);
    }

    #[test]
    fn gradients_finite_both_action_kinds() {
        for id in [EnvId::PointMass, EnvId::ChainMdp] {
            let (policy, batch) = setup(id);
            let learner = ImpactLearner::new(&policy);
            let target = learner.target_net(&policy);
            let (grads, stats) =
                impact_gradients(&policy, &target, &batch, &ImpactConfig::scaled(), None);
            assert_eq!(grads.len(), policy.params().len());
            assert!(grads.iter().all(|g| g.is_finite()));
            assert!(stats.vf_loss.is_finite());
        }
    }

    #[test]
    fn fresh_target_gives_unit_ratio() {
        let (policy, batch) = setup(EnvId::PointMass);
        let learner = ImpactLearner::new(&policy);
        let target = learner.target_net(&policy);
        let (_, stats) = impact_gradients(&policy, &target, &batch, &ImpactConfig::scaled(), None);
        assert!(
            (stats.mean_ratio - 1.0).abs() < 1e-2,
            "{}",
            stats.mean_ratio
        );
    }

    #[test]
    fn stale_target_shifts_ratio() {
        let (policy, batch) = setup(EnvId::PointMass);
        // Target from a different seed: ratios deviate from 1.
        let other = PolicyNet::new(policy.spec.clone(), 99);
        let (_, stats) = impact_gradients(&policy, &other, &batch, &ImpactConfig::scaled(), None);
        assert!(
            (stats.mean_ratio - 1.0).abs() > 1e-3,
            "{}",
            stats.mean_ratio
        );
    }

    #[test]
    fn target_refresh_honours_frequency() {
        let (policy, _) = setup(EnvId::PointMass);
        let cfg = ImpactConfig {
            target_update_freq: 3,
            ..ImpactConfig::scaled()
        };
        let mut learner = ImpactLearner::new(&policy);
        let mut moved = PolicyNet::new(policy.spec.clone(), 5);
        moved.version = 10;
        learner.maybe_refresh(&moved, &cfg); // 1
        assert_ne!(learner.target_flat, moved.flatten());
        learner.maybe_refresh(&moved, &cfg); // 2
        learner.maybe_refresh(&moved, &cfg); // 3 -> refresh
        assert_eq!(learner.target_flat, moved.flatten());
    }

    #[test]
    fn ratio_cap_changes_surrogate() {
        let (policy, batch) = setup(EnvId::PointMass);
        let other = PolicyNet::new(policy.spec.clone(), 99);
        let (_, capped) =
            impact_gradients(&policy, &other, &batch, &ImpactConfig::scaled(), Some(0.3));
        let (_, free) = impact_gradients(&policy, &other, &batch, &ImpactConfig::scaled(), None);
        assert!(
            (capped.mean_ratio - free.mean_ratio).abs() < 1e-6,
            "raw stats"
        );
        assert!(capped.surrogate != free.surrogate, "cap must bite");
    }
}
