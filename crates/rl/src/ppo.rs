//! Proximal Policy Optimization with the paper's Table III hyperparameters,
//! surrogate clipping, a KL penalty, and the optional *global* importance
//! sampling truncation of Stellaris (§V-A, Eq. 2) injected as a ratio cap.

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use stellaris_nn::{Graph, Tensor};

use crate::policy::PolicyNet;
use crate::trajectory::SampleBatch;

/// PPO hyperparameters (Table III column "PPO").
#[derive(Clone, Copy, Debug)]
pub struct PpoConfig {
    /// Base learning rate `α_0`.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub gae_lambda: f32,
    /// Surrogate clip parameter ε.
    pub clip: f32,
    /// KL penalty coefficient.
    pub kl_coeff: f32,
    /// KL target for adaptive penalty.
    pub kl_target: f32,
    /// Entropy bonus coefficient.
    pub entropy_coeff: f32,
    /// Value-function loss coefficient.
    pub vf_coeff: f32,
    /// Train batch size for MuJoCo tasks.
    pub batch_mujoco: usize,
    /// Train batch size for Atari tasks.
    pub batch_atari: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Optional value-function clip range (RLlib's `vf_clip_param`): the
    /// value loss is the max of the unclipped and clipped-error losses.
    pub vf_clip: Option<f32>,
}

impl PpoConfig {
    /// The exact Table III values.
    pub fn paper() -> Self {
        Self {
            lr: 0.00005,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip: 0.3,
            kl_coeff: 0.2,
            kl_target: 0.01,
            entropy_coeff: 0.0,
            vf_coeff: 1.0,
            batch_mujoco: 4096,
            batch_atari: 256,
            grad_clip: 0.5,
            vf_clip: None,
        }
    }

    /// Laptop-scale variant: same shape, higher lr and smaller batches so
    /// the scaled-down experiments move within their budgets.
    pub fn scaled() -> Self {
        Self {
            lr: 1e-3,
            batch_mujoco: 512,
            batch_atari: 128,
            ..Self::paper()
        }
    }
}

/// Diagnostics from one gradient computation.
#[derive(Clone, Copy, Debug, Default)]
pub struct LossStats {
    /// Mean clipped surrogate objective (higher is better).
    pub surrogate: f32,
    /// Value-function MSE.
    pub vf_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Mean KL(behaviour ‖ new).
    pub kl: f32,
    /// Fraction of samples whose ratio left the clip interval.
    pub clip_frac: f32,
    /// Mean raw importance-sampling ratio — the per-learner statistic each
    /// learner publishes for the cross-learner global truncation (Eq. 2's
    /// `min_i` is taken over these across the learner group).
    pub mean_ratio: f32,
    /// Minimum |raw ratio| over the batch (diagnostics).
    pub min_ratio: f32,
    /// Pre-clip global gradient norm.
    pub grad_norm: f32,
}

/// Computes PPO gradients for one mini-batch.
///
/// `ratio_cap` is the Stellaris global truncation `min(|min_i(π_i/μ)|, ρ)`:
/// when `Some(c)`, every per-sample ratio is additionally capped at `c`
/// before entering the surrogate, pulling cross-learner outliers back
/// (vanilla PPO passes `None`).
pub fn ppo_gradients(
    policy: &PolicyNet,
    batch: &SampleBatch,
    cfg: &PpoConfig,
    ratio_cap: Option<f32>,
) -> (Vec<Tensor>, LossStats) {
    assert!(
        !batch.is_empty(),
        "cannot compute gradients on an empty batch"
    );
    assert_eq!(
        batch.advantages.len(),
        batch.len(),
        "advantages missing: run fill_gae before ppo_gradients"
    );
    let _span = stellaris_telemetry::span_with(
        "rl.ppo_gradients",
        vec![
            ("batch", batch.len().into()),
            ("policy_version", policy.version.into()),
        ],
    );
    let g = Graph::new();
    let parts = policy.loss_parts(&g, batch);
    let b = batch.len();

    let logp_old = g.input(Tensor::from_vec(batch.behaviour_logp.clone(), &[b]));
    let diff = g.sub(parts.logp_new, logp_old);
    // Guard against overflow on wildly off-policy samples.
    let diff = g.clamp(diff, -20.0, 20.0);
    let ratio = g.exp(diff);
    let ratio_used = match ratio_cap {
        Some(cap) => g.min_scalar(ratio, cap),
        None => ratio,
    };

    let adv = g.input(Tensor::from_vec(batch.advantages.clone(), &[b]));
    let s1 = g.mul(ratio_used, adv);
    let clipped = g.clamp(ratio_used, 1.0 - cfg.clip, 1.0 + cfg.clip);
    let s2 = g.mul(clipped, adv);
    let surrogate = g.mean_all(g.minimum(s1, s2));

    let returns = g.input(Tensor::from_vec(batch.returns.clone(), &[b]));
    let verr = g.sub(parts.value, returns);
    let vf_loss = match cfg.vf_clip {
        None => g.mean_all(g.square(verr)),
        Some(clip) => {
            // RLlib-style clipped value loss: limit how far one update can
            // move V(s) from the behaviour-time estimate.
            let v_old = g.input(Tensor::from_vec(batch.values.clone(), &[b]));
            let delta = g.clamp(g.sub(parts.value, v_old), -clip, clip);
            let v_clipped = g.add(v_old, delta);
            let clipped_err = g.sub(v_clipped, returns);
            g.mean_all(g.maximum(g.square(verr), g.square(clipped_err)))
        }
    };

    let mut loss = g.scale(surrogate, -1.0);
    loss = g.add(loss, g.scale(vf_loss, cfg.vf_coeff));
    if cfg.entropy_coeff != 0.0 {
        loss = g.add(loss, g.scale(parts.entropy, -cfg.entropy_coeff));
    }
    if cfg.kl_coeff != 0.0 {
        loss = g.add(loss, g.scale(parts.kl, cfg.kl_coeff));
    }

    let (grads, grad_norm) = g.backward_clipped(loss, &parts.param_vars, cfg.grad_clip);

    // Ratio statistics are taken from the RAW (uncapped) ratio: the Eq. 2
    // statistic each learner publishes must describe its own policy's
    // divergence from the actor policy, not the already-truncated value —
    // otherwise the global cap feeds back on itself and ratchets to zero.
    let ratio_vals = g.value(ratio);
    #[expect(
        clippy::cast_precision_loss,
        reason = "clip counts are bounded by minibatch size, exact in f32"
    )]
    let clip_frac = ratio_vals
        .data()
        .iter()
        .filter(|&&r| (r - 1.0).abs() > cfg.clip)
        .count() as f32
        / b as f32;
    let min_ratio = ratio_vals
        .data()
        .iter()
        .fold(f32::INFINITY, |m, &r| m.min(r.abs()));
    let stats = LossStats {
        surrogate: g.value(surrogate).data()[0],
        vf_loss: g.value(vf_loss).data()[0],
        entropy: g.value(parts.entropy).data()[0],
        kl: g.value(parts.kl).data()[0],
        clip_frac,
        mean_ratio: ratio_vals.mean(),
        min_ratio,
        grad_norm,
    };
    (grads, stats)
}

/// RLlib-style adaptive KL coefficient update.
pub fn adapt_kl_coeff(kl_coeff: f32, observed_kl: f32, kl_target: f32) -> f32 {
    if observed_kl > 2.0 * kl_target {
        kl_coeff * 1.5
    } else if observed_kl < 0.5 * kl_target {
        (kl_coeff * 0.5).max(1e-4)
    } else {
        kl_coeff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gae::fill_gae;
    use crate::policy::PolicySpec;
    use crate::rollout::RolloutWorker;
    use stellaris_envs::{make_env, EnvConfig, EnvId};
    use stellaris_nn::{Adam, Optimizer, ParamSet};

    fn setup(id: EnvId, steps: usize) -> (PolicyNet, SampleBatch) {
        let mut env = make_env(id, EnvConfig::tiny());
        env.reset(0);
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = 16;
        let policy = PolicyNet::new(spec, 0);
        let mut w = RolloutWorker::new(env, 7);
        let mut batch = w.collect(&policy, steps);
        fill_gae(&mut batch, 0.99, 0.95);
        batch.normalize_advantages();
        (policy, batch)
    }

    #[test]
    fn paper_config_matches_table3() {
        let c = PpoConfig::paper();
        assert_eq!(c.lr, 0.00005);
        assert_eq!(c.gamma, 0.99);
        assert_eq!(c.clip, 0.3);
        assert_eq!(c.kl_coeff, 0.2);
        assert_eq!(c.kl_target, 0.01);
        assert_eq!(c.entropy_coeff, 0.0);
        assert_eq!(c.vf_coeff, 1.0);
        assert_eq!(c.batch_mujoco, 4096);
        assert_eq!(c.batch_atari, 256);
    }

    #[test]
    fn gradients_are_finite_and_shaped() {
        let (policy, batch) = setup(EnvId::PointMass, 32);
        let (grads, stats) = ppo_gradients(&policy, &batch, &PpoConfig::scaled(), None);
        assert_eq!(grads.len(), policy.params().len());
        for (grad, p) in grads.iter().zip(policy.params()) {
            assert_eq!(grad.shape(), p.shape());
            assert!(grad.is_finite());
        }
        assert!(stats.kl >= -1e-4, "KL must be ~non-negative: {}", stats.kl);
        assert!(
            stats.mean_ratio > 0.9 && stats.mean_ratio < 1.1,
            "{}",
            stats.mean_ratio
        );
        assert!(stats.grad_norm > 0.0);
    }

    #[test]
    fn gradient_step_increases_surrogate() {
        let (mut policy, batch) = setup(EnvId::ChainMdp, 64);
        let cfg = PpoConfig::scaled();
        let (_, before) = ppo_gradients(&policy, &batch, &cfg, None);
        let mut opt = Adam::new(0.01);
        for _ in 0..5 {
            let (grads, _) = ppo_gradients(&policy, &batch, &cfg, None);
            let mut params: Vec<_> = policy.params().into_iter().cloned().collect();
            opt.step(&mut params, &grads);
            let flat = stellaris_nn::flatten_all(&params);
            policy.load_flat(&flat);
        }
        let (_, after) = ppo_gradients(&policy, &batch, &cfg, None);
        assert!(
            after.surrogate > before.surrogate,
            "{} -> {}",
            before.surrogate,
            after.surrogate
        );
    }

    #[test]
    fn ratio_cap_changes_gradients_not_stats() {
        let (policy, batch) = setup(EnvId::PointMass, 32);
        let cfg = PpoConfig::scaled();
        let (g_capped, s_capped) = ppo_gradients(&policy, &batch, &cfg, Some(0.5));
        let (g_free, s_free) = ppo_gradients(&policy, &batch, &cfg, None);
        // Reported ratio stats are RAW (pre-cap): identical either way, so
        // the Eq. 2 board never feeds back on itself.
        assert!((s_capped.mean_ratio - s_free.mean_ratio).abs() < 1e-6);
        // But the surrogate (and hence gradients) must differ under the cap.
        let delta: f32 = g_capped
            .iter()
            .zip(g_free.iter())
            .map(|(a, b)| {
                a.data()
                    .iter()
                    .zip(b.data().iter())
                    .map(|(x, y)| (x - y).abs())
                    .sum::<f32>()
            })
            .sum();
        assert!(
            delta > 0.0,
            "a 0.5 cap must bite on on-policy ratios near 1"
        );
        assert!(s_capped.surrogate != s_free.surrogate);
    }

    #[test]
    fn on_policy_ratio_is_one() {
        let (policy, batch) = setup(EnvId::PointMass, 32);
        let (_, stats) = ppo_gradients(&policy, &batch, &PpoConfig::scaled(), None);
        assert!(
            (stats.mean_ratio - 1.0).abs() < 1e-2,
            "{}",
            stats.mean_ratio
        );
        assert!(stats.clip_frac < 0.05);
    }

    #[test]
    fn discrete_task_gradients() {
        let (policy, batch) = setup(EnvId::ChainMdp, 32);
        let (grads, stats) = ppo_gradients(&policy, &batch, &PpoConfig::scaled(), None);
        assert!(grads.iter().any(|g| g.max_abs() > 0.0));
        assert!(stats.entropy > 0.0);
    }

    #[test]
    fn vf_clip_bounds_value_loss_gradient() {
        let (policy, batch) = setup(EnvId::PointMass, 32);
        let mut cfg = PpoConfig::scaled();
        let (_, unclipped) = ppo_gradients(&policy, &batch, &cfg, None);
        cfg.vf_clip = Some(10.0);
        let (_, loose) = ppo_gradients(&policy, &batch, &cfg, None);
        // A huge clip range behaves like no clipping (max of equal losses).
        assert!((loose.vf_loss - unclipped.vf_loss).abs() < 1e-4);
        cfg.vf_clip = Some(1e-6);
        let (grads, tight) = ppo_gradients(&policy, &batch, &cfg, None);
        // The clipped branch dominates: loss stays >= the unclipped one.
        assert!(tight.vf_loss >= unclipped.vf_loss - 1e-4);
        assert!(grads.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn adaptive_kl_moves_correctly() {
        assert!(
            adapt_kl_coeff(0.2, 0.05, 0.01) > 0.2,
            "KL too high -> raise"
        );
        assert!(
            adapt_kl_coeff(0.2, 0.001, 0.01) < 0.2,
            "KL too low -> lower"
        );
        assert_eq!(adapt_kl_coeff(0.2, 0.01, 0.01), 0.2, "in band -> keep");
    }

    #[test]
    #[should_panic(expected = "advantages missing")]
    fn missing_gae_panics() {
        let mut env = make_env(EnvId::PointMass, EnvConfig::tiny());
        env.reset(0);
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = 8;
        let policy = PolicyNet::new(spec, 0);
        let mut w = RolloutWorker::new(env, 7);
        let batch = w.collect(&policy, 8); // no fill_gae
        let _ = ppo_gradients(&policy, &batch, &PpoConfig::scaled(), None);
    }
}
