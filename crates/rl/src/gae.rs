//! Generalized Advantage Estimation (Schulman et al., used by the paper's
//! "standard distributed PPO with GAE", §VIII-B).

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use crate::trajectory::SampleBatch;

/// Computes GAE(γ, λ) advantages and discounted return targets for a batch
/// in place. `batch.values` must hold `V(s_t)` and `batch.bootstrap_value`
/// the value of the state following the final transition.
pub fn fill_gae(batch: &mut SampleBatch, gamma: f32, lambda: f32) {
    let t = batch.len();
    let mut adv = vec![0.0f32; t];
    let mut last_gae = 0.0f32;
    for i in (0..t).rev() {
        let not_done = if batch.dones[i] { 0.0 } else { 1.0 };
        let next_value = if i + 1 < t {
            batch.values[i + 1]
        } else {
            batch.bootstrap_value
        };
        let delta = batch.rewards[i] + gamma * next_value * not_done - batch.values[i];
        last_gae = delta + gamma * lambda * not_done * last_gae;
        adv[i] = last_gae;
    }
    batch.returns = adv
        .iter()
        .zip(batch.values.iter())
        .map(|(a, v)| a + v)
        .collect();
    batch.advantages = adv;
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellaris_nn::Tensor;

    fn batch(rewards: Vec<f32>, values: Vec<f32>, dones: Vec<bool>, bootstrap: f32) -> SampleBatch {
        let t = rewards.len();
        SampleBatch {
            env: "t".into(),
            obs: Tensor::zeros(&[t, 1]),
            actions_disc: vec![0; t],
            actions_cont: None,
            behaviour_logp: vec![0.0; t],
            values,
            bootstrap_value: bootstrap,
            advantages: vec![],
            returns: vec![],
            behaviour_mu: None,
            behaviour_log_std: None,
            behaviour_logits: Some(Tensor::zeros(&[t, 2])),
            policy_version: 0,
            episode_returns: vec![],
            rewards,
            dones,
        }
    }

    #[test]
    fn gae_with_lambda_one_is_discounted_residual_return() {
        // λ=1 reduces GAE to (discounted return) - V(s).
        let gamma = 0.9;
        let mut b = batch(
            vec![1.0, 1.0, 1.0],
            vec![0.5, 0.5, 0.5],
            vec![false, false, true],
            99.0, // ignored: last step is done
        );
        fill_gae(&mut b, gamma, 1.0);
        let ret2 = 1.0;
        let ret1 = 1.0 + gamma * ret2;
        let ret0 = 1.0 + gamma * ret1;
        assert!((b.advantages[0] - (ret0 - 0.5)).abs() < 1e-5);
        assert!((b.advantages[1] - (ret1 - 0.5)).abs() < 1e-5);
        assert!((b.advantages[2] - (ret2 - 0.5)).abs() < 1e-5);
        // Returns = advantages + values.
        assert!((b.returns[0] - ret0).abs() < 1e-5);
    }

    #[test]
    fn gae_with_lambda_zero_is_one_step_td() {
        let gamma = 0.99;
        let mut b = batch(vec![2.0, 3.0], vec![1.0, 4.0], vec![false, false], 5.0);
        fill_gae(&mut b, gamma, 0.0);
        assert!((b.advantages[0] - (2.0 + gamma * 4.0 - 1.0)).abs() < 1e-5);
        assert!((b.advantages[1] - (3.0 + gamma * 5.0 - 4.0)).abs() < 1e-5);
    }

    #[test]
    fn done_resets_accumulation() {
        let gamma = 0.9;
        let mut b = batch(vec![1.0, 10.0], vec![0.0, 0.0], vec![true, false], 0.0);
        fill_gae(&mut b, gamma, 0.95);
        // First step terminal: advantage is just its reward.
        assert!((b.advantages[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn bootstrap_used_for_unfinished_episode() {
        let gamma = 0.5;
        let mut b = batch(vec![0.0], vec![0.0], vec![false], 8.0);
        fill_gae(&mut b, gamma, 1.0);
        assert!((b.advantages[0] - 4.0).abs() < 1e-5);
    }
}
