//! Property-based tests for the estimator algebra: GAE, V-trace, the
//! trajectory container, and the rollout's recorded behaviour distribution.
#![expect(clippy::needless_range_loop)]

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_cache::Codec;
use stellaris_envs::{make_env, EnvConfig, EnvId};
use stellaris_nn::Tensor;
use stellaris_rl::{
    fill_gae, vtrace, DistParams, PolicyNet, PolicySpec, RolloutWorker, SampleBatch, VtraceInput,
};

fn batch(rewards: Vec<f32>, values: Vec<f32>, dones: Vec<bool>, bootstrap: f32) -> SampleBatch {
    let t = rewards.len();
    SampleBatch {
        env: "prop".into(),
        obs: Tensor::zeros(&[t, 2]),
        actions_disc: vec![0; t],
        actions_cont: None,
        behaviour_logp: vec![-0.1; t],
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

proptest! {
    /// GAE(λ=1) advantages must equal discounted-return-minus-value.
    #[test]
    fn gae_lambda_one_equals_mc_residual(
        rewards in proptest::collection::vec(-5.0f32..5.0, 1..20),
        gamma in 0.5f32..0.999,
        bootstrap in -2.0f32..2.0,
    ) {
        let t = rewards.len();
        let values: Vec<f32> = (0..t).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut dones = vec![false; t];
        dones[t - 1] = true; // clean episode end: bootstrap ignored
        let mut b = batch(rewards.clone(), values.clone(), dones, bootstrap);
        fill_gae(&mut b, gamma, 1.0);
        // Reference: backwards discounted return.
        let mut ret = 0.0f32;
        for i in (0..t).rev() {
            ret = rewards[i] + gamma * ret;
            prop_assert!((b.advantages[i] - (ret - values[i])).abs() < 1e-3);
            prop_assert!((b.returns[i] - (b.advantages[i] + values[i])).abs() < 1e-4);
        }
    }

    /// GAE(λ=0) is exactly the one-step TD error everywhere.
    #[test]
    fn gae_lambda_zero_is_td_error(
        rewards in proptest::collection::vec(-5.0f32..5.0, 2..20),
        gamma in 0.5f32..0.999,
    ) {
        let t = rewards.len();
        let values: Vec<f32> = (0..t).map(|i| i as f32 * 0.1).collect();
        let dones = vec![false; t];
        let bootstrap = 1.5;
        let mut b = batch(rewards.clone(), values.clone(), dones, bootstrap);
        fill_gae(&mut b, gamma, 0.0);
        for i in 0..t {
            let next = if i + 1 < t { values[i + 1] } else { bootstrap };
            let td = rewards[i] + gamma * next - values[i];
            prop_assert!((b.advantages[i] - td).abs() < 1e-4);
        }
    }

    /// On-policy V-trace (ρ̄=c̄=1, target==behaviour) value targets must
    /// coincide with GAE(λ=1) returns.
    #[test]
    fn on_policy_vtrace_matches_gae_returns(
        rewards in proptest::collection::vec(-3.0f32..3.0, 1..16),
        gamma in 0.8f32..0.99,
    ) {
        let t = rewards.len();
        let values = vec![0.25f32; t];
        let mut dones = vec![false; t];
        dones[t - 1] = true;
        let logp = vec![-0.7f32; t];
        let out = vtrace(&VtraceInput {
            behaviour_logp: &logp,
            target_logp: &logp,
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: 0.0,
            gamma,
            rho_bar: 1.0,
            c_bar: 1.0,
        });
        let mut b = batch(rewards.clone(), values.clone(), dones, 0.0);
        fill_gae(&mut b, gamma, 1.0);
        for i in 0..t {
            prop_assert!(
                (out.vs[i] - b.returns[i]).abs() < 1e-3,
                "vs {} vs gae return {}", out.vs[i], b.returns[i]
            );
        }
    }

    /// V-trace with ρ̄ = c̄ = 0 must leave the value function untouched.
    #[test]
    fn zero_truncation_freezes_values(
        rewards in proptest::collection::vec(-3.0f32..3.0, 1..12),
    ) {
        let t = rewards.len();
        let values: Vec<f32> = (0..t).map(|i| i as f32).collect();
        let dones = vec![false; t];
        let logp = vec![-0.3f32; t];
        let out = vtrace(&VtraceInput {
            behaviour_logp: &logp,
            target_logp: &logp,
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: 5.0,
            gamma: 0.99,
            rho_bar: 0.0,
            c_bar: 0.0,
        });
        for i in 0..t {
            prop_assert!((out.vs[i] - values[i]).abs() < 1e-6);
            prop_assert!(out.advantages[i].abs() < 1e-6);
        }
    }

    /// Sample batches must survive the cache codec byte-for-byte, and
    /// minibatching must partition rows exactly.
    #[test]
    fn batch_codec_and_minibatch_partition(
        t in 1usize..40,
        mb in 1usize..16,
        seedish in 0u32..1000,
    ) {
        let rewards: Vec<f32> = (0..t).map(|i| ((i as u32 + seedish) % 7) as f32).collect();
        let values = vec![0.5; t];
        let mut dones = vec![false; t];
        dones[t - 1] = true;
        let mut b = batch(rewards, values, dones, 0.0);
        fill_gae(&mut b, 0.99, 0.95);
        let back = SampleBatch::from_bytes(&b.to_bytes()).unwrap();
        prop_assert_eq!(&back, &b);
        let parts = b.minibatches(mb);
        prop_assert_eq!(parts.iter().map(SampleBatch::len).sum::<usize>(), t);
        prop_assert!(parts.iter().all(|p| p.len() <= mb));
        // Row order preserved across the split.
        let mut rebuilt = Vec::new();
        for p in &parts {
            rebuilt.extend_from_slice(p.rewards.as_slice());
        }
        prop_assert_eq!(rebuilt, b.rewards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `collect` records the actor-output row each action was sampled from
    /// instead of re-running the actor over the batch: the stacked rows must
    /// be bitwise what the batched forward produces (continuous MLP,
    /// discrete MLP and the CNN), and the recorded log-probs must be those
    /// of the actions under their rows. Its one batched critic forward must
    /// give every value, and the bootstrap value, the bits of a
    /// single-observation forward. Hidden 256 (Table II Hopper) reaches the
    /// full register strips of the single-row GEMM route; hidden 16 does not.
    #[test]
    fn collect_behaviour_rows_equal_batched_forward(
        seed in 0u64..1000,
        steps in 5usize..24,
    ) {
        for (id, hidden) in [
            (EnvId::PointMass, 16),
            (EnvId::Hopper, 16),
            (EnvId::ChainMdp, 16),
            (EnvId::SpaceInvaders, 16),
            (EnvId::Hopper, 256),
        ] {
            let mut env = make_env(id, EnvConfig::tiny());
            env.reset(seed);
            let mut spec = PolicySpec::for_env(env.as_ref());
            spec.hidden = hidden;
            let policy = PolicyNet::new(spec, seed);
            let mut worker = RolloutWorker::new(env, seed);
            let b = worker.collect(&policy, steps);
            // The next collect starts from the state this one stopped in.
            let next = worker.collect(&policy, 1);
            let value_of = |obs: Tensor| {
                let d = obs.numel();
                policy.value_batch(&Tensor::from_vec(obs.into_vec(), &[1, d]))[0].to_bits()
            };
            let want: Vec<u32> = (0..steps).map(|i| value_of(b.obs.row(i))).collect();
            let got: Vec<u32> = b.values.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
            let bootstrap = if b.dones[steps - 1] { 0.0f32.to_bits() } else { value_of(next.obs.row(0)) };
            prop_assert_eq!(b.bootstrap_value.to_bits(), bootstrap);
            match policy.dist_params(&b.obs) {
                DistParams::Gaussian { mu, log_std } => {
                    prop_assert_eq!(b.behaviour_mu.as_ref(), Some(&mu));
                    prop_assert_eq!(b.behaviour_log_std.as_ref(), Some(&log_std));
                    prop_assert!(b.behaviour_logits.is_none());
                }
                DistParams::Categorical { logits } => {
                    prop_assert_eq!(b.behaviour_logits.as_ref(), Some(&logits));
                    prop_assert!(b.behaviour_mu.is_none() && b.behaviour_log_std.is_none());
                }
            }
            prop_assert_eq!(&b.behaviour_logp, &policy.logp_plain(&b));
        }
    }
}

/// `ActOutput::dist_row` is `dist_params` of that single observation.
#[test]
fn act_dist_row_is_single_observation_dist_params() {
    for id in [EnvId::Hopper, EnvId::ChainMdp, EnvId::SpaceInvaders] {
        let mut env = make_env(id, EnvConfig::tiny());
        let obs = env.reset(4);
        let policy = PolicyNet::new(PolicySpec::for_env(env.as_ref()), 4);
        let out = policy.act(&obs, &mut ChaCha8Rng::seed_from_u64(4));
        let x = Tensor::from_vec(obs.clone(), &[1, obs.len()]);
        let (DistParams::Gaussian { mu: row, .. } | DistParams::Categorical { logits: row }) =
            policy.dist_params(&x);
        assert_eq!(out.dist_row, row.into_vec(), "{id:?}");
    }
}
