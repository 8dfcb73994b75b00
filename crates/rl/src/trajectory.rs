//! Trajectory containers: the sample batches actors collect and learners
//! consume for gradient computation.

use bytes::BytesMut;
use stellaris_cache::{encode_len_prefix, put_le_words, take_le_words, Codec, CodecError};
use stellaris_nn::Tensor;

use crate::policy::PolicySpec;

/// A batch of `T` consecutive transitions collected by one actor under one
/// behaviour policy, plus everything a learner needs to reconstruct the
/// behaviour distribution (for importance sampling and KL penalties).
#[derive(Clone, Debug, PartialEq)]
pub struct SampleBatch {
    /// Environment name.
    pub env: String,
    /// Observations, `[T, obs_dim]`.
    pub obs: Tensor,
    /// Discrete actions (empty for continuous tasks).
    pub actions_disc: Vec<usize>,
    /// Continuous actions, `[T, act_dim]` (absent for discrete tasks).
    pub actions_cont: Option<Tensor>,
    /// Per-step rewards.
    pub rewards: Vec<f32>,
    /// Episode-termination flags.
    pub dones: Vec<bool>,
    /// Behaviour-policy log-probabilities of the taken actions.
    pub behaviour_logp: Vec<f32>,
    /// Behaviour-policy value estimates `V(s_t)`.
    pub values: Vec<f32>,
    /// Value estimate for the state after the last transition (bootstrap).
    pub bootstrap_value: f32,
    /// GAE advantages (filled by [`crate::gae::fill_gae`]).
    pub advantages: Vec<f32>,
    /// Discounted return targets.
    pub returns: Vec<f32>,
    /// Behaviour Gaussian means `[T, act_dim]` (continuous only).
    pub behaviour_mu: Option<Tensor>,
    /// Behaviour Gaussian log-stds `[act_dim]` (continuous only).
    pub behaviour_log_std: Option<Vec<f32>>,
    /// Behaviour categorical logits `[T, K]` (discrete only).
    pub behaviour_logits: Option<Tensor>,
    /// Policy clock (version) the sampling actor used — the basis of the
    /// staleness computation in §V-C.
    pub policy_version: u64,
    /// Episodic returns of episodes completed inside this batch.
    pub episode_returns: Vec<f32>,
}

impl SampleBatch {
    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// True when the batch holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    /// True for continuous-action batches.
    pub fn is_continuous(&self) -> bool {
        self.actions_cont.is_some()
    }

    /// An upper bound on the encoded size of a `steps`-transition batch an
    /// actor collects under `spec` in the env named `env_name`, affine in
    /// `steps`. Each transition carries its observation, its action (a
    /// `usize`, or `dim` floats), the behaviour distribution's row, a done
    /// flag widened to `u64`, and four floats: reward, log-probability,
    /// value, and at most one finished episode's return. The constant covers
    /// the name, length prefixes, tensor shapes, option tags and the log-std
    /// row.
    pub fn encoded_len_bound(spec: &PolicySpec, env_name: &str, steps: u64) -> u64 {
        let (obs, out) = (spec.obs_dim() as u64, spec.actor_out() as u64);
        let per_step = 4 * obs + 8 * out + 32;
        let fixed = 128 + env_name.len() as u64 + 4 * out;
        steps.saturating_mul(per_step).saturating_add(fixed)
    }

    /// Splits into contiguous minibatches of at most `size` transitions
    /// (the learner-side mini-batch `b` in Theorem 1).
    pub fn minibatches(&self, size: usize) -> Vec<SampleBatch> {
        assert!(size > 0, "minibatch size must be positive");
        let t = self.len();
        let obs_dim = self.obs.shape()[1];
        let mut out = Vec::new();
        let mut start = 0;
        while start < t {
            let end = (start + size).min(t);
            let rows = end - start;
            let slice_rows = |m: &Tensor| {
                let w = m.shape()[1];
                Tensor::from_vec(m.data()[start * w..end * w].to_vec(), &[rows, w])
            };
            out.push(SampleBatch {
                env: self.env.clone(),
                obs: {
                    Tensor::from_vec(
                        self.obs.data()[start * obs_dim..end * obs_dim].to_vec(),
                        &[rows, obs_dim],
                    )
                },
                actions_disc: self
                    .actions_disc
                    .get(start..end.min(self.actions_disc.len()))
                    .unwrap_or(&[])
                    .to_vec(),
                actions_cont: self.actions_cont.as_ref().map(&slice_rows),
                rewards: self.rewards[start..end].to_vec(),
                dones: self.dones[start..end].to_vec(),
                behaviour_logp: self.behaviour_logp[start..end].to_vec(),
                values: self.values[start..end].to_vec(),
                bootstrap_value: if end == t {
                    self.bootstrap_value
                } else {
                    self.values[end]
                },
                advantages: self.advantages.get(start..end).unwrap_or(&[]).to_vec(),
                returns: self.returns.get(start..end).unwrap_or(&[]).to_vec(),
                behaviour_mu: self.behaviour_mu.as_ref().map(&slice_rows),
                behaviour_log_std: self.behaviour_log_std.clone(),
                behaviour_logits: self.behaviour_logits.as_ref().map(&slice_rows),
                policy_version: self.policy_version,
                episode_returns: Vec::new(),
            });
            start = end;
        }
        out
    }

    /// Normalises advantages to zero mean / unit variance (standard PPO
    /// practice; keeps surrogate magnitudes comparable across learners).
    pub fn normalize_advantages(&mut self) {
        let n = self.advantages.len();
        if n < 2 {
            return;
        }
        let mean: f32 = self.advantages.iter().sum::<f32>() / n as f32;
        let var: f32 = self
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / n as f32;
        let std = var.sqrt().max(1e-6);
        for a in &mut self.advantages {
            *a = (*a - mean) / std;
        }
    }
}

impl Codec for SampleBatch {
    fn encode(&self, buf: &mut BytesMut) {
        self.env.encode(buf);
        self.obs.encode(buf);
        self.actions_disc.encode(buf);
        self.actions_cont.encode(buf);
        self.rewards.encode(buf);
        // Same wire layout as `Vec<u64>`, written directly: encode sits on
        // the exact-reserve hot path, so widening `dones` must not
        // materialise a temporary vector (A9).
        encode_len_prefix(self.dones.len(), buf);
        put_le_words(buf, &self.dones, |d| u64::from(d).to_le_bytes());
        self.behaviour_logp.encode(buf);
        self.values.encode(buf);
        self.bootstrap_value.encode(buf);
        self.advantages.encode(buf);
        self.returns.encode(buf);
        self.behaviour_mu.encode(buf);
        self.behaviour_log_std.encode(buf);
        self.behaviour_logits.encode(buf);
        self.policy_version.encode(buf);
        self.episode_returns.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(SampleBatch {
            env: String::decode(buf)?,
            obs: Tensor::decode(buf)?,
            actions_disc: Vec::<usize>::decode(buf)?,
            actions_cont: Option::<Tensor>::decode(buf)?,
            rewards: Vec::<f32>::decode(buf)?,
            dones: {
                let len = u32::decode(buf)? as usize;
                let words = take_le_words(buf, len)?;
                words.iter().map(|&w| u64::from_le_bytes(w) != 0).collect()
            },
            behaviour_logp: Vec::<f32>::decode(buf)?,
            values: Vec::<f32>::decode(buf)?,
            bootstrap_value: f32::decode(buf)?,
            advantages: Vec::<f32>::decode(buf)?,
            returns: Vec::<f32>::decode(buf)?,
            behaviour_mu: Option::<Tensor>::decode(buf)?,
            behaviour_log_std: Option::<Vec<f32>>::decode(buf)?,
            behaviour_logits: Option::<Tensor>::decode(buf)?,
            policy_version: u64::decode(buf)?,
            episode_returns: Vec::<f32>::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.env.encoded_len()
            + self.obs.encoded_len()
            + self.actions_disc.encoded_len()
            + self.actions_cont.encoded_len()
            + self.rewards.encoded_len()
            + (4 + self.dones.len() * 8) // dones travel widened to Vec<u64>
            + self.behaviour_logp.encoded_len()
            + self.values.encoded_len()
            + self.bootstrap_value.encoded_len()
            + self.advantages.encoded_len()
            + self.returns.encoded_len()
            + self.behaviour_mu.encoded_len()
            + self.behaviour_log_std.encoded_len()
            + self.behaviour_logits.encoded_len()
            + self.policy_version.encoded_len()
            + self.episode_returns.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn dummy_batch(t: usize, obs_dim: usize, continuous: bool) -> SampleBatch {
        SampleBatch {
            env: "Test".into(),
            obs: Tensor::from_vec((0..t * obs_dim).map(|x| x as f32).collect(), &[t, obs_dim]),
            actions_disc: if continuous {
                vec![]
            } else {
                (0..t).map(|i| i % 3).collect()
            },
            actions_cont: continuous.then(|| Tensor::ones(&[t, 2])),
            rewards: (0..t).map(|i| i as f32).collect(),
            dones: (0..t).map(|i| i == t - 1).collect(),
            behaviour_logp: vec![-0.5; t],
            values: vec![1.0; t],
            bootstrap_value: 0.5,
            advantages: (0..t).map(|i| i as f32 - 1.0).collect(),
            returns: vec![2.0; t],
            behaviour_mu: continuous.then(|| Tensor::zeros(&[t, 2])),
            behaviour_log_std: continuous.then(|| vec![0.0, 0.0]),
            behaviour_logits: (!continuous).then(|| Tensor::zeros(&[t, 3])),
            policy_version: 7,
            episode_returns: vec![12.0],
        }
    }

    #[test]
    fn encoded_len_bound_covers_collected_batches() {
        use crate::{PolicyNet, RolloutWorker};
        use stellaris_envs::{make_env, EnvConfig, EnvId};
        // Short episodes, so finished-episode returns ride along too.
        let cfg = EnvConfig {
            frame_size: 20,
            max_steps: 5,
        };
        for id in [EnvId::PointMass, EnvId::Hopper, EnvId::SpaceInvaders] {
            let env = make_env(id, cfg);
            let spec = PolicySpec::for_env(env.as_ref());
            let name = env.name();
            let policy = PolicyNet::new(spec.clone(), 3);
            let mut worker = RolloutWorker::new(env, 3);
            for steps in [1, 12] {
                let batch = worker.collect(&policy, steps);
                let bound = SampleBatch::encoded_len_bound(&spec, name, steps as u64);
                assert!(batch.encoded_len() as u64 <= bound, "{name}, {steps} steps");
            }
        }
    }

    #[test]
    fn codec_roundtrip_continuous() {
        let b = dummy_batch(5, 3, true);
        let back = SampleBatch::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn codec_roundtrip_discrete() {
        let b = dummy_batch(4, 2, false);
        let back = SampleBatch::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn encoded_len_is_exact() {
        for b in [dummy_batch(5, 3, true), dummy_batch(4, 2, false)] {
            assert_eq!(b.encoded_len(), b.to_bytes().len());
        }
    }

    #[test]
    fn minibatches_cover_all_rows() {
        let b = dummy_batch(10, 3, true);
        let mbs = b.minibatches(4);
        assert_eq!(mbs.len(), 3);
        assert_eq!(mbs.iter().map(SampleBatch::len).sum::<usize>(), 10);
        assert_eq!(mbs[0].len(), 4);
        assert_eq!(mbs[2].len(), 2);
        // Bootstrap of inner minibatches is the next state's value.
        assert_eq!(mbs[0].bootstrap_value, b.values[4]);
        assert_eq!(mbs[2].bootstrap_value, b.bootstrap_value);
        // Obs rows preserved.
        assert_eq!(mbs[1].obs.data()[0], b.obs.data()[4 * 3]);
    }

    #[test]
    fn normalize_advantages_standardises() {
        let mut b = dummy_batch(50, 2, true);
        b.advantages = (0..50).map(|i| i as f32).collect();
        b.normalize_advantages();
        let mean: f32 = b.advantages.iter().sum::<f32>() / 50.0;
        let var: f32 = b.advantages.iter().map(|a| a * a).sum::<f32>() / 50.0 - mean * mean;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn empty_and_len() {
        let b = dummy_batch(3, 2, false);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(!b.is_continuous());
    }
}
