//! Policy/critic networks per Table II, with actor-side sampling and
//! learner-side differentiable forward passes.
//!
//! A [`PolicyNet`] owns an actor backbone, a critic backbone of the same
//! architecture (as in the paper: "the critic networks share the same
//! architecture as the policy networks") and, for continuous actions, a
//! learnable log-std vector. Snapshots carry a monotonically increasing
//! *version* — the policy clock that staleness is measured against.

use bytes::BytesMut;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_cache::{Codec, CodecError};
use stellaris_envs::{Action, ActionSpace};
use stellaris_nn::dist;
use stellaris_nn::{bind_params, Activation, Cnn, Graph, Mlp, ParamSet, Tensor, Var};

use crate::trajectory::SampleBatch;

/// Network/task geometry for one environment.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySpec {
    /// Observation geometry (`[d]` or `[c,h,w]`).
    pub obs_shape: Vec<usize>,
    /// Action space.
    pub action_space: ActionSpace,
    /// Hidden width (Table II: 256).
    pub hidden: usize,
}

impl PolicySpec {
    /// Spec for a concrete environment with the paper's hidden width.
    pub fn for_env(env: &dyn stellaris_envs::Env) -> Self {
        Self {
            obs_shape: env.obs_shape(),
            action_space: env.action_space(),
            hidden: 256,
        }
    }

    /// Flattened observation dimension.
    pub fn obs_dim(&self) -> usize {
        self.obs_shape.iter().product()
    }

    /// Actor output width (action dim or logit count).
    pub fn actor_out(&self) -> usize {
        match self.action_space {
            ActionSpace::Discrete(k) => k,
            ActionSpace::Continuous { dim, .. } => dim,
        }
    }

    /// True when observations are images.
    pub fn is_image(&self) -> bool {
        self.obs_shape.len() == 3
    }
}

/// Actor or critic trunk: MLP for vector observations, CNN for images.
// The CNN variant is much larger than the MLP one, but backbones are
// created once per function invocation, never stored in bulk.
#[expect(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Backbone {
    /// Table II MuJoCo trunk (2x256, Tanh).
    Mlp(Mlp),
    /// Table II Atari trunk (strided convs + 256 features, ReLU).
    Cnn(Cnn),
}

impl Backbone {
    fn build(spec: &PolicySpec, out: usize, out_gain: f32, rng: &mut ChaCha8Rng) -> Self {
        if spec.is_image() {
            let [c, h, w] = [spec.obs_shape[0], spec.obs_shape[1], spec.obs_shape[2]];
            Backbone::Cnn(Cnn::table2([c, h, w], out, out_gain, rng))
        } else {
            Backbone::Mlp(Mlp::new(
                &[spec.obs_dim(), spec.hidden, spec.hidden, out],
                Activation::Tanh,
                out_gain,
                rng,
            ))
        }
    }

    fn forward(&self, g: &Graph, x: Var, params: &[Var]) -> Var {
        match self {
            Backbone::Mlp(m) => m.forward(g, x, params),
            Backbone::Cnn(c) => c.forward(g, x, params),
        }
    }

    fn forward_plain(&self, x: &Tensor) -> Tensor {
        match self {
            Backbone::Mlp(m) => m.forward_plain(x),
            Backbone::Cnn(c) => c.forward_plain(x),
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        match self {
            Backbone::Mlp(m) => m.params(),
            Backbone::Cnn(c) => c.params(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Backbone::Mlp(m) => m.params_mut(),
            Backbone::Cnn(c) => c.params_mut(),
        }
    }
}

/// Distribution parameters produced by an actor forward pass.
#[derive(Clone, Debug)]
pub enum DistParams {
    /// Diagonal Gaussian: means `[B,A]` plus shared log-stds `[A]`.
    Gaussian {
        /// Per-sample action means.
        mu: Tensor,
        /// Shared log standard deviations.
        log_std: Vec<f32>,
    },
    /// Categorical logits `[B,K]`.
    Categorical {
        /// Per-sample logits.
        logits: Tensor,
    },
}

impl DistParams {
    /// Mean over rows of KL(self ‖ other), both taken on the same
    /// observation batch.
    pub fn mean_kl_to(&self, other: &DistParams) -> f32 {
        match (self, other) {
            (
                DistParams::Gaussian {
                    mu: mu_a,
                    log_std: ls_a,
                },
                DistParams::Gaussian {
                    mu: mu_b,
                    log_std: ls_b,
                },
            ) => {
                let b = mu_a.shape()[0];
                (0..b)
                    .map(|i| {
                        dist::gaussian_kl_value(mu_a.row(i).data(), ls_a, mu_b.row(i).data(), ls_b)
                    })
                    .sum::<f32>()
                    / b as f32
            }
            (DistParams::Categorical { logits: la }, DistParams::Categorical { logits: lb }) => {
                let b = la.shape()[0];
                (0..b)
                    .map(|i| dist::categorical_kl_value(la.row(i).data(), lb.row(i).data()))
                    .sum::<f32>()
                    / b as f32
            }
            #[expect(
                clippy::panic,
                reason = "comparing policies over different action spaces is caller error, not a runtime state"
            )]
            // lint:allow(A8): both dist kinds come from the same net type; a mismatch is a caller bug
            _ => panic!("mean_kl_to: mismatched distribution kinds"),
        }
    }
}

/// One sampled action with its bookkeeping.
#[derive(Clone, Debug)]
pub struct ActOutput {
    /// The action to execute.
    pub action: Action,
    /// Behaviour log-probability.
    pub logp: f32,
    /// Critic value estimate.
    pub value: f32,
    /// The actor's output row the action was sampled from (Gaussian means
    /// or categorical logits): row `i` of [`PolicyNet::dist_params`] over a
    /// batch is bitwise the `dist_row` of observation `i` alone.
    pub dist_row: Vec<f32>,
}

/// Differentiable forward-pass products used by the loss builders.
pub struct LossParts {
    /// New-policy log-probs of the batch actions, `[B]`.
    pub logp_new: Var,
    /// Critic values, `[B]`.
    pub value: Var,
    /// Mean entropy, `[1]`.
    pub entropy: Var,
    /// Mean KL(behaviour ‖ new), `[1]`.
    pub kl: Var,
    /// Bound parameter vars, aligned with [`ParamSet::params`] order.
    pub param_vars: Vec<Var>,
}

/// Actor + critic pair with a version clock.
#[derive(Clone, Debug)]
pub struct PolicyNet {
    /// Geometry.
    pub spec: PolicySpec,
    /// Actor trunk.
    pub actor: Backbone,
    /// Critic trunk (same architecture, scalar output).
    pub critic: Backbone,
    /// Learnable log-stds for continuous actions.
    pub log_std: Option<Tensor>,
    /// Policy clock: bumped by the parameter function on every update.
    pub version: u64,
}

impl ParamSet for PolicyNet {
    fn params(&self) -> Vec<&Tensor> {
        let mut p = self.actor.params();
        p.extend(self.critic.params());
        if let Some(ls) = &self.log_std {
            p.push(ls);
        }
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.actor.params_mut();
        p.extend(self.critic.params_mut());
        if let Some(ls) = &mut self.log_std {
            p.push(ls);
        }
        p
    }
}

impl PolicyNet {
    /// Builds a fresh policy for the given spec, seeded deterministically.
    pub fn new(spec: PolicySpec, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let actor = Backbone::build(&spec, spec.actor_out(), 0.01, &mut rng);
        let critic = Backbone::build(&spec, 1, 1.0, &mut rng);
        let log_std = match spec.action_space {
            ActionSpace::Continuous { dim, .. } => Some(Tensor::full(&[dim], -0.5)),
            ActionSpace::Discrete(_) => None,
        };
        Self {
            spec,
            actor,
            critic,
            log_std,
            version: 0,
        }
    }

    /// Number of actor parameter tensors (prefix of [`ParamSet::params`]).
    fn n_actor_params(&self) -> usize {
        self.actor.params().len()
    }

    /// Distribution parameters for a `[B, obs_dim]` observation matrix.
    pub fn dist_params(&self, obs: &Tensor) -> DistParams {
        let out = self.actor.forward_plain(obs);
        match &self.log_std {
            Some(ls) => DistParams::Gaussian {
                mu: out,
                log_std: ls.data().to_vec(),
            },
            None => DistParams::Categorical { logits: out },
        }
    }

    /// Critic values for a `[B, obs_dim]` observation matrix.
    pub fn value_batch(&self, obs: &Tensor) -> Vec<f32> {
        self.critic.forward_plain(obs).into_vec()
    }

    /// Samples one action for a single observation.
    pub fn act(&self, obs: &[f32], rng: &mut ChaCha8Rng) -> ActOutput {
        let x = Tensor::from_vec(obs.to_vec(), &[1, obs.len()]);
        let value = self.value_batch(&x)[0];
        match self.dist_params(&x) {
            DistParams::Gaussian { mu, log_std } => {
                let (a, logp) = dist::sample_gaussian(mu.data(), &log_std, rng);
                ActOutput {
                    action: Action::Continuous(a),
                    logp,
                    value,
                    dist_row: mu.into_vec(),
                }
            }
            DistParams::Categorical { logits } => {
                let (a, logp) = dist::sample_categorical(logits.data(), rng);
                ActOutput {
                    action: Action::Discrete(a),
                    logp,
                    value,
                    dist_row: logits.into_vec(),
                }
            }
        }
    }

    /// Greedy action for evaluation.
    pub fn act_greedy(&self, obs: &[f32]) -> Action {
        let x = Tensor::from_vec(obs.to_vec(), &[1, obs.len()]);
        match self.dist_params(&x) {
            DistParams::Gaussian { mu, .. } => Action::Continuous(mu.data().to_vec()),
            DistParams::Categorical { logits } => {
                Action::Discrete(dist::argmax_categorical(logits.data()).0)
            }
        }
    }

    /// Log-probabilities of a batch's actions under *this* policy, without
    /// gradients (used for target networks and V-trace).
    pub fn logp_plain(&self, batch: &SampleBatch) -> Vec<f32> {
        match self.dist_params(&batch.obs) {
            DistParams::Gaussian { mu, log_std } => {
                #[expect(
                    clippy::expect_used,
                    reason = "batch layout is fixed by the rollout worker that built it; a missing field is a producer bug"
                )]
                let actions = batch
                    .actions_cont
                    .as_ref()
                    // lint:allow(A8): wire corruption fails typed decode upstream; a field mismatch here is a producer bug
                    .expect("continuous batch missing actions");
                (0..batch.len())
                    .map(|i| {
                        dist::gaussian_logp_value(mu.row(i).data(), &log_std, actions.row(i).data())
                    })
                    .collect()
            }
            DistParams::Categorical { logits } => batch
                .actions_disc
                .iter()
                .enumerate()
                .map(|(i, &a)| dist::categorical_logp_value(logits.row(i).data(), a))
                .collect(),
        }
    }

    /// Builds the differentiable pieces every surrogate objective needs.
    pub fn loss_parts(&self, g: &Graph, batch: &SampleBatch) -> LossParts {
        let param_vars = bind_params(g, &self.params());
        let n_actor = self.n_actor_params();
        let has_ls = self.log_std.is_some();
        let critic_end = param_vars.len() - usize::from(has_ls);
        let obs = g.input(batch.obs.clone());
        let actor_out = self.actor.forward(g, obs, &param_vars[..n_actor]);
        let value_raw = self
            .critic
            .forward(g, obs, &param_vars[n_actor..critic_end]);
        let b = batch.len();
        let value = g.reshape(value_raw, &[b]);
        let (logp_new, entropy, kl) = if has_ls {
            #[expect(
                clippy::unwrap_used,
                reason = "has_ls guarantees the log-std var was appended to param_vars"
            )]
            // lint:allow(A8): has_ls guarantees the log-std var was appended to param_vars
            let ls_var = *param_vars.last().unwrap();
            #[expect(
                clippy::expect_used,
                reason = "batch layout is fixed by the rollout worker that built it; a missing field is a producer bug"
            )]
            let actions = batch
                .actions_cont
                .as_ref()
                // lint:allow(A8): wire corruption fails typed decode upstream; a field mismatch here is a producer bug
                .expect("continuous batch missing actions");
            let dim = actions.shape()[1];
            let logp = dist::gaussian_log_prob(g, actor_out, ls_var, actions);
            let ent = dist::gaussian_entropy(g, ls_var, dim);
            #[expect(
                clippy::expect_used,
                reason = "batch layout is fixed by the rollout worker that built it; a missing field is a producer bug"
            )]
            let mu_old = batch
                .behaviour_mu
                .as_ref()
                // lint:allow(A8): wire corruption fails typed decode upstream; a field mismatch here is a producer bug
                .expect("continuous batch missing behaviour means");
            #[expect(
                clippy::expect_used,
                reason = "batch layout is fixed by the rollout worker that built it; a missing field is a producer bug"
            )]
            let ls_old = Tensor::from_vec(
                batch
                    .behaviour_log_std
                    .clone()
                    // lint:allow(A8): wire corruption fails typed decode upstream; a field mismatch here is a producer bug
                    .expect("continuous batch missing behaviour log-stds"),
                &[dim],
            );
            let kl = dist::gaussian_kl_mean(g, mu_old, &ls_old, actor_out, ls_var);
            (logp, ent, kl)
        } else {
            let logp = dist::categorical_log_prob(g, actor_out, &batch.actions_disc);
            let ent = dist::categorical_entropy_mean(g, actor_out);
            #[expect(
                clippy::expect_used,
                reason = "batch layout is fixed by the rollout worker that built it; a missing field is a producer bug"
            )]
            let old_logits = batch
                .behaviour_logits
                .as_ref()
                // lint:allow(A8): wire corruption fails typed decode upstream; a field mismatch here is a producer bug
                .expect("discrete batch missing behaviour logits");
            let kl = dist::categorical_kl_mean(g, old_logits, actor_out);
            (logp, ent, kl)
        };
        LossParts {
            logp_new,
            value,
            entropy,
            kl,
            param_vars,
        }
    }

    /// Mean KL(self ‖ other) over an observation batch — the metric behind
    /// the paper's Fig. 3(c) policy-update characterisation.
    pub fn mean_kl_to(&self, other: &PolicyNet, obs: &Tensor) -> f32 {
        self.dist_params(obs).mean_kl_to(&other.dist_params(obs))
    }

    /// Serialises weights + version.
    pub fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot {
            version: self.version,
            flat: self.flatten(),
        }
    }

    /// Loads weights + version from a snapshot (shapes must match).
    pub fn load_snapshot(&mut self, snap: &PolicySnapshot) {
        self.load_flat(&snap.flat);
        self.version = snap.version;
    }
}

/// Flat serialised policy weights with their version clock.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySnapshot {
    /// Policy clock at snapshot time.
    pub version: u64,
    /// Flattened parameters.
    pub flat: Vec<f32>,
}

impl Codec for PolicySnapshot {
    fn encode(&self, buf: &mut BytesMut) {
        self.version.encode(buf);
        self.flat.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            version: u64::decode(buf)?,
            flat: Vec::<f32>::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.version.encoded_len() + self.flat.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gae::fill_gae;
    use crate::rollout::RolloutWorker;
    use stellaris_envs::{make_env, EnvConfig, EnvId};

    fn hopper_spec() -> PolicySpec {
        PolicySpec {
            obs_shape: vec![11],
            action_space: ActionSpace::Continuous { dim: 3, bound: 1.0 },
            hidden: 32,
        }
    }

    #[test]
    fn table2_mlp_sizes() {
        let mut env = make_env(EnvId::Hopper, EnvConfig::default());
        env.reset(0);
        let spec = PolicySpec::for_env(env.as_ref());
        assert_eq!(spec.hidden, 256);
        let p = PolicyNet::new(spec, 0);
        match &p.actor {
            Backbone::Mlp(m) => {
                assert_eq!(m.layers[0].w.shape(), &[11, 256]);
                assert_eq!(m.layers[1].w.shape(), &[256, 256]);
                assert_eq!(m.out_dim(), 3);
            }
            Backbone::Cnn(_) => panic!("Hopper should use an MLP"),
        }
    }

    #[test]
    fn act_produces_valid_output() {
        let p = PolicyNet::new(hopper_spec(), 1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let out = p.act(&[0.1; 11], &mut rng);
        match out.action {
            Action::Continuous(a) => assert_eq!(a.len(), 3),
            Action::Discrete(_) => panic!("wrong action kind"),
        }
        assert!(out.logp.is_finite());
        assert!(out.value.is_finite());
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        let mut a = PolicyNet::new(hopper_spec(), 1);
        a.version = 42;
        let snap = a.snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(snap.encoded_len(), bytes.len());
        let snap2 = PolicySnapshot::from_bytes(&bytes).unwrap();
        let mut b = PolicyNet::new(hopper_spec(), 999);
        b.load_snapshot(&snap2);
        assert_eq!(b.version, 42);
        let obs = Tensor::ones(&[2, 11]);
        assert!(a.mean_kl_to(&b, &obs).abs() < 1e-6);
    }

    #[test]
    fn kl_between_different_seeds_is_positive() {
        let a = PolicyNet::new(hopper_spec(), 1);
        let b = PolicyNet::new(hopper_spec(), 2);
        let obs = Tensor::ones(&[4, 11]);
        assert!(a.mean_kl_to(&b, &obs) > 0.0);
        assert!(a.mean_kl_to(&a, &obs).abs() < 1e-7);
    }

    #[test]
    fn logp_plain_matches_loss_parts() {
        let p = PolicyNet::new(hopper_spec(), 3);
        let mut env = make_env(EnvId::Hopper, EnvConfig::tiny());
        env.reset(0);
        let mut worker = RolloutWorker::new(env, 5);
        let mut batch = worker.collect(&p, 16);
        fill_gae(&mut batch, 0.99, 0.95);
        let plain = p.logp_plain(&batch);
        let g = Graph::new();
        let parts = p.loss_parts(&g, &batch);
        let graph_logp = g.value(parts.logp_new);
        for (a, b) in plain.iter().zip(graph_logp.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Behaviour logp recorded at sampling time must also agree (same policy).
        for (a, b) in plain.iter().zip(batch.behaviour_logp.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn discrete_policy_loss_parts() {
        let mut env = make_env(EnvId::ChainMdp, EnvConfig::tiny());
        env.reset(0);
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = 16;
        let p = PolicyNet::new(spec, 0);
        let mut worker = RolloutWorker::new(env, 9);
        let mut batch = worker.collect(&p, 12);
        fill_gae(&mut batch, 0.99, 0.95);
        let g = Graph::new();
        let parts = p.loss_parts(&g, &batch);
        assert_eq!(g.shape_of(parts.logp_new), vec![12]);
        assert_eq!(g.shape_of(parts.value), vec![12]);
        assert!(g.value(parts.entropy).data()[0] > 0.0);
        assert!(
            g.value(parts.kl).data()[0].abs() < 1e-4,
            "same policy -> ~0 KL"
        );
    }
}
