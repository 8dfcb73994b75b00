//! The environment abstraction shared by actors, evaluators and benchmarks.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Deterministic RNG used across all environments.
pub type EnvRng = ChaCha8Rng;

/// Creates the environment RNG from a seed.
pub fn env_rng(seed: u64) -> EnvRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Action space of an environment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ActionSpace {
    /// `n` discrete actions (Atari-style).
    Discrete(usize),
    /// Box-bounded continuous actions (MuJoCo-style), symmetric in
    /// `[-bound, bound]` per dimension.
    Continuous {
        /// Action dimensionality.
        dim: usize,
        /// Per-dimension symmetric bound.
        bound: f32,
    },
}

impl ActionSpace {
    /// Action dimensionality (1 for discrete spaces).
    pub fn dim(&self) -> usize {
        match self {
            ActionSpace::Discrete(_) => 1,
            ActionSpace::Continuous { dim, .. } => *dim,
        }
    }

    /// True for discrete spaces.
    pub fn is_discrete(&self) -> bool {
        matches!(self, ActionSpace::Discrete(_))
    }
}

/// An action taken by a policy.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Index into a discrete action set.
    Discrete(usize),
    /// Continuous control vector.
    Continuous(Vec<f32>),
}

impl Action {
    /// The discrete index; panics on continuous actions.
    pub fn discrete(&self) -> usize {
        match self {
            Action::Discrete(a) => *a,
            Action::Continuous(_) => panic!("expected discrete action"),
        }
    }

    /// The continuous vector; panics on discrete actions.
    pub fn continuous(&self) -> &[f32] {
        match self {
            Action::Continuous(v) => v,
            Action::Discrete(_) => panic!("expected continuous action"),
        }
    }

    /// Sum of squared action magnitudes (control-cost term).
    pub fn sq_norm(&self) -> f32 {
        match self {
            Action::Discrete(_) => 0.0,
            Action::Continuous(v) => v.iter().map(|x| x * x).sum(),
        }
    }
}

/// Result of one environment step.
#[derive(Clone, Debug)]
pub struct Step {
    /// Next observation (flattened).
    pub obs: Vec<f32>,
    /// Scalar reward.
    pub reward: f32,
    /// Episode-termination flag (true also on time limit).
    pub done: bool,
}

/// A reinforcement-learning environment.
///
/// Observations are flat `f32` vectors; image observations report their
/// `[c,h,w]` geometry via [`Env::obs_shape`] so CNN policies can reshape.
pub trait Env: Send {
    /// Stable environment name (used in logs, CSV output and figure labels).
    fn name(&self) -> &'static str;
    /// Observation geometry: `[d]` for vectors, `[c,h,w]` for images.
    fn obs_shape(&self) -> Vec<usize>;
    /// The action space.
    fn action_space(&self) -> ActionSpace;
    /// Resets the episode with a seed, returning the first observation.
    fn reset(&mut self, seed: u64) -> Vec<f32>;
    /// Advances one timestep.
    fn step(&mut self, action: &Action) -> Step;
    /// Maximum episode length before truncation.
    fn max_steps(&self) -> usize;

    /// Flattened observation dimensionality.
    fn obs_dim(&self) -> usize {
        self.obs_shape().iter().product()
    }
}

/// The six benchmark environments of the paper's §VIII-A plus two tiny
/// diagnostic environments used by the test suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnvId {
    /// MuJoCo-like planar hopper (continuous).
    Hopper,
    /// MuJoCo-like planar biped walker (continuous).
    Walker2d,
    /// MuJoCo-like planar humanoid (continuous).
    Humanoid,
    /// Atari-like fixed shooter (discrete, pixels).
    SpaceInvaders,
    /// Atari-like pyramid hopper (discrete, pixels).
    Qbert,
    /// Atari-like gravity shooter with sparse rewards (discrete, pixels).
    Gravitar,
    /// 2-D point mass servo task (continuous; fast diagnostic).
    PointMass,
    /// Small chain MDP (discrete; fast diagnostic).
    ChainMdp,
}

impl EnvId {
    /// All six paper benchmark environments, in the paper's order.
    pub const PAPER_SET: [EnvId; 6] = [
        EnvId::Hopper,
        EnvId::Walker2d,
        EnvId::Humanoid,
        EnvId::SpaceInvaders,
        EnvId::Qbert,
        EnvId::Gravitar,
    ];

    /// The three continuous-control environments.
    pub const MUJOCO_SET: [EnvId; 3] = [EnvId::Hopper, EnvId::Walker2d, EnvId::Humanoid];

    /// The three arcade environments.
    pub const ATARI_SET: [EnvId; 3] = [EnvId::SpaceInvaders, EnvId::Qbert, EnvId::Gravitar];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            EnvId::Hopper => "Hopper",
            EnvId::Walker2d => "Walker2d",
            EnvId::Humanoid => "Humanoid",
            EnvId::SpaceInvaders => "SpaceInvaders",
            EnvId::Qbert => "Qbert",
            EnvId::Gravitar => "Gravitar",
            EnvId::PointMass => "PointMass",
            EnvId::ChainMdp => "ChainMdp",
        }
    }

    /// Parses a display name back to an id.
    pub fn parse(s: &str) -> Option<EnvId> {
        let all = [
            EnvId::Hopper,
            EnvId::Walker2d,
            EnvId::Humanoid,
            EnvId::SpaceInvaders,
            EnvId::Qbert,
            EnvId::Gravitar,
            EnvId::PointMass,
            EnvId::ChainMdp,
        ];
        all.into_iter().find(|e| e.name().eq_ignore_ascii_case(s))
    }

    /// True for continuous-action environments.
    pub fn is_continuous(&self) -> bool {
        matches!(
            self,
            EnvId::Hopper | EnvId::Walker2d | EnvId::Humanoid | EnvId::PointMass
        )
    }
}

/// Construction options for environments.
#[derive(Clone, Copy, Debug)]
pub struct EnvConfig {
    /// Side length of rendered arcade frames (frames are square and
    /// stacked 3 deep, per the paper's 84x84 x 3-stack inputs).
    pub frame_size: usize,
    /// Episode cap.
    pub max_steps: usize,
}

impl Default for EnvConfig {
    fn default() -> Self {
        // Laptop-scale defaults; the paper's 84x84 frames are available via
        // `EnvConfig { frame_size: 84, .. }`.
        Self {
            frame_size: 42,
            max_steps: 500,
        }
    }
}

impl EnvConfig {
    /// Paper-scale configuration (84x84 frames, 1000-step episodes).
    pub fn paper() -> Self {
        Self {
            frame_size: 84,
            max_steps: 1000,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            frame_size: 20,
            max_steps: 80,
        }
    }
}

/// Instantiates an environment by id.
pub fn make_env(id: EnvId, cfg: EnvConfig) -> Box<dyn Env> {
    match id {
        EnvId::Hopper => Box::new(crate::mujoco::Hopper::new(cfg)),
        EnvId::Walker2d => Box::new(crate::mujoco::Walker2d::new(cfg)),
        EnvId::Humanoid => Box::new(crate::mujoco::Humanoid::new(cfg)),
        EnvId::SpaceInvaders => Box::new(crate::arcade::SpaceInvaders::new(cfg)),
        EnvId::Qbert => Box::new(crate::arcade::Qbert::new(cfg)),
        EnvId::Gravitar => Box::new(crate::arcade::Gravitar::new(cfg)),
        EnvId::PointMass => Box::new(crate::diagnostics::PointMass::new(cfg)),
        EnvId::ChainMdp => Box::new(crate::diagnostics::ChainMdp::new(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for id in EnvId::PAPER_SET {
            assert_eq!(EnvId::parse(id.name()), Some(id));
        }
        assert_eq!(EnvId::parse("hopper"), Some(EnvId::Hopper));
        assert_eq!(EnvId::parse("nope"), None);
    }

    #[test]
    fn action_space_accessors() {
        let d = ActionSpace::Discrete(6);
        assert_eq!(d.dim(), 1);
        assert!(d.is_discrete());
        let c = ActionSpace::Continuous { dim: 3, bound: 1.0 };
        assert_eq!(c.dim(), 3);
        assert!(!c.is_discrete());
    }

    #[test]
    fn action_sq_norm() {
        assert_eq!(Action::Discrete(2).sq_norm(), 0.0);
        assert_eq!(Action::Continuous(vec![3.0, 4.0]).sq_norm(), 25.0);
    }

    #[test]
    #[should_panic(expected = "expected discrete")]
    fn wrong_action_kind_panics() {
        Action::Continuous(vec![1.0]).discrete();
    }
}
