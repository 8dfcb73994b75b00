//! # stellaris-rl
//!
//! The DRL algorithm layer of the Stellaris reproduction: trajectory
//! containers with cache codecs, GAE and V-trace estimators, the Table II
//! policy/critic networks, actor-side rollout collection, and the two
//! algorithms the paper integrates with — on-policy PPO and off-policy
//! IMPACT — both accepting the Stellaris global importance-sampling
//! truncation as a ratio cap.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod checkpoint;
pub mod gae;
pub mod impact;
pub mod policy;
pub mod ppo;
pub mod rollout;
pub mod trajectory;
pub mod vtrace;

pub use checkpoint::{load_policy, save_policy};
pub use gae::fill_gae;
pub use impact::{impact_gradients, ImpactConfig, ImpactLearner};
pub use policy::{ActOutput, Backbone, DistParams, PolicyNet, PolicySnapshot, PolicySpec};
pub use ppo::{adapt_kl_coeff, ppo_gradients, LossStats, PpoConfig};
pub use rollout::{evaluate, RolloutWorker};
pub use trajectory::SampleBatch;
pub use vtrace::{vtrace, VtraceInput, VtraceOutput};
