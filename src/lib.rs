//! # Stellaris
//!
//! A Rust reproduction of **"Stellaris: Staleness-Aware Distributed
//! Reinforcement Learning with Serverless Computing"** (SC 2024): a generic
//! asynchronous learning paradigm for distributed DRL training on
//! serverless infrastructure, together with every substrate the system
//! needs — a tape-based autograd/NN library, MuJoCo-like and Atari-like
//! environments, a binary codec and framed sockets for real worker
//! processes, and a serverless container platform simulator with the
//! paper's cost model.
//!
//! ## Quickstart
//!
//! ```no_run
//! use stellaris::prelude::*;
//!
//! // Train PPO on the planar Hopper with Stellaris' asynchronous
//! // staleness-aware serverless learners.
//! let cfg = TrainConfig::stellaris_scaled(EnvId::Hopper, 42);
//! let result = train(&cfg);
//! println!("final reward: {:.1}", result.final_reward);
//! println!("training cost: ${:.6}", result.cost.total());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the harnesses that regenerate every table and figure of the paper.

pub use stellaris_cache as cache;
pub use stellaris_core as core;
pub use stellaris_envs as envs;
pub use stellaris_nn as nn;
pub use stellaris_rl as rl;
pub use stellaris_serverless as serverless;
pub use stellaris_simcluster as simcluster;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use stellaris_core::{
        frameworks, rows_to_csv, smooth, train, AggregationRule, Algo, Deployment, GradientMsg,
        LearnerMode, RatioBoard, ShardedParameterServer, TrainConfig, TrainResult, TrainRow,
    };
    pub use stellaris_envs::{make_env, Action, ActionSpace, Env, EnvConfig, EnvId};
    pub use stellaris_nn::{Optimizer, OptimizerKind, Tensor};
    pub use stellaris_rl::{
        evaluate, ImpactConfig, PolicyNet, PolicySpec, PpoConfig, RolloutWorker, SampleBatch,
    };
    pub use stellaris_serverless::{
        Cluster, CostBreakdown, FaultConfig, FaultPlan, FaultReport, InvokeError, Platform,
        RetryPolicy,
    };
}
