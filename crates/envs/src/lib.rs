//! # stellaris-envs
//!
//! The environment substrate of the Stellaris reproduction. MuJoCo's three
//! continuous-control benchmarks (Hopper, Walker2d, Humanoid) are rebuilt on
//! a compact 2-D impulse-solver physics engine; the three Atari benchmarks
//! (SpaceInvaders, Qbert, Gravitar) are rebuilt as raster arcade games with
//! the paper's stacked-frame pixel observations. Two tiny diagnostic tasks
//! (PointMass, ChainMdp) keep the end-to-end test suite fast.

#![warn(missing_docs)]

pub mod arcade;
pub mod diagnostics;
pub mod env;
pub mod mujoco;
pub mod physics2d;

pub use env::{env_rng, make_env, Action, ActionSpace, Env, EnvConfig, EnvId, EnvRng, Step};
