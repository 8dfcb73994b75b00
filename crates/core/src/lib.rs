//! # stellaris-core
//!
//! The primary contribution of the Stellaris paper (SC'24), reproduced in
//! Rust: a generic **asynchronous learning paradigm** for distributed DRL
//! training on serverless computing, built from
//!
//! * **importance-sampling truncation with a global view** (§V-A, Eq. 2) —
//!   [`truncation::RatioBoard`];
//! * **staleness-aware gradient aggregation** (§V-C, Eq. 3 & 4) —
//!   [`staleness::StalenessGate`], [`parameter::ShardedParameterServer`]
//!   (the one parameter plane every schedule aggregates through);
//! * **on-demand serverless learner orchestration** (§V-B) —
//!   [`orchestrator::train`], with the GPU data loader, by-value hand-offs
//!   between functions on one server (§V-B's shared memory), and the
//!   baseline aggregation rules (Softsync, SSP, pure-async, full-sync) used
//!   by the ablations.
//!
//! One cycle, two schedules: [`cycle::async_round`] and
//! [`cycle::lockstep_round`] are each written once over an actor half
//! ([`cycle::Actors`]) and a learner half ([`cycle::Learners`]), and one
//! dispatcher implements both halves for both venues over per-slot links.
//! [`orchestrator::train`] drives either schedule over in-process threads,
//! [`remote::RemoteFleet`] drives the lock-step one over child processes
//! behind sockets.
//!
//! [`frameworks`] provides named configurations reproducing every baseline
//! system of the evaluation: vanilla PPO/IMPACT, Ray RLlib-style synchronous
//! multi-learner training, MinionsRL, and PAR-RL on the HPC cluster.

#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]

pub mod aggregation;
pub mod autoscale;
pub mod config;
pub mod cycle;
mod dispatch;
pub mod frameworks;
pub mod local;
pub mod messages;
pub mod metrics;
pub mod orchestrator;
pub mod parameter;
pub mod remote;
pub mod staleness;
pub mod truncation;

pub use aggregation::{AggregationRule, GradAccumulator, SspThrottle};
pub use autoscale::LearnerAutoscaler;
pub use config::{Algo, Deployment, LearnerMode, TrainConfig};
pub use cycle::{
    async_round, fresh_net, lockstep_round, ActorBody, Actors, CycleTotals, LearnerBody, Learners,
    Published,
};
pub use messages::GradientMsg;
pub use metrics::{rows_to_csv, TimerReport, Timers, TrainRow};
pub use orchestrator::{parameter_plane, smooth, train, TrainResult};
pub use parameter::ShardedParameterServer;
pub use remote::{
    serve_worker, snapshot_checksum, GradientCall, GradientRequest, RemoteError, RemoteFleet,
    RemoteRunReport, RemoteSetup, RemoteWorker,
};
pub use staleness::{staleness_weight, StalenessGate, StalenessRing};
pub use truncation::{reward_improvement_bound, RatioBoard};
