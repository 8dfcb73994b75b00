//! # stellaris-serverless
//!
//! The serverless-computing substrate of the Stellaris reproduction: a
//! container platform simulator with cold starts, pre-warming, ten-minute
//! keep-alive and per-kind slot capacities (four learner functions per
//! GPU), plus the paper's dollar-per-resource-second cost model over the
//! §VIII-A EC2 cluster profiles.

#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]

pub mod cost;
pub mod cputime;
pub mod fault;
pub mod platform;
pub mod pricing;
pub mod process;

pub use cost::{bill_hybrid, bill_serverful, bill_serverless, CostBreakdown};
pub use cputime::{measure_cpu, thread_cpu_time};
pub use fault::{FaultConfig, FaultPlan, FaultReport, RetryPolicy};
pub use platform::{
    FunctionKind, InvocationRecord, InvokeError, OverheadMode, Platform, StartupProfile,
};
pub use pricing::{Cluster, InstanceType, VmGroup};
pub use process::{
    ProcessConfig, ProcessPool, SpawnError, WireStream, WireTransport, WorkerProcess,
};
