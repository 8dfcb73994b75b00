//! Every product item the benchmark binds to, and nothing else.
//!
//! This is the only file in `benchmark/` that names a `stellaris_*` crate
//! (or the vendored RNG the policy's `act` signature exposes), so a rename
//! or move in the product has a one-file blast radius here. The drivers and
//! probes import from `crate::api` only.

// ----- core: the training entry points and the parameter plane --------------
pub use stellaris_core::{
    snapshot_checksum, train, AggregationRule, Algo, Deployment, GradientMsg, GradientRequest,
    LearnerMode, RemoteFleet, RemoteRunReport, ShardedParameterServer, TrainConfig, TrainResult,
};

// ----- rl: rollout, data loading, gradients, evaluation ---------------------
pub use stellaris_rl::{
    evaluate, fill_gae, ppo_gradients, Backbone, PolicyNet, PolicySnapshot, PolicySpec, PpoConfig,
    RolloutWorker, SampleBatch,
};

// ----- envs ------------------------------------------------------------------
pub use stellaris_envs::{make_env, Action, ActionSpace, EnvConfig, EnvId};

// ----- nn: the GEMM kernel and tensors ---------------------------------------
pub use stellaris_nn::gemm::{gemm_bias_act, MatRef};
pub use stellaris_nn::{FusedAct, OptimizerKind, ParamSet, Tensor};

// ----- cache: codec, store, gradient lanes, wire frames ----------------------
pub use stellaris_cache::frame::{write_value_frame, FrameReader, DEFAULT_MAX_FRAME};
pub use stellaris_cache::{Cache, Codec, LatencyModel, ShardedGradientQueue};

// ----- serverless: invocation platform, cost model, worker processes ---------
pub use stellaris_serverless::{
    Cluster, FaultConfig, FunctionKind, OverheadMode, Platform, ProcessConfig, ProcessPool,
    RetryPolicy, StartupProfile, WireTransport,
};

// ----- telemetry: the program's own tracer, attribution and metrics ----------
pub use stellaris_telemetry::attribution::{attribute, AttrEvent, Stage, ALL_STAGES};
pub use stellaris_telemetry::{global as metrics_registry, trace};

// ----- the RNG `PolicyNet::act` takes ----------------------------------------
pub use rand::SeedableRng;
pub use rand_chacha::ChaCha8Rng;
