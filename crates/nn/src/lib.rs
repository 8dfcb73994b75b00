//! # stellaris-nn
//!
//! A small, self-contained neural-network library backing the Stellaris
//! DRL reproduction: dense `f32` tensors over a packed, cache-blocked
//! [`gemm`] kernel, a tape-based reverse-mode autograd [`Graph`] with a
//! recycled gradient arena, the MLP/CNN architectures of the paper's
//! Table II, SGD/Adam/RMSProp optimizers, and differentiable
//! Gaussian/categorical policy distributions.
//!
//! The library substitutes for PyTorch in the original system (see
//! DESIGN.md §2): gradients are computed per mini-batch on a fresh graph,
//! matching the per-invocation lifetime of a serverless learner function.
//! The performance contract of the hot path (GEMM blocking, the gradient
//! arena, fused dense ops) is documented in DESIGN.md §11.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(unsafe_code)]

pub mod conv;
pub mod dist;
pub mod gemm;
pub mod graph;
pub mod layers;
pub mod optim;
pub mod tensor;

pub use gemm::FusedAct;
pub use graph::{Graph, Var};
pub use layers::{bind_params, Activation, Cnn, ConvLayer, Linear, Mlp, ParamSet};
pub use optim::{clip_grad_norm, Adam, Optimizer, OptimizerKind, RmsProp, Sgd};
pub use tensor::{flatten_all, Tensor};
