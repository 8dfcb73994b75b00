//! # stellaris-cache
//!
//! The distributed-cache substrate of the Stellaris reproduction — the Rust
//! stand-in for the Redis instance in §VII of the paper. It provides a
//! sharded in-memory key-value store with blocking waits and counters, a
//! compact binary [`codec`] for tensors and training messages, bounded
//! gradient queues, length-prefixed wire frames, and a configurable
//! latency model so transfer costs show up in the cost experiments.

#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]

pub mod codec;
pub mod frame;
pub mod queue;
pub mod store;

pub use codec::{checked_len_u32, decode_seq, encode_seq, seq_encoded_len, Codec, CodecError};
pub use frame::{
    write_frame, write_value_frame, Frame, FrameHeader, FrameReader, WireError, DEFAULT_MAX_FRAME,
    FRAME_MAGIC, FRAME_VERSION, HEADER_LEN,
};
pub use queue::{GradientQueue, ShardedGradientQueue};
pub use store::{Cache, CacheError, CacheStats, LatencyMode, LatencyModel};
