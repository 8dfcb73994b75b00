//! # stellaris-cache
//!
//! The data-passing substrate of the Stellaris reproduction. Training
//! uses two of its parts: a compact binary [`codec`] for tensors and
//! training messages, and the length-prefixed wire [`frame`]s that carry
//! them to worker processes. In process nothing is encoded; policies and
//! gradients are handed over by value, as §V-B's shared memory would.
//!
//! The sharded key-value [`store`] (the stand-in for the paper's Redis
//! instance), its latency model and the bounded gradient [`queue`]s have no
//! training caller; the benchmark's serial reference cycle still binds
//! them.

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

pub use codec::{
    checked_len_u32, decode_seq, encode_len_prefix, encode_seq, put_le_words, seq_encoded_len,
    take_le_words, Codec, CodecError,
};
pub use frame::{
    write_frame, write_value_frame, Frame, FrameHeader, FrameReader, WireError, DEFAULT_MAX_FRAME,
    FRAME_MAGIC, FRAME_VERSION, HEADER_LEN,
};
pub use queue::{GradientQueue, ShardedGradientQueue};
pub use store::{Cache, CacheError, CacheStats, LatencyMode, LatencyModel};
