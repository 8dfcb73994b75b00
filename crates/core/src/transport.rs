//! Hierarchical data passing (§V-B): "1) *shared memory* for learner
//! functions that are located in the same physical server ..., 2) *remote
//! procedure call (RPC)* for learners' remote communication, and 3)
//! *Distributed Cache* as external storage for persisting trajectories."
//!
//! The three tiers differ in what they cost. Shared memory moves an `Arc`
//! (no copy, no serialisation). RPC serialises into a frame and charges a
//! per-byte link cost. The cache tier persists the payload (it survives the
//! sender) and charges the cache's latency model. A [`Router`] picks the
//! cheapest tier that satisfies the placement of sender and receiver.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stellaris_cache::{Cache, Codec, CodecError};
use stellaris_serverless::{FaultPlan, RetryPolicy};

/// Where a function instance runs (for tier selection).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Physical VM index.
    pub vm: usize,
}

/// The communication tier actually used for a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Same-VM zero-copy handoff.
    SharedMemory,
    /// Cross-VM serialised message (simulated link).
    Rpc,
    /// Persisted through the distributed cache.
    Cache,
}

/// A payload delivered through the transport: either a zero-copy pointer or
/// a decoded owned value (RPC/cache paths).
pub enum Delivered<T> {
    /// Shared-memory handoff — the very same allocation.
    Shared(Arc<T>),
    /// Deserialised copy.
    Owned(T),
}

impl<T> Delivered<T> {
    /// Borrows the payload regardless of tier.
    pub fn get(&self) -> &T {
        match self {
            Delivered::Shared(v) => v,
            Delivered::Owned(v) => v,
        }
    }

    /// True when the delivery avoided serialisation.
    pub fn was_zero_copy(&self) -> bool {
        matches!(self, Delivered::Shared(_))
    }

    /// Takes ownership of the payload, cloning only when the shared-memory
    /// `Arc` is still referenced elsewhere.
    pub fn into_owned(self) -> T
    where
        T: Clone,
    {
        match self {
            Delivered::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
            Delivered::Owned(v) => v,
        }
    }
}

/// Why a transfer failed. Shared-memory handoffs cannot fail; the RPC and
/// cache tiers can lose or corrupt frames (under fault injection, or in a
/// real deployment a flaky link / evicted key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The frame was dropped in flight and never reached the receiver.
    Dropped,
    /// The frame arrived but did not decode (truncated or corrupt).
    Decode(CodecError),
    /// The cache no longer holds the payload (dropped before the store, or
    /// evicted/taken by someone else).
    Missing,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Dropped => write!(f, "frame dropped in flight"),
            TransportError::Decode(e) => write!(f, "frame failed to decode: {e}"),
            TransportError::Missing => write!(f, "cache payload missing"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Transfer statistics per tier.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Shared-memory transfers.
    pub shared: AtomicU64,
    /// RPC transfers.
    pub rpc: AtomicU64,
    /// Cache transfers.
    pub cache: AtomicU64,
    /// Serialised bytes moved (RPC + cache).
    pub bytes: AtomicU64,
}

/// Tier-selecting transport router.
pub struct Router {
    cache: Arc<Cache>,
    /// Simulated RPC link cost in microseconds per KiB (recorded).
    pub rpc_us_per_kb: u64,
    rpc_latency_us: AtomicU64,
    /// Counters.
    pub stats: TransportStats,
    /// Fault plan consulted for frame drop/corruption (disabled by default).
    faults: Arc<FaultPlan>,
}

impl Router {
    /// Creates a router over a cache instance.
    pub fn new(cache: Arc<Cache>) -> Self {
        Self::with_faults(cache, Arc::new(FaultPlan::disabled()))
    }

    /// Creates a router whose RPC/cache frames are subject to a fault plan
    /// (drop and corruption probabilities). Shared-memory handoffs move an
    /// `Arc` in-process and are never faulted.
    pub fn with_faults(cache: Arc<Cache>, faults: Arc<FaultPlan>) -> Self {
        Self {
            cache,
            rpc_us_per_kb: 8, // ~ 1 GbE effective
            rpc_latency_us: AtomicU64::new(0),
            stats: TransportStats::default(),
            faults,
        }
    }

    /// Which tier a transfer from `src` to `dst` should use; `persist`
    /// forces the cache tier (the payload must outlive the sender, e.g.
    /// trajectories awaiting asynchronous learners). Cross-VM transfers ride
    /// the simulated RPC link; frames that cross a real process boundary go
    /// through `remote::RemoteWorker`, not the router.
    pub fn pick(&self, src: Placement, dst: Placement, persist: bool) -> Tier {
        if persist {
            Tier::Cache
        } else if src.vm == dst.vm {
            Tier::SharedMemory
        } else {
            Tier::Rpc
        }
    }

    /// Sends a payload, returning what the receiver observes.
    ///
    /// Shared-memory handoffs are infallible. RPC and cache frames can be
    /// dropped ([`TransportError::Dropped`]) or corrupted in flight — a
    /// corrupted frame is truncated, which the length-prefixed codec always
    /// detects and surfaces as [`TransportError::Decode`]. Callers that must
    /// get the payload through use [`Router::send_with_retry`].
    pub fn send<T: Codec>(
        &self,
        value: Arc<T>,
        src: Placement,
        dst: Placement,
        persist: bool,
        key: &str,
    ) -> Result<(Tier, Delivered<T>), TransportError> {
        match self.pick(src, dst, persist) {
            Tier::SharedMemory => {
                self.stats.shared.fetch_add(1, Ordering::Relaxed);
                Ok((Tier::SharedMemory, Delivered::Shared(value)))
            }
            Tier::Rpc => {
                let frame = value.to_bytes();
                self.stats.rpc.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                self.rpc_latency_us.fetch_add(
                    self.rpc_us_per_kb * (frame.len() as u64 / 1024).max(1),
                    Ordering::Relaxed,
                );
                if self.faults.should_drop_frame() {
                    return Err(TransportError::Dropped);
                }
                let wire: &[u8] = if self.faults.should_corrupt_frame() {
                    // In-flight corruption: the receiver sees a truncated
                    // frame, which the length-prefixed codec rejects.
                    &frame[..frame.len() / 2]
                } else {
                    &frame
                };
                let decoded = T::from_bytes(wire).map_err(TransportError::Decode)?;
                Ok((Tier::Rpc, Delivered::Owned(decoded)))
            }
            Tier::Cache => {
                let frame = value.to_bytes();
                self.stats.cache.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                if self.faults.should_drop_frame() {
                    // Dropped on the way to the cache: nothing was stored.
                    return Err(TransportError::Missing);
                }
                let stored = if self.faults.should_corrupt_frame() {
                    bytes::Bytes::copy_from_slice(&frame[..frame.len() / 2])
                } else {
                    frame
                };
                self.cache.put(key, stored);
                let back = self.cache.take(key).ok_or(TransportError::Missing)?;
                let decoded = T::from_bytes(&back).map_err(TransportError::Decode)?;
                Ok((Tier::Cache, Delivered::Owned(decoded)))
            }
        }
    }

    /// Sends with retry: re-encodes and re-sends on drop/corruption with the
    /// fault plan's seeded backoff jitter, giving up (and counting an
    /// exhaustion) after `retry.max_retries` retries.
    pub fn send_with_retry<T: Codec>(
        &self,
        value: Arc<T>,
        src: Placement,
        dst: Placement,
        persist: bool,
        key: &str,
        retry: &RetryPolicy,
    ) -> Result<(Tier, Delivered<T>), TransportError> {
        self.faults.with_retry(retry, |_attempt| {
            self.send(value.clone(), src, dst, persist, key)
        })
    }

    /// Accumulated simulated RPC latency.
    pub fn rpc_latency_us(&self) -> u64 {
        self.rpc_latency_us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellaris_nn::Tensor;

    fn router() -> Router {
        Router::new(Arc::new(Cache::in_memory()))
    }

    #[test]
    fn same_vm_uses_shared_memory() {
        let r = router();
        let t = Arc::new(Tensor::ones(&[64]));
        let (tier, got) = r
            .send(
                t.clone(),
                Placement { vm: 0 },
                Placement { vm: 0 },
                false,
                "k",
            )
            .unwrap();
        assert_eq!(tier, Tier::SharedMemory);
        assert!(got.was_zero_copy());
        assert!(Arc::ptr_eq(
            match &got {
                Delivered::Shared(v) => v,
                _ => unreachable!(),
            },
            &t
        ));
        assert_eq!(r.stats.shared.load(Ordering::Relaxed), 1);
        assert_eq!(r.stats.bytes.load(Ordering::Relaxed), 0, "no serialisation");
    }

    #[test]
    fn cross_vm_uses_rpc_and_charges_bytes() {
        let r = router();
        let t = Arc::new(Tensor::ones(&[256, 4]));
        let (tier, got) = r
            .send(
                t.clone(),
                Placement { vm: 0 },
                Placement { vm: 1 },
                false,
                "k",
            )
            .unwrap();
        assert_eq!(tier, Tier::Rpc);
        assert!(!got.was_zero_copy());
        assert_eq!(got.get(), t.as_ref());
        assert!(r.stats.bytes.load(Ordering::Relaxed) >= 256 * 4 * 4);
        assert!(r.rpc_latency_us() > 0);
    }

    #[test]
    fn persistence_forces_cache_tier() {
        let r = router();
        let t = Arc::new(Tensor::full(&[8], 3.0));
        let (tier, got) = r
            .send(t, Placement { vm: 0 }, Placement { vm: 0 }, true, "traj:1")
            .unwrap();
        assert_eq!(tier, Tier::Cache, "persisted payloads go through the cache");
        assert_eq!(got.get().data()[0], 3.0);
        assert_eq!(r.stats.cache.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tier_selection_matrix() {
        let r = router();
        assert_eq!(
            r.pick(Placement { vm: 2 }, Placement { vm: 2 }, false),
            Tier::SharedMemory
        );
        assert_eq!(
            r.pick(Placement { vm: 0 }, Placement { vm: 3 }, false),
            Tier::Rpc
        );
        assert_eq!(
            r.pick(Placement { vm: 1 }, Placement { vm: 1 }, true),
            Tier::Cache
        );
    }

    // ----- fault injection over the wire ---------------------------------

    use stellaris_serverless::FaultConfig;

    fn chaos_router(cfg: FaultConfig) -> Router {
        Router::with_faults(Arc::new(Cache::in_memory()), Arc::new(FaultPlan::new(cfg)))
    }

    #[test]
    fn dropped_rpc_frame_is_a_typed_error() {
        let r = chaos_router(FaultConfig {
            frame_drop: 1.0,
            ..FaultConfig::off()
        });
        let t = Arc::new(Tensor::ones(&[16]));
        let out = r.send(t, Placement { vm: 0 }, Placement { vm: 1 }, false, "k");
        assert_eq!(out.err(), Some(TransportError::Dropped));
    }

    #[test]
    fn corrupted_frame_fails_decode_not_panic() {
        let r = chaos_router(FaultConfig {
            frame_corrupt: 1.0,
            ..FaultConfig::off()
        });
        let t = Arc::new(Tensor::ones(&[16]));
        let out = r.send(t, Placement { vm: 0 }, Placement { vm: 1 }, false, "k");
        assert!(
            matches!(out, Err(TransportError::Decode(_))),
            "truncated frame must surface as a decode error"
        );
    }

    #[test]
    fn corrupted_cache_frame_fails_decode() {
        let r = chaos_router(FaultConfig {
            frame_corrupt: 1.0,
            ..FaultConfig::off()
        });
        let t = Arc::new(Tensor::ones(&[16]));
        let out = r.send(t, Placement { vm: 0 }, Placement { vm: 0 }, true, "traj:1");
        assert!(matches!(out, Err(TransportError::Decode(_))));
    }

    #[test]
    fn shared_memory_is_never_faulted() {
        let r = chaos_router(FaultConfig {
            frame_drop: 1.0,
            frame_corrupt: 1.0,
            ..FaultConfig::off()
        });
        let t = Arc::new(Tensor::ones(&[16]));
        let out = r.send(t, Placement { vm: 0 }, Placement { vm: 0 }, false, "k");
        assert!(out.is_ok(), "in-process Arc handoff cannot drop a frame");
    }

    #[test]
    fn send_with_retry_pushes_through_lossy_link() {
        // p(drop)=0.5 with 16 retries: effectively certain delivery, and
        // seeded, so the test is deterministic.
        let r = chaos_router(FaultConfig {
            seed: 5,
            frame_drop: 0.5,
            ..FaultConfig::off()
        });
        let retry = RetryPolicy {
            max_retries: 16,
            base: std::time::Duration::from_micros(10),
            cap: std::time::Duration::from_micros(100),
        };
        let t = Arc::new(Tensor::ones(&[32]));
        for i in 0..20 {
            let (tier, got) = r
                .send_with_retry(
                    t.clone(),
                    Placement { vm: 0 },
                    Placement { vm: 1 },
                    false,
                    &format!("k{i}"),
                    &retry,
                )
                .expect("retry must eventually deliver");
            assert_eq!(tier, Tier::Rpc);
            assert_eq!(got.get(), t.as_ref());
        }
        assert!(
            r.faults.report().frames_dropped > 0,
            "the lossy link must actually drop frames"
        );
    }

    #[test]
    fn into_owned_returns_the_payload_on_every_tier() {
        let r = router();
        let t = Arc::new(Tensor::full(&[4], 2.0));
        let (_, shared) = r
            .send(
                t.clone(),
                Placement { vm: 0 },
                Placement { vm: 0 },
                false,
                "k",
            )
            .unwrap();
        assert_eq!(shared.into_owned(), *t);
        let (_, owned) = r
            .send(
                t.clone(),
                Placement { vm: 0 },
                Placement { vm: 1 },
                false,
                "k",
            )
            .unwrap();
        assert_eq!(owned.into_owned(), *t);
    }
}
