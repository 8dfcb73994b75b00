//! The distributed cache: a sharded key-value store.
//!
//! This is the Rust stand-in for the Redis instance of §VII ("Distributed
//! cache"): actors publish serialised trajectories, learner functions pull
//! policy weights and push gradients, and the parameter function picks
//! gradients up for aggregation. Keys are strings; values are opaque byte
//! buffers ([`bytes::Bytes`], so reads are zero-copy reference bumps).
//!
//! A configurable latency model charges each operation a base cost plus a
//! per-kilobyte cost, recorded in [`CacheStats`] for the simulated-cost
//! experiments.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::codec::{Codec, CodecError};

/// How operation latency is accounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyMode {
    /// No latency modelling.
    Off,
    /// Accumulate simulated latency into [`CacheStats`].
    Record,
}

/// Latency model for cache operations.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Fixed per-operation cost in microseconds (network RTT analogue).
    pub base_us: u64,
    /// Additional cost per kilobyte transferred.
    pub per_kb_us: u64,
    /// Accounting mode.
    pub mode: LatencyMode,
}

impl LatencyModel {
    /// No latency at all.
    pub fn off() -> Self {
        Self {
            base_us: 0,
            per_kb_us: 0,
            mode: LatencyMode::Off,
        }
    }

    /// A LAN-like profile (100 µs RTT, ~1 GB/s), recorded not slept.
    pub fn lan_recorded() -> Self {
        Self {
            base_us: 100,
            per_kb_us: 1,
            mode: LatencyMode::Record,
        }
    }

    fn cost_us(&self, bytes: usize) -> u64 {
        self.base_us + self.per_kb_us * (bytes as u64 / 1024)
    }
}

/// Cumulative cache statistics (all atomics; cheap to read concurrently).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Number of `put` operations.
    pub puts: AtomicU64,
    /// Number of `get`/`take` lookups.
    pub gets: AtomicU64,
    /// Lookups that found a value.
    pub hits: AtomicU64,
    /// Lookups that found nothing.
    pub misses: AtomicU64,
    /// Bytes written.
    pub bytes_in: AtomicU64,
    /// Bytes read.
    pub bytes_out: AtomicU64,
    /// Total modelled latency in microseconds.
    pub simulated_us: AtomicU64,
}

impl CacheStats {
    /// Snapshot as plain numbers `(puts, gets, hits, misses, bytes_in, bytes_out, simulated_us)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            self.puts.load(Ordering::Relaxed),
            self.gets.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.bytes_in.load(Ordering::Relaxed),
            self.bytes_out.load(Ordering::Relaxed),
            self.simulated_us.load(Ordering::Relaxed),
        )
    }
}

type Shard = Mutex<HashMap<String, Bytes>>;

/// Errors surfaced by typed cache accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// Key absent.
    Missing(String),
    /// Value present but failed to decode.
    Decode(CodecError),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Missing(k) => write!(f, "cache key missing: {k}"),
            CacheError::Decode(e) => write!(f, "cache decode error: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// The sharded in-memory store.
///
/// ```
/// use stellaris_cache::{Cache, Codec};
/// let cache = Cache::in_memory();
/// cache.put_obj("policy:latest", &42u64);
/// assert_eq!(cache.get_obj::<u64>("policy:latest").unwrap(), 42);
/// assert_eq!(cache.take_obj::<u64>("policy:latest").unwrap(), 42);
/// assert!(cache.is_empty());
/// ```
pub struct Cache {
    shards: Vec<Shard>,
    latency: LatencyModel,
    /// Operation statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache with `shards` shards (power of two recommended).
    pub fn new(shards: usize, latency: LatencyModel) -> Self {
        assert!(shards >= 1, "cache needs at least one shard");
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            latency,
            stats: CacheStats::default(),
        }
    }

    /// A latency-free cache with a sensible shard count.
    pub fn in_memory() -> Self {
        Self::new(16, LatencyModel::off())
    }

    fn shard(&self, key: &str) -> &Shard {
        // FNV-1a; stable across runs so experiments are reproducible.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        &self.shards[(h as usize) % self.shards.len()]
    }

    fn charge(&self, bytes: usize) {
        if self.latency.mode == LatencyMode::Record {
            self.stats
                .simulated_us
                .fetch_add(self.latency.cost_us(bytes), Ordering::Relaxed);
        }
    }

    /// Stores a value.
    pub fn put(&self, key: &str, value: Bytes) {
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_in
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        self.charge(value.len());
        self.shard(key).lock().insert(key.to_owned(), value);
    }

    /// Fetches a value (cheap clone of a refcounted buffer).
    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let out = self.shard(key).lock().get(key).cloned();
        match &out {
            Some(v) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_out
                    .fetch_add(v.len() as u64, Ordering::Relaxed);
                self.charge(v.len());
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.charge(0);
            }
        }
        out
    }

    /// Atomically fetches and removes a value.
    pub fn take(&self, key: &str) -> Option<Bytes> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let out = self.shard(key).lock().remove(key);
        match &out {
            Some(v) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_out
                    .fetch_add(v.len() as u64, Ordering::Relaxed);
                self.charge(v.len());
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    /// Total number of stored keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- typed helpers -------------------------------------------------

    /// Encodes and stores a typed value.
    pub fn put_obj<T: Codec>(&self, key: &str, value: &T) {
        self.put(key, value.to_bytes());
    }

    /// Fetches and decodes a typed value.
    pub fn get_obj<T: Codec>(&self, key: &str) -> Result<T, CacheError> {
        let bytes = self
            .get(key)
            .ok_or_else(|| CacheError::Missing(key.to_owned()))?;
        T::from_bytes(&bytes).map_err(decode_error)
    }

    /// Fetches, decodes and removes a typed value.
    pub fn take_obj<T: Codec>(&self, key: &str) -> Result<T, CacheError> {
        let bytes = self
            .take(key)
            .ok_or_else(|| CacheError::Missing(key.to_owned()))?;
        T::from_bytes(&bytes).map_err(decode_error)
    }
}

/// Counts every stored-value decode failure (corrupt frames reaching the
/// store under fault injection) before surfacing it as a typed error.
fn decode_error(e: CodecError) -> CacheError {
    stellaris_telemetry::global()
        .counter("stellaris_cache_decode_errors_total")
        .inc();
    CacheError::Decode(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stellaris_nn::Tensor;

    #[test]
    fn put_get_take() {
        let c = Cache::in_memory();
        c.put("a", Bytes::from_static(b"xyz"));
        assert_eq!(c.get("a").unwrap(), Bytes::from_static(b"xyz"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.take("a").unwrap(), Bytes::from_static(b"xyz"));
        assert!(c.get("a").is_none());
        assert!(c.take("a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn typed_roundtrip() {
        let c = Cache::in_memory();
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        c.put_obj("policy:0", &t);
        let back: Tensor = c.get_obj("policy:0").unwrap();
        assert_eq!(back, t);
        assert!(matches!(
            c.get_obj::<Tensor>("policy:1"),
            Err(CacheError::Missing(_))
        ));
    }

    #[test]
    fn stats_track_traffic() {
        let c = Cache::new(4, LatencyModel::lan_recorded());
        c.put("k", Bytes::from(vec![0u8; 2048]));
        let _ = c.get("k");
        let _ = c.get("missing");
        let (puts, gets, hits, misses, bin, bout, sim) = c.stats.snapshot();
        assert_eq!((puts, gets, hits, misses), (1, 2, 1, 1));
        assert_eq!(bin, 2048);
        assert_eq!(bout, 2048);
        // 3 charged ops: put (base+2kb), hit get (base+2kb), miss (base).
        assert_eq!(sim, 100 + 2 + 100 + 2 + 100);
    }

    #[test]
    fn concurrent_put_get_different_keys() {
        let c = Arc::new(Cache::in_memory());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let key = format!("k:{t}:{i}");
                    c.put_obj(&key, &i);
                    assert_eq!(c.get_obj::<u64>(&key).unwrap(), i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 400);
    }
}
