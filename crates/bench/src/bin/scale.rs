//! Gradient/parameter-plane scale benchmark: thousands of simulated
//! learners push gradients through the classic single-queue plane (cache
//! encode/decode round-trip per gradient, full-snapshot republish per
//! commit — exactly the pre-sharding `train_async` data path) and through
//! the sharded plane (per-learner bounded MPSC lanes carrying zero-copy
//! `Arc` payloads into an N-shard parameter server whose version-vector
//! commit *is* the publish; policy pulls are served on demand as deltas).
//!
//! Reports rounds/sec and p99 enqueue latency per learner count, plus the
//! deterministic delta-pull wire sizes on the Table II MLP. Writes
//! `BENCH_scale.json` at the repository root. CI runs `--tiny` (see the
//! `scale-smoke` job) to keep the harness and schema alive and to diff the
//! deterministic wire keys; timing-based acceptance (>=5x rounds/sec,
//! lower p99 at 1k+ learners) is only asserted in full mode from a quiet
//! machine: `cargo run --release -p stellaris-bench --bin scale`.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use stellaris_cache::{Cache, GradientQueue, LatencyModel, ShardedGradientQueue};
use stellaris_core::{
    AggregationRule, GradientMsg, Placement, Router, ShardedParameterServer, POLICY_KEY,
};
use stellaris_envs::ActionSpace;
use stellaris_nn::{OptimizerKind, ParamSet, Tensor};
use stellaris_rl::{PolicyNet, PolicySpec};
use stellaris_serverless::RetryPolicy;

/// Shards used on the sharded side (clamped to the block count inside the
/// server).
const SHARDS: usize = 8;
/// Gradient lanes on the sharded side.
const LANES: usize = 16;
/// Producer threads standing in for the learner fleet (the box has one
/// core; more threads measure lock traffic, not parallelism).
const PRODUCERS: usize = 4;

fn policy(hidden: usize, seed: u64) -> PolicyNet {
    PolicyNet::new(
        PolicySpec {
            obs_shape: vec![11],
            action_space: ActionSpace::Continuous { dim: 3, bound: 1.0 },
            hidden,
        },
        seed,
    )
}

fn grad_msg(policy: &PolicyNet, learner: usize, fill: f32) -> GradientMsg {
    GradientMsg {
        learner_id: learner,
        grads: policy
            .params()
            .iter()
            .map(|p| Tensor::full(p.shape(), fill))
            .collect(),
        base_version: 0,
        batch_len: 64,
        is_ratio: 1.0,
        kl: 0.0,
        surrogate: 0.0,
    }
}

/// One plane configuration's measurements.
struct PlaneRow {
    rounds_per_sec: f64,
    msgs_per_sec: f64,
    p99_enqueue_us: f64,
    shed: u64,
}

fn p99_us(mut samples: Vec<u64>) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let idx = (samples.len() as f64 * 0.99).ceil() as usize;
    samples[idx.min(samples.len()) - 1] as f64 / 1e3
}

/// The classic plane: every gradient rides the cross-VM router (a real
/// encode/decode per hop, exactly like `train_async`'s submission path),
/// lands encoded in the cache, is decoded back out by the aggregator
/// behind one bounded queue of cache keys into a one-shard server behind
/// one mutex, and every commit republishes a full encoded snapshot.
fn run_baseline(learners: usize, rounds: usize) -> PlaneRow {
    let total = learners * rounds;
    let cache = Arc::new(Cache::new(16, LatencyModel::off()));
    let router = Arc::new(Router::new(cache.clone()));
    let retry = RetryPolicy::default();
    let queue: Arc<GradientQueue<String>> = Arc::new(GradientQueue::bounded(total));
    let pol = policy(32, 1);
    let template = Arc::new(grad_msg(&pol, 0, 0.01));
    let server = Arc::new(Mutex::new(ShardedParameterServer::new(
        pol,
        AggregationRule::PureAsync,
        1,
        || OptimizerKind::Adam.build(3e-4),
    )));
    let snap0 = {
        let srv = server.lock().unwrap();
        srv.snapshot()
    };
    cache.put_obj(POLICY_KEY, &snap0);

    let t0 = Instant::now();
    let latencies = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let cache = cache.clone();
            let router = router.clone();
            let queue = queue.clone();
            let template = template.clone();
            let sends = total / PRODUCERS + usize::from(p < total % PRODUCERS);
            handles.push(s.spawn(move || {
                let mut lat = Vec::with_capacity(sends);
                for _ in 0..sends {
                    // Submission cost only — gradient *compute* is out of
                    // scope on both planes, so the payload is a template
                    // `Arc` here and on the sharded side alike. The plane
                    // still pays its own copies: the router hop encodes
                    // and decodes, and the cache round-trip materialises
                    // the message again at the aggregator.
                    let t = Instant::now();
                    let key = format!("grad:{}", cache.incr("grad_seq"));
                    let (_tier, delivered) = router
                        .send_with_retry(
                            template.clone(),
                            Placement { vm: 1 + p },
                            Placement { vm: 0 },
                            false,
                            &key,
                            &retry,
                        )
                        .expect("fault-free send");
                    cache.put_obj(&key, delivered.get());
                    queue.push(key, 0);
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            }));
        }
        let aggregator = {
            let cache = cache.clone();
            let queue = queue.clone();
            let server = server.clone();
            s.spawn(move || {
                let mut processed = 0usize;
                while processed < total {
                    let Some((key, _base)) = queue.pop() else {
                        break;
                    };
                    let Ok(msg) = cache.take_obj::<GradientMsg>(&key) else {
                        continue;
                    };
                    let srv = server.lock().unwrap();
                    let applied = srv.offer(msg);
                    if applied > 0 {
                        let snap = srv.snapshot();
                        drop(srv);
                        cache.put_obj(POLICY_KEY, &snap);
                    }
                    processed += 1;
                }
            })
        };
        let mut lat = Vec::with_capacity(total);
        for h in handles {
            lat.extend(h.join().expect("producer"));
        }
        aggregator.join().expect("aggregator");
        lat
    });
    let dt = t0.elapsed().as_secs_f64();

    PlaneRow {
        rounds_per_sec: rounds as f64 / dt,
        msgs_per_sec: total as f64 / dt,
        p99_enqueue_us: p99_us(latencies),
        shed: queue.shed_count(),
    }
}

/// The sharded plane: per-learner lanes carry `Arc<GradientMsg>` without
/// any codec round-trip; the aggregator fans each message over the
/// parameter shards whose version-vector commit publishes the new blocks
/// (pulls are served as deltas, measured in the wire section).
fn run_sharded(learners: usize, rounds: usize) -> PlaneRow {
    let total = learners * rounds;
    let queue: Arc<ShardedGradientQueue<Arc<GradientMsg>>> =
        Arc::new(ShardedGradientQueue::bounded(LANES, total));
    let pol = policy(32, 1);
    let template = Arc::new(grad_msg(&pol, 0, 0.01));
    let server = Arc::new(ShardedParameterServer::new(
        pol,
        AggregationRule::PureAsync,
        SHARDS,
        || OptimizerKind::Adam.build(3e-4),
    ));

    let t0 = Instant::now();
    let latencies = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let queue = queue.clone();
            let template = template.clone();
            let sends = total / PRODUCERS + usize::from(p < total % PRODUCERS);
            handles.push(s.spawn(move || {
                let mut lat = Vec::with_capacity(sends);
                for i in 0..sends {
                    // Lane choice is keyed by simulated learner id, as in
                    // the orchestrator. Submission is a refcount bump into
                    // the lane — the zero-copy path under test.
                    let learner = (p + i * PRODUCERS) % learners.max(1);
                    let t = Instant::now();
                    queue.push(learner as u64, template.clone(), 0);
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            }));
        }
        let aggregator = {
            let queue = queue.clone();
            let server = server.clone();
            s.spawn(move || {
                let mut processed = 0usize;
                while processed < total {
                    let Some((msg, _base)) = queue.pop_any() else {
                        break;
                    };
                    for shard in 0..server.n_shards() {
                        server.offer_to_shard(shard, msg.clone());
                    }
                    processed += 1;
                }
            })
        };
        let mut lat = Vec::with_capacity(total);
        for h in handles {
            lat.extend(h.join().expect("producer"));
        }
        aggregator.join().expect("aggregator");
        lat
    });
    let dt = t0.elapsed().as_secs_f64();

    PlaneRow {
        rounds_per_sec: rounds as f64 / dt,
        msgs_per_sec: total as f64 / dt,
        p99_enqueue_us: p99_us(latencies),
        shed: queue.shed_count(),
    }
}

/// Deterministic delta-pull wire sizes on the Table II MLP (hidden 256):
/// a learner at version `v` pulls only the blocks committed since `v`, so
/// after a single shard's commit the delta carries that shard's slice
/// alone. Reports the per-shard sizes and their mean against the full
/// snapshot, plus the empty-delta floor.
struct WireRow {
    full_bytes: usize,
    empty_bytes: usize,
    per_shard_bytes: Vec<usize>,
    mean_delta_bytes: f64,
}

fn measure_wire() -> WireRow {
    use stellaris_cache::Codec;
    let server =
        ShardedParameterServer::new(policy(256, 2), AggregationRule::PureAsync, SHARDS, || {
            OptimizerKind::Adam.build(3e-4)
        });
    let full_bytes = server.snapshot().encoded_len();
    let empty_bytes = server.delta_since(server.clock()).encoded_len();
    let msg = Arc::new(grad_msg(&server.policy(), 0, 0.01));
    let per_shard_bytes: Vec<usize> = (0..server.n_shards())
        .map(|shard| {
            let v = server.clock();
            server.offer_to_shard(shard, msg.clone());
            server.delta_since(v).encoded_len()
        })
        .collect();
    let mean_delta_bytes =
        per_shard_bytes.iter().sum::<usize>() as f64 / per_shard_bytes.len() as f64;
    WireRow {
        full_bytes,
        empty_bytes,
        per_shard_bytes,
        mean_delta_bytes,
    }
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let _telemetry = stellaris_bench::telemetry_from_env();
    stellaris_bench::banner(
        "scale",
        "gradient/parameter-plane scale: sharded lanes + delta pulls vs the classic plane",
    );

    // (simulated learners, rounds): enough messages for stable timing at
    // each scale without the 10k point dominating the run.
    let points: &[(usize, usize)] = if tiny {
        &[(100, 3), (1000, 1)]
    } else {
        &[(100, 50), (1000, 10), (10_000, 2)]
    };

    let mut rows = Vec::new();
    for &(learners, rounds) in points {
        let base = run_baseline(learners, rounds);
        let shard = run_sharded(learners, rounds);
        stellaris_bench::progress!(
            "{learners:>6} learners: classic {:>10.1} msg/s (p99 enqueue {:>8.1} us) | sharded {:>10.1} msg/s (p99 {:>6.1} us) | {:.1}x",
            base.msgs_per_sec,
            base.p99_enqueue_us,
            shard.msgs_per_sec,
            shard.p99_enqueue_us,
            shard.rounds_per_sec / base.rounds_per_sec,
        );
        rows.push((learners, rounds, base, shard));
    }

    let wire = measure_wire();
    let delta_fraction = wire.mean_delta_bytes / wire.full_bytes as f64;
    stellaris_bench::progress!(
        "wire (Table II MLP): full {} B | single-commit delta mean {:.0} B ({:.1}%) | empty {} B",
        wire.full_bytes,
        wire.mean_delta_bytes,
        delta_fraction * 100.0,
        wire.empty_bytes,
    );

    // Gates. The wire sizes are deterministic, so they gate in every mode;
    // the timing criteria only mean something from a full quiet-machine run.
    assert!(
        delta_fraction < 0.25,
        "single-commit delta pulls must stay under 25% of a full snapshot: {delta_fraction:.3}"
    );
    assert!(
        wire.empty_bytes < 64,
        "an empty delta must be near-free: {} B",
        wire.empty_bytes
    );
    if !tiny {
        for (learners, _, base, shard) in &rows {
            if *learners >= 1000 {
                assert!(
                    shard.rounds_per_sec >= 5.0 * base.rounds_per_sec,
                    "{learners} learners: sharded must clear 5x rounds/sec ({:.1} vs {:.1})",
                    shard.rounds_per_sec,
                    base.rounds_per_sec
                );
                assert!(
                    shard.p99_enqueue_us < base.p99_enqueue_us,
                    "{learners} learners: sharded p99 enqueue must be lower ({:.1} vs {:.1} us)",
                    shard.p99_enqueue_us,
                    base.p99_enqueue_us
                );
            }
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"scale\",");
    let _ = writeln!(json, "  \"tiny\": {tiny},");
    let _ = writeln!(
        json,
        "  \"cores\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"producers\": {PRODUCERS},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"lanes\": {LANES},");
    let _ = writeln!(json, "  \"scale\": [");
    for (i, (learners, rounds, base, shard)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"learners\": {learners}, \"rounds\": {rounds}, \
             \"baseline\": {{\"rounds_per_sec\": {:.3}, \"msgs_per_sec\": {:.1}, \"p99_enqueue_us\": {:.3}, \"shed\": {}}}, \
             \"sharded\": {{\"rounds_per_sec\": {:.3}, \"msgs_per_sec\": {:.1}, \"p99_enqueue_us\": {:.3}, \"shed\": {}}}, \
             \"speedup\": {:.2}}}{comma}",
            base.rounds_per_sec, base.msgs_per_sec, base.p99_enqueue_us, base.shed,
            shard.rounds_per_sec, shard.msgs_per_sec, shard.p99_enqueue_us, shard.shed,
            shard.rounds_per_sec / base.rounds_per_sec,
        );
    }
    let _ = writeln!(json, "  ],");
    let per_shard = wire
        .per_shard_bytes
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        json,
        "  \"wire\": {{\"model\": \"table2_mlp_h256\", \"full_snapshot_bytes\": {}, \
         \"empty_delta_bytes\": {}, \"per_shard_delta_bytes\": [{per_shard}], \
         \"mean_delta_bytes\": {:.1}, \"delta_fraction\": {:.4}}}",
        wire.full_bytes, wire.empty_bytes, wire.mean_delta_bytes, delta_fraction
    );
    let _ = writeln!(json, "}}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    stellaris_bench::progress!("wrote {path}");
}
