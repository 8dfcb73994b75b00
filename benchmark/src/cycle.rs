//! The serial reference cycle: the plain single-worker baseline of a
//! workload, one thread calling each layer's public functions in the order
//! a training round does, at the workload's own shapes, with one
//! benchmark-owned span per call.
//!
//! publish policy -> actor invocation (load + collect) -> batch codec ->
//! data loading -> per minibatch: learner invocation (read policy, load,
//! gradient) -> gradient codec/store/queue -> offer -> republish.
//!
//! `Cache::put_obj`/`get_obj` are `to_bytes` + `put` and `get` +
//! `from_bytes`; the cycle calls the halves separately so codec time and
//! store time are separate spans whose self times partition the cycle.

use std::time::{Duration, Instant};

use crate::api::{
    fill_gae, make_env, ppo_gradients, AggregationRule, Cache, Codec, EnvConfig, FunctionKind,
    GradientMsg, LatencyModel, OptimizerKind, OverheadMode, Platform, PolicyNet, PolicySnapshot,
    PpoConfig, RetryPolicy, RolloutWorker, SampleBatch, ShardedGradientQueue,
    ShardedParameterServer, StartupProfile,
};
use crate::report::Report;
use crate::spans::{summarize, Tracer};
use crate::workloads::Workload;

/// Root span of one cycle.
const ROOT: &str = "cycle";

/// Layer spans a cycle records; each reports `<name>.p50_us` and
/// `<name>.self_frac`.
pub const SPANS: [&str; 15] = [
    "serverless.invoke",
    "rl.collect",
    "rl.gradient",
    "rl.dataload",
    "rl.load_snapshot",
    "cache.codec.encode_grad",
    "cache.codec.decode_grad",
    "cache.codec.encode_snap",
    "cache.codec.decode_snap",
    "cache.codec.encode_batch",
    "cache.codec.decode_batch",
    "cache.store.put_get",
    "cache.queue.push_pop",
    "core.offer",
    "core.snapshot",
];

const POLICY_KEY: &str = "policy:latest";

struct Rig {
    ppo: PpoConfig,
    retry: RetryPolicy,
    server: ShardedParameterServer,
    cache: Cache,
    platform: Platform,
    queue: ShardedGradientQueue<String>,
    worker: RolloutWorker,
    actor_policy: PolicyNet,
    learner_policy: PolicyNet,
    grad_seq: u64,
}

impl Rig {
    fn new(w: &Workload, seed: u64) -> Self {
        let ppo = PpoConfig::scaled();
        let policy = w.policy(seed);
        let platform = Platform::new(
            w.learners,
            w.actors,
            StartupProfile::default(),
            OverheadMode::Record,
        );
        platform.prewarm(FunctionKind::Learner, w.learners);
        platform.prewarm(FunctionKind::Actor, w.actors);
        Self {
            ppo,
            retry: RetryPolicy::default(),
            server: ShardedParameterServer::new(
                policy.clone(),
                AggregationRule::stellaris_default(),
                w.shards,
                || OptimizerKind::Adam.build(ppo.lr),
            ),
            cache: Cache::new(16, LatencyModel::lan_recorded()),
            platform,
            queue: ShardedGradientQueue::bounded(w.lanes, 64),
            worker: RolloutWorker::new(
                make_env(w.env, EnvConfig::default()),
                seed.wrapping_mul(1000),
            ),
            actor_policy: policy.clone(),
            learner_policy: policy,
            grad_seq: 0,
        }
    }

    /// Snapshot -> encode -> store: what the parameter function does after
    /// every applied update.
    fn publish(&mut self, t: &mut Tracer) {
        let snap = t.scope("core.snapshot", |_| self.server.snapshot());
        let bytes = t.scope("cache.codec.encode_snap", |_| snap.to_bytes());
        t.scope("cache.store.put_get", |_| self.cache.put(POLICY_KEY, bytes));
    }

    /// Store -> decode: what every actor and learner does before working.
    fn read_policy(&mut self, t: &mut Tracer) -> PolicySnapshot {
        let bytes = t
            .scope("cache.store.put_get", |_| self.cache.get(POLICY_KEY))
            .expect("the cycle publishes before it reads");
        t.scope("cache.codec.decode_snap", |_| {
            PolicySnapshot::from_bytes(&bytes).expect("the cycle stored a valid snapshot")
        })
    }

    fn cycle(&mut self, w: &Workload, t: &mut Tracer) {
        self.publish(t);

        // ----- actor function (Step 1) -------------------------------------
        let snap = self.read_policy(t);
        let (batch, _record) = t
            .scope("serverless.invoke", |t| {
                self.platform
                    .invoke_retry(FunctionKind::Actor, &self.retry, None, || {
                        t.scope("rl.load_snapshot", |_| {
                            self.actor_policy.load_snapshot(&snap)
                        });
                        t.scope("rl.collect", |_| {
                            self.worker.collect(&self.actor_policy, w.actor_steps)
                        })
                    })
            })
            .expect("faults are off: an actor invocation cannot fail");

        // The trajectory crosses to the data loader encoded (the socket
        // path's COLLECT reply; the store path of a real deployment).
        let bytes = t.scope("cache.codec.encode_batch", |_| batch.to_bytes());
        let mut batch = t.scope("cache.codec.decode_batch", |_| {
            SampleBatch::from_bytes(&bytes).expect("just encoded")
        });

        // ----- data loader ----------------------------------------------------
        let minibatches = t.scope("rl.dataload", |_| {
            fill_gae(&mut batch, self.ppo.gamma, self.ppo.gae_lambda);
            batch.normalize_advantages();
            batch.minibatches(w.minibatch)
        });

        // ----- learner functions (Step 2) + parameter function (Step 3) -------
        for (i, mb) in minibatches.iter().enumerate() {
            let learner_id = i % w.learners;
            let snap = self.read_policy(t);
            let (msg, _record) = t
                .scope("serverless.invoke", |t| {
                    self.platform
                        .invoke_retry(FunctionKind::Learner, &self.retry, None, || {
                            t.scope("rl.gradient", |t| {
                                t.scope("rl.load_snapshot", |_| {
                                    self.learner_policy.load_snapshot(&snap)
                                });
                                let (grads, stats) =
                                    ppo_gradients(&self.learner_policy, mb, &self.ppo, Some(1.0));
                                GradientMsg {
                                    learner_id,
                                    grads,
                                    base_version: snap.version,
                                    batch_len: mb.len(),
                                    is_ratio: stats.mean_ratio,
                                    kl: stats.kl,
                                    surrogate: stats.surrogate,
                                }
                            })
                        })
                })
                .expect("faults are off: a learner invocation cannot fail");

            self.grad_seq += 1;
            let key = format!("grad:{}", self.grad_seq);
            let bytes = t.scope("cache.codec.encode_grad", |_| msg.to_bytes());
            t.scope("cache.store.put_get", |_| self.cache.put(&key, bytes));
            let key = t
                .scope("cache.queue.push_pop", |_| {
                    self.queue.push(learner_id as u64, key, msg.base_version);
                    self.queue.try_pop_any()
                })
                .expect("one gradient was just pushed")
                .0;
            let bytes = t
                .scope("cache.store.put_get", |_| self.cache.take(&key))
                .expect("the gradient was just stored");
            let msg = t.scope("cache.codec.decode_grad", |_| {
                GradientMsg::from_bytes(&bytes).expect("just encoded")
            });
            let applied = t.scope("core.offer", |_| self.server.offer(msg));
            self.queue.advance_clock(self.server.clock());
            if applied > 0 {
                self.publish(t);
            }
        }
        self.server.advance_round();
    }
}

/// Runs reference cycles for about `budget` (at least five), writes the
/// spans to `spans_out`, and reports per-span p50 and self-time shares plus
/// `core.serial_steps_per_s` and `cycle.self_frac_coverage`.
pub fn run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    spans_out: Option<&std::path::Path>,
) -> Result<Report, String> {
    let mut rig = Rig::new(w, seed);
    rig.cycle(w, &mut Tracer::new()); // untimed warm-up
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let mut cycles = 0u64;
    while cycles < 5 || (t0.elapsed() < budget && cycles < 10_000) {
        tracer.scope(ROOT, |t| rig.cycle(w, t));
        tracer.next_cycle();
        cycles += 1;
    }

    let by_name = summarize(tracer.spans());
    let mut r = Report::default();
    let mut coverage = 0.0;
    for name in SPANS {
        let s = by_name.get(name).copied().unwrap_or_default();
        r.metric(&format!("{name}.p50_us"), s.p50_us);
        r.metric(&format!("{name}.self_frac"), s.self_frac);
        coverage += s.self_frac;
    }
    let wall_s: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    r.metric("cycle.self_frac_coverage", coverage);
    r.metric(
        "core.serial_steps_per_s",
        (cycles * w.actor_steps as u64) as f64 / wall_s,
    );
    r.check(
        "cycle_coverage",
        coverage >= 0.95,
        format!(
            "layer spans cover {:.1}% of {cycles} cycles",
            coverage * 100.0
        ),
    );
    if let Some(path) = spans_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        tracer
            .write_jsonl(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(r)
}
