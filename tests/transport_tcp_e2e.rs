//! End-to-end transport tests: real learner/actor child processes behind
//! the frame protocol, driven over TCP (and unix-domain sockets), with
//! the PR 4 chaos classes landing on actual connection resets, truncated
//! payloads and slow peers.
//!
//! The worker binary is the `stellaris worker` subcommand of this crate's
//! own CLI; every test spawns genuine OS processes through `ProcessPool`.

use std::convert::Infallible;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stellaris::cache::Codec;
use stellaris::core::{
    lockstep_round, parameter_plane, snapshot_checksum, train, ActorBody, Actors, CycleTotals,
    GradientMsg, GradientRequest, LearnerBody, Learners, Published, RemoteError, RemoteFleet,
    RemoteSetup, RemoteWorker, ShardedParameterServer, Timers, TrainConfig,
};
use stellaris::envs::EnvId;
use stellaris::rl::{fill_gae, PolicySnapshot, SampleBatch};
use stellaris::serverless::{FunctionKind, ProcessConfig, ProcessPool, SpawnError, WireTransport};
use stellaris_telemetry as telemetry;

/// Fleet tests ingest worker telemetry into the process-global trace
/// buffer; serialise them so one test's `drain` cannot eat another's
/// events.
static FLEET_LOCK: Mutex<()> = Mutex::new(());

fn worker_bin() -> String {
    env!("CARGO_BIN_EXE_stellaris").to_string()
}

fn worker_args() -> Vec<String> {
    vec!["worker".to_string()]
}

fn tiny_cfg(seed: u64, rounds: usize) -> TrainConfig {
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, seed);
    cfg.rounds = rounds;
    cfg
}

fn fleet(cfg: TrainConfig, transport: WireTransport) -> RemoteFleet {
    let proc_cfg = ProcessConfig {
        transport,
        ..ProcessConfig::default()
    };
    RemoteFleet::new(worker_bin(), worker_args(), proc_cfg, cfg)
}

/// A full chaos training run over TCP: injected faults must surface as
/// typed errors, be absorbed by the retry budget, and still deliver every
/// round's gradients.
#[test]
fn chaos_round_over_tcp_recovers_typed_errors() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let cfg = tiny_cfg(7, 6).with_chaos(3);
    let report = fleet(cfg, WireTransport::Tcp).run().expect("fleet run");

    assert_eq!(report.rounds, 6);
    assert!(report.grads_aggregated > 0, "rounds must make progress");
    assert_eq!(report.final_version, report.staleness_log.len() as u64);
    let f = &report.faults;
    let injected =
        f.injected_crashes + f.injected_stragglers + f.frames_dropped + f.frames_corrupted;
    assert!(injected > 0, "chaos plan must actually inject: {f:?}");
    assert!(
        report.recovered > 0,
        "at least one typed error must be recovered by retry: {report:?}"
    );
    assert!(f.retries > 0, "recovery must go through the retry path");
    assert!(
        report.learner_invocations > report.grads_aggregated,
        "failed attempts must be recorded as invocations too"
    );
    assert!(report.cold_spawns >= 2, "actor + at least one learner");
}

/// Same seed, same chaos plan, two independent fleets: the final policy
/// must be bitwise identical and the staleness history must match, even
/// though every fault rode a real socket.
#[test]
fn same_seed_chaos_is_reproducible_over_sockets() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let a = fleet(tiny_cfg(11, 4).with_chaos(5), WireTransport::Tcp)
        .run()
        .expect("first run");
    let b = fleet(tiny_cfg(11, 4).with_chaos(5), WireTransport::Tcp)
        .run()
        .expect("second run");
    assert_eq!(a.final_version, b.final_version);
    assert_eq!(
        a.final_checksum, b.final_checksum,
        "same-seed chaos must reproduce the same weights bit-for-bit"
    );
    assert_eq!(a.staleness_log, b.staleness_log);
    assert_eq!(a.grads_aggregated, b.grads_aggregated);
    assert_eq!(a.faults, b.faults, "the chaos draws themselves must replay");
}

/// Regression: the remote loop used to start from fresh weights and drop
/// `initial_snapshot`. A zero-round resume must report the resumed weights.
#[test]
fn remote_run_resumes_from_initial_snapshot() {
    let _guard = FLEET_LOCK.lock().unwrap();
    let resumed = train(&tiny_cfg(5, 1)).final_snapshot;
    let cfg = tiny_cfg(5, 0).resume_from(resumed.clone());
    let report = fleet(cfg, WireTransport::Tcp).run().expect("fleet run");
    assert_eq!(report.final_checksum, snapshot_checksum(&resumed));
    assert_eq!(report.final_version, resumed.version);
}

/// Worker spans cross the process boundary and stitch onto parent spans:
/// after a run, the parent trace holds `remote.*` events whose parents
/// are parent-side span IDs and whose own IDs were minted above the
/// worker's disjoint span base.
#[test]
fn cross_process_spans_stitch_onto_parent_trace() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let _clear = telemetry::drain();
    let report = fleet(tiny_cfg(3, 2), WireTransport::Tcp)
        .run()
        .expect("fleet run");
    assert!(report.events_ingested > 0, "workers must ship events back");

    let events = telemetry::drain();
    let parent_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.name.starts_with("fleet."))
        .map(|e| e.id)
        .collect();
    assert!(!parent_ids.is_empty(), "parent side must trace the rounds");
    for name in ["remote.collect", "remote.gradient"] {
        let remote: Vec<_> = events.iter().filter(|e| e.name == name).collect();
        assert!(!remote.is_empty(), "no {name} events crossed the wire");
        for e in &remote {
            assert!(
                e.id >= 1 << 40,
                "{name} id {:x} must come from a worker span base",
                e.id
            );
            assert!(
                parent_ids.contains(&e.parent),
                "{name} parent {:x} is not a parent-side span",
                e.parent
            );
        }
    }
    // Worker fields cross the socket typed.
    let learner = events
        .iter()
        .filter(|e| e.name == "remote.gradient")
        .flat_map(|e| &e.fields)
        .find(|(k, _)| *k == "learner");
    assert!(
        matches!(learner, Some((_, telemetry::FieldValue::U64(_)))),
        "learner field arrived as {learner:?}"
    );

    // The merged trace is one valid artefact set.
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stitched");
    telemetry::write_artefacts(&base, &events).unwrap();
    let checked = stellaris_obs::validate(&base, &["remote.collect", "remote.gradient"], &[]);
    assert!(checked.is_ok(), "merged remote trace: {checked:?}");
}

/// Keep-alive across rounds: the second checkout of the same worker slot
/// must reuse the live process instead of paying another cold start.
#[test]
fn keep_alive_reuses_worker_processes() {
    let pool = ProcessPool::new(worker_bin(), worker_args(), ProcessConfig::default());
    let first = pool.checkout(FunctionKind::Learner, 0).expect("cold spawn");
    assert!(first.is_cold());
    assert!(first.cold_start() > Duration::ZERO);
    let pid = first.pid();
    pool.checkin(first);
    let second = pool.checkout(FunctionKind::Learner, 0).expect("warm reuse");
    assert!(!second.is_cold(), "checkin/checkout must stay warm");
    assert_eq!(second.pid(), pid, "warm reuse keeps the same process");
    pool.checkin(second);
    pool.shutdown();
    assert_eq!(pool.start_counts(), (1, 1));
}

/// A killed peer surfaces as a typed wire error (a real connection
/// reset), and a fresh cold spawn recovers the slot.
#[test]
fn connection_reset_is_a_typed_error_and_respawn_recovers() {
    let pool = ProcessPool::new(worker_bin(), worker_args(), ProcessConfig::default());
    let cfg = tiny_cfg(21, 1);
    let setup = RemoteSetup::from_train(&cfg);

    let mut worker = RemoteWorker::new(pool.checkout(FunctionKind::Learner, 0).expect("spawn"));
    worker.init(&setup, 1).expect("init");
    worker.process().kill();
    let req = {
        let mut w = stellaris::rl::RolloutWorker::new(
            stellaris::envs::make_env(cfg.env_id, cfg.env_cfg),
            cfg.seed,
        );
        let policy = stellaris::rl::PolicyNet::new(
            {
                let mut env = stellaris::envs::make_env(cfg.env_id, cfg.env_cfg);
                env.reset(cfg.seed);
                let mut spec = stellaris::rl::PolicySpec::for_env(env.as_ref());
                spec.hidden = cfg.hidden;
                spec
            },
            cfg.seed,
        );
        let mut batch = w.collect(&policy, 16);
        fill_gae(&mut batch, 0.99, 0.95);
        let req = GradientRequest {
            snap: policy.snapshot(),
            batch,
            cap: None,
            learner_id: 0,
        };
        let err = worker.gradient(&req, 2).expect_err("dead peer must error");
        assert!(
            matches!(err, RemoteError::Wire(_)),
            "reset must be typed as a wire error, got {err}"
        );
        req
    };

    // Respawn the slot cold and prove the request itself was fine.
    let mut worker = RemoteWorker::new(pool.checkout(FunctionKind::Learner, 0).expect("respawn"));
    worker.init(&setup, 3).expect("re-init");
    let msg = worker.gradient(&req, 4).expect("clean retry succeeds");
    assert_eq!(msg.learner_id, 0);
    assert!(msg.batch_len > 0);
    worker.shutdown().expect("graceful shutdown");
    pool.shutdown();
    let (cold, _) = pool.start_counts();
    assert_eq!(cold, 2, "the reset slot must respawn cold");
}

/// Every round of the lock-step cycle over the process fleet's shape with
/// the sockets taken away: one actor in slot 0, a round-wide wave served
/// round-robin by the learner slots, the config's truncation threshold as
/// the IS cap.
fn in_process_run(cfg: &TrainConfig) -> (ShardedParameterServer, CycleTotals) {
    let mut actor = InProcessActor {
        body: ActorBody::new(cfg, 0),
        steps: cfg.actor_steps,
    };
    let mut learners = InProcessLearners {
        bodies: (0..cfg.max_learners)
            .map(|_| LearnerBody::new(cfg))
            .collect(),
        cap: cfg.truncation_rho,
    };
    let server = parameter_plane(cfg);
    let mut totals = CycleTotals::default();
    for _ in 0..cfg.rounds {
        let Ok(()) = lockstep_round(
            &mut actor,
            &mut learners,
            &server,
            cfg,
            &Timers::default(),
            &mut totals,
        );
        server.advance_round();
    }
    (server, totals)
}

struct InProcessActor {
    body: ActorBody,
    steps: usize,
}

impl Actors for InProcessActor {
    type Error = Infallible;

    fn collect(
        &mut self,
        snap: &Arc<PolicySnapshot>,
    ) -> Result<Vec<Option<SampleBatch>>, Infallible> {
        Ok(vec![Some(self.body.collect(snap, self.steps))])
    }
}

struct InProcessLearners {
    bodies: Vec<LearnerBody>,
    cap: Option<f32>,
}

impl Learners for InProcessLearners {
    type Error = Infallible;

    fn wave_width(&self, minibatches: usize) -> usize {
        minibatches
    }

    fn gradients(
        &mut self,
        policy: &Published,
        wave: Vec<SampleBatch>,
        arrived: &mut dyn FnMut(usize, GradientMsg),
    ) -> Result<(), Infallible> {
        let n = self.bodies.len();
        for (i, mb) in wave.iter().enumerate() {
            arrived(
                i,
                self.bodies[i % n].gradient(&policy.get(), mb, self.cap, i % n),
            );
        }
        Ok(())
    }
}

/// The remote fleet agrees with the in-process orchestrator's world: a
/// fault-free remote run advances the policy clock exactly once per
/// aggregated gradient, like `train` does — and ends on the same bits as
/// the same cycle driven over in-process bodies.
#[test]
fn fault_free_remote_run_matches_local_accounting() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let cfg = tiny_cfg(9, 3);
    let local = train(&cfg);
    let report = fleet(tiny_cfg(9, 3), WireTransport::Tcp)
        .run()
        .expect("fleet run");
    assert_eq!(report.faults.retries, 0, "no chaos configured");
    assert_eq!(report.recovered, 0);
    assert!(report.final_version > 0);
    assert_eq!(report.grads_aggregated, report.final_version);
    assert!(
        local.policy_updates > 0,
        "local baseline must also have trained"
    );
    // Version-addressed policy state: with faults off, every worker that
    // received work is sent the whole policy exactly once per round — the
    // actor by `LOAD_POLICY`, a learner inside its first call of the round.
    let busy_learners = cfg
        .max_learners
        .min(cfg.actor_steps.div_ceil(cfg.minibatch));
    assert_eq!(
        report.policy_full_pulls as usize,
        cfg.rounds * (1 + busy_learners),
        "one policy load per round per worker that received work"
    );
    assert_eq!(
        report.policy_bytes_full,
        report.policy_full_pulls * parameter_plane(&cfg).snapshot().encoded_len() as u64,
        "every full pull is one encoded snapshot"
    );
    assert!(report.policy_delta_pulls == 0 && report.policy_bytes_delta == 0);

    // Process fleet ≡ in-process fleet, bitwise.
    let (server, totals) = in_process_run(&cfg);
    assert_eq!(totals.degraded, 0);
    assert_eq!(report.final_version, server.clock());
    assert_eq!(report.staleness_log, server.staleness_log().to_vec());
    assert_eq!(
        report.final_checksum,
        snapshot_checksum(&server.snapshot()),
        "the sockets must not reach the weights"
    );
}

/// Three learner lanes and a mini-batch count three does not divide.
fn uneven_lanes_cfg(seed: u64) -> TrainConfig {
    let mut cfg = tiny_cfg(seed, 3);
    cfg.max_learners = 3;
    cfg.actor_steps = 40;
    cfg.minibatch = 8;
    cfg
}

/// Lanes finish in whatever order the scheduler likes; the weights must not
/// notice. Five mini-batches over three concurrent learner processes end on
/// the bits of the same cycle driven serially over in-process bodies.
#[test]
fn lane_arrival_order_never_reaches_the_weights() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let cfg = uneven_lanes_cfg(13);
    let report = fleet(cfg.clone(), WireTransport::Tcp)
        .run()
        .expect("fleet run");
    assert_eq!(report.recovered, 0);
    assert_eq!(report.cold_spawns, 4, "one actor and three learners");
    assert_eq!(
        report.policy_full_pulls as usize,
        cfg.rounds * 4,
        "one policy load per round per worker"
    );
    assert!(report.policy_delta_pulls == 0 && report.policy_bytes_delta == 0);

    let (server, _) = in_process_run(&cfg);
    assert_eq!(report.grads_aggregated, server.grads_aggregated());
    assert_eq!(report.staleness_log, server.staleness_log().to_vec());
    assert_eq!(
        report.final_checksum,
        snapshot_checksum(&server.snapshot()),
        "lane arrival order reached the weights"
    );
}

/// The same uneven lanes under the chaos plan: the draws are made before
/// the lanes start, so two runs inject, recover and end identically.
#[test]
fn concurrent_lanes_replay_chaos_bit_for_bit() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let run = || {
        fleet(uneven_lanes_cfg(17).with_chaos(5), WireTransport::Tcp)
            .run()
            .expect("chaos fleet run")
    };
    let (a, b) = (run(), run());
    assert!(a.faults.total_injected() > 0, "chaos must actually inject");
    assert_eq!(a.final_checksum, b.final_checksum);
    assert_eq!(a.staleness_log, b.staleness_log);
    assert_eq!(a.faults, b.faults, "the chaos draws themselves must replay");
    assert_eq!(
        (a.recovered, a.policy_full_pulls),
        (b.recovered, b.policy_full_pulls)
    );
}

/// A fleet that cannot spawn fails with a typed error instead of hanging:
/// at once when the binary does not exist, and within the retry budget's
/// accept timeouts when only the learner lanes cannot spawn.
#[test]
fn spawn_failure_fails_the_run_instead_of_hanging_a_lane() {
    let _guard = FLEET_LOCK.lock().unwrap();
    let proc_cfg = ProcessConfig {
        accept_timeout: Duration::from_millis(300),
        ..ProcessConfig::default()
    };
    let cfg = uneven_lanes_cfg(19);
    let t0 = Instant::now();

    let missing = RemoteFleet::new(
        "/nonexistent/stellaris-no-such-binary",
        worker_args(),
        proc_cfg.clone(),
        cfg.clone(),
    );
    let err = missing.run().expect_err("nothing to spawn");
    assert_eq!(
        err,
        RemoteError::Spawn(SpawnError::Io(std::io::ErrorKind::NotFound))
    );

    // The first spawn (the actor) leaves a marker and becomes the real
    // worker; every later one (the learners, from inside their lanes)
    // exits without dialling back.
    #[cfg(unix)]
    {
        let marker = std::env::temp_dir().join(format!("stellaris-e2e-{}", std::process::id()));
        let _stale = std::fs::remove_file(&marker);
        let script = r#"if [ -e "$0" ]; then exit 1; fi; : > "$0"; exec "$@""#;
        let args = vec![
            "-c".to_string(),
            script.to_string(),
            marker.to_string_lossy().into_owned(),
            worker_bin(),
            "worker".to_string(),
        ];
        let err = RemoteFleet::new("sh", args, proc_cfg, cfg)
            .run()
            .expect_err("learner lanes cannot spawn");
        let _cleanup = std::fs::remove_file(&marker);
        assert_eq!(err, RemoteError::Spawn(SpawnError::AcceptTimeout));
    }
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "spawn failure took {:?}",
        t0.elapsed()
    );
}

/// The same fleet over unix-domain sockets.
#[cfg(unix)]
#[test]
fn chaos_round_over_uds() {
    let _guard = FLEET_LOCK.lock().unwrap();
    telemetry::enable();
    let report = fleet(tiny_cfg(7, 3).with_chaos(3), WireTransport::Uds)
        .run()
        .expect("uds fleet run");
    assert!(report.grads_aggregated > 0);
    assert!(report.final_version > 0);
    assert!(report.warm_reuses > 0, "rounds 2+ must reuse warm workers");
}
