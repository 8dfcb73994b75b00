//! Stress and failure-injection tests: odd configurations, resource
//! starvation and mid-run interference must degrade gracefully, never hang
//! or corrupt training state.

use std::sync::Arc;
use std::time::Duration;

use stellaris::cache::{Cache, LatencyModel};
use stellaris::core::snapshot_checksum;
use stellaris::prelude::*;

#[test]
fn indivisible_round_budget_still_completes() {
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 1);
    cfg.round_timesteps = 100; // not a multiple of actor_steps = 32
    let result = train(&cfg);
    assert_eq!(result.rows.len(), cfg.rounds);
    assert!(result.policy_updates > 0);
}

#[test]
fn single_actor_single_learner() {
    let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 2);
    cfg.n_actors = 1;
    cfg.max_learners = 1;
    cfg.round_timesteps = 64;
    let result = train(&cfg);
    assert!(result.policy_updates > 0);
}

#[test]
fn more_learners_than_minibatches() {
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 3);
    cfg.max_learners = 8;
    cfg.minibatch = 128; // one minibatch per actor batch
    let result = train(&cfg);
    assert_eq!(
        result.rows.len(),
        cfg.rounds,
        "idle learners must not hang shutdown"
    );
}

#[test]
fn oversized_minibatch_clamps_to_batch() {
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 4);
    cfg.minibatch = 10_000;
    let result = train(&cfg);
    assert!(result.policy_updates > 0);
}

#[test]
fn cache_interference_does_not_corrupt_training() {
    // A hostile co-tenant hammering the shared cache with unrelated keys
    // while training runs must not affect completion.
    let cache = Arc::new(Cache::new(8, LatencyModel::off()));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let noise = {
        let (cache, stop) = (cache.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                cache.put(
                    &format!("noise:{}", i % 64),
                    bytes::Bytes::from(vec![0u8; 256]),
                );
                i += 1;
                if i.is_multiple_of(1024) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        })
    };
    // Training hands its data over by value and touches no cache; this
    // test asserts the cache itself stays correct under concurrent
    // unrelated load while a run competes for the cores.
    let result = train(&TrainConfig::test_tiny(EnvId::PointMass, 5));
    stop.store(true, std::sync::atomic::Ordering::Release);
    noise.join().unwrap();
    assert!(result.policy_updates > 0);
    assert!(cache.len() <= 64);
}

#[test]
fn zero_reward_environment_trains_without_nan() {
    // Gravitar-style sparse rewards: tiny run where likely no reward at all
    // is collected; advantages normalise against ~zero variance.
    let mut cfg = TrainConfig::test_tiny(EnvId::Gravitar, 6);
    cfg.env_cfg = EnvConfig {
        frame_size: 20,
        max_steps: 40,
    };
    cfg.rounds = 1;
    let result = train(&cfg);
    assert!(result.final_reward.is_finite());
    assert!(result.rows.iter().all(|r| r.reward.is_finite()));
}

#[test]
fn dynamic_learner_autoscaling_completes() {
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 8);
    cfg.dynamic_learners = true;
    cfg.max_learners = 4;
    cfg.rounds = 3;
    let result = train(&cfg);
    assert_eq!(
        result.rows.len(),
        3,
        "autoscaled pool must not deadlock shutdown"
    );
    assert!(result.policy_updates > 0);
}

#[test]
fn chaos_run_is_deterministic_per_seed_and_leaks_nothing() {
    // Seeded chaos (20% invocation failures, 5% mid-work crashes, 20%
    // stragglers, 20% frame drops, 10% frame corruption) on lock-step
    // topologies with no deadline: every call's faults are drawn in call
    // order before its wave starts, so two same-seed runs must agree
    // bit-for-bit however the wave's threads interleave.
    for (n, actors) in [(1, 1), (2, 2)] {
        chaos_run_reproduces(n, actors);
    }
}

fn chaos_run_reproduces(n: usize, actors: usize) {
    let run = || {
        let mut cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 11).with_chaos(99);
        cfg.learner_mode = LearnerMode::Sync { n };
        cfg.n_actors = actors;
        cfg.max_learners = n;
        train(&cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a.rows.len(), 3, "chaos must degrade rounds, not drop them");
    assert!(a.policy_updates > 0, "retries must carry training through");
    assert!(
        a.faults.total_injected() > 0,
        "chaos profile must actually fire"
    );
    assert_eq!(
        a.slots_leaked, 0,
        "failed invocations must release their slot permits"
    );
    assert_eq!(
        a.grads_aggregated as usize,
        a.staleness_log.len(),
        "every aggregated gradient logs staleness exactly once (no double-apply)"
    );
    // Bit-for-bit agreement across runs: same faults injected, same retries
    // taken, same gradients applied in the same order.
    assert_eq!(a.policy_updates, b.policy_updates);
    assert_eq!(a.grads_aggregated, b.grads_aggregated);
    assert_eq!(a.staleness_log, b.staleness_log);
    assert_eq!(a.degraded_rounds, b.degraded_rounds);
    assert_eq!(a.faults, b.faults);
    let rewards =
        |r: &TrainResult| -> Vec<u32> { r.rows.iter().map(|row| row.reward.to_bits()).collect() };
    assert_eq!(
        rewards(&a),
        rewards(&b),
        "reward trajectories must match bitwise"
    );
    assert_eq!(a.final_reward.to_bits(), b.final_reward.to_bits());
}

#[test]
fn async_chaos_run_survives_and_reports_faults() {
    // Full asynchronous topology under the same chaos profile plus a
    // (generous) per-invocation deadline so the straggler/deadline path is
    // exercised. Thread interleaving makes this run nondeterministic; the
    // assertions are about survival and accounting, not exact values.
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 12).with_chaos(7);
    cfg.invoke_deadline = Some(Duration::from_millis(500));
    let result = train(&cfg);
    assert_eq!(result.rows.len(), cfg.rounds);
    assert!(result.policy_updates > 0, "chaos must not halt training");
    assert!(result.faults.total_injected() > 0);
    assert_eq!(result.slots_leaked, 0, "no leaked slot permits under chaos");
    assert_eq!(
        result.grads_aggregated as usize,
        result.staleness_log.len(),
        "gradient accounting must balance under failures"
    );
    assert!(result.final_reward.is_finite());
    assert!(result.rows.iter().all(|r| r.reward.is_finite()));
}

#[test]
fn frame_faults_never_reach_in_process_hand_offs() {
    // In process, policies and gradients are handed over by value: there
    // is no frame for the frame fault classes to drop or corrupt, so even
    // certain frame faults leave a lock-step run bit-for-bit untouched.
    let run = |faults: FaultConfig| {
        let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 21);
        cfg.learner_mode = LearnerMode::Sync { n: 2 };
        cfg.faults = faults;
        train(&cfg)
    };
    let clean = run(FaultConfig::off());
    let framed = run(FaultConfig {
        frame_drop: 1.0,
        frame_corrupt: 1.0,
        ..FaultConfig::off()
    });
    assert!(clean.policy_updates > 0);
    assert_eq!(
        snapshot_checksum(&framed.final_snapshot),
        snapshot_checksum(&clean.final_snapshot)
    );
    assert_eq!(framed.policy_updates, clean.policy_updates);
    assert_eq!(framed.staleness_log, clean.staleness_log);
    assert_eq!(framed.faults.frames_dropped, 0);
    assert_eq!(framed.faults.frames_corrupted, 0);
    assert_eq!(framed.degraded_rounds, 0);
}

#[test]
fn long_staleness_tail_does_not_stall_aggregation() {
    // A pathological rule setting: tight Softsync count with few learners.
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 7);
    cfg.learner_mode = LearnerMode::Async {
        rule: AggregationRule::Softsync { c: 2 },
    };
    let result = train(&cfg);
    assert!(
        result.policy_updates > 0,
        "softsync must keep flushing pairs"
    );
}
