//! End-to-end training tests across crates: the full asynchronous
//! serverless stack must *learn*, not merely run.

use stellaris::prelude::*;

fn pointmass_cfg(seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::stellaris_scaled(EnvId::PointMass, seed);
    cfg.rounds = 15;
    cfg.hidden = 32;
    cfg
}

#[test]
fn stellaris_ppo_improves_on_pointmass() {
    // Asynchronous aggregation makes the gradient order wall-clock
    // dependent, and a single seed occasionally diverges. The property
    // under test is that PPO *can* visibly improve, so allow a seed retry.
    let mut margins = Vec::new();
    for seed in [5u64, 6, 7] {
        let result = train(&pointmass_cfg(seed));
        let first = result.rows[0].reward;
        let best = result
            .rows
            .iter()
            .map(|r| r.reward)
            .fold(f32::MIN, f32::max);
        if best > first + 100.0 {
            return;
        }
        margins.push((seed, first, best));
    }
    panic!("PPO must visibly improve on some seed: (seed, first, best) = {margins:?}");
}

#[test]
fn stellaris_ppo_improves_on_chain_mdp() {
    let mut cfg = TrainConfig::stellaris_scaled(EnvId::ChainMdp, 2);
    cfg.rounds = 10;
    cfg.hidden = 32;
    let result = train(&cfg);
    let first = result.rows[0].reward;
    let last = result.final_reward_mean(3);
    assert!(
        last > first,
        "discrete-action learning must improve: {first} -> {last}"
    );
}

/// The shard arguments the benchmark still passes —
/// `TrainConfig::with_sharding` and `ShardedParameterServer::new`'s shard
/// count — change no bit: a run ends on the same weights, staleness ledger
/// and counts with them as without, and so does a scripted offer sequence.
#[test]
fn shard_arguments_change_no_bit() {
    use stellaris::core::snapshot_checksum;
    use stellaris::nn::ParamSet;
    let mut asynchronous = TrainConfig::test_tiny(EnvId::PointMass, 8);
    // One collect and one mini-batch a round: the round's one gradient lands
    // after its learner is done, so the async run has one arrival order.
    asynchronous.round_timesteps = asynchronous.actor_steps;
    let mut lockstep = TrainConfig::test_tiny(EnvId::PointMass, 8);
    lockstep.learner_mode = LearnerMode::Sync { n: 2 };
    for cfg in [asynchronous, lockstep] {
        let plain = train(&cfg);
        let sharded = train(&cfg.clone().with_sharding(4, 4));
        let mode = &cfg.learner_mode;
        assert!(plain.policy_updates > 0, "{mode:?} must commit");
        assert_eq!(
            snapshot_checksum(&sharded.final_snapshot),
            snapshot_checksum(&plain.final_snapshot),
            "{mode:?} weights"
        );
        assert_eq!(sharded.staleness_log, plain.staleness_log, "{mode:?}");
        assert_eq!(sharded.policy_updates, plain.policy_updates, "{mode:?}");
        assert_eq!(sharded.grads_aggregated, plain.grads_aggregated, "{mode:?}");
    }

    let spec = PolicySpec {
        obs_shape: vec![4],
        action_space: ActionSpace::Continuous { dim: 2, bound: 1.0 },
        hidden: 8,
    };
    let policy = PolicyNet::new(spec, 5);
    let server = |n_shards| {
        ShardedParameterServer::new(
            policy.clone(),
            AggregationRule::stellaris_default(),
            n_shards,
            || OptimizerKind::Adam.build(0.01),
        )
    };
    let (one, four) = (server(1), server(4));
    for i in 0..12u64 {
        let msg = GradientMsg {
            learner_id: 0,
            grads: policy
                .params()
                .iter()
                .map(|p| Tensor::full(p.shape(), 0.01 * (i as f32 + 1.0)))
                .collect(),
            base_version: one.clock().saturating_sub(i % 3),
            batch_len: 32,
            is_ratio: 1.0,
            kl: 0.0,
            surrogate: 0.0,
        };
        assert_eq!(one.offer(&msg), four.offer(&msg), "offer {i}");
        if i % 4 == 3 {
            one.advance_round();
            four.advance_round();
        }
    }
    assert_eq!(one.snapshot().version, four.snapshot().version);
    assert_eq!(
        snapshot_checksum(&one.snapshot()),
        snapshot_checksum(&four.snapshot())
    );
}

#[test]
fn impact_runs_end_to_end() {
    let cfg = TrainConfig::test_tiny(EnvId::PointMass, 3).with_impact(ImpactConfig::scaled());
    let result = train(&cfg);
    assert_eq!(result.rows.len(), 3);
    assert!(result.policy_updates > 0);
    assert!(result.final_reward.is_finite());
}

#[test]
fn impact_discrete_runs_end_to_end() {
    let cfg = TrainConfig::test_tiny(EnvId::ChainMdp, 4).with_impact(ImpactConfig::scaled());
    let result = train(&cfg);
    assert!(result.policy_updates > 0);
}

#[test]
fn metrics_rows_match_artifact_schema() {
    let result = train(&TrainConfig::test_tiny(EnvId::PointMass, 6));
    let csv = rows_to_csv(&result.rows);
    let header = csv.lines().next().unwrap();
    // The paper artifact's CSV attributes.
    for col in [
        "round",
        "round_duration_s",
        "learner_invocations",
        "episodes",
        "reward",
        "mean_staleness",
        "cost_usd",
    ] {
        assert!(header.contains(col), "missing column {col} in {header}");
    }
    assert_eq!(csv.lines().count(), 1 + result.rows.len());
}

#[test]
fn round_budget_is_respected() {
    // Actors must not oversample the per-round quota: every round
    // consumes the same data volume, 128 timesteps = four 32-step
    // mini-batches, so each row records exactly four learner invocations.
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 7);
    cfg.rounds = 4;
    let result = train(&cfg);
    let invocations: Vec<u64> = result.rows.iter().map(|r| r.learner_invocations).collect();
    assert_eq!(invocations, vec![4; 4], "one invocation per mini-batch");
}

#[test]
fn small_minibatches_are_all_aggregated_and_none_shed() {
    // A one-round PointMass run at minibatch 8: 128 gradients from two
    // racing learners. Every one reaches the parameter function (pure
    // asynchrony commits each on arrival), and no gradient queue sheds.
    let shed = || {
        stellaris_telemetry::global()
            .counter("stellaris_cache_queue_shed_total")
            .get()
    };
    let shed0 = shed();
    let mut cfg = TrainConfig::test_tiny(EnvId::PointMass, 5);
    cfg.learner_mode = LearnerMode::Async {
        rule: AggregationRule::PureAsync,
    };
    cfg.rounds = 1;
    cfg.round_timesteps = 1024;
    cfg.minibatch = 8;
    let result = train(&cfg);
    assert_eq!(result.learner_invocations, 128, "one per mini-batch");
    assert_eq!(result.grads_aggregated, result.learner_invocations);
    assert_eq!(shed() - shed0, 0, "nothing shed");
}

#[test]
fn truncation_board_reports_group_activity() {
    // With truncation enabled, training must still make updates (the cap
    // must not strangle the gradient — the feedback-loop regression test).
    // The regression this guards: a self-referential cap once froze the
    // policy entirely (zero reward movement across rounds, every seed).
    // Async scheduling on a loaded host makes any single seed noisy, so we
    // require at least one of two seeds to improve clearly — a frozen
    // policy fails for all of them.
    // The frozen policy showed reward ranges < 1 across every round and
    // seed; healthy training (even a noisy run) moves by hundreds.
    let mut moving = 0;
    for seed in [8u64, 9] {
        let mut cfg = pointmass_cfg(seed);
        cfg.truncation_rho = Some(1.0);
        let with_cap = train(&cfg);
        assert!(
            with_cap.policy_updates > 10,
            "cap must not strangle updates"
        );
        let hi = with_cap
            .rows
            .iter()
            .map(|r| r.reward)
            .fold(f32::MIN, f32::max);
        let lo = with_cap
            .rows
            .iter()
            .map(|r| r.reward)
            .fold(f32::MAX, f32::min);
        if hi - lo > 10.0 {
            moving += 1;
        }
    }
    assert!(
        moving >= 1,
        "truncated policies must keep moving (anti-freeze)"
    );
}

#[test]
fn resume_continues_from_snapshot() {
    let mut first = TrainConfig::test_tiny(EnvId::PointMass, 14);
    first.rounds = 2;
    let r1 = train(&first);
    let v1 = r1.final_snapshot.version;
    assert!(v1 > 0);

    let mut second = TrainConfig::test_tiny(EnvId::PointMass, 14).resume_from(r1.final_snapshot);
    second.rounds = 2;
    let r2 = train(&second);
    assert!(
        r2.final_snapshot.version > v1,
        "resumed run must keep the policy clock moving: {} -> {}",
        v1,
        r2.final_snapshot.version
    );
}

#[test]
#[should_panic(expected = "resume snapshot does not match")]
fn resume_rejects_wrong_architecture() {
    let small = TrainConfig::test_tiny(EnvId::PointMass, 15);
    let r = train(&small);
    let mut wrong = TrainConfig::test_tiny(EnvId::ChainMdp, 15).resume_from(r.final_snapshot);
    wrong.rounds = 1;
    let _ = train(&wrong);
}

#[test]
fn atari_cnn_path_runs() {
    // One tiny round through the CNN policy on pixels.
    let mut cfg = TrainConfig::test_tiny(EnvId::SpaceInvaders, 9);
    cfg.rounds = 1;
    cfg.env_cfg = EnvConfig {
        frame_size: 20,
        max_steps: 60,
    };
    let result = train(&cfg);
    assert!(result.policy_updates > 0);
    assert!(result.final_reward.is_finite());
}
