//! Pixel-observation scenario: train the Table II CNN policy on the
//! SpaceInvaders-like arcade environment with asynchronous serverless
//! learners — the discrete-action / frame-stacked workload family of the
//! paper's evaluation.
//!
//! Run with: `cargo run --release --example arcade_invaders`

#![allow(clippy::print_stdout)]

use stellaris::prelude::*;

fn main() {
    let mut cfg = TrainConfig::stellaris_scaled(EnvId::SpaceInvaders, 3);
    cfg.rounds = 6;
    // Atari batch size from Table III (scaled config already uses 128).
    println!(
        "Training {} on {} — CNN trunk over {}x{} stacked frames",
        cfg.algo.name(),
        cfg.env_id.name(),
        cfg.env_cfg.frame_size,
        cfg.env_cfg.frame_size
    );
    let result = train(&cfg);
    for row in &result.rows {
        println!(
            "round {:>2}: reward {:>8.1}  updates {:>3}  invocations {:>3}  staleness {:.2}",
            row.round, row.reward, row.policy_updates, row.learner_invocations, row.mean_staleness
        );
    }
    println!(
        "\nfinal reward {:.1}, cost ${:.6}",
        result.final_reward,
        result.cost.total()
    );

    // Show what the policy actually sees: run one greedy episode.
    let mut env = make_env(EnvId::SpaceInvaders, cfg.env_cfg);
    let policy = {
        // Rebuild the trained policy from the run's final snapshot by
        // re-training is unnecessary — evaluate() already did this; here we
        // just demonstrate the observation contract.
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = cfg.hidden;
        PolicyNet::new(spec, 0)
    };
    let obs = env.reset(0);
    println!(
        "\nobservation: {} values = {:?} stacked grayscale frames",
        obs.len(),
        env.obs_shape()
    );
    let greedy = policy.act_greedy(&obs);
    println!("greedy action from an untrained policy: {greedy:?}");
}
