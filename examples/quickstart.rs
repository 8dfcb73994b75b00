//! Quickstart: train PPO on the planar Hopper with Stellaris' asynchronous
//! staleness-aware serverless learners, and print the per-round metrics the
//! paper's artifact records (round, duration, learner invocations,
//! episodes, evaluation reward, staleness, cost).
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(clippy::print_stdout)]

use stellaris::prelude::*;

fn main() {
    let mut cfg = TrainConfig::stellaris_scaled(EnvId::Hopper, 42);
    cfg.rounds = 15;
    println!(
        "Training {} on {} ({} actors, {} learner slots, rule: {})",
        cfg.algo.name(),
        cfg.env_id.name(),
        cfg.n_actors,
        cfg.max_learners,
        cfg.label()
    );
    println!();
    println!("{}", TrainRow::CSV_HEADER);
    let result = train(&cfg);
    for row in &result.rows {
        println!("{}", row.to_csv());
    }
    println!();
    println!("final evaluation reward : {:.2}", result.final_reward);
    println!("policy updates          : {}", result.policy_updates);
    println!("learner invocations     : {}", result.learner_invocations);
    println!("cold starts paid        : {}", result.cold_starts);
    println!(
        "GPU-slot utilisation    : {:.1}%",
        result.gpu_utilization * 100.0
    );
    println!(
        "training cost           : ${:.6} (learners ${:.6}, actors ${:.6})",
        result.cost.total(),
        result.cost.learner_usd,
        result.cost.actor_usd
    );
    println!(
        "mean gradient staleness : {:.2}",
        result.staleness_log.iter().sum::<u64>() as f64 / result.staleness_log.len().max(1) as f64
    );
}
