//! Cost scenario: the same PPO Hopper job deployed three ways — fully
//! serverless (Stellaris), serverful (reserved VMs), and hybrid — billed
//! with the paper's §VIII-A dollar-per-resource-second model over the real
//! EC2 prices. This is the economics behind the paper's Fig. 2(b) and 8.
//!
//! Run with: `cargo run --release --example serverless_vs_serverful`

#![allow(clippy::print_stdout)]

use stellaris::prelude::*;

fn main() {
    println!("Deploying the same training job under three billing models\n");
    println!(
        "{:<12} {:>10} {:>14} {:>13} {:>12} {:>8}",
        "deployment", "reward", "learner($)", "actor($)", "total($)", "wall(s)"
    );
    let mut totals = Vec::new();
    for (name, deployment) in [
        ("serverless", Deployment::Serverless),
        ("serverful", Deployment::Serverful),
        ("hybrid", Deployment::Hybrid),
    ] {
        let mut cfg = TrainConfig::stellaris_scaled(EnvId::Hopper, 7);
        cfg.rounds = 10;
        cfg.deployment = deployment;
        let r = train(&cfg);
        println!(
            "{:<12} {:>10.2} {:>14.6} {:>13.6} {:>12.6} {:>8.2}",
            name,
            r.final_reward,
            r.cost.learner_usd,
            r.cost.actor_usd,
            r.cost.total(),
            r.wall_time_s
        );
        totals.push((name, r.cost.total()));
    }
    let serverless = totals[0].1;
    let serverful = totals[1].1;
    println!(
        "\nServerless saves {:.1}% vs reserving the whole cluster —",
        (1.0 - serverless / serverful) * 100.0
    );
    println!("the cluster only bills while learner/actor functions actually execute.");
    println!("(Prices: p3.2xlarge $3.06/h, c6a.32xlarge $4.896/h, 4 learner fns per V100.)");
}
