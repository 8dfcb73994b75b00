//! Ablation scenario: the four gradient-aggregation rules of the paper's
//! Fig. 11(a) — staleness-aware (Stellaris), Softsync, Stale Synchronous
//! Parallel and pure asynchrony — on identical data budgets, reporting
//! reward, update counts and the emergent staleness distribution.
//!
//! Run with: `cargo run --release --example aggregation_ablation`

#![allow(clippy::print_stdout)]

use stellaris::prelude::*;

fn main() {
    println!("Gradient-aggregation ablation on PointMass (higher reward = better)\n");
    println!(
        "{:<16} {:>10} {:>9} {:>12} {:>14}",
        "rule", "reward", "updates", "mean-stale", "max-stale"
    );
    for rule in [
        AggregationRule::stellaris_default(),
        AggregationRule::Softsync { c: 4 },
        AggregationRule::Ssp { bound: 3 },
        AggregationRule::PureAsync,
    ] {
        let name = rule.name();
        let mut cfg = TrainConfig::stellaris_scaled(EnvId::PointMass, 11);
        cfg.rounds = 12;
        cfg.learner_mode = LearnerMode::Async { rule };
        let r = train(&cfg);
        let mean_stale =
            r.staleness_log.iter().sum::<u64>() as f64 / r.staleness_log.len().max(1) as f64;
        let max_stale = r.staleness_log.iter().max().copied().unwrap_or(0);
        println!(
            "{:<16} {:>10.1} {:>9} {:>12.2} {:>14}",
            name, r.final_reward, r.policy_updates, mean_stale, max_stale
        );
    }
    println!("\nStellaris' decaying average-staleness threshold admits gradients");
    println!("eagerly in early rounds and tightens later, trading update speed");
    println!("against convergence quality (Eq. 3 of the paper).");
}
