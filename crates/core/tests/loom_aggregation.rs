//! Loom model checks for the aggregation layer's round gating (§V-C).
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p stellaris-core --test loom_aggregation
//! ```
//!
//! Learners race `offer` on the (one-shard) parameter server against the
//! round driver's `advance_round`, serialised behind a loom mutex. These
//! models check the accounting invariants that must hold across *every*
//! interleaving of that race:
//!
//! - gradients are conserved: `pending + aggregated == offered`,
//! - the policy clock only moves when updates happen,
//! - the Eq. 3 threshold `β_k` only tightens as rounds advance,
//! - the SSP throttle never admits a learner past its clock bound.

#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;

use stellaris_core::GradientMsg;
use stellaris_core::{AggregationRule, ShardedParameterServer, SspThrottle, StalenessSchedule};
use stellaris_envs::ActionSpace;
use stellaris_nn::{ParamSet, Sgd, Tensor};
use stellaris_rl::{PolicyNet, PolicySpec};

fn tiny_policy(seed: u64) -> PolicyNet {
    PolicyNet::new(
        PolicySpec {
            obs_shape: vec![3],
            action_space: ActionSpace::Discrete(2),
            hidden: 4,
        },
        seed,
    )
}

fn grad_msg(policy: &PolicyNet, learner: usize, base: u64) -> GradientMsg {
    GradientMsg {
        learner_id: learner,
        grads: policy
            .params()
            .iter()
            .map(|p| Tensor::full(p.shape(), 0.01))
            .collect(),
        base_version: base,
        batch_len: 8,
        is_ratio: 1.0,
        kl: 0.0,
        surrogate: 0.0,
    }
}

#[test]
fn concurrent_offers_conserve_gradients() {
    loom::model(|| {
        let policy = tiny_policy(0);
        let ps = Arc::new(Mutex::new(ShardedParameterServer::new(
            policy.clone(),
            AggregationRule::StalenessAware { d: 0.96, v: 3 },
            1,
            || Box::new(Sgd::new(0.01, 0.0)),
        )));

        const PER_LEARNER: usize = 3;
        let learners: Vec<_> = (0..2usize)
            .map(|id| {
                let ps = Arc::clone(&ps);
                let policy = policy.clone();
                thread::spawn(move || {
                    for _ in 0..PER_LEARNER {
                        let guard = ps.lock().unwrap();
                        let base = guard.clock();
                        let msg = grad_msg(&policy, id, base);
                        guard.offer(&msg);
                        drop(guard);
                        thread::yield_now();
                    }
                })
            })
            .collect();

        let driver = {
            let ps = Arc::clone(&ps);
            thread::spawn(move || {
                // Race a round advance against in-flight offers.
                thread::yield_now();
                ps.lock().unwrap().advance_round();
            })
        };

        for h in learners {
            h.join().expect("learner must not panic");
        }
        driver.join().expect("driver must not panic");

        let ps = ps.lock().unwrap();
        let offered = (2 * PER_LEARNER) as u64;
        assert_eq!(
            ps.pending() as u64 + ps.grads_aggregated(),
            offered,
            "gradients must be conserved: pending + aggregated == offered"
        );
        assert!(ps.grads_aggregated() <= offered);
        assert_eq!(
            ps.staleness_log().recorded(),
            ps.grads_aggregated(),
            "every aggregated gradient logs exactly one staleness sample"
        );
        assert!(ps.updates() <= ps.grads_aggregated());
        assert_eq!(ps.clock(), ps.updates(), "clock advances once per update");
    });
}

#[test]
fn round_advances_only_tighten_the_threshold() {
    loom::model(|| {
        let sched = Arc::new(Mutex::new(StalenessSchedule::new(0.5)));
        sched.lock().unwrap().observe(8); // calibration: δ_max = 8

        let advancer = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || {
                for _ in 0..3 {
                    sched.lock().unwrap().advance_round();
                    thread::yield_now();
                }
            })
        };

        let observer = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || {
                let mut prev = f64::INFINITY;
                for _ in 0..6 {
                    let s = sched.lock().unwrap();
                    if let Some(beta) = s.beta() {
                        assert!(beta > 0.0, "Eq. 3 threshold stays positive");
                        assert!(
                            beta <= prev,
                            "β_k may only tighten as rounds advance: {beta} > {prev}"
                        );
                        prev = beta;
                    }
                    // Whatever the observed β, the admit decision matches it.
                    assert_eq!(s.admits(0.0), true, "zero staleness always admitted");
                    drop(s);
                    thread::yield_now();
                }
            })
        };

        advancer.join().expect("advancer must not panic");
        observer.join().expect("observer must not panic");

        assert_eq!(sched.lock().unwrap().beta(), Some(1.0), "8 · 0.5³ = 1");
    });
}

#[test]
fn ssp_throttle_never_admits_past_the_bound() {
    loom::model(|| {
        const BOUND: u64 = 2;
        let throttle = Arc::new(SspThrottle::new(BOUND));

        // A slow computation pinned at clock 0 defines the oldest in-flight.
        let slow_token = throttle.try_begin(0).expect("empty throttle admits");

        let fast: Vec<_> = [1u64, 2, 5]
            .into_iter()
            .map(|clock| {
                let throttle = Arc::clone(&throttle);
                thread::spawn(move || {
                    let admitted = throttle.try_begin(clock);
                    if let Some(token) = admitted {
                        assert!(
                            clock <= BOUND,
                            "clock {clock} admitted while oldest in-flight is 0"
                        );
                        throttle.end(token);
                    }
                    admitted.is_some()
                })
            })
            .collect();

        let results: Vec<bool> = fast
            .into_iter()
            .map(|h| h.join().expect("learner must not panic"))
            .collect();
        assert!(!results[2], "clock 5 is 3 ahead of 0, beyond bound 2");

        throttle.end(slow_token);
        assert_eq!(throttle.inflight(), 0, "all tokens returned");
    });
}
