//! The Parameter Function (workflow Step ③): staleness-aware gradient
//! aggregation and policy updates.
//!
//! Every arriving gradient re-evaluates the aggregation rule, and admitted
//! batches are committed to the policy as
//! `θ_{c+1} = θ_c - (1/H_c) Σ (α_0/δ^(1/v)) g` via the configured optimizer.
//! Every training loop — asynchronous, synchronous and remote — aggregates
//! through this one server.
//!
//! # One gate, one lock
//!
//! Under one lock the server holds the policy, its optimizer, the running
//! fold and one [`StalenessGate`]: the rule, the Eq. 3 schedule, the base
//! versions of the gradients folded since the last commit, the staleness
//! ledger and the policy clock ([`ShardedParameterServer::clock`]), which
//! ticks once per commit. On each offer the gate observes the gradient's
//! staleness δ once, hands out its Eq. 4 weight and decides whether to
//! commit.
//!
//! # Aggregation fold
//!
//! The server folds `w(δ)·g` into its running sum when the gradient
//! arrives. A commit scales the sum by `1/H_c`, steps the optimizer and
//! zeroes the sum. So the server holds O(params) however long Eq. 3 delays
//! a commit, where keeping the messages until the commit held one whole
//! gradient per delayed arrival. Only a commit moves the clock, so δ at
//! arrival is δ at commit and the weights are those of a fold at commit
//! time. The bits are too whenever `H_c` is a power of two (every
//! `FullSync { n: 2 }` wave, every `PureAsync` commit), because scaling by
//! `2^-k` commutes with rounding; for other `H_c` the division rounds once
//! where the per-gradient `w/H_c` weights rounded once each, so the sums
//! agree to within their rounding error.

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use std::borrow::Borrow;
use std::sync::Arc;

use parking_lot::Mutex;
use stellaris_nn::{Optimizer, ParamSet};
use stellaris_rl::{PolicyNet, PolicySnapshot};
use stellaris_telemetry::{Counter, Histogram};

use crate::aggregation::{AggregationRule, GradAccumulator};
use crate::messages::GradientMsg;
use crate::staleness::{StalenessGate, StalenessRing};

/// Everything a commit moves, behind the server's one lock.
struct Plane {
    gate: StalenessGate,
    /// The policy's weights; its version is the gate's clock, stamped on
    /// the way out.
    policy: PolicyNet,
    optimizer: Box<dyn Optimizer>,
    /// `Σ w(δ)·g` over the gradients the gate has not committed yet.
    fold: GradAccumulator,
}

impl Plane {
    /// Steps the policy with the fold scaled by `1/H_c`, zeroes the fold
    /// and ticks the clock once; returns the committed gradients'
    /// staleness.
    fn commit(&mut self) -> &[u64] {
        debug_assert!(self.gate.pending() > 0);
        #[expect(
            clippy::cast_precision_loss,
            reason = "H_c counts gradients, far below 2^24, exact in f32"
        )]
        let h = self.gate.pending() as f32;
        self.fold.divide(h);
        self.optimizer
            .step_refs(&mut self.policy.params_mut(), self.fold.grads());
        self.fold.reset();
        self.gate.commit()
    }
}

/// The parameter function (DESIGN.md §16): one policy, one optimizer and
/// one running fold, committing on one [`StalenessGate`] decision under
/// one lock.
///
/// The name is kept because the benchmark binds it; the server has no
/// shards (`single_shard_golden` pins its bits to those of the server that
/// predates sharding).
pub struct ShardedParameterServer {
    plane: Mutex<Plane>,
    /// `stellaris_core_grads_aggregated_total`: one increment per committed
    /// gradient, so it equals the `stellaris_core_staleness` histogram's
    /// count (checked by `validate_trace`).
    grads_counter: Arc<Counter>,
    staleness_hist: Arc<Histogram>,
    gate_admitted: Arc<Counter>,
    gate_delayed: Arc<Counter>,
}

impl ShardedParameterServer {
    /// Creates the server around an initial policy, with the one optimizer
    /// `make_optimizer` builds. `_n_shards` is ignored; the argument stays
    /// only because the benchmark passes a shard count.
    pub fn new(
        policy: PolicyNet,
        rule: AggregationRule,
        _n_shards: usize,
        make_optimizer: impl FnOnce() -> Box<dyn Optimizer>,
    ) -> Self {
        let reg = stellaris_telemetry::global();
        Self {
            plane: Mutex::new(Plane {
                gate: StalenessGate::new(rule, policy.version),
                fold: GradAccumulator::new(&policy.param_shapes()),
                optimizer: make_optimizer(),
                policy,
            }),
            grads_counter: reg.counter("stellaris_core_grads_aggregated_total"),
            staleness_hist: reg.histogram("stellaris_core_staleness"),
            gate_admitted: reg.counter("stellaris_core_gate_admitted_total"),
            gate_delayed: reg.counter("stellaris_core_gate_delayed_total"),
        }
    }

    /// Current policy clock (one tick per commit).
    pub fn clock(&self) -> u64 {
        let plane = self.plane.lock();
        plane.gate.clock()
    }

    /// Policy updates (commits) so far.
    pub fn updates(&self) -> u64 {
        let plane = self.plane.lock();
        plane.gate.updates()
    }

    /// Gradients committed so far.
    pub fn grads_aggregated(&self) -> u64 {
        let plane = self.plane.lock();
        plane.gate.ledger().recorded()
    }

    /// Gradients folded but not committed yet.
    pub fn pending(&self) -> usize {
        let plane = self.plane.lock();
        plane.gate.pending()
    }

    /// Offers a gradient: the gate weights it, the server folds it in, and
    /// the gate decides whether to commit. Returns the number of commits, 0
    /// or 1. The message is only read and the server keeps no gradient (an
    /// owned message is borrowed and dropped).
    pub fn offer(&self, msg: impl Borrow<GradientMsg>) -> usize {
        let msg = msg.borrow();
        let mut plane = self.plane.lock();
        assert_eq!(
            msg.grads.len(),
            plane.fold.len(),
            "gradient layout mismatch from learner {}",
            msg.learner_id
        );
        let w = plane.gate.arrive(msg.base_version);
        plane.fold.accumulate(&msg.grads, w);
        if !plane.gate.admits() {
            self.gate_delayed.inc();
            return 0;
        }
        self.gate_admitted.inc();
        self.record(plane.commit());
        1
    }

    /// Commits whatever the server has folded as one batch (`H_c` = the
    /// folded count, same Eq. 4 weights) under the live optimizer state,
    /// regardless of the rule's gate; returns whether anything committed.
    /// This is the quorum-degradation step of a lock-step wave that fell
    /// short of its group size: the gradients that did arrive still count.
    pub fn commit_pending(&self) -> bool {
        let mut plane = self.plane.lock();
        if plane.gate.pending() == 0 {
            return false;
        }
        self.record(plane.commit());
        true
    }

    /// Publishes a commit's staleness to the metrics registry.
    fn record(&self, committed: &[u64]) {
        for &delta in committed {
            self.staleness_hist.record(delta);
        }
        self.grads_counter.add(committed.len() as u64);
    }

    /// Ends a training round: tightens the Eq. 3 threshold.
    pub fn advance_round(&self) {
        let mut plane = self.plane.lock();
        plane.gate.end_round();
    }

    /// Current staleness threshold `β_k`.
    pub fn beta(&self) -> Option<f64> {
        let plane = self.plane.lock();
        plane.gate.beta()
    }

    /// Mean staleness over the last `n` aggregated gradients.
    pub fn mean_recent_staleness(&self, n: usize) -> f64 {
        let plane = self.plane.lock();
        plane.gate.ledger().tail_mean(n)
    }

    /// The staleness ledger — one entry per committed gradient, in commit
    /// order (the data behind the paper's Fig. 3(b) PDFs).
    pub fn staleness_log(&self) -> StalenessRing {
        let plane = self.plane.lock();
        plane.gate.ledger().clone()
    }

    /// Snapshot of the policy: its flat weights, stamped with the clock.
    pub fn snapshot(&self) -> PolicySnapshot {
        let plane = self.plane.lock();
        PolicySnapshot {
            version: plane.gate.clock(),
            flat: plane.policy.flatten(),
        }
    }

    /// A copy of the policy, its version set to the clock.
    pub fn policy(&self) -> PolicyNet {
        let plane = self.plane.lock();
        let mut policy = plane.policy.clone();
        policy.version = plane.gate.clock();
        policy
    }
}

#[cfg(test)]
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::remote::snapshot_checksum;
    use crate::staleness::StalenessSchedule;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use stellaris_envs::ActionSpace;
    use stellaris_nn::{OptimizerKind, Sgd, Tensor};
    use stellaris_rl::PolicySpec;

    fn tiny_policy(seed: u64) -> PolicyNet {
        PolicyNet::new(
            PolicySpec {
                obs_shape: vec![4],
                action_space: ActionSpace::Continuous { dim: 2, bound: 1.0 },
                hidden: 8,
            },
            seed,
        )
    }

    fn grad_msg(policy: &PolicyNet, learner: usize, base: u64, fill: f32) -> GradientMsg {
        GradientMsg {
            learner_id: learner,
            grads: policy
                .params()
                .iter()
                .map(|p| Tensor::full(p.shape(), fill))
                .collect(),
            base_version: base,
            batch_len: 32,
            is_ratio: 1.0,
            kl: 0.0,
            surrogate: 0.0,
        }
    }

    fn sgd_server(policy: &PolicyNet, rule: AggregationRule, lr: f32) -> ShardedParameterServer {
        ShardedParameterServer::new(policy.clone(), rule, 1, || Box::new(Sgd::new(lr, 0.0)))
    }

    fn adam_server(policy: &PolicyNet, rule: AggregationRule) -> ShardedParameterServer {
        ShardedParameterServer::new(policy.clone(), rule, 1, || OptimizerKind::Adam.build(0.01))
    }

    fn assert_same_bits(a: &PolicySnapshot, b: &PolicySnapshot) {
        assert_eq!(a.version, b.version);
        assert_eq!(a.flat.len(), b.flat.len());
        for (i, (x, y)) in a.flat.iter().zip(&b.flat).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "param {i} diverged");
        }
    }

    #[test]
    fn pure_async_applies_immediately() {
        let policy = tiny_policy(0);
        let ps = sgd_server(&policy, AggregationRule::PureAsync, 0.1);
        assert_eq!(ps.offer(grad_msg(&policy, 0, 0, 0.1)), 1);
        assert_eq!(ps.clock(), 1);
        assert_eq!(ps.pending(), 0);
        assert_eq!(ps.policy().version, 1);
    }

    #[test]
    fn sgd_update_moves_params_by_weighted_gradient() {
        let policy = tiny_policy(0);
        let before = policy.flatten();
        let ps = sgd_server(&policy, AggregationRule::PureAsync, 0.5);
        ps.offer(grad_msg(&policy, 0, 0, 1.0));
        for (b, a) in before.iter().zip(&ps.snapshot().flat) {
            assert!((b - 0.5 - a).abs() < 1e-6, "θ' = θ - lr*g: {b} -> {a}");
        }
    }

    #[test]
    fn fullsync_waits_for_group() {
        let policy = tiny_policy(0);
        let before = policy.flatten();
        let ps = sgd_server(&policy, AggregationRule::FullSync { n: 2 }, 1.0);
        assert_eq!(
            ps.offer(grad_msg(&policy, 0, 0, 1.0)),
            0,
            "must wait for the group"
        );
        assert_eq!(ps.pending(), 1);
        assert_eq!(ps.snapshot().flat, before);
        assert_eq!(ps.offer(grad_msg(&policy, 1, 0, 3.0)), 1);
        // Plain average of fills 1 and 3 = 2, lr 1.
        for (b, a) in before.iter().zip(&ps.snapshot().flat) {
            assert!((b - 2.0 - a).abs() < 1e-5);
        }
    }

    #[test]
    fn staleness_weights_scale_contributions() {
        let policy = tiny_policy(0);
        let ps = sgd_server(
            &policy,
            AggregationRule::StalenessAware { d: 1.0, v: 1 },
            1.0,
        );
        // Advance the clock twice with fresh gradients (round 0: unbounded).
        ps.offer(grad_msg(&policy, 0, 0, 0.0));
        ps.offer(grad_msg(&policy, 0, 1, 0.0));
        assert_eq!(ps.clock(), 2);
        let before = ps.snapshot().flat;
        // A gradient based on version 0 now has staleness 2 -> weight 1/2.
        ps.offer(grad_msg(&policy, 1, 0, 1.0));
        let after = ps.snapshot().flat;
        assert!(
            (before[0] - 0.5 - after[0]).abs() < 1e-5,
            "weight 1/δ = 0.5"
        );
        assert_eq!(ps.staleness_log().last(), Some(2));
    }

    #[test]
    fn staleness_threshold_delays_aggregation() {
        let policy = tiny_policy(0);
        let ps = sgd_server(
            &policy,
            AggregationRule::StalenessAware { d: 0.25, v: 3 },
            0.1,
        );
        // Calibration round: drive the clock to 4 and record δ_max = 4.
        for i in 0..4 {
            ps.offer(grad_msg(&policy, 0, i, 0.01));
        }
        ps.offer(grad_msg(&policy, 1, 0, 0.01)); // staleness 4 observed in round 0 -> δ_max = 4
        ps.advance_round(); // β = 4 * 0.25 = 1
        assert_eq!(ps.beta(), Some(1.0));
        let clock = ps.clock();
        // A gradient 3 versions stale: average 3 > β=1 -> delayed.
        assert_eq!(ps.offer(grad_msg(&policy, 2, clock - 3, 0.01)), 0);
        assert_eq!(ps.pending(), 1);
        // Two fresh gradients pull the average to (3+0+0)/3 = 1 <= β.
        assert_eq!(
            ps.offer(grad_msg(&policy, 3, clock, 0.01)),
            0,
            "avg (3+0)/2 = 1.5 > 1 still delayed"
        );
        assert_eq!(
            ps.offer(grad_msg(&policy, 4, clock, 0.01)),
            1,
            "avg (3+0+0)/3 = 1 <= β admits"
        );
        assert_eq!(ps.pending(), 0);
        assert_eq!(ps.grads_aggregated(), 8);
    }

    #[test]
    fn softsync_batches_every_c() {
        let policy = tiny_policy(0);
        let ps = sgd_server(&policy, AggregationRule::Softsync { c: 3 }, 0.1);
        for i in 0..2 {
            assert_eq!(ps.offer(grad_msg(&policy, i, 0, 0.1)), 0);
        }
        assert_eq!(ps.offer(grad_msg(&policy, 2, 0, 0.1)), 1);
        assert_eq!(ps.updates(), 1);
        assert_eq!(ps.grads_aggregated(), 3);
    }

    #[test]
    fn optimizer_kind_integration() {
        let policy = tiny_policy(0);
        let ps = adam_server(&policy, AggregationRule::PureAsync);
        for _ in 0..5 {
            ps.offer(grad_msg(&policy, 0, ps.clock(), 0.3));
        }
        assert_eq!(ps.updates(), 5);
        assert!(ps.snapshot().flat.iter().all(|x| x.is_finite()));
        assert_eq!(ps.mean_recent_staleness(10), 0.0);
    }

    #[test]
    #[should_panic(expected = "gradient layout mismatch")]
    fn layout_mismatch_panics() {
        let policy = tiny_policy(0);
        let mut bad = grad_msg(&policy, 0, 0, 0.1);
        bad.grads.pop();
        sgd_server(&policy, AggregationRule::PureAsync, 0.1).offer(bad);
    }

    /// The server must keep producing the bits of the `parameter.rs` server
    /// that predates sharding. The constants were captured from that server
    /// at the commit before the sharded one replaced it (seed-7
    /// tiny policy, Adam lr 0.01, 12 offers with fill `0.01·(i+1)` and base
    /// version trailing the clock by `i % 3`): snapshot checksum, clock,
    /// updates, gradients aggregated, commits per offer and staleness log.
    #[test]
    fn single_shard_golden() {
        type Golden = (AggregationRule, u64, u64, u64, [usize; 12], [u64; 12]);
        let goldens: [Golden; 4] = [
            (
                AggregationRule::PureAsync,
                0x9910_0da0_a37a_cecf,
                12,
                12,
                [1; 12],
                [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
            ),
            (
                AggregationRule::StalenessAware { d: 1.0, v: 1 },
                0x70d3_ea6e_f07f_75b6,
                12,
                12,
                [1; 12],
                [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
            ),
            (
                AggregationRule::Softsync { c: 3 },
                0x7d04_d6d9_e259_6b6c,
                4,
                12,
                [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1],
                [0, 0, 0, 0, 1, 1, 0, 1, 2, 0, 1, 2],
            ),
            (
                AggregationRule::FullSync { n: 2 },
                0x4a30_1164_784f_51cf,
                6,
                12,
                [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
                [0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2],
            ),
        ];
        let policy = tiny_policy(7);
        for (rule, checksum, updates, grads, commits, log) in goldens {
            let ps = adam_server(&policy, rule.clone());
            for i in 0..12u64 {
                let base = ps.clock().saturating_sub(i % 3);
                let msg = grad_msg(&policy, i as usize % 4, base, 0.01 * (i + 1) as f32);
                assert_eq!(
                    ps.offer(msg),
                    commits[i as usize],
                    "commits under {rule:?} at step {i}"
                );
            }
            let snap = ps.snapshot();
            assert_eq!(
                snapshot_checksum(&snap),
                checksum,
                "weights diverged under {rule:?}"
            );
            assert_eq!(snap.version, updates);
            assert_eq!(ps.clock(), updates);
            assert_eq!(ps.updates(), updates);
            assert_eq!(ps.grads_aggregated(), grads);
            assert_eq!(ps.pending(), 0);
            assert_eq!(ps.staleness_log().to_vec(), log);
            // The policy copy carries the same bits and clock.
            assert_same_bits(&ps.policy().snapshot(), &snap);
        }
    }

    /// Regression: a lock-step wave that fell short of its group size used
    /// to be stepped by a brand-new optimizer (Adam moments zero, `t = 1`)
    /// that the live optimizer never saw. `commit_pending` folds the short
    /// wave under the live state, so two short waves equal two full waves
    /// of a group-of-one server fed the same gradients.
    #[test]
    fn commit_pending_folds_short_wave_under_live_optimizer() {
        let policy = tiny_policy(5);
        let short = adam_server(&policy, AggregationRule::FullSync { n: 2 });
        let reference = adam_server(&policy, AggregationRule::FullSync { n: 1 });
        assert!(!short.commit_pending(), "nothing pending, nothing folds");
        for (wave, fill) in [0.3f32, -0.7].into_iter().enumerate() {
            let msg = grad_msg(&policy, 0, short.clock(), fill);
            assert_eq!(short.offer(msg.clone()), 0, "group of 2 not reached");
            assert_eq!(short.pending(), 1);
            assert!(short.commit_pending());
            assert_eq!(short.pending(), 0);
            assert_eq!(short.clock(), wave as u64 + 1, "clock advanced");
            assert_eq!(reference.offer(msg), 1);
            assert_same_bits(&short.snapshot(), &reference.snapshot());
        }
        assert_eq!(short.grads_aggregated(), 2);
        assert_eq!(short.staleness_log().to_vec(), vec![0, 0]);
    }

    /// An optimizer that logs the summed gradient of every commit it is
    /// handed and leaves the parameters alone.
    struct Recorder(Arc<Mutex<Vec<Vec<Tensor>>>>);

    impl Optimizer for Recorder {
        fn step_refs(&mut self, _params: &mut [&mut Tensor], grads: &[Tensor]) {
            self.0.lock().push(grads.to_vec());
        }
        fn lr(&self) -> f32 {
            0.0
        }
        fn set_lr(&mut self, _lr: f32) {}
        fn name(&self) -> &'static str {
            "recorder"
        }
    }

    /// The fold the server used before folding on arrival, kept as the
    /// reference: it queues whole messages and, at the commit, sums
    /// `(w(δ)/H_c)·g` in arrival order with δ measured at the commit.
    /// `commits` logs every commit's `H_c` and sum, in order.
    struct QueueingReference {
        rule: AggregationRule,
        schedule: Option<StalenessSchedule>,
        clock: u64,
        shapes: Vec<Vec<usize>>,
        pending: Vec<GradientMsg>,
        commits: Vec<(u64, Vec<Tensor>)>,
    }

    impl QueueingReference {
        fn new(policy: &PolicyNet, rule: AggregationRule) -> Self {
            Self {
                schedule: rule.make_schedule(),
                rule,
                clock: policy.version,
                shapes: policy.param_shapes(),
                pending: Vec::new(),
                commits: Vec::new(),
            }
        }

        fn offer(&mut self, msg: &GradientMsg) -> usize {
            if let Some(sched) = &mut self.schedule {
                sched.observe(msg.staleness(self.clock));
            }
            self.pending.push(msg.clone());
            let clock = self.clock;
            let staleness: Vec<u64> = self.pending.iter().map(|m| m.staleness(clock)).collect();
            if !self.rule.admits(&staleness, self.schedule.as_ref()) {
                return 0;
            }
            // One message per update for per-gradient rules (whose gate
            // admits everything, so they never queue two).
            let take = match self.rule {
                AggregationRule::PureAsync | AggregationRule::Ssp { .. } => 1,
                _ => self.pending.len(),
            };
            self.commit(take);
            1
        }

        fn commit(&mut self, take: usize) {
            let batch: Vec<GradientMsg> = self.pending.drain(..take).collect();
            let h = batch.len() as f32;
            let mut acc = GradAccumulator::new(&self.shapes);
            for msg in &batch {
                let w = self.rule.weight(msg.staleness(self.clock));
                acc.accumulate(&msg.grads, w / h);
            }
            self.commits
                .push((batch.len() as u64, acc.grads().to_vec()));
            self.clock += 1;
        }

        fn commit_pending(&mut self) {
            if !self.pending.is_empty() {
                self.commit(self.pending.len());
            }
        }

        fn advance_round(&mut self) {
            if let Some(sched) = &mut self.schedule {
                sched.advance_round();
            }
        }
    }

    /// Distance in representable `f32`s (±0 are one point).
    fn ulp_distance(a: f32, b: f32) -> u64 {
        let key = |x: f32| {
            let mag = i64::from(x.to_bits() & 0x7fff_ffff);
            if x.is_sign_negative() {
                -mag
            } else {
                mag
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Per commit, `H_c` and the largest per-element distance in ulp.
    type Distances = Vec<(u64, u64)>;

    /// The [`Distances`] between the server's summed gradients and the
    /// reference's.
    fn commit_distances(got: &[Vec<Tensor>], want: &QueueingReference) -> Distances {
        assert_eq!(got.len(), want.commits.len(), "commit count");
        got.iter()
            .zip(&want.commits)
            .map(|(g, (h_c, w))| {
                assert_eq!(g.len(), w.len());
                let mut worst = 0;
                for (gt, wt) in g.iter().zip(w) {
                    assert_eq!(gt.shape(), wt.shape());
                    for (&x, &y) in gt.data().iter().zip(wt.data()) {
                        worst = worst.max(ulp_distance(x, y));
                    }
                }
                (*h_c, worst)
            })
            .collect()
    }

    /// The two folds differ only in rounding. Each sums `H_c` positive terms
    /// (at most `H_c - 1` roundings each) and rounds each term once or twice
    /// plus the final `1/H_c` once, so the two sums are within
    /// `(2·H_c + 2)·2^-24` relative of each other — that many ulp at most.
    fn within_rounding(distances: &[(u64, u64)]) -> bool {
        distances.iter().all(|&(h_c, d)| d <= 2 * h_c + 2)
    }

    /// Drives the server and the queueing reference with the same
    /// 48 random gradients — positive elements, so sums do not cancel and
    /// the comparison is about rounding order alone — on bases trailing the
    /// clock by 0–3, with a round advance every 8 offers and a final
    /// `commit_pending`. Returns the per-commit distances and the server's
    /// (updates, gradients aggregated).
    fn fold_against_reference(rule: &AggregationRule) -> (Distances, u64, u64) {
        let policy = tiny_policy(11);
        let log = Arc::new(Mutex::new(Vec::new()));
        let server = ShardedParameterServer::new(policy.clone(), rule.clone(), 1, || {
            Box::new(Recorder(Arc::clone(&log)))
        });
        let mut reference = QueueingReference::new(&policy, rule.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for i in 0..48 {
            let lag = if rng.gen_bool(0.6) {
                0
            } else {
                rng.gen_range(1..4)
            };
            let mut msg = grad_msg(&policy, i % 4, server.clock().saturating_sub(lag), 0.0);
            for t in &mut msg.grads {
                t.data_mut()
                    .iter_mut()
                    .for_each(|x| *x = rng.gen_range(0.01f32..1.0));
            }
            assert_eq!(
                server.offer(&msg),
                reference.offer(&msg),
                "{rule:?} offer {i}"
            );
            assert_eq!(server.clock(), reference.clock);
            if i % 8 == 7 {
                server.advance_round();
                reference.advance_round();
            }
        }
        server.commit_pending();
        reference.commit_pending();
        let got = log.lock();
        (
            commit_distances(&got, &reference),
            server.updates(),
            server.grads_aggregated(),
        )
    }

    #[test]
    fn fold_on_arrival_matches_the_queueing_reference() {
        // Weight 1 and H_c a power of two: the same bits.
        for rule in [
            AggregationRule::PureAsync,
            AggregationRule::FullSync { n: 1 },
            AggregationRule::FullSync { n: 2 },
            AggregationRule::FullSync { n: 4 },
        ] {
            let (distances, ..) = fold_against_reference(&rule);
            assert!(
                distances.iter().all(|&(_, d)| d == 0),
                "{rule:?}: {distances:?}"
            );
        }
        // Staleness weights and H_c = 3 (Softsync) or anything (Eq. 3): the
        // division by H_c rounds once instead of once per gradient.
        for rule in [
            AggregationRule::Softsync { c: 3 },
            AggregationRule::StalenessAware { d: 0.9, v: 3 },
        ] {
            let (distances, updates, grads) = fold_against_reference(&rule);
            assert!(within_rounding(&distances), "{rule:?}: {distances:?}");
            assert!(grads > updates, "{rule:?} must batch some commits");
        }
    }

    /// Round 0 observes nothing stale (δ_max clamps to 1), so by round 100
    /// β = 0.96^100 ≈ 0.01687 and one δ = 1 gradient is only admitted once
    /// 59 fresh ones pull the average down to 1/60 (1/59 ≈ 0.01695 is still
    /// above β) — and the server holds one running sum, not 60 messages,
    /// while it waits.
    #[test]
    fn long_eq3_delay_commits_once_at_sixty() {
        let policy = tiny_policy(2);
        let ps = sgd_server(
            &policy,
            AggregationRule::StalenessAware { d: 0.96, v: 3 },
            0.1,
        );
        ps.offer(grad_msg(&policy, 0, 0, 0.1)); // fresh: δ_max = 1 after clamping
        for _ in 0..100 {
            ps.advance_round();
        }
        let clock = ps.clock();
        assert_eq!(clock, 1);
        let before = ps.snapshot();
        assert_eq!(ps.offer(grad_msg(&policy, 1, clock - 1, 0.1)), 0);
        for fresh in 1..=59 {
            assert_eq!(ps.pending(), fresh);
            assert_eq!(ps.clock(), clock, "nothing commits while Eq. 3 waits");
            assert_eq!(ps.snapshot().flat, before.flat);
            let commits = ps.offer(grad_msg(&policy, 2, clock, 0.1));
            assert_eq!(commits, usize::from(fresh == 59), "fresh gradient {fresh}");
        }
        assert_eq!((ps.clock(), ps.pending(), ps.updates()), (clock + 1, 0, 2));
        assert_eq!(ps.grads_aggregated(), 61);
        // The first commit's fresh gradient, then this one: 1 and 59 zeros.
        let mut ledger = vec![0, 1];
        ledger.extend([0; 59]);
        assert_eq!(ps.staleness_log().to_vec(), ledger);
        // Every weight is 1 (1/∛δ with δ ≤ 1), so the step is lr · fill.
        for (b, a) in before.flat.iter().zip(&ps.snapshot().flat) {
            assert!((b - 0.01 - a).abs() < 1e-6, "{b} -> {a}");
        }
    }
}
