//! The Parameter Function (workflow Step ③): staleness-aware gradient
//! aggregation and policy updates.
//!
//! Every arriving gradient re-evaluates the aggregation rule, and admitted
//! batches are committed to the policy as
//! `θ_{c+1} = θ_c - (1/H_c) Σ (α_0/δ^(1/v)) g` via the configured optimizer.
//! The policy clock ([`ShardedParameterServer::clock`]) increments on every
//! commit and is the reference for all staleness computations. Every
//! training loop — asynchronous, synchronous and remote — aggregates
//! through this one server.
//!
//! # Aggregation fold
//!
//! A shard folds `w(δ)·g` into its running sum when the gradient arrives,
//! with δ its staleness at arrival, and keeps only the gradient's base
//! version. The Eq. 3 gate averages staleness recomputed from those base
//! versions against the current clock, and the staleness ledger and
//! histograms record staleness at commit. A commit scales the sum by
//! `1/H_c`, steps the optimizer and zeroes the sum. So a shard holds
//! O(params) however long Eq. 3 delays a commit, where keeping the messages
//! until the commit held one whole gradient per delayed arrival.
//!
//! With one shard the weights are those of a fold at commit time: only a
//! commit moves the clock, and nothing commits while that shard waits. The
//! bits are too whenever `H_c` is a power of two (every `FullSync { n: 2 }`
//! wave, every `PureAsync` commit), because scaling by `2^-k` commutes with
//! rounding; for other `H_c` the division rounds once where the per-gradient
//! `w/H_c` weights rounded once each, so the sums agree to within their
//! rounding error. On more than one shard the other shards move the clock
//! while one waits, and the weight uses staleness at arrival rather than at
//! commit.

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stellaris_nn::{Optimizer, ParamSet, Tensor};
use stellaris_rl::{PolicyNet, PolicySnapshot};
use stellaris_telemetry::{Counter, Histogram};

use crate::aggregation::{AggregationRule, GradAccumulator};
use crate::messages::GradientMsg;
use crate::staleness::StalenessSchedule;

/// A capped staleness ledger: keeps the last [`StalenessRing::DEFAULT_CAP`]
/// per-gradient staleness samples plus a monotonic total, so a 10k-learner
/// run records millions of gradients without the ledger growing one `u64`
/// per gradient forever. The full distribution lives in the
/// `stellaris_core_staleness` histogram, which never evicts; the ring keeps
/// the recent raw samples that round summaries and Fig. 3(b)-style PDFs
/// read.
#[derive(Clone, Debug, Default)]
pub struct StalenessRing {
    /// bound: capped at `DEFAULT_CAP` entries — `push` evicts the oldest.
    buf: VecDeque<u64>,
    /// Total samples ever recorded (monotonic, survives eviction).
    recorded: u64,
}

impl StalenessRing {
    /// Retained-sample cap. 64Ki `u64`s is 512 KiB — a fixed ceiling however
    /// long the run — while holding far more than any round summary reads.
    pub const DEFAULT_CAP: usize = 65_536;

    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one staleness sample, evicting the oldest beyond the cap.
    pub fn push(&mut self, v: u64) {
        if self.buf.len() >= Self::DEFAULT_CAP {
            self.buf.pop_front();
        }
        self.buf.push_back(v);
        self.recorded += 1;
    }

    /// Total samples ever recorded (monotonic; `>= len()`).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained samples (`<= DEFAULT_CAP`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<u64> {
        self.buf.back().copied()
    }

    /// Iterates retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &u64> {
        self.buf.iter()
    }

    /// Copies the retained samples out, oldest first.
    pub fn to_vec(&self) -> Vec<u64> {
        self.buf.iter().copied().collect()
    }

    /// Mean over the last `n` retained samples (0.0 when empty).
    #[expect(
        clippy::cast_precision_loss,
        reason = "staleness sums and lengths stay far below 2^53, exact in f64"
    )]
    pub fn tail_mean(&self, n: usize) -> f64 {
        let start = self.buf.len().saturating_sub(n);
        let len = self.buf.len() - start;
        if len == 0 {
            return 0.0;
        }
        self.buf.iter().skip(start).sum::<u64>() as f64 / len as f64
    }
}

/// How a flat parameter vector splits into blocks: one block per parameter
/// tensor, in `ParamSet::params` order.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BlockLayout {
    /// Element count of each block.
    sizes: Vec<usize>,
    /// Element offset of each block within the flat vector.
    offsets: Vec<usize>,
    /// Total element count (sum of `sizes`).
    total: usize,
}

impl BlockLayout {
    /// Builds the layout from parameter-tensor shapes
    /// (`ParamSet::param_shapes`).
    fn from_shapes(shapes: &[Vec<usize>]) -> Self {
        let sizes: Vec<usize> = shapes.iter().map(|s| s.iter().product::<usize>()).collect();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut total = 0usize;
        for &sz in &sizes {
            offsets.push(total);
            total += sz;
        }
        Self {
            sizes,
            offsets,
            total,
        }
    }

    /// Number of blocks.
    fn n_blocks(&self) -> usize {
        self.sizes.len()
    }

    /// Element count of block `i`.
    fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// Element offset of block `i` within the flat vector.
    fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Total element count across all blocks.
    fn total(&self) -> usize {
        self.total
    }
}

/// How parameter blocks (one block per parameter tensor, `ParamSet::params`
/// order) partition across shards: greedy balance by element count,
/// deterministic, each shard's block list ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    /// Global block indices owned by each shard, ascending within a shard.
    blocks: Vec<Vec<usize>>,
}

impl ShardLayout {
    /// Partitions `sizes.len()` blocks across `n_shards` (clamped to
    /// `1..=sizes.len()`): blocks are placed largest-first onto the
    /// currently lightest shard (ties by shard index), which keeps per-shard
    /// element counts within one block of balanced. With one shard the
    /// layout is the identity — every block, in order.
    pub fn partition(sizes: &[usize], n_shards: usize) -> Self {
        let n = n_shards.clamp(1, sizes.len().max(1));
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        // Stable sort: equal sizes keep ascending block order, so the
        // layout is a pure function of (sizes, n_shards).
        order.sort_by_key(|&b| std::cmp::Reverse(sizes[b]));
        let mut blocks = vec![Vec::new(); n];
        let mut load = vec![0usize; n];
        for b in order {
            let lightest = (0..n).min_by_key(|&s| (load[s], s)).unwrap_or(0);
            blocks[lightest].push(b);
            load[lightest] += sizes[b];
        }
        for list in &mut blocks {
            list.sort_unstable();
        }
        Self { blocks }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.blocks.len()
    }

    /// The global block indices shard `s` owns, ascending.
    pub fn blocks(&self, s: usize) -> &[usize] {
        &self.blocks[s]
    }
}

/// One shard's independent aggregation state: its parameter tensors, its
/// optimizer-state slice, its staleness-schedule view and the running fold
/// of the gradients it has not committed yet.
struct ParamShard {
    /// Global block indices this shard owns (ascending).
    blocks: Vec<usize>,
    /// The owned parameter tensors, one per block.
    params: Vec<Tensor>,
    optimizer: Box<dyn Optimizer>,
    rule: AggregationRule,
    schedule: Option<StalenessSchedule>,
    /// Base versions of the gradients folded since the last commit, in
    /// arrival order — all the gate and the ledger need of them.
    folded: Vec<u64>,
    /// `Σ w(δ)·g` over those gradients, δ their staleness at arrival.
    accumulator: GradAccumulator,
    staleness_log: StalenessRing,
    updates: u64,
    grads_aggregated: u64,
    /// Per-shard staleness histogram (`stellaris_core_staleness_shard<i>`).
    hist: Arc<Histogram>,
}

/// The sharded parameter plane (DESIGN.md §16): the parameter function split
/// into `N` shards keyed by parameter block, each aggregating independently
/// — own optimizer-state slice, own staleness-schedule view, own running
/// fold, own per-shard staleness histogram — with a cheap version-vector
/// commit: one tick of the global `commit_seq` (the policy clock), which is
/// all [`Self::clock`], [`Self::snapshot`] and [`Self::version_vector`] read.
///
/// **The single-shard configuration is the unsharded parameter function**:
/// one shard owns every block in order, staleness is measured against the
/// one global clock and gradients fold in arrival order with the Eq. 4
/// weights into one optimizer (`single_shard_golden` pins its bits to the
/// values the pre-sharding server produced).
/// With `N > 1` the shards commit independently, so the clock advances `N`
/// times per full gradient sweep; staleness thresholds self-normalize
/// because the schedule calibrates `δ_max` from observed values (Eq. 3).
pub struct ShardedParameterServer {
    /// Flat-vector geometry.
    layout: BlockLayout,
    shard_layout: ShardLayout,
    shards: Vec<Mutex<ParamShard>>,
    /// The global policy clock: one tick per shard commit.
    commit_seq: AtomicU64,
    /// Template for reassembling a `PolicyNet` from the shard state.
    template: Mutex<PolicyNet>,
    /// `stellaris_core_grads_aggregated_total`: one increment per
    /// (gradient, shard) fold, so the per-shard staleness histogram counts
    /// sum to it (checked by `validate_trace`).
    grads_counter: Arc<Counter>,
    global_hist: Arc<Histogram>,
    gate_admitted: Arc<Counter>,
    gate_delayed: Arc<Counter>,
}

impl ShardedParameterServer {
    /// Creates a sharded server around an initial policy. `make_optimizer`
    /// builds one optimizer per shard (each owns only its slice of the
    /// optimizer state); `n_shards` is clamped to the number of parameter
    /// tensors.
    pub fn new(
        policy: PolicyNet,
        rule: AggregationRule,
        n_shards: usize,
        mut make_optimizer: impl FnMut() -> Box<dyn Optimizer>,
    ) -> Self {
        let shapes = policy.param_shapes();
        let layout = BlockLayout::from_shapes(&shapes);
        let sizes: Vec<usize> = (0..layout.n_blocks()).map(|b| layout.size(b)).collect();
        let shard_layout = ShardLayout::partition(&sizes, n_shards);
        let reg = stellaris_telemetry::global();
        let all_params: Vec<Tensor> = policy.params().into_iter().cloned().collect();
        let shards = (0..shard_layout.n_shards())
            .map(|s| {
                let blocks = shard_layout.blocks(s).to_vec();
                let params: Vec<Tensor> = blocks.iter().map(|&b| all_params[b].clone()).collect();
                let shard_shapes: Vec<Vec<usize>> =
                    blocks.iter().map(|&b| shapes[b].clone()).collect();
                Mutex::new(ParamShard {
                    blocks,
                    params,
                    optimizer: make_optimizer(),
                    rule: rule.clone(),
                    schedule: rule.make_schedule(),
                    folded: Vec::new(),
                    accumulator: GradAccumulator::new(&shard_shapes),
                    staleness_log: StalenessRing::new(),
                    updates: 0,
                    grads_aggregated: 0,
                    hist: reg.histogram(&format!("stellaris_core_staleness_shard{s}")),
                })
            })
            .collect();
        Self {
            layout,
            shard_layout,
            shards,
            commit_seq: AtomicU64::new(policy.version),
            template: Mutex::new(policy),
            grads_counter: reg.counter("stellaris_core_grads_aggregated_total"),
            global_hist: reg.histogram("stellaris_core_staleness"),
            gate_admitted: reg.counter("stellaris_core_gate_admitted_total"),
            gate_delayed: reg.counter("stellaris_core_gate_delayed_total"),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// How blocks partition across shards.
    pub fn shard_layout(&self) -> &ShardLayout {
        &self.shard_layout
    }

    /// Current global policy clock (one tick per shard commit).
    pub fn clock(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// Per-shard update counts — the version vector. Sums to
    /// `clock() - initial version`.
    pub fn version_vector(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().updates).collect()
    }

    /// Total policy updates (shard commits).
    pub fn updates(&self) -> u64 {
        self.version_vector().iter().sum()
    }

    /// Total (gradient, shard) folds: with one shard, the number of
    /// gradients aggregated.
    pub fn grads_aggregated(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().grads_aggregated).sum()
    }

    /// Gradients shard 0 has folded but not committed (all shards see the
    /// same offers, so with aligned rules the counts agree; shard 0 is the
    /// canonical view).
    pub fn pending(&self) -> usize {
        self.shards[0].lock().folded.len()
    }

    /// Offers a gradient to every shard in order; returns how many shard
    /// commits it triggered (0 when the rule delays aggregation). The
    /// sequential fan-out is deterministic. The message is only read: each
    /// shard folds it into its running sum on arrival and the server keeps
    /// no gradient (an owned message is borrowed and dropped).
    pub fn offer(&self, msg: impl Borrow<GradientMsg>) -> usize {
        let msg = msg.borrow();
        assert_eq!(
            msg.grads.len(),
            self.layout.n_blocks(),
            "gradient layout mismatch from learner {}",
            msg.learner_id
        );
        (0..self.shards.len())
            .map(|s| self.offer_to_shard(s, msg))
            .sum()
    }

    /// Folds a gradient into one shard and runs the shard's gate; returns 1
    /// if that committed the shard, else 0.
    fn offer_to_shard(&self, s: usize, msg: &GradientMsg) -> usize {
        let mut guard = self.shards[s].lock();
        let sh = &mut *guard;
        let clock = self.clock();
        debug_assert!(
            msg.base_version <= clock,
            "gradient from the future: base {} > clock {clock} (staleness would go negative)",
            msg.base_version,
        );
        let staleness = msg.staleness(clock);
        if let Some(sched) = &mut sh.schedule {
            // lint:allow(A2): StalenessSchedule::observe mutates plain fields; the flagged lock edges belong to identically-named recorder/profiler methods
            sched.observe(staleness);
        }
        let w = sh.rule.weight(staleness);
        sh.accumulator.accumulate_indexed(&msg.grads, &sh.blocks, w);
        sh.folded.push(msg.base_version);

        let staleness: Vec<u64> = sh.folded.iter().map(|&b| clock.saturating_sub(b)).collect();
        if !sh.rule.admits(&staleness, sh.schedule.as_ref()) {
            self.gate_delayed.inc();
            return 0;
        }
        self.gate_admitted.inc();
        // lint:allow(A2): shard_commit steps this locked shard only; the flagged lock is the cache store shard map, reached through a name collision on `reset`
        self.shard_commit(sh);
        1
    }

    /// Commits a shard's running fold: steps the optimizer over the shard's
    /// slice with the sum scaled by `1/H_c`, zeroes the sum, records each
    /// folded gradient's staleness at commit, and ticks `commit_seq` once
    /// (the version-vector commit).
    fn shard_commit(&self, sh: &mut ParamShard) {
        debug_assert!(!sh.folded.is_empty());
        let h = sh.folded.len();
        #[expect(
            clippy::cast_precision_loss,
            reason = "H_c counts gradients, far below 2^24, exact in f32"
        )]
        sh.accumulator.divide(h as f32);
        let mut params: Vec<&mut Tensor> = sh.params.iter_mut().collect();
        sh.optimizer.step_refs(&mut params, sh.accumulator.grads());
        sh.accumulator.reset();
        let clock = self.clock();
        for base in sh.folded.drain(..) {
            let delta = clock.saturating_sub(base);
            sh.staleness_log.push(delta);
            sh.hist.record(delta);
            self.global_hist.record(delta);
        }
        self.commit_seq.fetch_add(1, Ordering::AcqRel);
        sh.updates += 1;
        sh.grads_aggregated += h as u64;
        self.grads_counter.add(h as u64);
    }

    /// Commits whatever each shard has folded as one batch (`H_c` = the
    /// folded count, same Eq. 4 weights) under the live optimizer state,
    /// regardless of the rule's gate; returns how many shards committed.
    /// This is the quorum-degradation step of a lock-step wave that fell
    /// short of its group size: the gradients that did arrive still count.
    pub fn commit_pending(&self) -> usize {
        let mut commits = 0;
        for shard in &self.shards {
            let mut sh = shard.lock();
            if !sh.folded.is_empty() {
                // lint:allow(A2): shard_commit steps this locked shard only; the flagged lock is the cache store shard map, reached through a name collision on `reset`
                self.shard_commit(&mut sh);
                commits += 1;
            }
        }
        commits
    }

    /// Advances every shard's staleness-threshold schedule one round.
    pub fn advance_round(&self) {
        for shard in &self.shards {
            if let Some(s) = &mut shard.lock().schedule {
                // lint:allow(A1): StalenessSchedule::advance_round shares this method's name but mutates plain fields — no recursion, no second acquisition
                s.advance_round(); // lint:allow(A2): same name collision; the schedule takes no locks
            }
        }
    }

    /// Current staleness threshold `β_k` of shard 0 (the canonical view;
    /// all shards observe the same offers).
    pub fn beta(&self) -> Option<f64> {
        self.shards[0]
            .lock()
            .schedule
            .as_ref()
            .and_then(StalenessSchedule::beta)
    }

    /// Mean staleness over shard 0's last `n` aggregated gradients.
    pub fn mean_recent_staleness(&self, n: usize) -> f64 {
        self.shards[0].lock().staleness_log.tail_mean(n)
    }

    /// Shard 0's staleness ledger — one entry per admitted gradient
    /// message, in admission order (the data behind the paper's Fig. 3(b)
    /// PDFs).
    pub fn staleness_log(&self) -> StalenessRing {
        self.shards[0].lock().staleness_log.clone()
    }

    /// Snapshot of the full policy: blocks reassembled in flat order,
    /// stamped with the global clock.
    pub fn snapshot(&self) -> PolicySnapshot {
        let mut flat = vec![0.0f32; self.layout.total()];
        for shard in &self.shards {
            let sh = shard.lock();
            for (local, &b) in sh.blocks.iter().enumerate() {
                let off = self.layout.offset(b);
                flat[off..off + self.layout.size(b)].copy_from_slice(sh.params[local].data());
            }
        }
        PolicySnapshot {
            version: self.clock(),
            flat,
        }
    }

    /// Reassembles the canonical `PolicyNet` (template weights replaced by
    /// the shard state, version set to the global clock).
    pub fn policy(&self) -> PolicyNet {
        let snap = self.snapshot();
        let mut policy = self.template.lock().clone();
        policy.load_snapshot(&snap);
        policy
    }
}

#[cfg(test)]
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::remote::snapshot_checksum;
    use proptest::prelude::*;
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

    fn sgd_server(
        policy: &PolicyNet,
        rule: AggregationRule,
        n_shards: usize,
        lr: f32,
    ) -> ShardedParameterServer {
        ShardedParameterServer::new(policy.clone(), rule, n_shards, || {
            Box::new(Sgd::new(lr, 0.0))
        })
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
        for n_shards in [1, 3] {
            let ps = sgd_server(&policy, AggregationRule::PureAsync, n_shards, 0.1);
            assert_eq!(ps.n_shards(), n_shards);
            assert_eq!(ps.offer(grad_msg(&policy, 0, 0, 0.1)), n_shards);
            assert_eq!(ps.clock(), n_shards as u64);
            assert_eq!(ps.pending(), 0);
        }
    }

    #[test]
    fn sgd_update_moves_params_by_weighted_gradient() {
        let policy = tiny_policy(0);
        let before = policy.flatten();
        for n_shards in [1, 3] {
            let ps = sgd_server(&policy, AggregationRule::PureAsync, n_shards, 0.5);
            ps.offer(grad_msg(&policy, 0, 0, 1.0));
            for (b, a) in before.iter().zip(&ps.snapshot().flat) {
                assert!((b - 0.5 - a).abs() < 1e-6, "θ' = θ - lr*g: {b} -> {a}");
            }
        }
    }

    #[test]
    fn fullsync_waits_for_group() {
        let policy = tiny_policy(0);
        let before = policy.flatten();
        for n_shards in [1, 3] {
            let ps = sgd_server(&policy, AggregationRule::FullSync { n: 2 }, n_shards, 1.0);
            assert_eq!(
                ps.offer(grad_msg(&policy, 0, 0, 1.0)),
                0,
                "must wait for the group"
            );
            assert_eq!(ps.pending(), 1);
            assert_eq!(ps.snapshot().flat, before);
            assert_eq!(ps.offer(grad_msg(&policy, 1, 0, 3.0)), n_shards);
            // Plain average of fills 1 and 3 = 2, lr 1.
            for (b, a) in before.iter().zip(&ps.snapshot().flat) {
                assert!((b - 2.0 - a).abs() < 1e-5);
            }
        }
    }

    // The two staleness tests read clock distances, and the clock ticks once
    // per shard commit, so they pin the one-shard arithmetic only.
    #[test]
    fn staleness_weights_scale_contributions() {
        let policy = tiny_policy(0);
        let ps = sgd_server(
            &policy,
            AggregationRule::StalenessAware { d: 1.0, v: 1 },
            1,
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
            1,
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
        for n_shards in [1, 3] {
            let ps = sgd_server(&policy, AggregationRule::Softsync { c: 3 }, n_shards, 0.1);
            for i in 0..2 {
                assert_eq!(ps.offer(grad_msg(&policy, i, 0, 0.1)), 0);
            }
            assert_eq!(ps.offer(grad_msg(&policy, 2, 0, 0.1)), n_shards);
            assert_eq!(ps.updates(), n_shards as u64);
            assert_eq!(ps.grads_aggregated(), 3 * n_shards as u64);
        }
    }

    #[test]
    fn optimizer_kind_integration() {
        let policy = tiny_policy(0);
        for n_shards in [1, 3] {
            let ps = ShardedParameterServer::new(
                policy.clone(),
                AggregationRule::PureAsync,
                n_shards,
                || OptimizerKind::Adam.build(0.01),
            );
            for _ in 0..5 {
                ps.offer(grad_msg(&policy, 0, ps.clock(), 0.3));
            }
            assert_eq!(ps.updates(), 5 * n_shards as u64);
            assert!(ps.snapshot().flat.iter().all(|x| x.is_finite()));
            assert_eq!(ps.mean_recent_staleness(10), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "gradient layout mismatch")]
    fn layout_mismatch_panics() {
        let policy = tiny_policy(0);
        let mut bad = grad_msg(&policy, 0, 0, 0.1);
        bad.grads.pop();
        sgd_server(&policy, AggregationRule::PureAsync, 1, 0.1).offer(bad);
    }

    #[test]
    fn staleness_ring_caps_but_counts_everything() {
        let mut ring = StalenessRing::new();
        for i in 0..(StalenessRing::DEFAULT_CAP as u64 + 10) {
            ring.push(i);
        }
        assert_eq!(ring.len(), StalenessRing::DEFAULT_CAP);
        assert_eq!(ring.recorded(), StalenessRing::DEFAULT_CAP as u64 + 10);
        assert_eq!(ring.last(), Some(StalenessRing::DEFAULT_CAP as u64 + 9));
        // Oldest 10 were evicted; the front is sample #10.
        assert_eq!(ring.to_vec()[0], 10);
        assert_eq!(ring.tail_mean(2), StalenessRing::DEFAULT_CAP as f64 + 8.5);
    }

    #[test]
    fn shard_layout_deterministic_and_covering() {
        let sizes = vec![100, 7, 7, 50, 1, 200, 30];
        let a = ShardLayout::partition(&sizes, 3);
        let b = ShardLayout::partition(&sizes, 3);
        assert_eq!(a, b, "pure function of (sizes, n_shards)");
        assert_eq!(a.n_shards(), 3);
        let mut all: Vec<usize> = (0..3).flat_map(|s| a.blocks(s).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..sizes.len()).collect::<Vec<_>>(), "exact cover");
        // Clamps: more shards than blocks, and a single shard is identity.
        assert_eq!(ShardLayout::partition(&sizes, 99).n_shards(), sizes.len());
        let one = ShardLayout::partition(&sizes, 1);
        assert_eq!(one.blocks(0), (0..sizes.len()).collect::<Vec<_>>());
    }

    /// The single-shard server must keep producing the bits of the
    /// unsharded `parameter.rs` server it replaced. The constants were
    /// captured from that server at the commit before its deletion (seed-7
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
            // The reassembled policy carries the same bits and clock.
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
        assert_eq!(short.commit_pending(), 0, "nothing pending, nothing folds");
        for (wave, fill) in [0.3f32, -0.7].into_iter().enumerate() {
            let msg = grad_msg(&policy, 0, short.clock(), fill);
            assert_eq!(short.offer(msg.clone()), 0, "group of 2 not reached");
            assert_eq!(short.pending(), 1);
            assert_eq!(short.commit_pending(), 1, "one commit per shard");
            assert_eq!(short.pending(), 0);
            assert_eq!(short.clock(), wave as u64 + 1, "clock advanced");
            assert_eq!(reference.offer(msg), 1);
            assert_same_bits(&short.snapshot(), &reference.snapshot());
        }
        assert_eq!(short.grads_aggregated(), 2);
        assert_eq!(short.staleness_log().to_vec(), vec![0, 0]);
        // Multi-shard: every shard folds its own pending copy once.
        let sharded = sgd_server(&policy, AggregationRule::FullSync { n: 2 }, 3, 0.1);
        assert_eq!(sharded.offer(grad_msg(&policy, 0, 0, 1.0)), 0);
        assert_eq!(sharded.commit_pending(), 3);
        assert_eq!((sharded.pending(), sharded.clock()), (0, 3));
    }

    #[test]
    fn multi_shard_commit_advances_version_vector() {
        let policy = tiny_policy(3);
        let sharded = sgd_server(&policy, AggregationRule::PureAsync, 4, 0.1);
        assert_eq!(sharded.n_shards(), 4.min(policy.param_shapes().len()));
        let n = sharded.n_shards();
        let msg = grad_msg(&policy, 0, 0, 0.5);
        // Full fan-out: every shard commits once, the clock ticks n times.
        assert_eq!(sharded.offer(msg), n);
        assert_eq!(sharded.clock(), n as u64);
        assert_eq!(sharded.version_vector(), vec![1u64; n]);
        assert_eq!(sharded.updates(), n as u64);
        // Every parameter moved: the fan-out covered all blocks.
        let before = policy.flatten();
        let after = sharded.snapshot().flat;
        for (b, a) in before.iter().zip(&after) {
            assert!((b - 0.1 * 0.5 - a).abs() < 1e-6, "θ' = θ - lr*g per block");
        }
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
    /// reference: each shard queues whole messages and, at the commit, sums
    /// `(w(δ)/H_c)·g` in arrival order with δ measured at the commit — or,
    /// with `at_arrival`, with the staleness each message had when it
    /// reached the shard. `commits` logs every shard commit's `H_c` and sum,
    /// in order.
    struct QueueingReference {
        rule: AggregationRule,
        at_arrival: bool,
        clock: u64,
        shards: Vec<RefShard>,
        commits: Vec<(u64, Vec<Tensor>)>,
    }

    struct RefShard {
        blocks: Vec<usize>,
        shapes: Vec<Vec<usize>>,
        schedule: Option<StalenessSchedule>,
        /// Queued messages with their staleness at arrival.
        pending: Vec<(GradientMsg, u64)>,
    }

    impl QueueingReference {
        fn new(server: &ShardedParameterServer, rule: AggregationRule, at_arrival: bool) -> Self {
            let shapes = server.template.lock().param_shapes();
            let shards = (0..server.n_shards())
                .map(|s| {
                    let blocks = server.shard_layout().blocks(s).to_vec();
                    RefShard {
                        shapes: blocks.iter().map(|&b| shapes[b].clone()).collect(),
                        blocks,
                        schedule: rule.make_schedule(),
                        pending: Vec::new(),
                    }
                })
                .collect();
            Self {
                rule,
                at_arrival,
                clock: server.clock(),
                shards,
                commits: Vec::new(),
            }
        }

        fn offer(&mut self, msg: &GradientMsg) -> usize {
            (0..self.shards.len())
                .map(|s| self.offer_to_shard(s, msg))
                .sum()
        }

        fn offer_to_shard(&mut self, s: usize, msg: &GradientMsg) -> usize {
            let delta = msg.staleness(self.clock);
            let sh = &mut self.shards[s];
            if let Some(sched) = &mut sh.schedule {
                sched.observe(delta);
            }
            sh.pending.push((msg.clone(), delta));
            let clock = self.clock;
            let staleness: Vec<u64> = sh.pending.iter().map(|(m, _)| m.staleness(clock)).collect();
            if !self.rule.admits(&staleness, sh.schedule.as_ref()) {
                return 0;
            }
            // One message per update for per-gradient rules (whose gate
            // admits everything, so they never queue two).
            let take = match self.rule {
                AggregationRule::PureAsync | AggregationRule::Ssp { .. } => 1,
                _ => sh.pending.len(),
            };
            self.commit(s, take);
            1
        }

        fn commit(&mut self, s: usize, take: usize) {
            let sh = &mut self.shards[s];
            let batch: Vec<(GradientMsg, u64)> = sh.pending.drain(..take).collect();
            let h = batch.len() as f32;
            let h_c = batch.len() as u64;
            let mut acc = GradAccumulator::new(&sh.shapes);
            for (msg, arrival) in &batch {
                let delta = if self.at_arrival {
                    *arrival
                } else {
                    msg.staleness(self.clock)
                };
                acc.accumulate_indexed(&msg.grads, &sh.blocks, self.rule.weight(delta) / h);
            }
            self.commits.push((h_c, acc.grads().to_vec()));
            self.clock += 1;
        }

        fn commit_pending(&mut self) {
            for s in 0..self.shards.len() {
                let take = self.shards[s].pending.len();
                if take > 0 {
                    self.commit(s, take);
                }
            }
        }

        fn advance_round(&mut self) {
            for sh in &mut self.shards {
                if let Some(sched) = &mut sh.schedule {
                    sched.advance_round();
                }
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

    /// Drives the server and two queueing references (weighted at commit
    /// and at arrival) with the same 48 random gradients — positive
    /// elements, so sums do not cancel and the comparison is about rounding
    /// order alone — on bases trailing the clock by 0–3, with a round
    /// advance every 8 offers and a final `commit_pending`. Returns the
    /// per-commit distances to the two references and the server's
    /// (updates, gradients aggregated).
    fn fold_against_reference(
        rule: &AggregationRule,
        n_shards: usize,
    ) -> (Distances, Distances, u64, u64) {
        let policy = tiny_policy(11);
        let log = Arc::new(Mutex::new(Vec::new()));
        let server = ShardedParameterServer::new(policy.clone(), rule.clone(), n_shards, || {
            Box::new(Recorder(Arc::clone(&log)))
        });
        let mut at_commit = QueueingReference::new(&server, rule.clone(), false);
        let mut at_arrival = QueueingReference::new(&server, rule.clone(), true);
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
            let commits = server.offer(&msg);
            assert_eq!(commits, at_commit.offer(&msg), "{rule:?} offer {i}");
            assert_eq!(commits, at_arrival.offer(&msg), "{rule:?} offer {i}");
            assert_eq!(server.clock(), at_commit.clock);
            if i % 8 == 7 {
                server.advance_round();
                at_commit.advance_round();
                at_arrival.advance_round();
            }
        }
        server.commit_pending();
        at_commit.commit_pending();
        at_arrival.commit_pending();
        let got = log.lock();
        (
            commit_distances(&got, &at_commit),
            commit_distances(&got, &at_arrival),
            server.updates(),
            server.grads_aggregated(),
        )
    }

    #[test]
    fn fold_on_arrival_matches_the_queueing_reference() {
        // Weight 1 and H_c a power of two: the same bits on any shard count.
        for rule in [
            AggregationRule::PureAsync,
            AggregationRule::FullSync { n: 1 },
            AggregationRule::FullSync { n: 2 },
            AggregationRule::FullSync { n: 4 },
        ] {
            for n_shards in [1, 3] {
                let (to_commit, to_arrival, ..) = fold_against_reference(&rule, n_shards);
                assert!(
                    to_commit.iter().chain(&to_arrival).all(|&(_, d)| d == 0),
                    "{rule:?} x{n_shards}: {to_commit:?}"
                );
            }
        }
        // Staleness weights and H_c = 3 (Softsync) or anything (Eq. 3): the
        // division by H_c rounds once instead of once per gradient.
        for rule in [
            AggregationRule::Softsync { c: 3 },
            AggregationRule::StalenessAware { d: 0.9, v: 3 },
        ] {
            let (to_commit, to_arrival, updates, grads) = fold_against_reference(&rule, 1);
            assert!(within_rounding(&to_commit), "{rule:?}: {to_commit:?}");
            assert!(within_rounding(&to_arrival), "{rule:?}: {to_arrival:?}");
            assert!(grads > updates, "{rule:?} must batch some commits");
            // On three shards the others move the clock while one waits:
            // the weights are those at arrival, not at commit.
            let (to_commit, to_arrival, ..) = fold_against_reference(&rule, 3);
            assert!(within_rounding(&to_arrival), "{rule:?} x3: {to_arrival:?}");
            assert!(!within_rounding(&to_commit), "{rule:?} x3: {to_commit:?}");
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
            1,
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

    #[test]
    fn layout_partitions_the_flat_vector() {
        let l = BlockLayout::from_shapes(&[vec![2, 3], vec![4], vec![1]]);
        assert_eq!(l.n_blocks(), 3);
        assert_eq!(l.total(), 11);
        assert_eq!((l.offset(0), l.size(0)), (0, 6));
        assert_eq!((l.offset(1), l.size(1)), (6, 4));
        assert_eq!((l.offset(2), l.size(2)), (10, 1));
    }

    proptest! {
        /// `snapshot()`'s reassembly along an arbitrary walk of single-shard
        /// commits, against references that do not go through `snapshot()`:
        /// the clock counts the commits, a shard that never committed still
        /// holds the initial bits at its blocks' offsets and one that did
        /// does not, and the plane is a pure function of its offers.
        #[test]
        fn prop_snapshot_reassembles_per_shard_commits(
            n_shards in 1usize..9,
            negate in any::<bool>(),
            targets in proptest::collection::vec(0usize..8, 0..12),
            fills in proptest::collection::vec(0.05f32..1.0, 12..13),
        ) {
            let mut policy = tiny_policy(1);
            policy.version = 3;
            let initial = policy.flatten();
            let layout = BlockLayout::from_shapes(&policy.param_shapes());
            // Same-signed fills under SGD move every weight monotonically,
            // so a committed block can never drift back onto its start.
            let drive = |server: &ShardedParameterServer| {
                for (&target, &fill) in targets.iter().zip(&fills) {
                    let fill = if negate { -fill } else { fill };
                    let msg = grad_msg(&policy, 0, server.clock(), fill);
                    assert_eq!(server.offer_to_shard(target % server.n_shards(), &msg), 1);
                }
            };
            let server = sgd_server(&policy, AggregationRule::PureAsync, n_shards, 0.1);
            drive(&server);
            let snap = server.snapshot();
            let vector = server.version_vector();
            prop_assert_eq!(snap.version, server.clock());
            prop_assert_eq!(server.clock(), policy.version + vector.iter().sum::<u64>());
            prop_assert_eq!(snap.flat.len(), initial.len());
            for (s, &updates) in vector.iter().enumerate() {
                for &b in server.shard_layout().blocks(s) {
                    let at = layout.offset(b)..layout.offset(b) + layout.size(b);
                    let untouched = snap.flat[at.clone()]
                        .iter()
                        .zip(&initial[at])
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    prop_assert_eq!(untouched, updates == 0, "shard {} block {}", s, b);
                }
            }
            let replay = sgd_server(&policy, AggregationRule::PureAsync, n_shards, 0.1);
            drive(&replay);
            assert_same_bits(&replay.snapshot(), &snap);
        }
    }
}
