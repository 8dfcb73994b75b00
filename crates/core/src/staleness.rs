//! Staleness control (§V-C): the adaptive threshold schedule of Eq. 3 and
//! the staleness-modulated learning rate of Eq. 4.
//!
//! A gradient's *staleness* δ is the number of policy updates that happened
//! between the version it was computed against and the clock at aggregation
//! time. Stellaris admits a queued batch of gradients only while the queue's
//! *average* staleness stays below a per-round threshold
//! `β_k = δ_max · d^k`, where `δ_max` is discovered by running the first
//! round unbounded. `d = 1` degenerates to pure asynchrony; `d → 0`
//! degenerates to synchronous training.
//!
//! [`StalenessGate`] is the two equations applied to one parameter plane:
//! the clock, the gradients held since the last commit, the decision to
//! commit them and the ledger of their staleness. The real plane
//! (`ShardedParameterServer`) and the virtual-time simulator
//! (`stellaris-simcluster`) both run it.

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use std::collections::VecDeque;

use crate::aggregation::AggregationRule;

/// Eq. 3's threshold for round `k`: `β_k = max(δ_max, 1) · d^k`.
#[expect(
    clippy::cast_precision_loss,
    reason = "u64 -> f64 is exact below 2^53, merely imprecise above"
)]
fn beta_k(delta_max: u64, d: f64, k: u64) -> f64 {
    // A `powi(k as i32)` would wrap for rounds past i32::MAX, flipping β to
    // δ_max/d^huge = +inf.
    delta_max.max(1) as f64 * d.powf(k as f64)
}

/// Eq. 4: the per-gradient learning-rate modulation `α_c = α_0 / δ^(1/v)`
/// expressed as a weight on the base rate (`1.0` for fresh gradients).
/// Larger `v` softens the modulation, avoiding diminishing updates.
///
/// ```
/// use stellaris_core::staleness_weight;
/// assert_eq!(staleness_weight(0, 3), 1.0);
/// assert!((staleness_weight(8, 3) - 0.5).abs() < 1e-6); // 1/∛8
/// ```
pub fn staleness_weight(delta: u64, v: u32) -> f32 {
    if delta == 0 {
        return 1.0;
    }
    assert!(v >= 1, "root factor v must be >= 1");
    #[expect(
        clippy::cast_precision_loss,
        reason = "delta and v are update counts far below 2^24, exact in f32"
    )]
    let w = 1.0 / (delta as f32).powf(1.0 / v as f32);
    debug_assert!(
        w.is_finite() && w > 0.0 && w <= 1.0,
        "Eq. 4 weight must be in (0, 1]: delta={delta} v={v} -> {w}"
    );
    w
}

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

/// Eq. 3 and Eq. 4 for one parameter plane.
///
/// The gate holds the rule, the round `k`, the calibrated `δ_max` and the
/// policy clock, which ticks once per commit, so a gradient's staleness δ
/// counts policy updates since its base version. An arriving gradient is
/// observed once ([`Self::arrive`]): in round 0 its δ grows `δ_max` (the
/// paper "temporarily disables the threshold at the first training round to
/// obtain the maximum staleness"), it is weighted by Eq. 4, and the gate
/// holds its base version. [`Self::admits`] then decides for everything
/// held at once, and [`Self::commit`] moves all of it into the ledger with
/// its δ at commit. While the gate holds gradients only a commit could move
/// the clock, so δ at arrival and δ at commit are the same number.
///
/// ```
/// use stellaris_core::{AggregationRule, StalenessGate};
/// let mut gate = StalenessGate::new(AggregationRule::FullSync { n: 2 }, 0);
/// assert_eq!(gate.arrive(0), 1.0);
/// assert!(!gate.admits(), "a group of two waits for the second");
/// gate.arrive(0);
/// assert!(gate.admits());
/// assert_eq!(gate.commit(), &[0, 0]);
/// assert_eq!((gate.clock(), gate.updates(), gate.pending()), (1, 1, 0));
/// ```
#[derive(Debug)]
pub struct StalenessGate {
    rule: AggregationRule,
    /// The training round `k` of Eq. 3.
    round: u64,
    /// The largest staleness observed in round 0 (0 before any).
    delta_max: u64,
    /// The policy clock: the version the next commit builds on.
    clock: u64,
    /// The clock this gate started from.
    start: u64,
    /// Base versions of the gradients held since the last commit, in
    /// arrival order.
    held: Vec<u64>,
    /// The held gradients' staleness at the last commit (kept to reuse its
    /// allocation).
    staleness: Vec<u64>,
    ledger: StalenessRing,
}

impl StalenessGate {
    /// A gate running `rule` from policy version `clock`. A staleness-aware
    /// rule's decay factor `d` must be in `(0, 1]`.
    pub fn new(rule: AggregationRule, clock: u64) -> Self {
        if let AggregationRule::StalenessAware { d, .. } = rule {
            assert!(
                d > 0.0 && d <= 1.0,
                "decay factor must be in (0, 1], got {d}"
            );
        }
        Self {
            rule,
            round: 0,
            delta_max: 0,
            clock,
            start: clock,
            held: Vec::new(),
            staleness: Vec::new(),
            ledger: StalenessRing::new(),
        }
    }

    /// The policy clock: the starting version plus one per commit.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Commits so far.
    pub fn updates(&self) -> u64 {
        self.clock - self.start
    }

    /// Gradients held since the last commit.
    pub fn pending(&self) -> usize {
        self.held.len()
    }

    /// Observes a gradient computed against policy version `base`: in round
    /// 0 its staleness grows `δ_max`, the gate holds it until the next
    /// commit, and the return is its Eq. 4 weight.
    pub fn arrive(&mut self, base: u64) -> f32 {
        debug_assert!(
            base <= self.clock,
            "gradient from the future: base {base} > clock {} (staleness would go negative)",
            self.clock,
        );
        let delta = self.clock.saturating_sub(base);
        if self.round == 0 {
            self.delta_max = self.delta_max.max(delta);
        }
        self.held.push(base);
        match self.rule {
            AggregationRule::StalenessAware { v, .. } => staleness_weight(delta, v),
            AggregationRule::Softsync { .. } => staleness_weight(delta, 1),
            AggregationRule::Ssp { .. }
            | AggregationRule::PureAsync
            | AggregationRule::FullSync { .. } => 1.0,
        }
    }

    /// Eq. 3: whether everything held may commit now. Nothing held never
    /// commits.
    pub fn admits(&self) -> bool {
        let held = self.held.len();
        if held == 0 {
            return false;
        }
        match self.rule {
            AggregationRule::StalenessAware { .. } => self.beta().is_none_or(|beta| {
                let clock = self.clock;
                let stale: u64 = self.held.iter().map(|&b| clock.saturating_sub(b)).sum();
                #[expect(
                    clippy::cast_precision_loss,
                    reason = "staleness sums and counts stay far below 2^53, exact in f64"
                )]
                let mean = stale as f64 / held as f64;
                mean <= beta
            }),
            AggregationRule::Softsync { c } => held >= c,
            AggregationRule::FullSync { n } => held >= n,
            AggregationRule::Ssp { .. } | AggregationRule::PureAsync => true,
        }
    }

    /// Commits everything held, whatever the rule decides: records each
    /// gradient's staleness in the ledger, ticks the clock once and returns
    /// those stalenesses in arrival order (`H_c` is their count).
    pub fn commit(&mut self) -> &[u64] {
        let clock = self.clock;
        self.staleness.clear();
        self.staleness
            .extend(self.held.drain(..).map(|base| clock.saturating_sub(base)));
        for &delta in &self.staleness {
            self.ledger.push(delta);
        }
        self.clock += 1;
        &self.staleness
    }

    /// Ends a training round: tightens the Eq. 3 threshold. A
    /// staleness-aware gate publishes `β_k` and `δ_max` as the
    /// `stellaris_core_staleness_beta` and `..._delta_max` gauges, so
    /// traces show the schedule decaying.
    pub fn end_round(&mut self) {
        self.round = self.round.saturating_add(1);
        let reg = stellaris_telemetry::global();
        if let Some(beta) = self.beta() {
            reg.gauge("stellaris_core_staleness_beta").set(beta);
            #[expect(
                clippy::cast_precision_loss,
                reason = "u64 -> f64 is exact below 2^53; staleness counts policy updates"
            )]
            let dmax = self.delta_max as f64;
            reg.gauge("stellaris_core_staleness_delta_max").set(dmax);
        }
    }

    /// The current Eq. 3 threshold `β_k`: `None` unless the rule is
    /// staleness-aware and round 0, which is unbounded, has passed.
    pub fn beta(&self) -> Option<f64> {
        match self.rule {
            AggregationRule::StalenessAware { d, .. } if self.round > 0 => {
                Some(beta_k(self.delta_max, d, self.round))
            }
            _ => None,
        }
    }

    /// Every committed gradient's staleness at commit, in commit order.
    pub fn ledger(&self) -> &StalenessRing {
        &self.ledger
    }
}

#[cfg(test)]
#[allow(clippy::cast_precision_loss)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Eq. 3 holds a stale gradient until fresh ones pull the mean under
    /// `β_1`, and the ledger records each one's staleness at the commit,
    /// which is its staleness at arrival because nothing else moved the
    /// clock.
    #[test]
    fn gate_holds_until_the_mean_is_within_beta() {
        let mut gate = StalenessGate::new(AggregationRule::StalenessAware { d: 0.5, v: 3 }, 0);
        for base in 0..4 {
            assert_eq!(gate.arrive(base), 1.0, "fresh");
            assert!(gate.admits(), "round 0 is unbounded");
            assert_eq!(gate.commit(), &[0]);
        }
        assert_eq!(gate.arrive(0), staleness_weight(4, 3), "δ = 4 commits");
        assert!(gate.admits());
        gate.commit();
        gate.end_round();
        assert_eq!(gate.beta(), Some(2.0), "β_1 = 4 · 0.5");
        let clock = gate.clock();
        gate.arrive(clock - 3);
        assert!(!gate.admits(), "mean 3 > 2");
        gate.arrive(clock);
        assert!(gate.admits(), "mean 1.5 <= 2");
        assert_eq!(gate.clock(), clock, "only a commit moves the clock");
        assert_eq!(gate.commit(), &[3, 0]);
        assert_eq!((gate.updates(), gate.pending()), (6, 0));
        assert_eq!(gate.ledger().to_vec(), vec![0, 0, 0, 0, 4, 3, 0]);
    }

    /// A staleness-aware gate past round 0, whose one gradient was
    /// `delta_max` commits stale.
    fn calibrated(d: f64, delta_max: u64) -> StalenessGate {
        let mut gate = StalenessGate::new(AggregationRule::StalenessAware { d, v: 3 }, delta_max);
        gate.arrive(0);
        gate.commit();
        gate.end_round();
        gate
    }

    #[test]
    fn round0_is_unbounded_and_calibrates() {
        let mut gate = StalenessGate::new(AggregationRule::StalenessAware { d: 0.96, v: 3 }, 10);
        for delta in [3, 7, 5] {
            gate.arrive(10 - delta);
        }
        assert!(gate.admits(), "round 0 must admit a mean of 5");
        assert_eq!(gate.beta(), None);
        gate.end_round();
        assert_eq!(gate.beta(), Some(7.0 * 0.96), "δ_max = 7");
    }

    #[test]
    fn beta_decays_exponentially() {
        let mut gate = calibrated(0.5, 8);
        assert_eq!(gate.beta(), Some(4.0)); // 8 * 0.5^1
        gate.end_round();
        assert_eq!(gate.beta(), Some(2.0));
        let clock = gate.clock();
        gate.arrive(clock - 3);
        assert!(!gate.admits(), "mean 3 > 2");
        gate.arrive(clock - 1);
        assert!(gate.admits(), "mean 2 <= 2");
    }

    #[test]
    fn d_equal_one_keeps_threshold_flat() {
        // d = 1 "allows a pure asynchronous setting".
        let mut gate = calibrated(1.0, 6);
        for _ in 0..50 {
            gate.end_round();
        }
        assert_eq!(gate.beta(), Some(6.0));
    }

    #[test]
    fn observations_after_round0_do_not_move_delta_max() {
        let mut gate = calibrated(0.9, 4);
        gate.arrive(0);
        gate.commit();
        gate.end_round();
        assert_eq!(gate.beta(), Some(4.0 * 0.9f64.powf(2.0)));
    }

    #[test]
    fn no_observations_defaults_to_unit_delta_max() {
        let mut gate = StalenessGate::new(AggregationRule::StalenessAware { d: 0.9, v: 3 }, 0);
        gate.end_round();
        assert_eq!(gate.beta(), Some(0.9));
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn invalid_decay_rejected() {
        let _ = StalenessGate::new(AggregationRule::StalenessAware { d: 0.0, v: 3 }, 0);
    }

    #[test]
    fn beta_survives_rounds_beyond_i32_max() {
        // Regression: `powi(round as i32)` wrapped for rounds past
        // i32::MAX — a negative exponent turned the decaying threshold
        // into dmax / d^huge = +inf, admitting unboundedly stale gradients.
        let b = beta_k(50, 0.96, i32::MAX as u64 + 5);
        assert!(b.is_finite());
        assert!(
            (0.0..=50.0).contains(&b),
            "β must stay within [0, δ_max], got {b}"
        );
        // d = 1 must stay exactly flat no matter how far the round runs.
        assert_eq!(beta_k(6, 1.0, u64::MAX), 6.0);
    }

    #[test]
    fn nothing_held_never_admits() {
        for rule in [
            AggregationRule::stellaris_default(),
            AggregationRule::PureAsync,
            AggregationRule::FullSync { n: 1 },
        ] {
            assert!(!StalenessGate::new(rule, 0).admits());
        }
    }

    #[test]
    fn count_rules_wait_for_their_group() {
        let mut pure = StalenessGate::new(AggregationRule::PureAsync, 99);
        pure.arrive(0);
        assert!(pure.admits(), "pure async admits one gradient, δ = 99");
        let mut softsync = StalenessGate::new(AggregationRule::Softsync { c: 3 }, 2);
        for base in [2, 1] {
            softsync.arrive(base);
            assert!(!softsync.admits());
        }
        softsync.arrive(0);
        assert!(softsync.admits());
        let mut full = StalenessGate::new(AggregationRule::FullSync { n: 2 }, 7);
        assert_eq!(full.arrive(0), 1.0, "plain averaging");
        assert!(!full.admits());
        full.arrive(7);
        assert!(full.admits());
    }

    #[test]
    fn staleness_aware_gates_on_average() {
        let mut gate = calibrated(0.5, 8); // β = 4
        let clock = gate.clock();
        for delta in [3, 4, 5] {
            gate.arrive(clock - delta);
        }
        assert!(gate.admits(), "avg 4 <= 4");
        gate.commit();
        let clock = gate.clock();
        for _ in 0..2 {
            gate.arrive(clock - 8);
        }
        assert!(!gate.admits(), "avg 8 > 4");
    }

    #[test]
    fn weights_follow_rules() {
        let weight = |rule, delta| StalenessGate::new(rule, delta).arrive(0);
        let st = weight(AggregationRule::StalenessAware { d: 0.96, v: 3 }, 8);
        assert!((st - 0.5).abs() < 1e-6);
        let ss = weight(AggregationRule::Softsync { c: 2 }, 4);
        assert!((ss - 0.25).abs() < 1e-6, "softsync uses 1/δ");
        assert_eq!(weight(AggregationRule::PureAsync, 100), 1.0);
        assert_eq!(weight(AggregationRule::Ssp { bound: 2 }, 100), 1.0);
    }

    #[test]
    fn weight_matches_eq4() {
        assert_eq!(staleness_weight(0, 3), 1.0);
        assert!((staleness_weight(8, 3) - 0.5).abs() < 1e-6, "8^(1/3) = 2");
        assert!((staleness_weight(4, 2) - 0.5).abs() < 1e-6, "4^(1/2) = 2");
        assert!((staleness_weight(5, 1) - 0.2).abs() < 1e-6, "v=1 is 1/δ");
    }

    #[test]
    fn larger_v_softens_modulation() {
        // "By setting larger v, Stellaris allows policy updates to be less
        // modulated by staleness" (§VIII-E).
        for delta in [2u64, 5, 20] {
            assert!(staleness_weight(delta, 4) > staleness_weight(delta, 2));
            assert!(staleness_weight(delta, 2) > staleness_weight(delta, 1));
        }
    }

    proptest! {
        #[test]
        fn prop_beta_monotonically_nonincreasing(d in 0.5f64..1.0, dmax in 1u64..100) {
            let mut gate = calibrated(d, dmax);
            let mut prev = f64::INFINITY;
            for _ in 0..30 {
                let b = gate.beta().unwrap();
                prop_assert!(b <= prev + 1e-9);
                prop_assert!(b > 0.0);
                prev = b;
                gate.end_round();
            }
        }

        #[test]
        fn prop_beta_bounded_for_any_round(
            d in 0.01f64..1.0,
            dmax in 1u64..1000,
            rounds in 1u64..(1u64 << 40),
        ) {
            let b = beta_k(dmax, d, rounds);
            prop_assert!(b.is_finite());
            prop_assert!(b >= 0.0);
            prop_assert!(b <= dmax as f64 + 1e-9);
        }

        #[test]
        fn prop_weight_in_unit_interval(delta in 0u64..10_000, v in 1u32..6) {
            let w = staleness_weight(delta, v);
            prop_assert!(w > 0.0 && w <= 1.0);
        }

        #[test]
        fn prop_weight_monotone_in_delta(a in 1u64..1000, b in 1u64..1000, v in 1u32..6) {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(staleness_weight(lo, v) >= staleness_weight(hi, v));
        }
    }
}
