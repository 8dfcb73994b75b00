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

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

/// The adaptive staleness-threshold schedule of Eq. 3.
///
/// ```
/// use stellaris_core::StalenessSchedule;
/// let mut s = StalenessSchedule::new(0.5);
/// s.observe(8);            // calibration round discovers δ_max = 8
/// assert!(s.admits(1e9));  // round 0 is unbounded
/// s.advance_round();
/// assert_eq!(s.beta(), Some(4.0)); // β_1 = 8 · 0.5
/// assert!(!s.admits(5.0));
/// ```
#[derive(Clone, Debug)]
pub struct StalenessSchedule {
    /// Exponential decay factor `d ∈ (0, 1]`.
    pub d: f64,
    /// Maximum observed staleness during the unbounded first round.
    delta_max: Option<f64>,
    /// Current training round `k`.
    round: u64,
}

impl StalenessSchedule {
    /// Creates the schedule with decay factor `d` (paper default 0.96).
    pub fn new(d: f64) -> Self {
        assert!(
            d > 0.0 && d <= 1.0,
            "decay factor must be in (0, 1], got {d}"
        );
        Self {
            d,
            delta_max: None,
            round: 0,
        }
    }

    /// Feeds an observed staleness value; during round 0 this grows the
    /// `δ_max` estimate (the paper "temporarily disables the threshold at
    /// the first training round to obtain the maximum staleness").
    pub fn observe(&mut self, staleness: u64) {
        if self.round == 0 {
            #[expect(
                clippy::cast_precision_loss,
                reason = "u64 -> f64 is exact below 2^53; staleness counts policy updates"
            )]
            let s = staleness as f64;
            self.delta_max = Some(self.delta_max.map_or(s, |m| m.max(s)));
        }
    }

    /// Current threshold `β_k`, or `None` while still calibrating (round 0).
    #[expect(
        clippy::cast_precision_loss,
        reason = "u64 -> f64 is exact below 2^53, merely imprecise above"
    )]
    pub fn beta(&self) -> Option<f64> {
        if self.round == 0 {
            return None;
        }
        let dmax = self.delta_max.unwrap_or(0.0).max(1.0);
        // The previous `powi(self.round as i32)` *wrapped* for rounds past
        // i32::MAX, flipping β to dmax/d^huge = +inf.
        Some(dmax * self.d.powf(self.round as f64))
    }

    /// Advances to the next training round, tightening the threshold. The
    /// current `β_k` and calibrated `δ_max` are published as gauges
    /// (`stellaris_core_staleness_beta` / `..._delta_max`) so traces show
    /// the Eq. 3 schedule decaying.
    pub fn advance_round(&mut self) {
        self.advance_rounds(1);
    }

    /// Advances `n` rounds at once (a cheap skip for long-horizon schedules
    /// and tests), publishing the gauges once at the end.
    pub fn advance_rounds(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.round = self.round.saturating_add(n);
        let reg = stellaris_telemetry::global();
        if let Some(beta) = self.beta() {
            reg.gauge("stellaris_core_staleness_beta").set(beta);
        }
        if let Some(dmax) = self.delta_max {
            reg.gauge("stellaris_core_staleness_delta_max").set(dmax);
        }
    }

    /// Current round index.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The calibrated `δ_max`, if round 0 has produced one.
    pub fn delta_max(&self) -> Option<f64> {
        self.delta_max
    }

    /// Whether a queue with the given average staleness may aggregate now.
    pub fn admits(&self, avg_staleness: f64) -> bool {
        match self.beta() {
            None => true, // calibration round: unbounded
            Some(beta) => avg_staleness <= beta,
        }
    }
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

#[cfg(test)]
#[allow(clippy::cast_precision_loss)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round0_is_unbounded_and_calibrates() {
        let mut s = StalenessSchedule::new(0.96);
        assert!(s.admits(1e9), "round 0 must admit anything");
        s.observe(3);
        s.observe(7);
        s.observe(5);
        assert_eq!(s.delta_max(), Some(7.0));
        assert_eq!(s.beta(), None);
    }

    #[test]
    fn beta_decays_exponentially() {
        let mut s = StalenessSchedule::new(0.5);
        s.observe(8);
        s.advance_round();
        assert_eq!(s.beta(), Some(4.0)); // 8 * 0.5^1
        s.advance_round();
        assert_eq!(s.beta(), Some(2.0));
        assert!(s.admits(1.9));
        assert!(!s.admits(2.1));
    }

    #[test]
    fn d_equal_one_keeps_threshold_flat() {
        // d = 1 "allows a pure asynchronous setting".
        let mut s = StalenessSchedule::new(1.0);
        s.observe(6);
        for _ in 0..50 {
            s.advance_round();
        }
        assert_eq!(s.beta(), Some(6.0));
    }

    #[test]
    fn observations_after_round0_do_not_move_delta_max() {
        let mut s = StalenessSchedule::new(0.9);
        s.observe(4);
        s.advance_round();
        s.observe(100);
        assert_eq!(s.delta_max(), Some(4.0));
    }

    #[test]
    fn no_observations_defaults_to_unit_delta_max() {
        let mut s = StalenessSchedule::new(0.9);
        s.advance_round();
        assert_eq!(s.beta(), Some(0.9));
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn invalid_decay_rejected() {
        let _ = StalenessSchedule::new(0.0);
    }

    #[test]
    fn beta_survives_rounds_beyond_i32_max() {
        // Regression: `powi(self.round as i32)` wrapped for rounds past
        // i32::MAX — a negative exponent turned the decaying threshold
        // into dmax / d^huge = +inf, admitting unboundedly stale gradients.
        let mut s = StalenessSchedule::new(0.96);
        s.observe(50);
        s.advance_rounds(i32::MAX as u64 + 5);
        let b = s.beta().unwrap();
        assert!(b.is_finite());
        assert!(
            (0.0..=50.0).contains(&b),
            "β must stay within [0, δ_max], got {b}"
        );
        // d = 1 must stay exactly flat no matter how far the round runs.
        let mut flat = StalenessSchedule::new(1.0);
        flat.observe(6);
        flat.advance_rounds(u64::MAX);
        assert_eq!(flat.beta(), Some(6.0));
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
            let mut s = StalenessSchedule::new(d);
            s.observe(dmax);
            let mut prev = f64::INFINITY;
            for _ in 0..30 {
                s.advance_round();
                let b = s.beta().unwrap();
                prop_assert!(b <= prev + 1e-9);
                prop_assert!(b > 0.0);
                prev = b;
            }
        }

        #[test]
        fn prop_beta_bounded_for_any_round(
            d in 0.01f64..1.0,
            dmax in 1u64..1000,
            rounds in 1u64..(1u64 << 40),
        ) {
            let mut s = StalenessSchedule::new(d);
            s.observe(dmax);
            s.advance_rounds(rounds);
            let b = s.beta().unwrap();
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
