//! Global importance-sampling truncation (§V-A, Eq. 2).
//!
//! Each asynchronous learner holds a unique policy π_θi; clipping only its
//! *local* ratio π_θi/μ_θ leaves the cross-learner ratios unbounded and the
//! aggregated update can drift (Fig. 5a). Stellaris therefore truncates with
//! a *global view*: `R' = min(|min_i(π_θi/μ_θ)|, ρ)`, the minimum
//! learner/actor ratio observed across the learner group during the
//! aggregation phase, capped at ρ.
//!
//! Implementation: a learner can only evaluate its own policy on its own
//! batch, so every learner publishes the mean raw (uncapped) |ratio| of its
//! most recent mini-batch to this board (DESIGN.md §5a); before computing
//! gradients, a learner reads the group minimum of those means and uses
//! `min(group_min, ρ)` as the ratio cap inside its surrogate objective (the
//! `ratio_cap` parameter of [`stellaris_rl::ppo_gradients`]).

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use std::collections::HashMap;

use parking_lot::RwLock;

/// Shared cross-learner ratio board.
///
/// ```
/// use stellaris_core::RatioBoard;
/// let board = RatioBoard::new(1.0);
/// board.publish(0, 0.8);
/// board.publish(1, 1.7);
/// assert_eq!(board.cap(), Some(0.8)); // min(min_i ratio, ρ)
/// ```
pub struct RatioBoard {
    /// Truncation threshold ρ (paper default 1.0).
    pub rho: f32,
    enabled: bool,
    ratios: RwLock<HashMap<usize, f32>>,
}

impl RatioBoard {
    /// Creates an enabled board with threshold `rho`.
    pub fn new(rho: f32) -> Self {
        assert!(rho > 0.0, "truncation threshold must be positive");
        Self {
            rho,
            enabled: true,
            ratios: RwLock::new(HashMap::new()),
        }
    }

    /// A disabled board: [`RatioBoard::cap`] returns `None`, so learners run
    /// vanilla (local-clip-only) objectives. Used by the Fig. 11(b) ablation.
    pub fn disabled() -> Self {
        Self {
            rho: f32::INFINITY,
            enabled: false,
            ratios: RwLock::new(HashMap::new()),
        }
    }

    /// Publishes learner `id`'s latest per-batch mean raw |ratio|.
    pub fn publish(&self, learner_id: usize, mean_abs_ratio: f32) {
        if !self.enabled || !mean_abs_ratio.is_finite() {
            return;
        }
        self.ratios.write().insert(learner_id, mean_abs_ratio.abs());
    }

    /// Eq. 2: the current global cap `min(|min_i(π_θi/μ_θ)|, ρ)`, or `None`
    /// when truncation is disabled. With no published ratios yet the cap is
    /// just ρ.
    pub fn cap(&self) -> Option<f32> {
        if !self.enabled {
            return None;
        }
        let ratios = self.ratios.read();
        let group_min = ratios.values().fold(f32::INFINITY, |m, &r| m.min(r));
        let cap = group_min.min(self.rho);
        debug_assert!(
            cap <= self.rho && cap >= 0.0,
            "Eq. 2 cap must stay within [0, rho={}]: got {cap}",
            self.rho
        );
        Some(cap)
    }
}

/// Theorem 2's reward-improvement lower bound:
/// `J(π_i) - J(μ) ≥ -γ ε √(2 ln ρ) / (1-γ)²`.
/// Returns the bound's magnitude (the worst-case regression) for given
/// `gamma`, advantage bound `epsilon` and truncation threshold `rho >= 1`.
pub fn reward_improvement_bound(gamma: f32, epsilon: f32, rho: f32) -> f32 {
    assert!((0.0..1.0).contains(&gamma), "gamma must be in [0,1)");
    assert!(rho >= 1.0, "bound is stated for rho >= 1");
    gamma * epsilon * (2.0 * rho.ln()).max(0.0).sqrt() / ((1.0 - gamma) * (1.0 - gamma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_board_caps_at_rho() {
        let b = RatioBoard::new(1.0);
        assert_eq!(b.cap(), Some(1.0));
    }

    #[test]
    fn cap_is_group_minimum_when_below_rho() {
        let b = RatioBoard::new(1.0);
        b.publish(0, 0.9);
        b.publish(1, 0.6);
        b.publish(2, 1.4);
        assert_eq!(b.cap(), Some(0.6));
    }

    #[test]
    fn cap_never_exceeds_rho() {
        let b = RatioBoard::new(1.0);
        b.publish(0, 5.0);
        b.publish(1, 3.0);
        assert_eq!(b.cap(), Some(1.0));
    }

    #[test]
    fn republish_overwrites() {
        let b = RatioBoard::new(1.0);
        b.publish(0, 0.2);
        b.publish(0, 0.9);
        assert_eq!(b.cap(), Some(0.9));
    }

    #[test]
    fn disabled_board_returns_none() {
        let b = RatioBoard::disabled();
        b.publish(0, 0.1);
        assert_eq!(b.cap(), None);
    }

    #[test]
    fn non_finite_publishes_ignored() {
        let b = RatioBoard::new(1.0);
        b.publish(0, f32::NAN);
        b.publish(1, f32::INFINITY);
        assert_eq!(b.cap(), Some(1.0), "garbage must not poison the cap");
    }

    #[test]
    fn theorem2_bound_zero_at_rho_one() {
        // ln(1) = 0: truncating at ρ=1 guarantees no reward regression.
        assert_eq!(reward_improvement_bound(0.99, 1.0, 1.0), 0.0);
    }

    #[test]
    fn theorem2_bound_grows_with_rho_and_gamma() {
        let b1 = reward_improvement_bound(0.9, 1.0, 1.2);
        let b2 = reward_improvement_bound(0.9, 1.0, 2.0);
        assert!(b2 > b1);
        let g1 = reward_improvement_bound(0.5, 1.0, 1.5);
        let g2 = reward_improvement_bound(0.95, 1.0, 1.5);
        assert!(g2 > g1, "looser discount amplifies the bound");
    }

    proptest! {
        #[test]
        fn prop_cap_bounded_by_rho_and_min(
            ratios in proptest::collection::vec(0.01f32..10.0, 1..16),
            rho in 0.5f32..2.0,
        ) {
            let b = RatioBoard::new(rho);
            for (i, &r) in ratios.iter().enumerate() {
                b.publish(i, r);
            }
            let cap = b.cap().unwrap();
            let min = ratios.iter().cloned().fold(f32::INFINITY, f32::min);
            prop_assert!(cap <= rho + 1e-6);
            prop_assert!(cap <= min + 1e-6);
            prop_assert!((cap - min.min(rho)).abs() < 1e-6);
        }
    }
}
