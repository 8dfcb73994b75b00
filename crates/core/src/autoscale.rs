//! Dynamic learner orchestration (§II-D / §V-B): "multi-learner allocation
//! should be scalable and dynamic to achieve efficient learning for
//! serverless DRL training."
//!
//! The autoscaler sizes the learner pool from the staged backlog: enough
//! learners that each has a couple of mini-batches staged, never more than
//! the GPU slots allow. Scaling down releases GPU slots (raising
//! utilisation, Fig. 3a's right axis); scaling up cuts learning time at
//! high actor counts (the left axis). The in-process fleet asks it once per
//! batch of staged mini-batches — a round, or a lock-step wave.

/// Backlog-driven learner-pool autoscaler.
#[derive(Debug)]
pub struct LearnerAutoscaler {
    min: usize,
    max: usize,
    /// Target staged mini-batches per active learner.
    pub backlog_per_learner: usize,
}

impl LearnerAutoscaler {
    /// Creates an autoscaler bounded to `[min, max]` active learners.
    pub fn new(min: usize, max: usize) -> Self {
        assert!(
            min >= 1 && min <= max,
            "invalid autoscaler bounds {min}..{max}"
        );
        Self {
            min,
            max,
            backlog_per_learner: 2,
        }
    }

    /// A disabled autoscaler pinned to `n` learners.
    pub fn pinned(n: usize) -> Self {
        Self::new(n.max(1), n.max(1))
    }

    /// The size the pool *should* be for a given backlog.
    pub fn decide(&self, backlog: usize) -> usize {
        let want = backlog.div_ceil(self.backlog_per_learner.max(1));
        want.clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scales_with_backlog() {
        let a = LearnerAutoscaler::new(1, 8);
        assert_eq!(a.decide(0), 1);
        assert_eq!(a.decide(1), 1);
        assert_eq!(a.decide(4), 2);
        assert_eq!(a.decide(16), 8);
        assert_eq!(a.decide(1000), 8, "clamped to GPU slots");
    }

    #[test]
    fn pinned_never_moves() {
        let a = LearnerAutoscaler::pinned(3);
        assert_eq!(a.decide(0), 3);
        assert_eq!(a.decide(1000), 3);
    }

    #[test]
    #[should_panic(expected = "invalid autoscaler bounds")]
    fn rejects_inverted_bounds() {
        let _ = LearnerAutoscaler::new(5, 2);
    }

    proptest! {
        #[test]
        fn prop_decision_always_in_bounds(
            min in 1usize..4,
            extra in 0usize..8,
            backlog in 0usize..10_000,
        ) {
            let a = LearnerAutoscaler::new(min, min + extra);
            let d = a.decide(backlog);
            prop_assert!(d >= min && d <= min + extra);
        }

        #[test]
        fn prop_monotone_in_backlog(b1 in 0usize..500, b2 in 0usize..500) {
            let a = LearnerAutoscaler::new(1, 16);
            let (lo, hi) = (b1.min(b2), b1.max(b2));
            prop_assert!(a.decide(lo) <= a.decide(hi));
        }
    }
}
