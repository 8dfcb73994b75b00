//! Gradient-aggregation rules: Stellaris' staleness-aware delay (§V-C) and
//! the three baselines of the Fig. 11(a) ablation — Softsync, Stale
//! Synchronous Parallel and pure asynchrony — plus fully synchronous
//! aggregation for the serverful baselines.

use stellaris_nn::Tensor;

/// When (and how) queued gradients may be aggregated into a policy update;
/// [`crate::staleness::StalenessGate`] applies the rule.
#[derive(Clone, Debug)]
pub enum AggregationRule {
    /// Stellaris (§V-C): delay aggregation until the queue's *average*
    /// staleness drops below the decaying threshold `β_k = δ_max · d^k`;
    /// gradients are weighted by `1/δ^(1/v)` (Eq. 4).
    StalenessAware {
        /// Exponential decay factor `d` (paper default 0.96).
        d: f64,
        /// Learning-rate smoothness root `v` (paper default 3).
        v: u32,
    },
    /// Softsync (Zhang et al., IJCAI'16): aggregate every `c` gradients,
    /// each weighted by `1/δ` (their α(δ) = α₀/δ rule, i.e. `v = 1`).
    Softsync {
        /// Gradients per aggregation.
        c: usize,
    },
    /// Stale Synchronous Parallel (Ho et al., NIPS'13): gradients apply
    /// immediately but *dispatch* is throttled so no learner runs more than
    /// `bound` clocks ahead of the slowest in-flight computation (see
    /// [`SspThrottle`]).
    Ssp {
        /// Maximum clock lead.
        bound: u64,
    },
    /// No staleness control at all: every gradient applies immediately.
    PureAsync,
    /// Fully synchronous: wait for `n` gradients, plain average (the
    /// multi-learner scheme of RLlib-style baselines).
    FullSync {
        /// Learner-group size.
        n: usize,
    },
}

impl AggregationRule {
    /// The paper's Stellaris defaults (`d = 0.96`, `v = 3`, §VIII-A).
    pub fn stellaris_default() -> Self {
        AggregationRule::StalenessAware { d: 0.96, v: 3 }
    }

    /// Display name for logs and figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationRule::StalenessAware { .. } => "stellaris",
            AggregationRule::Softsync { .. } => "softsync",
            AggregationRule::Ssp { .. } => "ssp",
            AggregationRule::PureAsync => "pure-async",
            AggregationRule::FullSync { .. } => "full-sync",
        }
    }

    /// SSP dispatch bound, if this rule throttles dispatch.
    pub fn ssp_bound(&self) -> Option<u64> {
        match self {
            AggregationRule::Ssp { bound } => Some(*bound),
            _ => None,
        }
    }
}

/// Pre-allocated accumulator for weighted gradient sums.
///
/// The parameter function folds every arriving gradient into these buffers
/// with axpy updates (`buf += w * g`), scales the sum by `1/H_c` at the commit,
/// and [`GradAccumulator::reset`] zeroes them in place, so steady-state
/// aggregation performs no heap allocation and holds one gradient's worth of
/// memory however many gradients a commit waits for — the same discipline as
/// the nn gradient arena (DESIGN.md §11).
pub struct GradAccumulator {
    bufs: Vec<Tensor>,
}

impl GradAccumulator {
    /// Creates zeroed buffers matching the parameter `shapes`.
    pub fn new(shapes: &[Vec<usize>]) -> Self {
        Self {
            bufs: shapes.iter().map(|s| Tensor::zeros(s)).collect(),
        }
    }

    /// Zeroes all buffers in place, keeping their allocations.
    pub fn reset(&mut self) {
        for b in &mut self.bufs {
            b.data_mut().fill(0.0);
        }
    }

    /// Folds one gradient list in: `bufs[i] += w * grads[i]`.
    pub fn accumulate(&mut self, grads: &[Tensor], w: f32) {
        assert_eq!(grads.len(), self.bufs.len(), "gradient layout mismatch");
        for (acc, grad) in self.bufs.iter_mut().zip(grads.iter()) {
            assert_eq!(acc.shape(), grad.shape(), "gradient shape mismatch");
            acc.axpy(w, grad);
        }
    }

    /// Divides every accumulated sum by `h` in place (one correctly rounded
    /// division per element).
    pub fn divide(&mut self, h: f32) {
        for b in &mut self.bufs {
            b.data_mut().iter_mut().for_each(|x| *x /= h);
        }
    }

    /// The accumulated weighted sums.
    pub fn grads(&self) -> &[Tensor] {
        &self.bufs
    }

    /// Number of parameter tensors tracked.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// True when tracking no tensors.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }
}

/// Dispatch-side throttle implementing SSP semantics: a learner may start a
/// new gradient computation only while the parameter clock is within
/// `bound` of the oldest still-in-flight computation's base clock.
pub struct SspThrottle {
    bound: u64,
    inflight: parking_lot::Mutex<Vec<u64>>,
    cond: parking_lot::Condvar,
    /// Prefetched at construction so `begin` never touches the metrics
    /// registry (its own lock) while `inflight` is held.
    throttled: std::sync::Arc<stellaris_telemetry::Counter>,
}

impl SspThrottle {
    /// Creates a throttle with the given clock bound.
    pub fn new(bound: u64) -> Self {
        Self {
            bound,
            inflight: parking_lot::Mutex::new(Vec::new()),
            cond: parking_lot::Condvar::new(),
            throttled: stellaris_telemetry::global().counter("stellaris_core_ssp_throttled_total"),
        }
    }

    /// Blocks until starting at `clock` keeps the lead within the bound,
    /// then registers the computation. Returns a guard token (`clock`).
    /// Throttled dispatches are counted in
    /// `stellaris_core_ssp_throttled_total` and traced as `core.ssp_wait`
    /// spans so SSP's dispatch stalls are visible in the latency breakdown.
    pub fn begin(&self, clock: u64) -> u64 {
        // Declared before the guard so the span outlives it on every path.
        let mut wait_span: Option<stellaris_telemetry::SpanGuard> = None;
        let mut inflight = self.inflight.lock();
        loop {
            let oldest = match self.admit(&mut inflight, clock) {
                Ok(token) => return token,
                Err(oldest) => oldest,
            };
            if wait_span.is_none() {
                // Span creation locks the trace sink; release `inflight`
                // around it and re-check the bound after re-acquiring.
                drop(inflight);
                self.throttled.inc();
                wait_span = Some(stellaris_telemetry::span_with(
                    "core.ssp_wait",
                    vec![("clock", clock.into()), ("oldest", oldest.into())],
                ));
                inflight = self.inflight.lock();
                continue;
            }
            self.cond.wait(&mut inflight);
        }
    }

    /// SSP's admission rule: registers a computation at `clock` (its token)
    /// when nothing is in flight or `clock` leads the oldest in-flight base
    /// clock by at most `bound`; otherwise returns that oldest clock.
    fn admit(&self, inflight: &mut Vec<u64>, clock: u64) -> Result<u64, u64> {
        let oldest = inflight.iter().min().copied().unwrap_or(clock);
        if clock.saturating_sub(oldest) <= self.bound {
            inflight.push(clock);
            Ok(clock)
        } else {
            Err(oldest)
        }
    }

    /// Marks a computation finished, potentially unblocking fast learners.
    pub fn end(&self, token: u64) {
        let mut inflight = self.inflight.lock();
        if let Some(pos) = inflight.iter().position(|&c| c == token) {
            inflight.swap_remove(pos);
        }
        self.cond.notify_all();
    }

    /// Number of in-flight computations.
    pub fn inflight(&self) -> usize {
        self.inflight.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(AggregationRule::stellaris_default().name(), "stellaris");
        assert_eq!(AggregationRule::PureAsync.name(), "pure-async");
        assert_eq!(AggregationRule::Softsync { c: 4 }.name(), "softsync");
        assert_eq!(AggregationRule::Ssp { bound: 3 }.name(), "ssp");
        assert_eq!(AggregationRule::FullSync { n: 4 }.name(), "full-sync");
    }

    #[test]
    fn grad_accumulator_weighted_sum_and_reset() {
        let shapes = vec![vec![2], vec![3]];
        let mut acc = GradAccumulator::new(&shapes);
        assert_eq!(acc.len(), 2);
        assert!(!acc.is_empty());
        let g = vec![Tensor::full(&[2], 1.0), Tensor::full(&[3], 2.0)];
        acc.accumulate(&g, 0.5);
        acc.accumulate(&g, 0.25);
        assert_eq!(acc.grads()[0].data(), &[0.75, 0.75]);
        assert_eq!(acc.grads()[1].data(), &[1.5, 1.5, 1.5]);
        acc.reset();
        assert_eq!(acc.grads()[1].data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn grad_accumulator_rejects_shape_drift() {
        let mut acc = GradAccumulator::new(&[vec![2]]);
        acc.accumulate(&[Tensor::full(&[3], 1.0)], 1.0);
    }

    /// One non-blocking pass of [`SspThrottle::begin`]'s admission rule.
    fn try_begin(t: &SspThrottle, clock: u64) -> Option<u64> {
        t.admit(&mut t.inflight.lock(), clock).ok()
    }

    #[test]
    fn ssp_throttle_blocks_fast_learner() {
        let t = SspThrottle::new(2);
        let a = try_begin(&t, 0).unwrap(); // slow computation at clock 0
        assert!(try_begin(&t, 2).is_some(), "within bound");
        assert!(try_begin(&t, 5).is_none(), "3 ahead of oldest > bound 2");
        t.end(a);
        assert!(try_begin(&t, 5).is_none(), "oldest inflight is now clock 2");
        assert!(try_begin(&t, 4).is_some());
    }

    #[test]
    fn ssp_begin_blocks_then_releases() {
        use std::sync::Arc;
        let t = Arc::new(SspThrottle::new(1));
        let tok = try_begin(&t, 0).unwrap();
        let waiter = {
            let t = t.clone();
            std::thread::spawn(move || {
                let tk = t.begin(5); // must wait until clock-0 finishes
                t.end(tk);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(t.inflight(), 1, "waiter must still be blocked");
        t.end(tok);
        waiter.join().unwrap();
        assert_eq!(t.inflight(), 0);
    }

    /// Calls `run` with every interleaving of threads that take `steps[t]`
    /// steps each, as the thread that takes each step in turn; returns how
    /// many interleavings there were.
    fn for_each_interleaving(steps: &[usize], run: &mut dyn FnMut(&[usize])) -> usize {
        fn go(left: &mut [usize], order: &mut Vec<usize>, run: &mut dyn FnMut(&[usize])) -> usize {
            if left.iter().all(|&n| n == 0) {
                run(order);
                return 1;
            }
            let mut count = 0;
            for t in 0..left.len() {
                if left[t] > 0 {
                    left[t] -= 1;
                    order.push(t);
                    count += go(left, order, run);
                    order.pop();
                    left[t] += 1;
                }
            }
            count
        }
        go(&mut steps.to_vec(), &mut Vec::new(), run)
    }

    /// Three learners at clocks 1, 2 and 5 each try to begin and then `end`
    /// (if admitted), while the slow computation at clock 0 ends at any
    /// point. Each call is one critical section of the throttle's lock, so
    /// the 7!/(2!·2!·2!) = 630 interleavings are every schedule; in each, a
    /// clock is admitted exactly when nothing is in flight or it is within
    /// `bound` of the oldest clock in flight.
    #[test]
    fn every_ssp_schedule_keeps_admissions_within_the_bound() {
        const BOUND: u64 = 2;
        const CLOCKS: [u64; 3] = [1, 2, 5];
        let schedules = for_each_interleaving(&[2, 2, 2, 1], &mut |order| {
            let t = SspThrottle::new(BOUND);
            let slow = try_begin(&t, 0).expect("an empty throttle admits");
            let mut inflight = vec![0u64];
            let mut tokens = [None; 3];
            let mut begun = [false; 3];
            for &l in order {
                if l == 3 {
                    t.end(slow);
                    inflight.retain(|&c| c != 0);
                } else if !begun[l] {
                    begun[l] = true;
                    let clock = CLOCKS[l];
                    let oldest = inflight.iter().min().copied();
                    let within = oldest.is_none_or(|o| clock <= o + BOUND);
                    tokens[l] = try_begin(&t, clock);
                    assert_eq!(tokens[l].is_some(), within, "{order:?}: clock {clock}");
                    if within {
                        inflight.push(clock);
                    }
                } else if let Some(token) = tokens[l].take() {
                    t.end(token);
                    inflight.retain(|&c| c != token);
                }
                assert_eq!(t.inflight(), inflight.len(), "{order:?}");
            }
            assert_eq!(t.inflight(), 0, "{order:?}: all tokens returned");
        });
        assert_eq!(schedules, 630);
    }
}
