//! Deterministic, seeded fault injection for the serverless substrate.
//!
//! The paper's tolerance claims (§V-B, §V-C) — stragglers and restarted
//! learners are absorbed by staleness-aware aggregation — only mean
//! something if the system actually has failure paths to absorb. This
//! module provides the controlled adversary: a [`FaultPlan`] seeded from
//! the run's master seed decides, via independent per-site ChaCha streams,
//! whether an invocation fails at the platform level, crashes mid-work,
//! straggles (injected delay), or whether a worker-socket frame
//! (`RemoteFleet`) is dropped or corrupted in flight. Same seed → same
//! decision sequence, so chaos runs are reproducible and regressions
//! bisectable.
//!
//! [`RetryPolicy`] is the companion recovery knob: exponential backoff with
//! seeded jitter (drawn from the plan, not the wall clock, so retry timing
//! decisions are deterministic too).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stellaris_telemetry::{Counter, Histogram};

/// Probabilities and knobs for every injectable fault class.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for all fault decision streams (independent of the training
    /// seed so chaos can be varied while the workload stays fixed).
    pub seed: u64,
    /// Probability an invocation fails at the platform level before the
    /// work runs (container OOM, scheduler eviction).
    pub invoke_failure: f64,
    /// Probability the work crashes mid-invocation: the function body runs
    /// (side effects happen) but the container dies before returning its
    /// result — the "gradient computed but never submitted" case.
    pub invoke_crash: f64,
    /// Probability an invocation straggles (sleeps `straggler_delay` before
    /// its work).
    pub straggler: f64,
    /// Injected straggler delay.
    pub straggler_delay: Duration,
    /// Probability a worker-socket frame (`RemoteFleet`) is dropped in
    /// flight.
    pub frame_drop: f64,
    /// Probability a worker-socket frame (`RemoteFleet`) is corrupted in
    /// flight (modelled as deterministic truncation, which the
    /// length-prefixed codec always detects; random byte flips could decode
    /// "successfully").
    pub frame_corrupt: f64,
}

impl FaultConfig {
    /// No faults at all (the default for every preset).
    pub fn off() -> Self {
        Self {
            seed: 0,
            invoke_failure: 0.0,
            invoke_crash: 0.0,
            straggler: 0.0,
            straggler_delay: Duration::ZERO,
            frame_drop: 0.0,
            frame_corrupt: 0.0,
        }
    }

    /// The standard chaos preset used by the seeded chaos e2e: 20%
    /// invocation failures, 5% mid-work crashes, 20% stragglers, 20% frame
    /// drops and 10% frame corruption.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            invoke_failure: 0.2,
            invoke_crash: 0.05,
            straggler: 0.2,
            straggler_delay: Duration::from_millis(3),
            frame_drop: 0.2,
            frame_corrupt: 0.1,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Retry policy for failed invocations and transport errors: exponential
/// backoff (`base · 2^attempt`, capped at `cap`) with ±50% seeded jitter.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff for the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// Backoff before retry number `attempt` (0-based), scaled into
    /// `[0.5, 1.5)×` the exponential target by `jitter ∈ [0, 1)`.
    pub fn backoff(&self, attempt: u32, jitter: f64) -> Duration {
        // Largest f64 strictly below 1.5. The clamp must act on the *scale*,
        // not the jitter: `0.5 + (1.0 - ε/2)` is exactly halfway between
        // representable values and round-to-even lands it back on 1.5, so a
        // jitter-level clamp silently re-admits the excluded endpoint the
        // docs promise is out of range.
        const MAX_SCALE: f64 = 1.5 - f64::EPSILON;
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.cap.max(self.base));
        capped.mul_f64((0.5 + jitter.clamp(0.0, 1.0)).min(MAX_SCALE))
    }
}

impl Default for RetryPolicy {
    /// Three retries, 2 ms base, 50 ms cap — tuned so chaos tests stay
    /// fast while still exercising multi-attempt recovery.
    fn default() -> Self {
        Self {
            max_retries: 3,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
        }
    }
}

/// Plain-value snapshot of everything a [`FaultPlan`] injected and every
/// recovery it observed (reported in `TrainResult::faults`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Platform-level invocation failures injected.
    pub injected_failures: u64,
    /// Mid-work crashes injected.
    pub injected_crashes: u64,
    /// Stragglers injected.
    pub injected_stragglers: u64,
    /// Worker-socket frames (`RemoteFleet`) dropped.
    pub frames_dropped: u64,
    /// Worker-socket frames (`RemoteFleet`) corrupted.
    pub frames_corrupted: u64,
    /// Retries performed (invocations + transport).
    pub retries: u64,
    /// Operations that exhausted their retry budget.
    pub exhausted: u64,
}

impl FaultReport {
    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected_failures
            + self.injected_crashes
            + self.injected_stragglers
            + self.frames_dropped
            + self.frames_corrupted
    }
}

/// The faults drawn for one call, injected into its first attempt only so
/// that a retry runs clean. Each venue draws the classes it can apply
/// ([`FaultPlan::draw_invocation`], [`FaultPlan::draw_request`]), on the
/// thread that deals the calls and in call order, so a run's faults are a
/// function of the fault seed however its workers interleave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults {
    /// The invocation fails at the platform level before its work runs.
    pub fail: bool,
    /// The work runs, then its container (or worker process) dies.
    pub crash: bool,
    /// A delay before the work.
    pub straggle: Option<Duration>,
    /// The request frame arrives truncated.
    pub corrupt: bool,
    /// The peer is killed under the request.
    pub dropped: bool,
}

/// One fault class: its seeded stream, its probability and how often it
/// was injected.
struct Class {
    rng: Mutex<ChaCha8Rng>,
    p: f64,
    injected: AtomicU64,
}

impl Class {
    fn new(seed: u64, salt: u64, p: f64) -> Self {
        Self {
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed ^ salt)),
            p,
            injected: AtomicU64::new(0),
        }
    }

    fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// A seeded fault-decision engine shared by the platform and the transport
/// router. Each fault class draws from its own ChaCha stream (seeded
/// `seed ^ class-salt`), so disabling one class never shifts another's
/// decision sequence.
pub struct FaultPlan {
    cfg: FaultConfig,
    fail: Class,
    crash: Class,
    straggle: Class,
    drop: Class,
    corrupt: Class,
    jitter_rng: Mutex<ChaCha8Rng>,
    retries: AtomicU64,
    exhausted: AtomicU64,
    faults_total: Arc<Counter>,
    retries_total: Arc<Counter>,
    exhausted_total: Arc<Counter>,
    backoff_us: Arc<Histogram>,
}

impl FaultPlan {
    /// Builds a plan from a config; `FaultConfig::off()` yields a plan that
    /// never injects anything (the hot path short-circuits on zero
    /// probabilities without touching any RNG lock).
    pub fn new(cfg: FaultConfig) -> Self {
        let reg = stellaris_telemetry::global();
        let seed = cfg.seed;
        Self {
            fail: Class::new(seed, 0x1a07_5a17, cfg.invoke_failure),
            crash: Class::new(seed, 0x2b18_6b28, cfg.invoke_crash),
            straggle: Class::new(seed, 0x3c29_7c39, cfg.straggler),
            drop: Class::new(seed, 0x4d3a_8d4a, cfg.frame_drop),
            corrupt: Class::new(seed, 0x5e4b_9e5b, cfg.frame_corrupt),
            jitter_rng: Mutex::new(ChaCha8Rng::seed_from_u64(seed ^ 0x6f5c_af6c)),
            cfg,
            retries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            faults_total: reg.counter("stellaris_serverless_faults_injected_total"),
            retries_total: reg.counter("stellaris_serverless_retries_total"),
            exhausted_total: reg.counter("stellaris_serverless_retries_exhausted_total"),
            backoff_us: reg.histogram("stellaris_serverless_retry_backoff_us"),
        }
    }

    /// A plan that never injects (for platforms/routers built without one).
    pub fn disabled() -> Self {
        Self::new(FaultConfig::off())
    }

    /// The config the plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The next decision of `class`, counted when it injects.
    fn draw(&self, class: &Class) -> bool {
        let hit = class.p > 0.0 && class.rng.lock().gen_bool(class.p.min(1.0));
        if hit {
            class.injected.fetch_add(1, Ordering::Relaxed);
            self.faults_total.inc();
            stellaris_telemetry::recorder::note_fault();
        }
        hit
    }

    /// One in-process invocation's faults: failure, crash and straggle.
    pub fn draw_invocation(&self) -> Faults {
        Faults {
            fail: self.draw(&self.fail),
            crash: self.draw(&self.crash),
            straggle: self
                .draw(&self.straggle)
                .then_some(self.cfg.straggler_delay),
            ..Faults::default()
        }
    }

    /// One socket request's faults: crash, straggle, corruption and drop.
    pub fn draw_request(&self) -> Faults {
        Faults {
            crash: self.draw(&self.crash),
            straggle: self
                .draw(&self.straggle)
                .then_some(self.cfg.straggler_delay),
            corrupt: self.draw(&self.corrupt),
            dropped: self.draw(&self.drop),
            ..Faults::default()
        }
    }

    /// One seeded jitter draw in `[0, 1)` for backoff scaling.
    pub fn jitter(&self) -> f64 {
        self.jitter_rng.lock().gen_range(0.0f64..1.0)
    }

    /// The one retry loop (invocations, transfers and socket requests all
    /// run through it): calls `op(attempt)` until it succeeds or `retry`'s
    /// budget is spent, sleeping the exponential backoff between attempts
    /// under a `serverless.retry_backoff` span. Exactly one jitter value is
    /// drawn per failed attempt that is retried, so same-seed runs replay
    /// the same backoffs; the final failure is counted as exhausted and
    /// returned.
    pub fn with_retry<T, E>(
        &self,
        retry: &RetryPolicy,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            let err = match op(attempt) {
                Ok(out) => return Ok(out),
                Err(err) => err,
            };
            if attempt >= retry.max_retries {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                self.exhausted_total.inc();
                return Err(err);
            }
            let backoff = retry.backoff(attempt, self.jitter());
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.retries_total.inc();
            self.backoff_us.record_duration(backoff);
            if !backoff.is_zero() {
                let _backoff = stellaris_telemetry::span("serverless.retry_backoff");
                std::thread::sleep(backoff);
            }
            attempt += 1;
        }
    }

    /// Snapshot of everything injected and recovered so far.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            injected_failures: self.fail.injected(),
            injected_crashes: self.crash.injected(),
            injected_stragglers: self.straggle.injected(),
            frames_dropped: self.drop.injected(),
            frames_corrupted: self.corrupt.injected(),
            retries: self.retries.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision_trace(plan: &FaultPlan, n: usize) -> Vec<(Faults, Faults)> {
        (0..n)
            .map(|_| (plan.draw_invocation(), plan.draw_request()))
            .collect()
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let a = FaultPlan::new(FaultConfig::chaos(42));
        let b = FaultPlan::new(FaultConfig::chaos(42));
        assert_eq!(decision_trace(&a, 200), decision_trace(&b, 200));
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(FaultConfig::chaos(1));
        let b = FaultPlan::new(FaultConfig::chaos(2));
        assert_ne!(decision_trace(&a, 200), decision_trace(&b, 200));
    }

    #[test]
    fn off_plan_never_fires_and_counts_nothing() {
        let p = FaultPlan::disabled();
        for _ in 0..100 {
            assert_eq!(p.draw_invocation(), Faults::default());
            assert_eq!(p.draw_request(), Faults::default());
        }
        assert_eq!(p.report(), FaultReport::default());
        assert_eq!(p.report().total_injected(), 0);
    }

    #[test]
    fn chaos_rates_are_roughly_honoured() {
        let p = FaultPlan::new(FaultConfig::chaos(7));
        let n = 2000;
        let fails = (0..n).filter(|_| p.draw_invocation().fail).count();
        // 20% ± generous slack; the point is "plausible", not "calibrated".
        assert!((200..=600).contains(&fails), "fails {fails}");
        assert_eq!(p.report().injected_failures, fails as u64);
    }

    #[test]
    fn disabling_one_class_does_not_shift_another() {
        let mut only_drop = FaultConfig::chaos(9);
        only_drop.invoke_failure = 0.0;
        only_drop.invoke_crash = 0.0;
        only_drop.straggler = 0.0;
        only_drop.frame_corrupt = 0.0;
        let a = FaultPlan::new(FaultConfig::chaos(9));
        let b = FaultPlan::new(only_drop);
        let da: Vec<bool> = (0..300).map(|_| a.draw_request().dropped).collect();
        let db: Vec<bool> = (0..300).map(|_| b.draw_request().dropped).collect();
        assert_eq!(da, db, "frame-drop stream must be independent");
    }

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let r = RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
        };
        // jitter 0.5 → exact exponential target.
        assert_eq!(r.backoff(0, 0.5), Duration::from_millis(2));
        assert_eq!(r.backoff(1, 0.5), Duration::from_millis(4));
        assert_eq!(r.backoff(2, 0.5), Duration::from_millis(8));
        assert_eq!(r.backoff(3, 0.5), Duration::from_millis(10), "capped");
        assert_eq!(r.backoff(60, 0.5), Duration::from_millis(10), "no overflow");
        // jitter bounds: [0.5, 1.5)× the target — half-open on the right.
        assert_eq!(r.backoff(0, 0.0), Duration::from_millis(1));
        assert_eq!(r.backoff(0, 9.0), r.backoff(0, 1.0), "jitter clamps");
        assert_eq!(RetryPolicy::none().backoff(0, 0.9), Duration::ZERO);
    }

    #[test]
    fn backoff_excludes_the_1_5x_endpoint() {
        // Nanosecond granularity swallows a one-ULP scale difference for
        // millisecond bases, so probe with a duration large enough that
        // `1.5×` and `just-under-1.5×` are distinct Durations.
        let base = Duration::from_secs(1 << 30);
        let r = RetryPolicy {
            max_retries: 1,
            base,
            cap: base,
        };
        let top = r.backoff(0, 1.0);
        assert!(
            top < base.mul_f64(1.5),
            "jitter 1.0 must scale strictly below 1.5× (got {top:?})"
        );
        assert!(top >= base.mul_f64(1.4999), "but only just below");
        assert_eq!(r.backoff(0, f64::INFINITY), top);
        assert_eq!(r.backoff(0, 0.5), base, "midpoint is the exact target");
        assert_eq!(r.backoff(0, 0.0), base.mul_f64(0.5));
        assert_eq!(r.backoff(0, -3.0), base.mul_f64(0.5), "negative clamps");
    }

    #[test]
    fn backoff_shift_saturates_at_attempt_16() {
        // Uncapped policy so the shift itself is observable: attempts past
        // 16 must reuse the 2^16 multiplier instead of overflowing the
        // `1u32 << attempt` shift (which panics in debug at attempt >= 32).
        let r = RetryPolicy {
            max_retries: 100,
            base: Duration::from_nanos(1),
            cap: Duration::from_secs(3600),
        };
        let at16 = r.backoff(16, 0.5);
        assert_eq!(at16, Duration::from_nanos(1 << 16));
        for attempt in [17, 31, 32, 63, u32::MAX] {
            assert_eq!(r.backoff(attempt, 0.5), at16, "attempt {attempt}");
        }
    }

    #[test]
    fn with_retry_counts_retries_and_exhaustion_and_draws_one_jitter_each() {
        let retry = RetryPolicy {
            max_retries: 2,
            base: Duration::from_micros(1),
            cap: Duration::from_micros(4),
        };
        let plan = FaultPlan::new(FaultConfig::chaos(5));
        let mut seen = Vec::new();
        let out: Result<u32, &str> = plan.with_retry(&retry, |attempt| {
            seen.push(attempt);
            if attempt == 1 {
                Ok(attempt)
            } else {
                Err("lost")
            }
        });
        assert_eq!(out, Ok(1));
        let lost: Result<(), &str> = plan.with_retry(&retry, |_| Err("lost"));
        assert_eq!(lost, Err("lost"));
        assert_eq!(seen, vec![0, 1]);
        let report = plan.report();
        assert_eq!((report.retries, report.exhausted), (3, 1));
        // Three retried failures drew three jitters: a fresh same-seed plan
        // is in step again after three draws.
        let fresh = FaultPlan::new(FaultConfig::chaos(5));
        for _ in 0..3 {
            fresh.jitter();
        }
        assert_eq!(plan.jitter(), fresh.jitter());
    }

    #[test]
    fn jitter_stream_is_deterministic() {
        let a = FaultPlan::new(FaultConfig::chaos(5));
        let b = FaultPlan::new(FaultConfig::chaos(5));
        let ja: Vec<u64> = (0..50).map(|_| (a.jitter() * 1e9) as u64).collect();
        let jb: Vec<u64> = (0..50).map(|_| (b.jitter() * 1e9) as u64).collect();
        assert_eq!(ja, jb);
    }
}
