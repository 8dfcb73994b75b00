//! The serverless container platform: slot-limited invocation, cold starts,
//! pre-warming and keep-alive.
//!
//! The paper implements its own serverless container cluster on EC2 (§VII)
//! because public FaaS platforms lack GPUs. This module reproduces its
//! mechanics: each function kind runs in a container; invoking with no warm
//! container pays a cold-start; containers stay warm for ten minutes after
//! use (the OpenWhisk-style keep-alive the paper copies); concurrency is
//! capped by the cluster's slot counts (four learner functions per GPU).
//!
//! Invocations run *real work* (a closure) on the calling thread; startup
//! overheads are either slept (wall-clock-faithful mode) or recorded only
//! (fast mode), and every invocation leaves an [`InvocationRecord`] for the
//! cost and latency analyses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use stellaris_telemetry::{Counter, Histogram};

use crate::fault::{FaultPlan, RetryPolicy};

/// Which function a container hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FunctionKind {
    /// Gradient-computing learner function (GPU slot).
    Learner,
    /// Trajectory-sampling actor function (CPU slot).
    Actor,
}

impl FunctionKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FunctionKind::Learner => "learner",
            FunctionKind::Actor => "actor",
        }
    }
}

/// How startup overheads affect wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverheadMode {
    /// Record overheads in the invocation records without sleeping.
    Record,
    /// Sleep for the overhead duration (wall-clock faithful).
    Sleep,
}

/// Startup latency profile.
#[derive(Clone, Copy, Debug)]
pub struct StartupProfile {
    /// Container cold-start latency.
    pub cold: Duration,
    /// Warm-start latency.
    pub warm: Duration,
    /// Keep-alive window after release (paper: ten minutes).
    pub keep_alive: Duration,
}

impl Default for StartupProfile {
    fn default() -> Self {
        Self {
            cold: Duration::from_millis(1500),
            warm: Duration::from_millis(8),
            keep_alive: Duration::from_secs(600),
        }
    }
}

/// One completed function invocation.
#[derive(Clone, Copy, Debug)]
pub struct InvocationRecord {
    /// Function kind.
    pub kind: FunctionKind,
    /// Offset of invocation start from platform creation.
    pub start: Duration,
    /// Billed duration: the function's own CPU time (dedicated-slot
    /// semantics; wall-clock fallback where the CPU clock is unavailable).
    /// Startup is excluded, as in §VIII-A.
    pub exec: Duration,
    /// Wall-clock duration of the invocation (for latency breakdowns).
    pub wall: Duration,
    /// Startup overhead paid (cold or warm).
    pub startup: Duration,
    /// Whether this was a cold start.
    pub cold: bool,
    /// Whether the invocation failed (injected fault, crash, panic or
    /// deadline overrun). Failed attempts are still billed — you pay for
    /// the work a dead function did — and the cost model separates their
    /// share out as `CostBreakdown::wasted_usd`.
    pub failed: bool,
}

/// Why an invocation attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvokeError {
    /// A fault-plan-injected platform failure or mid-work crash.
    Injected,
    /// The work itself panicked (genuine bug or chaos closure).
    Panicked(String),
    /// The invocation finished after its deadline; its result was
    /// discarded and the caller should re-execute (straggler timeout).
    DeadlineExceeded {
        /// Observed wall time of the attempt.
        wall: Duration,
        /// The configured deadline it overran.
        deadline: Duration,
    },
}

impl std::fmt::Display for InvokeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvokeError::Injected => write!(f, "injected invocation failure"),
            InvokeError::Panicked(msg) => write!(f, "invocation panicked: {msg}"),
            InvokeError::DeadlineExceeded { wall, deadline } => {
                write!(f, "deadline exceeded: {wall:?} > {deadline:?}")
            }
        }
    }
}

impl std::error::Error for InvokeError {}

/// Counting semaphore.
struct Semaphore {
    permits: Mutex<usize>,
    cond: Condvar,
}

impl Semaphore {
    fn new(n: usize) -> Self {
        Self {
            permits: Mutex::new(n),
            cond: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut p = self.permits.lock();
        while *p == 0 {
            self.cond.wait(&mut p);
        }
        *p -= 1;
    }

    fn release(&self) {
        *self.permits.lock() += 1;
        self.cond.notify_one();
    }

    fn available(&self) -> usize {
        *self.permits.lock()
    }
}

/// RAII slot permit: the semaphore permit is returned when the guard drops,
/// on success and unwind alike — a panicking function must never leak its
/// GPU/CPU slot.
struct SlotPermit<'a> {
    sem: &'a Semaphore,
}

impl Drop for SlotPermit<'_> {
    fn drop(&mut self) {
        self.sem.release();
    }
}

/// RAII container lease: the warm container is returned to the pool when
/// the guard drops, unless the invocation poisoned it (the container
/// crashed or its function panicked — a dead container is never reused).
struct ContainerLease<'a> {
    platform: &'a Platform,
    kind: FunctionKind,
    poisoned: bool,
}

impl ContainerLease<'_> {
    fn poison(&mut self) {
        self.poisoned = true;
    }
}

impl Drop for ContainerLease<'_> {
    fn drop(&mut self) {
        if !self.poisoned && !std::thread::panicking() {
            self.platform.release_container(self.kind);
        }
    }
}

struct Pool {
    /// Expiry instants of idle warm containers for one function kind.
    warm: Mutex<Vec<Instant>>,
}

/// Telemetry handles for one function kind, resolved once at platform
/// construction so the invoke hot path never touches the registry lock.
struct KindMetrics {
    cold: Arc<Counter>,
    warm: Arc<Counter>,
    startup_us: Arc<Histogram>,
    exec_us: Arc<Histogram>,
}

impl KindMetrics {
    fn for_kind(kind: FunctionKind) -> Self {
        let reg = stellaris_telemetry::global();
        let name = kind.name();
        Self {
            cold: reg.counter(&format!("stellaris_serverless_cold_starts_{name}_total")),
            warm: reg.counter(&format!("stellaris_serverless_warm_starts_{name}_total")),
            startup_us: reg.histogram(&format!("stellaris_serverless_startup_us_{name}")),
            exec_us: reg.histogram(&format!("stellaris_serverless_exec_us_{name}")),
        }
    }
}

const ALL_KINDS: [FunctionKind; 2] = [FunctionKind::Learner, FunctionKind::Actor];

/// The serverless platform for one cluster.
pub struct Platform {
    epoch: Instant,
    learner_slots: Semaphore,
    actor_slots: Semaphore,
    learner_capacity: usize,
    actor_capacity: usize,
    profile: StartupProfile,
    mode: OverheadMode,
    pools: [Pool; 2],
    records: Mutex<Vec<InvocationRecord>>,
    /// Invocations per kind, failed attempts included; a billed hold
    /// (`bill_hold`) is not one.
    invocations: [AtomicU64; 2],
    cold_starts: AtomicU64,
    warm_starts: AtomicU64,
    /// Busy time accumulated per kind (for utilisation metrics), in micros.
    busy_us: [AtomicU64; 2],
    /// Per-kind telemetry handles (cold/warm counters, latency histograms).
    metrics: [KindMetrics; 2],
    /// Fault-injection plan consulted by `try_invoke`/`invoke_retry`
    /// (disabled by default).
    faults: Arc<FaultPlan>,
}

/// How one invocation attempt ended, before the public error mapping:
/// `invoke` re-raises panics, `try_invoke` converts them to `InvokeError`.
enum AttemptFail {
    Injected,
    Crashed,
    Panicked(Box<dyn std::any::Any + Send>),
    Deadline { wall: Duration, deadline: Duration },
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn kind_index(kind: FunctionKind) -> usize {
    match kind {
        FunctionKind::Learner => 0,
        FunctionKind::Actor => 1,
    }
}

impl Platform {
    /// Creates a platform with the given slot counts.
    pub fn new(
        learner_slots: usize,
        actor_slots: usize,
        profile: StartupProfile,
        mode: OverheadMode,
    ) -> Self {
        Self {
            epoch: Instant::now(),
            learner_slots: Semaphore::new(learner_slots.max(1)),
            actor_slots: Semaphore::new(actor_slots.max(1)),
            learner_capacity: learner_slots.max(1),
            actor_capacity: actor_slots.max(1),
            profile,
            mode,
            pools: std::array::from_fn(|_| Pool {
                warm: Mutex::new(Vec::new()),
            }),
            records: Mutex::new(Vec::new()),
            invocations: std::array::from_fn(|_| AtomicU64::new(0)),
            cold_starts: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            busy_us: std::array::from_fn(|_| AtomicU64::new(0)),
            metrics: std::array::from_fn(|i| KindMetrics::for_kind(ALL_KINDS[i])),
            faults: Arc::new(FaultPlan::disabled()),
        }
    }

    /// Installs a fault-injection plan (builder style, before the platform
    /// is shared). Only `try_invoke`/`invoke_retry` consult it.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// The installed fault plan (a disabled plan when none was given).
    pub fn faults(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// Pre-warms `n` containers of `kind` so the first invocations start warm
    /// (the paper pre-warms based on profiled completion times and excludes
    /// this from billed cost).
    pub fn prewarm(&self, kind: FunctionKind, n: usize) {
        let now = Instant::now();
        let mut warm = self.pools[kind_index(kind)].warm.lock();
        for _ in 0..n {
            warm.push(now + self.profile.keep_alive);
        }
    }

    fn try_claim_warm(&self, kind: FunctionKind) -> bool {
        let now = Instant::now();
        let mut warm = self.pools[kind_index(kind)].warm.lock();
        warm.retain(|&expiry| expiry > now);
        warm.pop().is_some()
    }

    fn release_container(&self, kind: FunctionKind) {
        let mut warm = self.pools[kind_index(kind)].warm.lock();
        warm.push(Instant::now() + self.profile.keep_alive);
    }

    /// Records one finished attempt (successful or failed) in the latency
    /// histograms, the utilisation accumulator, the invocation count and
    /// the record log.
    #[expect(clippy::too_many_arguments)]
    fn record_attempt(
        &self,
        kind: FunctionKind,
        start: Duration,
        cpu: Duration,
        wall: Duration,
        startup: Duration,
        cold: bool,
        failed: bool,
    ) -> InvocationRecord {
        self.metrics[kind_index(kind)].exec_us.record_duration(cpu);
        self.busy_us[kind_index(kind)].fetch_add(cpu.as_micros() as u64, Ordering::Relaxed);
        self.invocations[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
        let record = InvocationRecord {
            kind,
            start,
            exec: cpu,
            wall,
            startup,
            cold,
            failed,
        };
        self.records.lock().push(record);
        record
    }

    /// Records one finished invocation that ran in a *remote* worker
    /// process (spawned via [`crate::process::ProcessPool`]) rather than as
    /// an in-process closure. The measured process lifecycle replaces the
    /// simulated one: `startup` is the observed spawn→HELLO latency (or the
    /// warm checkout cost) and `cold` says whether a live process was
    /// reused. Counters, per-kind histograms and the record log are updated
    /// exactly as for local invocations so the cost model sees one stream.
    pub fn record_remote(
        &self,
        kind: FunctionKind,
        exec: Duration,
        wall: Duration,
        startup: Duration,
        cold: bool,
        failed: bool,
    ) -> InvocationRecord {
        let m = &self.metrics[kind_index(kind)];
        if cold {
            self.cold_starts.fetch_add(1, Ordering::Relaxed);
            m.cold.inc();
        } else {
            self.warm_starts.fetch_add(1, Ordering::Relaxed);
            m.warm.inc();
        }
        m.startup_us.record_duration(startup);
        self.record_attempt(
            kind,
            self.epoch.elapsed(),
            exec,
            wall,
            startup,
            cold,
            failed,
        )
    }

    /// One invocation attempt: blocks for a slot, pays startup, optionally
    /// consults the fault plan, runs `work` under `catch_unwind`, then
    /// drops the RAII slot permit and container lease. All resource release
    /// is guard-driven, so no exit path — injected failure, crash, genuine
    /// panic, deadline overrun — can leak a permit or a warm container.
    fn attempt<R>(
        &self,
        kind: FunctionKind,
        inject: bool,
        deadline: Option<Duration>,
        work: impl FnOnce() -> R,
    ) -> Result<(R, InvocationRecord), (AttemptFail, InvocationRecord)> {
        let mut span =
            stellaris_telemetry::span_with("serverless.invoke", vec![("kind", kind.name().into())]);
        let sem = match kind {
            FunctionKind::Learner => &self.learner_slots,
            FunctionKind::Actor => &self.actor_slots,
        };
        sem.acquire();
        let _permit = SlotPermit { sem };
        let start = self.epoch.elapsed();
        let cold = !self.try_claim_warm(kind);
        span.field("cold", cold);
        let startup = if cold {
            self.profile.cold
        } else {
            self.profile.warm
        };
        let m = &self.metrics[kind_index(kind)];
        if cold {
            self.cold_starts.fetch_add(1, Ordering::Relaxed);
            m.cold.inc();
        } else {
            self.warm_starts.fetch_add(1, Ordering::Relaxed);
            m.warm.inc();
        }
        m.startup_us.record_duration(startup);
        if self.mode == OverheadMode::Sleep && !startup.is_zero() {
            std::thread::sleep(startup);
        }
        let mut lease = ContainerLease {
            platform: self,
            kind,
            poisoned: false,
        };
        let faults = inject.then_some(&*self.faults);
        if faults.is_some_and(FaultPlan::should_fail_invoke) {
            // Platform-level failure before the work ran: the container
            // died mid-startup, so the lease is poisoned and nothing is
            // billed beyond the (zero-CPU) failed record.
            span.field("failed", true);
            lease.poison();
            let record = self.record_attempt(
                kind,
                start,
                Duration::ZERO,
                Duration::ZERO,
                startup,
                cold,
                true,
            );
            return Err((AttemptFail::Injected, record));
        }
        let t0 = Instant::now();
        if let Some(delay) = faults.and_then(FaultPlan::straggle) {
            if !delay.is_zero() {
                let _straggle = stellaris_telemetry::span("serverless.straggle");
                std::thread::sleep(delay);
            }
        }
        let crash = faults.is_some_and(FaultPlan::should_crash);
        let (out, cpu, _used_cpu_clock) = crate::cputime::measure_cpu(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let r = work();
                #[expect(
                    clippy::panic,
                    reason = "this panic IS the injected mid-work container crash"
                )]
                if crash {
                    // lint:allow(A8): the panic is the chaos fault itself, caught by catch_unwind above
                    panic!("injected container crash");
                }
                r
            }))
        });
        let wall = t0.elapsed();
        match out {
            Err(payload) => {
                // The function died mid-work: its side effects happened but
                // the result is lost and the container is never reused.
                span.field("failed", true);
                lease.poison();
                let record = self.record_attempt(kind, start, cpu, wall, startup, cold, true);
                let fail = if crash {
                    AttemptFail::Crashed
                } else {
                    AttemptFail::Panicked(payload)
                };
                Err((fail, record))
            }
            Ok(r) => {
                if let Some(d) = deadline {
                    if wall > d {
                        // Straggler timeout: the work finished, the
                        // container is healthy (returned warm by the
                        // lease), but the result arrived too late and is
                        // discarded — the caller re-executes.
                        span.field("failed", true);
                        let record =
                            self.record_attempt(kind, start, cpu, wall, startup, cold, true);
                        return Err((AttemptFail::Deadline { wall, deadline: d }, record));
                    }
                }
                let record = self.record_attempt(kind, start, cpu, wall, startup, cold, false);
                Ok((r, record))
            }
        }
    }

    /// Invokes a function: blocks for a slot, pays cold/warm startup, runs
    /// `work` on the calling thread, releases the container (warm) and slot.
    ///
    /// Never consults the fault plan and has no deadline; a panic in `work`
    /// is re-raised on the caller *after* the RAII guards have returned the
    /// slot permit and poisoned the container, so it cannot leak capacity.
    ///
    /// Each invocation is traced as a `serverless.invoke` span (covering the
    /// slot wait as well as the work) and recorded in the per-kind cold/warm
    /// counters and startup/exec latency histograms.
    pub fn invoke<R>(&self, kind: FunctionKind, work: impl FnOnce() -> R) -> (R, InvocationRecord) {
        match self.attempt(kind, false, None, work) {
            Ok(out) => out,
            Err((AttemptFail::Panicked(payload), _record)) => std::panic::resume_unwind(payload),
            // With injection off and no deadline, only a panic can fail.
            // lint:allow(A8): `attempt(kind, false, None, ..)` cannot produce a non-panic failure
            Err(_) => unreachable!("non-panic failure with fault injection disabled"),
        }
    }

    /// One fault-injectable invocation attempt with an optional deadline.
    /// On failure the attempt's record (billed, `failed = true`) rides
    /// along with the error.
    pub fn try_invoke<R>(
        &self,
        kind: FunctionKind,
        deadline: Option<Duration>,
        work: impl FnOnce() -> R,
    ) -> Result<(R, InvocationRecord), (InvokeError, InvocationRecord)> {
        self.attempt(kind, true, deadline, work)
            .map_err(|(fail, record)| {
                let err = match fail {
                    AttemptFail::Injected | AttemptFail::Crashed => InvokeError::Injected,
                    AttemptFail::Panicked(payload) => InvokeError::Panicked(panic_msg(&*payload)),
                    AttemptFail::Deadline { wall, deadline } => {
                        InvokeError::DeadlineExceeded { wall, deadline }
                    }
                };
                (err, record)
            })
    }

    /// Invokes with fault injection, deadline enforcement and retry:
    /// exponential backoff with seeded jitter between attempts, giving up
    /// after `retry.max_retries` retries. Stragglers that overrun the
    /// deadline are re-executed like any other failed attempt; every
    /// attempt (failed or not) is billed and recorded.
    pub fn invoke_retry<R>(
        &self,
        kind: FunctionKind,
        retry: &RetryPolicy,
        deadline: Option<Duration>,
        mut work: impl FnMut() -> R,
    ) -> Result<(R, InvocationRecord), InvokeError> {
        self.faults.with_retry(retry, |_attempt| {
            self.try_invoke(kind, deadline, &mut work)
                .map_err(|(err, _record)| err)
        })
    }

    /// Slots not returned to the semaphores. At quiescence (no invocation
    /// in flight) this must be zero; anything else means a permit leaked.
    pub fn leaked_slots(&self) -> u64 {
        let learner =
            self.learner_capacity - self.learner_slots.available().min(self.learner_capacity);
        let actor = self.actor_capacity - self.actor_slots.available().min(self.actor_capacity);
        (learner + actor) as u64
    }

    /// Bills extra slot-holding time to a function kind (e.g. a synchronous
    /// learner waiting at a barrier keeps its GPU slot — and its bill —
    /// running even though it burns no CPU). Appends a zero-startup record,
    /// so the hold is billed, but counts no invocation.
    pub fn bill_hold(&self, kind: FunctionKind, held: Duration) {
        if held.is_zero() {
            return;
        }
        self.busy_us[kind_index(kind)].fetch_add(held.as_micros() as u64, Ordering::Relaxed);
        self.records.lock().push(InvocationRecord {
            kind,
            start: self.epoch.elapsed(),
            exec: held,
            wall: held,
            startup: Duration::ZERO,
            cold: false,
            failed: false,
        });
    }

    /// All invocation records so far, billed holds included.
    pub fn records(&self) -> Vec<InvocationRecord> {
        self.records.lock().clone()
    }

    /// Invocations of `kind` so far, local and remote, failed attempts
    /// included; billed holds are not invocations.
    pub fn invocations(&self, kind: FunctionKind) -> u64 {
        self.invocations[kind_index(kind)].load(Ordering::Relaxed)
    }

    /// `(cold, warm)` start counts.
    pub fn start_counts(&self) -> (u64, u64) {
        (
            self.cold_starts.load(Ordering::Relaxed),
            self.warm_starts.load(Ordering::Relaxed),
        )
    }

    /// Total busy execution time for a function kind.
    pub fn busy_time(&self, kind: FunctionKind) -> Duration {
        Duration::from_micros(self.busy_us[kind_index(kind)].load(Ordering::Relaxed))
    }

    /// Elapsed wall-clock time since platform creation.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// GPU-slot utilisation of learner work over the elapsed window and
    /// this platform's learner slots (0..=1 scale, can exceed 1 only on
    /// timer skew).
    pub fn gpu_utilization(&self) -> f64 {
        let busy = self.busy_time(FunctionKind::Learner);
        let total = self.elapsed().as_secs_f64() * self.learner_capacity as f64;
        if total <= 0.0 {
            0.0
        } else {
            busy.as_secs_f64() / total
        }
    }
}

#[cfg(test)]
#[allow(clippy::let_underscore_must_use)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fast_platform(learners: usize, actors: usize) -> Platform {
        Platform::new(
            learners,
            actors,
            StartupProfile {
                cold: Duration::from_millis(100),
                warm: Duration::from_millis(1),
                keep_alive: Duration::from_secs(60),
            },
            OverheadMode::Record,
        )
    }

    #[test]
    fn first_invocation_is_cold_second_is_warm() {
        let p = fast_platform(2, 2);
        let (_, r1) = p.invoke(FunctionKind::Learner, || 1 + 1);
        assert!(r1.cold);
        let (_, r2) = p.invoke(FunctionKind::Learner, || 2 + 2);
        assert!(!r2.cold, "released container should be reused warm");
        assert_eq!(p.start_counts(), (1, 1));
    }

    #[test]
    fn prewarm_avoids_cold_start() {
        let p = fast_platform(2, 2);
        p.prewarm(FunctionKind::Learner, 1);
        let (_, r) = p.invoke(FunctionKind::Learner, || ());
        assert!(!r.cold);
    }

    #[test]
    fn kinds_have_separate_pools() {
        let p = fast_platform(2, 2);
        p.prewarm(FunctionKind::Learner, 1);
        let (_, r) = p.invoke(FunctionKind::Actor, || ());
        assert!(r.cold, "actor pool is distinct from learner pool");
    }

    #[test]
    fn slots_limit_concurrency() {
        let p = Arc::new(fast_platform(2, 2));
        let active = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (p, active, peak) = (p.clone(), active.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                p.invoke(FunctionKind::Learner, || {
                    let a = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(a, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(15));
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(p.records().len(), 8);
    }

    #[test]
    fn record_mode_does_not_sleep_for_startup() {
        let p = Platform::new(
            1,
            1,
            StartupProfile {
                cold: Duration::from_secs(30),
                warm: Duration::from_millis(1),
                keep_alive: Duration::from_secs(60),
            },
            OverheadMode::Record,
        );
        let t0 = Instant::now();
        let (_, r) = p.invoke(FunctionKind::Learner, || ());
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(
            r.startup,
            Duration::from_secs(30),
            "overhead still recorded"
        );
    }

    #[test]
    fn sleep_mode_delays() {
        let p = Platform::new(
            1,
            1,
            StartupProfile {
                cold: Duration::from_millis(50),
                warm: Duration::from_millis(1),
                keep_alive: Duration::from_secs(60),
            },
            OverheadMode::Sleep,
        );
        let t0 = Instant::now();
        p.invoke(FunctionKind::Learner, || ());
        assert!(t0.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn expired_containers_cold_start_again() {
        let p = Platform::new(
            1,
            1,
            StartupProfile {
                cold: Duration::from_millis(1),
                warm: Duration::from_millis(1),
                keep_alive: Duration::from_millis(10),
            },
            OverheadMode::Record,
        );
        p.invoke(FunctionKind::Learner, || ());
        std::thread::sleep(Duration::from_millis(30));
        let (_, r) = p.invoke(FunctionKind::Learner, || ());
        assert!(r.cold, "keep-alive expiry should force a cold start");
    }

    fn spin_ms(ms: u64) {
        let t0 = Instant::now();
        let mut acc = 0u64;
        while t0.elapsed() < Duration::from_millis(ms) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(acc);
        }
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let p = fast_platform(1, 1);
        p.invoke(FunctionKind::Learner, || spin_ms(40));
        let u = p.gpu_utilization();
        assert!(u > 0.2, "utilization {u}");
        assert!(u <= 1.1);
    }

    /// The denominator is the platform's own learner slots: busy time over
    /// elapsed time times four, read between two reads of the clock.
    #[test]
    fn utilization_divides_by_the_platforms_learner_slots() {
        let p = fast_platform(4, 1);
        p.bill_hold(FunctionKind::Learner, Duration::from_secs(1));
        std::thread::sleep(Duration::from_millis(5));
        let busy = p.busy_time(FunctionKind::Learner).as_secs_f64();
        let before = p.elapsed().as_secs_f64();
        let u = p.gpu_utilization();
        let after = p.elapsed().as_secs_f64();
        assert!(
            busy / (after * 4.0) <= u && u <= busy / (before * 4.0),
            "utilization {u}: not busy / (elapsed * 4 slots)"
        );
    }

    #[test]
    fn bill_hold_adds_slot_time() {
        let p = fast_platform(1, 1);
        p.bill_hold(FunctionKind::Learner, Duration::from_millis(500));
        p.bill_hold(FunctionKind::Learner, Duration::ZERO); // no-op
        let records = p.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].exec, Duration::from_millis(500));
        assert!(p.busy_time(FunctionKind::Learner) >= Duration::from_millis(500));
        // Billed, but not an invocation.
        assert_eq!(p.invocations(FunctionKind::Learner), 0);
    }

    #[test]
    fn invocations_count_attempts_and_remote_records_but_not_holds() {
        let p = fast_platform(1, 1);
        p.invoke(FunctionKind::Learner, || ());
        p.bill_hold(FunctionKind::Learner, Duration::from_millis(5));
        p.record_remote(
            FunctionKind::Learner,
            Duration::from_millis(1),
            Duration::from_millis(1),
            Duration::ZERO,
            false,
            true,
        );
        p.invoke(FunctionKind::Actor, || ());
        assert_eq!(p.invocations(FunctionKind::Learner), 2);
        assert_eq!(p.invocations(FunctionKind::Actor), 1);
        assert_eq!(p.records().len(), 4, "the hold is still billed");
    }

    #[test]
    fn billing_uses_cpu_time_not_wall_time() {
        // Dedicated-slot semantics: a function that sleeps is not billed
        // for its nap, but its wall latency is still recorded.
        let p = fast_platform(1, 1);
        let (_, r) = p.invoke(FunctionKind::Learner, || {
            std::thread::sleep(Duration::from_millis(40))
        });
        assert!(r.wall >= Duration::from_millis(35), "{:?}", r.wall);
        assert!(r.exec < Duration::from_millis(10), "billed {:?}", r.exec);
    }

    // ----- fault injection, retry and the panic-leak regression ----------

    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};

    #[test]
    fn panicking_work_does_not_leak_slot_or_container() {
        // Regression: before the RAII guards, a panic in `work` skipped
        // both `release_container` and `sem.release()`, so a 1-slot
        // platform deadlocked forever on the next invoke.
        let p = fast_platform(1, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.invoke(FunctionKind::Learner, || panic!("learner died"));
        }));
        assert!(caught.is_err(), "panic must still propagate to the caller");
        assert_eq!(p.leaked_slots(), 0, "permit must be returned on unwind");
        assert_eq!(
            p.learner_slots.available(),
            1,
            "exactly one permit back on unwind"
        );
        // The next invoke must run (this deadlocked before the fix) and
        // must cold-start: a crashed container is never reused warm.
        let (v, r) = p.invoke(FunctionKind::Learner, || 7);
        assert_eq!(v, 7);
        assert!(
            r.cold,
            "poisoned container must not be returned to the pool"
        );
        let records = p.records();
        assert!(
            records[0].failed,
            "the panicked attempt is recorded as failed"
        );
        assert!(!records[1].failed);
    }

    #[test]
    fn injected_failure_is_typed_recorded_and_leak_free() {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            invoke_failure: 1.0,
            ..FaultConfig::off()
        }));
        let p = fast_platform(1, 1).with_faults(plan);
        let ran = AtomicU64::new(0);
        let err = p.try_invoke(FunctionKind::Learner, None, || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        match err {
            Err((InvokeError::Injected, rec)) => {
                assert!(rec.failed);
                assert_eq!(rec.exec, Duration::ZERO, "work never ran, no CPU billed");
            }
            other => panic!("expected injected failure, got {:?}", other.map(|(_, r)| r)),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(p.leaked_slots(), 0);
        assert_eq!(p.faults().report().injected_failures, 1);
    }

    #[test]
    fn invoke_retry_recovers_and_delivers_exactly_once() {
        // failure p=0.5, seeded: some attempts fail, retries recover. The
        // successful attempt's result is delivered exactly once.
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: 3,
            invoke_failure: 0.5,
            ..FaultConfig::off()
        }));
        let p = fast_platform(2, 2).with_faults(plan);
        let retry = RetryPolicy {
            max_retries: 10,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
        };
        let mut delivered = 0u64;
        for i in 0..40u64 {
            let (v, _) = p
                .invoke_retry(FunctionKind::Learner, &retry, None, || i)
                .expect("10 retries at p=0.5 must eventually succeed");
            assert_eq!(v, i);
            delivered += 1;
        }
        assert_eq!(delivered, 40);
        assert_eq!(p.leaked_slots(), 0);
        let report = p.faults().report();
        assert!(report.injected_failures > 0, "chaos must actually fire");
        assert_eq!(report.retries, report.injected_failures);
    }

    #[test]
    fn exhausted_retries_return_the_last_error() {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            invoke_failure: 1.0,
            ..FaultConfig::off()
        }));
        let p = fast_platform(1, 1).with_faults(plan);
        let retry = RetryPolicy {
            max_retries: 2,
            base: Duration::from_micros(50),
            cap: Duration::from_micros(200),
        };
        let out = p.invoke_retry(FunctionKind::Learner, &retry, None, || ());
        assert_eq!(out.err(), Some(InvokeError::Injected));
        let report = p.faults().report();
        assert_eq!(report.retries, 2);
        assert_eq!(report.exhausted, 1);
        assert_eq!(p.records().len(), 3, "every attempt is recorded");
        assert!(p.records().iter().all(|r| r.failed));
        assert_eq!(p.leaked_slots(), 0);
    }

    #[test]
    fn deadline_overrun_discards_result_and_reexecutes() {
        let p = fast_platform(1, 1);
        let attempts = AtomicU64::new(0);
        let retry = RetryPolicy {
            max_retries: 3,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
        };
        // First attempt straggles past the deadline; the re-execution is
        // fast and its result is the one delivered.
        let (v, rec) = p
            .invoke_retry(
                FunctionKind::Learner,
                &retry,
                Some(Duration::from_millis(20)),
                || {
                    if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(40));
                    }
                    attempts.load(Ordering::SeqCst)
                },
            )
            .expect("re-execution must beat the deadline");
        assert_eq!(v, 2, "the straggler's late result was discarded");
        assert!(!rec.failed);
        let records = p.records();
        assert_eq!(records.len(), 2);
        assert!(
            records[0].failed,
            "the timed-out attempt is a failed record"
        );
        assert!(
            !records[1].cold,
            "a straggler's container is healthy and reused warm"
        );
        assert_eq!(p.leaked_slots(), 0);
    }

    #[test]
    fn injected_crash_runs_work_but_loses_result() {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            invoke_crash: 1.0,
            ..FaultConfig::off()
        }));
        let p = fast_platform(1, 1).with_faults(plan);
        let ran = AtomicU64::new(0);
        let out = p.try_invoke(FunctionKind::Learner, None, || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(matches!(out, Err((InvokeError::Injected, _))));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "a mid-work crash happens after the side effects"
        );
        assert_eq!(p.leaked_slots(), 0);
        assert_eq!(p.faults().report().injected_crashes, 1);
    }

    #[test]
    fn full_wave_still_fits_after_chaos() {
        // The acceptance gate: after a burst of chaotic invocations the
        // platform must accept a full concurrent wave — i.e. no slot leaked.
        let plan = Arc::new(FaultPlan::new(FaultConfig::chaos(11)));
        let p = Arc::new(fast_platform(2, 2).with_faults(plan));
        let retry = RetryPolicy {
            max_retries: 8,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
        };
        for i in 0..30u64 {
            let _ = p.invoke_retry(FunctionKind::Learner, &retry, None, || i);
        }
        assert_eq!(p.leaked_slots(), 0);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                p.invoke(FunctionKind::Learner, || {
                    std::thread::sleep(Duration::from_millis(5))
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.leaked_slots(), 0);
    }
}
