//! Profile-driven container pre-warming (§VII): "Stellaris profiles
//! information about the execution time and resource demand of the
//! parameter and learner functions ... we pre-warm the containers prior to
//! the invocations of the functions based on estimated completion time."
//!
//! The [`FunctionProfiler`] keeps exponential moving statistics of observed
//! execution times per function kind; the [`PrewarmController`] turns an
//! expected arrival rate into a container count via Little's law
//! (`containers ≈ arrival_rate × mean_service_time`), padded by a safety
//! factor so bursts land warm.

use std::time::Duration;

use parking_lot::Mutex;

use crate::platform::{FunctionKind, InvocationRecord, Platform};

/// Exponential-moving execution-time statistics per function kind.
#[derive(Debug)]
pub struct FunctionProfiler {
    alpha: f64,
    stats: Mutex<[ProfileEntry; 3]>,
}

#[derive(Clone, Copy, Debug, Default)]
struct ProfileEntry {
    mean_exec_s: f64,
    samples: u64,
    cold_seen: u64,
}

fn idx(kind: FunctionKind) -> usize {
    match kind {
        FunctionKind::Learner => 0,
        FunctionKind::Parameter => 1,
        FunctionKind::Actor => 2,
    }
}

impl FunctionProfiler {
    /// Creates a profiler with smoothing factor `alpha` (0.2 is a good
    /// default: recent invocations dominate without thrashing).
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        Self {
            alpha,
            stats: Mutex::new([ProfileEntry::default(); 3]),
        }
    }

    /// Feeds one completed invocation.
    pub fn observe(&self, record: &InvocationRecord) {
        let mut stats = self.stats.lock();
        let e = &mut stats[idx(record.kind)];
        let x = record.exec.as_secs_f64();
        e.mean_exec_s = if e.samples == 0 {
            x
        } else {
            (1.0 - self.alpha) * e.mean_exec_s + self.alpha * x
        };
        e.samples += 1;
        e.cold_seen += u64::from(record.cold);
    }

    /// Bulk-feeds a platform's invocation history.
    pub fn observe_all(&self, records: &[InvocationRecord]) {
        for r in records {
            self.observe(r);
        }
    }

    /// Profiled mean execution time, if any samples exist.
    pub fn mean_exec(&self, kind: FunctionKind) -> Option<Duration> {
        let stats = self.stats.lock();
        let e = stats[idx(kind)];
        (e.samples > 0).then(|| Duration::from_secs_f64(e.mean_exec_s))
    }

    /// Samples seen for a kind.
    pub fn samples(&self, kind: FunctionKind) -> u64 {
        self.stats.lock()[idx(kind)].samples
    }

    /// Cold starts seen for a kind (a rising count means the controller is
    /// under-provisioning).
    pub fn cold_starts(&self, kind: FunctionKind) -> u64 {
        self.stats.lock()[idx(kind)].cold_seen
    }
}

/// Turns profiles + expected demand into pre-warm decisions.
#[derive(Clone, Copy, Debug)]
pub struct PrewarmController {
    /// Multiplicative headroom over the Little's-law estimate.
    pub safety_factor: f64,
    /// Hard cap on containers kept warm per kind (slot count).
    pub max_containers: usize,
}

impl PrewarmController {
    /// Creates a controller with 1.2x headroom and the given slot cap.
    pub fn new(max_containers: usize) -> Self {
        Self {
            safety_factor: 1.2,
            max_containers,
        }
    }

    /// Containers to keep warm for an expected invocation arrival rate
    /// (per second), given the profiled mean service time.
    pub fn plan(&self, profiler: &FunctionProfiler, kind: FunctionKind, rate_per_s: f64) -> usize {
        let Some(mean) = profiler.mean_exec(kind) else {
            // No profile yet: warm one container so the first call is fast.
            return 1.min(self.max_containers);
        };
        let concurrency = rate_per_s * mean.as_secs_f64() * self.safety_factor;
        (concurrency.ceil() as usize).clamp(1, self.max_containers)
    }

    /// Applies the plan to a platform. Each application increments
    /// `stellaris_serverless_prewarm_plans_total`, publishes the planned
    /// container count as a per-kind gauge, and emits a
    /// `serverless.prewarm` instant event so traces show when (and how
    /// aggressively) the controller warmed containers.
    pub fn apply(
        &self,
        platform: &Platform,
        profiler: &FunctionProfiler,
        kind: FunctionKind,
        rate_per_s: f64,
    ) -> usize {
        let n = self.plan(profiler, kind, rate_per_s);
        platform.prewarm(kind, n);
        let reg = stellaris_telemetry::global();
        reg.counter("stellaris_serverless_prewarm_plans_total")
            .inc();
        reg.gauge(&format!(
            "stellaris_serverless_prewarm_planned_{}",
            kind.name()
        ))
        .set(n as f64);
        stellaris_telemetry::instant(
            "serverless.prewarm",
            vec![("kind", kind.name().into()), ("count", n.into())],
        );
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{OverheadMode, StartupProfile};

    fn record(kind: FunctionKind, exec_ms: u64, cold: bool) -> InvocationRecord {
        InvocationRecord {
            kind,
            start: Duration::ZERO,
            exec: Duration::from_millis(exec_ms),
            wall: Duration::from_millis(exec_ms),
            startup: Duration::ZERO,
            cold,
            failed: false,
        }
    }

    #[test]
    fn profiler_tracks_moving_mean() {
        let p = FunctionProfiler::new(0.5);
        p.observe(&record(FunctionKind::Learner, 100, true));
        assert_eq!(
            p.mean_exec(FunctionKind::Learner),
            Some(Duration::from_millis(100))
        );
        p.observe(&record(FunctionKind::Learner, 200, false));
        let m = p.mean_exec(FunctionKind::Learner).unwrap();
        assert!((m.as_secs_f64() - 0.150).abs() < 1e-9, "{m:?}");
        assert_eq!(p.samples(FunctionKind::Learner), 2);
        assert_eq!(p.cold_starts(FunctionKind::Learner), 1);
        assert!(p.mean_exec(FunctionKind::Actor).is_none());
    }

    #[test]
    fn plan_follows_littles_law() {
        let p = FunctionProfiler::new(1.0);
        p.observe(&record(FunctionKind::Learner, 500, false)); // 0.5 s service
        let c = PrewarmController {
            safety_factor: 1.0,
            max_containers: 32,
        };
        // 8 invocations/s x 0.5 s = 4 concurrent containers.
        assert_eq!(c.plan(&p, FunctionKind::Learner, 8.0), 4);
        // Headroom rounds up.
        let c2 = PrewarmController {
            safety_factor: 1.2,
            max_containers: 32,
        };
        assert_eq!(c2.plan(&p, FunctionKind::Learner, 8.0), 5);
    }

    #[test]
    fn plan_clamps_to_slots() {
        let p = FunctionProfiler::new(1.0);
        p.observe(&record(FunctionKind::Learner, 2000, false));
        let c = PrewarmController::new(4);
        assert_eq!(c.plan(&p, FunctionKind::Learner, 100.0), 4);
    }

    #[test]
    fn unprofiled_kind_warms_one() {
        let p = FunctionProfiler::new(0.2);
        let c = PrewarmController::new(8);
        assert_eq!(c.plan(&p, FunctionKind::Parameter, 50.0), 1);
    }

    #[test]
    fn apply_prewarms_platform() {
        let platform = Platform::new(4, 4, StartupProfile::default(), OverheadMode::Record);
        let profiler = FunctionProfiler::new(1.0);
        profiler.observe(&record(FunctionKind::Learner, 250, true));
        let c = PrewarmController::new(4);
        let n = c.apply(&platform, &profiler, FunctionKind::Learner, 8.0);
        assert!(n >= 2);
        // The next invocations start warm.
        let (_, r) = platform.invoke(FunctionKind::Learner, || ());
        assert!(!r.cold);
    }

    #[test]
    fn observe_all_consumes_history() {
        let platform = Platform::new(2, 2, StartupProfile::default(), OverheadMode::Record);
        for _ in 0..5 {
            platform.invoke(FunctionKind::Learner, || {
                // Busy work: billing is CPU time, so sleeps would read ~0.
                let t0 = std::time::Instant::now();
                let mut acc = 0u64;
                while t0.elapsed() < Duration::from_millis(3) {
                    acc = acc.wrapping_add(1);
                    std::hint::black_box(acc);
                }
            });
        }
        let profiler = FunctionProfiler::new(0.3);
        profiler.observe_all(&platform.records());
        assert_eq!(profiler.samples(FunctionKind::Learner), 5);
        assert!(profiler.mean_exec(FunctionKind::Learner).unwrap() >= Duration::from_millis(1));
    }
}
