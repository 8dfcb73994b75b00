//! Flight recorder: a bounded, lock-light ring of the most recent trace
//! events, with postmortem dumps (DESIGN.md §13).
//!
//! While the main trace sink is a grow-until-capacity log meant to be
//! drained once at the end of a run, the recorder is a *black box*: it taps
//! every per-thread batch flushed into the sink (one ring-lock acquisition
//! per [`crate::trace::FLUSH_THRESHOLD`]-event batch, so the hot path cost
//! is amortised to nearly nothing) and retains only the last
//! [`RecorderConfig::window_us`] microseconds, capped at
//! [`RecorderConfig::capacity`] events. When something goes wrong —
//! a panic anywhere in the process (via [`install_panic_hook`]), a
//! degraded-round threshold, or a fault-injection spike — it dumps what it
//! has as `flight-<reason>.jsonl` + `.trace.json` + `.prom` under the
//! configured directory, so chaos runs leave forensically useful artifacts
//! instead of nothing.
//!
//! Eviction walks the ring front, which is in *flush* order: per-thread
//! batches land whole, so the ring is only approximately time-sorted.
//! [`dump`] re-sorts by timestamp and normalises parent IDs that were
//! evicted out of the window (an orphaned `parent` becomes 0), so every
//! dump satisfies `obs validate`'s parent-closure check.
//!
//! All entry points are panic-free and safe to call from a
//! panic hook: poisoned locks are recovered, filesystem errors are
//! swallowed, and an unarmed recorder is a single atomic load.

use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::trace::{self, Event, EventKind};

/// Flight-recorder retention and trigger configuration.
#[derive(Clone, Debug)]
pub struct RecorderConfig {
    /// Retention window: events whose end precedes `now - window_us` are
    /// evicted from the ring.
    pub window_us: u64,
    /// Hard cap on retained events (the ring never outgrows this,
    /// whatever the window says).
    pub capacity: usize,
    /// Directory postmortem dumps are written into.
    pub dir: PathBuf,
    /// Automatic dump once this many degraded rounds have been reported
    /// via [`note_degraded_round`] (0 disables the trigger).
    pub degraded_round_threshold: u64,
    /// Automatic dump once this many injected faults have been reported
    /// via [`note_fault`] (0 disables the trigger).
    pub fault_spike_threshold: u64,
}

impl Default for RecorderConfig {
    /// 60 s window, 256 Ki events, `target/flight`, dump after 8 degraded
    /// rounds or 64 injected faults.
    fn default() -> Self {
        Self {
            window_us: 60_000_000,
            capacity: 1 << 18,
            dir: PathBuf::from("target/flight"),
            degraded_round_threshold: 8,
            fault_spike_threshold: 64,
        }
    }
}

const TRIGGER_PANIC: usize = 0;
const TRIGGER_DEGRADED: usize = 1;
const TRIGGER_FAULTS: usize = 2;

/// The recorder state machine, decoupled from the process-wide singleton
/// so unit tests can drive a private instance without arming the global
/// tracing pipeline.
struct Core {
    /// Armed flag. Release store in [`Core::arm`] publishes the relaxed
    /// config cells below to any thread whose Acquire load observes
    /// `true` (the `trace::ENABLED` pattern, analyzer rule A5).
    armed: AtomicBool,
    capacity: AtomicU64,
    window_us: AtomicU64,
    degraded_threshold: AtomicU64,
    fault_threshold: AtomicU64,
    dir: Mutex<PathBuf>,
    ring: Mutex<VecDeque<Event>>,
    degraded: AtomicU64,
    faults: AtomicU64,
    dumps: AtomicU64,
    fired: [AtomicBool; 3],
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Core {
    fn new() -> Self {
        Self {
            armed: AtomicBool::new(false),
            capacity: AtomicU64::new(0),
            window_us: AtomicU64::new(0),
            degraded_threshold: AtomicU64::new(0),
            fault_threshold: AtomicU64::new(0),
            dir: Mutex::new(PathBuf::new()),
            // shed: observe() drops the oldest event once `capacity` is hit.
            ring: Mutex::new(VecDeque::new()),
            degraded: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            fired: [
                AtomicBool::new(false),
                AtomicBool::new(false),
                AtomicBool::new(false),
            ],
        }
    }

    fn arm(&self, cfg: RecorderConfig) {
        *lock(&self.dir) = cfg.dir;
        self.capacity
            .store(cfg.capacity.max(1) as u64, Ordering::Relaxed);
        self.window_us.store(cfg.window_us, Ordering::Relaxed);
        self.degraded_threshold
            .store(cfg.degraded_round_threshold, Ordering::Relaxed);
        self.fault_threshold
            .store(cfg.fault_spike_threshold, Ordering::Relaxed);
        // A fresh arming starts a fresh incident window.
        lock(&self.ring).clear();
        self.degraded.store(0, Ordering::Relaxed);
        self.faults.store(0, Ordering::Relaxed);
        for f in &self.fired {
            f.store(false, Ordering::Relaxed);
        }
        self.armed.store(true, Ordering::Release);
    }

    fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    fn observe(&self, batch: &[Event]) {
        if !self.is_armed() {
            return;
        }
        let cap = self.capacity.load(Ordering::Relaxed) as usize;
        let cutoff = trace::now_us().saturating_sub(self.window_us.load(Ordering::Relaxed));
        let mut ring = lock(&self.ring);
        ring.extend(batch.iter().cloned());
        while ring.len() > cap {
            ring.pop_front();
        }
        // The front is the oldest *flushed* batch; batches are only
        // approximately time-ordered, so stop at the first in-window event
        // (a cheap, conservative window).
        while let Some(front) = ring.front() {
            if front.ts_us.saturating_add(front.dur_us) < cutoff {
                ring.pop_front();
            } else {
                break;
            }
        }
    }

    /// Ring contents, time-sorted, with parents orphaned by eviction
    /// normalised to root (0) so the parent-ID closure property holds.
    fn ring_snapshot(&self) -> Vec<Event> {
        let mut events: Vec<Event> = lock(&self.ring).iter().cloned().collect();
        events.sort_by_key(|e| e.ts_us);
        let ids: BTreeSet<u64> = events.iter().map(|e| e.id).collect();
        for e in &mut events {
            if e.parent != 0 && !ids.contains(&e.parent) {
                e.parent = 0;
            }
        }
        events
    }

    fn dump(&self, reason: &str) -> Option<PathBuf> {
        if !self.is_armed() {
            return None;
        }
        // Pull the calling thread's buffered events in (on a panic this is
        // the panicking thread — exactly the one whose tail matters).
        trace::flush_thread();
        let mut events = self.ring_snapshot();
        let retained = events.len();
        let meta = Event {
            kind: EventKind::Instant,
            name: "recorder.dump",
            id: u64::MAX,
            parent: 0,
            tid: 0,
            ts_us: trace::now_us(),
            dur_us: 0,
            fields: vec![
                ("reason", reason.into()),
                ("retained", retained.into()),
                ("dropped_events", trace::dropped_events().into()),
            ],
        };
        events.insert(0, meta);

        let base = lock(&self.dir).join(format!("flight-{}", sanitize(reason)));
        trace::write_artefacts(&base, &events).ok()?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        Some(base)
    }

    fn fire_once(&self, trigger: usize, reason: &str) -> Option<PathBuf> {
        let flag = self.fired.get(trigger)?;
        if !self.is_armed() || flag.swap(true, Ordering::Relaxed) {
            return None;
        }
        let path = self.dump(reason);
        #[expect(
            clippy::print_stderr,
            reason = "a postmortem dump must announce itself to the operator"
        )]
        if let Some(p) = &path {
            eprintln!(
                "stellaris flight recorder: {reason} -> {}.{{jsonl,trace.json,prom}}",
                p.display()
            );
        }
        path
    }

    fn note_degraded(&self) {
        let n = self.degraded.fetch_add(1, Ordering::Relaxed) + 1;
        let t = self.degraded_threshold.load(Ordering::Relaxed);
        if t > 0 && n >= t {
            self.fire_once(TRIGGER_DEGRADED, "degraded_rounds");
        }
    }

    fn note_fault(&self) {
        let n = self.faults.fetch_add(1, Ordering::Relaxed) + 1;
        let t = self.fault_threshold.load(Ordering::Relaxed);
        if t > 0 && n >= t {
            self.fire_once(TRIGGER_FAULTS, "fault_spike");
        }
    }
}

fn sanitize(reason: &str) -> String {
    reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(48)
        .collect()
}

fn core() -> &'static Core {
    static CORE: OnceLock<Core> = OnceLock::new();
    CORE.get_or_init(Core::new)
}

/// Arms the process-wide flight recorder with `cfg` and enables tracing
/// (a recorder without events would be an empty black box). Re-arming
/// clears the ring and resets the trigger counters, starting a fresh
/// incident window.
pub fn arm(cfg: RecorderConfig) {
    core().arm(cfg);
    trace::enable();
}

/// Disarms the recorder: batches are no longer retained and triggers no
/// longer fire. The ring's current contents are kept until the next [`arm`].
pub fn disarm() {
    core().disarm();
}

/// Whether the flight recorder is currently armed.
pub fn is_armed() -> bool {
    core().is_armed()
}

/// Tap invoked by the trace sink on every flushed batch.
pub(crate) fn observe_batch(batch: &[Event]) {
    core().observe(batch);
}

/// Reports one degraded training round; crossing
/// [`RecorderConfig::degraded_round_threshold`] dumps once per arming.
pub fn note_degraded_round() {
    core().note_degraded();
}

/// Reports one injected fault; crossing
/// [`RecorderConfig::fault_spike_threshold`] dumps once per arming.
pub fn note_fault() {
    core().note_fault();
}

/// Dumps the ring now as `flight-<reason>.{jsonl,trace.json,prom}` under
/// the configured directory, returning the extensionless base path.
/// Returns `None` when disarmed or when an artefact cannot be written.
pub fn dump(reason: &str) -> Option<PathBuf> {
    core().dump(reason)
}

/// Number of dumps written since process start.
pub fn dump_count() -> u64 {
    core().dumps.load(Ordering::Relaxed)
}

/// Chains a panic hook that dumps the flight recorder (reason `panic`,
/// once per process) before delegating to the previously installed hook.
/// Installing twice is a no-op.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::Relaxed) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        core().fire_once(TRIGGER_PANIC, "panic");
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FieldValue;
    use std::path::Path;

    fn ev(id: u64, parent: u64, ts_us: u64, dur_us: u64) -> Event {
        Event {
            kind: EventKind::Span,
            name: "test.span",
            id,
            parent,
            tid: 1,
            ts_us,
            dur_us,
            fields: Vec::new(),
        }
    }

    fn armed_core(capacity: usize, window_us: u64, dir: &Path) -> Core {
        let c = Core::new();
        c.arm(RecorderConfig {
            window_us,
            capacity,
            dir: dir.to_path_buf(),
            degraded_round_threshold: 2,
            fault_spike_threshold: 3,
        });
        c
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stellaris-recorder-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unarmed_core_ignores_batches_and_dumps_nothing() {
        let c = Core::new();
        c.observe(&[ev(1, 0, 0, 5)]);
        assert!(lock(&c.ring).is_empty());
        assert!(c.dump("manual").is_none());
        assert_eq!(c.dumps.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn capacity_evicts_oldest_events() {
        let dir = tmp_dir("cap");
        let c = armed_core(4, u64::MAX, &dir);
        c.observe(&[ev(1, 0, 10, 1), ev(2, 0, 20, 1), ev(3, 0, 30, 1)]);
        c.observe(&[ev(4, 0, 40, 1), ev(5, 0, 50, 1), ev(6, 0, 60, 1)]);
        let ids: Vec<u64> = c.ring_snapshot().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![3, 4, 5, 6], "ring keeps the newest 4 of 6");
    }

    #[test]
    fn snapshot_sorts_and_normalises_orphaned_parents() {
        let dir = tmp_dir("orphan");
        let c = armed_core(2, u64::MAX, &dir);
        // Parent id 1 is evicted by capacity; child 3 must not dangle.
        c.observe(&[ev(1, 0, 5, 1), ev(3, 1, 30, 1), ev(2, 3, 20, 1)]);
        let snap = c.ring_snapshot();
        let ids: Vec<u64> = snap.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 3], "sorted by timestamp");
        let orphan = snap.iter().find(|e| e.id == 3).map(|e| e.parent);
        assert_eq!(orphan, Some(0), "evicted parent normalised to root");
        let kept = snap.iter().find(|e| e.id == 2).map(|e| e.parent);
        assert_eq!(kept, Some(3), "surviving parent link intact");
    }

    #[test]
    fn dump_writes_three_artifacts_with_meta_line() {
        let dir = tmp_dir("dump");
        let c = armed_core(16, u64::MAX, &dir);
        c.observe(&[ev(1, 0, 10, 5), ev(2, 1, 12, 1)]);
        let base = c.dump("unit test").unwrap_or_default();
        assert!(base.ends_with("flight-unit_test"), "{base:?}");
        let jsonl = std::fs::read_to_string(trace::artefact(&base, ".jsonl")).unwrap_or_default();
        let events = trace::read_jsonl(&jsonl).unwrap_or_else(|e| panic!("bad dump: {e}"));
        assert_eq!(events.len(), 3, "meta + two events");
        assert_eq!(events[0].name, "recorder.dump", "meta line first");
        assert_eq!(
            events[0].fields[0],
            ("reason", FieldValue::Text("unit test".into()))
        );
        let chrome =
            std::fs::read_to_string(trace::artefact(&base, ".trace.json")).unwrap_or_default();
        assert!(crate::json::parse(&chrome).is_ok());
        assert!(trace::artefact(&base, ".prom").exists());
        assert_eq!(c.dumps.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thresholds_fire_once_per_arming() {
        let dir = tmp_dir("thresh");
        let c = armed_core(16, u64::MAX, &dir);
        c.observe(&[ev(1, 0, 10, 5)]);
        c.note_fault();
        c.note_fault();
        assert_eq!(c.dumps.load(Ordering::Relaxed), 0, "below threshold");
        c.note_fault();
        assert_eq!(c.dumps.load(Ordering::Relaxed), 1, "threshold crossed");
        c.note_fault();
        c.note_fault();
        assert_eq!(c.dumps.load(Ordering::Relaxed), 1, "fires only once");
        c.note_degraded();
        c.note_degraded();
        assert_eq!(c.dumps.load(Ordering::Relaxed), 2, "independent trigger");
        // Re-arming resets counters and fired flags.
        c.arm(RecorderConfig {
            window_us: u64::MAX,
            capacity: 16,
            dir: dir.clone(),
            degraded_round_threshold: 1,
            fault_spike_threshold: 1,
        });
        c.note_fault();
        assert_eq!(c.dumps.load(Ordering::Relaxed), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
