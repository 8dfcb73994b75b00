//! Structured tracing core: spans with parent IDs, monotonic timestamps,
//! and key/value fields, buffered per thread and flushed into a bounded
//! global sink.
//!
//! Hot-path cost when tracing is disabled (the default) is one relaxed
//! atomic load per [`span`]/[`instant`] call. When enabled, events are
//! appended to a `thread_local!` buffer without any cross-thread
//! synchronisation; the buffer drains into the global sink every
//! [`FLUSH_THRESHOLD`] events and when the thread exits, so scoped worker
//! threads (actors, learners, the parameter server) flush automatically.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::escape_into;
use crate::metrics::Counter;

/// Events buffered per thread before a flush into the global sink.
pub const FLUSH_THRESHOLD: usize = 256;

/// Hard cap on events retained by the global sink; later events are counted
/// in [`dropped_events`] instead of growing memory without bound.
pub const SINK_CAPACITY: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns event recording on. Also pins the trace epoch so timestamps are
/// relative to (at latest) this call.
///
/// Release/Acquire on `ENABLED` (analyzer rule A5): the Release store
/// publishes the pinned epoch to any thread whose Acquire load in
/// [`enabled`] observes `true`, without paying a full `SeqCst` fence on
/// the hot path.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns event recording off. Already-buffered events are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether event recording is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

static LAST_NOW_US: AtomicU64 = AtomicU64::new(0);

/// Microseconds since the trace epoch (first telemetry call or [`enable`]).
///
/// This is the only clock the tracing layer uses; deterministic code can
/// read time through it without tainting its results, since A4 treats the
/// telemetry crate as a barrier where `Instant::now()` is a taint source.
///
/// The reading is clamped monotonic across threads via
/// [`clamp_monotonic`]: `Instant` is monotonic per the platform contract,
/// but suspend/resume quirks and cross-CPU TSC skew have historically
/// produced small backward steps on real hosts. A backward step here would
/// make `end - start` underflow in span accounting; the clamp makes that
/// impossible by construction.
pub fn now_us() -> u64 {
    let raw = u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX);
    clamp_monotonic(&LAST_NOW_US, raw)
}

/// Clamps a clock reading to be monotonically non-decreasing with respect
/// to every reading previously folded into `last`: returns
/// `max(raw, previous readings)` and records `raw` into `last`.
///
/// Relaxed ordering suffices — the clamp only needs the per-atom
/// modification order, not cross-variable synchronisation.
pub fn clamp_monotonic(last: &AtomicU64, raw: u64) -> u64 {
    let prev = last.fetch_max(raw, Ordering::Relaxed);
    prev.max(raw)
}

/// A typed field value attached to a span or instant event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values serialise as JSON `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free-form text.
    Text(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Text(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Text(v)
    }
}

/// Kind of a recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration with a start and an end.
    Span,
    /// A point-in-time marker.
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Event kind (span or instant).
    pub kind: EventKind,
    /// Static span name, `<crate>.<operation>` by convention.
    pub name: &'static str,
    /// Unique event ID (process-wide, never 0).
    pub id: u64,
    /// ID of the enclosing span on the recording thread, 0 for roots.
    pub parent: u64,
    /// Small dense thread number (not the OS thread ID).
    pub tid: u64,
    /// Start time, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

struct ThreadBuf {
    tid: u64,
    events: Vec<Event>,
    stack: Vec<u64>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        sink_push(std::mem::take(&mut self.events));
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
        stack: Vec::new(),
    });
}

struct Sink {
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink {
        events: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    })
}

fn lock_sink() -> std::sync::MutexGuard<'static, Vec<Event>> {
    sink().events.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to the exported drop counter, resolved once so the overflow path
/// never takes the registry lock more than the first time.
fn dropped_total() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        crate::metrics::global().counter("stellaris_telemetry_dropped_events_total")
    })
}

fn sink_push(batch: Vec<Event>) {
    if batch.is_empty() {
        return;
    }
    // The flight recorder taps every flushed batch *before* the capacity
    // check: its ring retains the most recent window even when the main
    // sink has long since overflowed.
    crate::recorder::observe_batch(&batch);
    let n = batch.len();
    let mut events = lock_sink();
    let room = SINK_CAPACITY.saturating_sub(events.len());
    if n <= room {
        events.extend(batch);
    } else {
        events.extend(batch.into_iter().take(room));
        drop(events);
        let lost = (n - room) as u64;
        sink().dropped.fetch_add(lost, Ordering::Relaxed);
        // Surfaced as a Prometheus counter so silent trace loss shows up
        // in every exposition, not just in-process queries.
        dropped_total().add(lost);
    }
}

fn push_event(ev: Event) {
    // `try_with` / `try_borrow_mut`: recording must never panic, even during
    // thread teardown or (pathological) re-entrancy.
    let _ = BUF.try_with(|cell| {
        if let Ok(mut b) = cell.try_borrow_mut() {
            let tid = b.tid;
            b.events.push(Event { tid, ..ev });
            if b.events.len() >= FLUSH_THRESHOLD {
                let batch = std::mem::take(&mut b.events);
                drop(b);
                sink_push(batch);
            }
        }
    });
}

fn current_parent() -> u64 {
    BUF.try_with(|cell| {
        cell.try_borrow()
            .ok()
            .and_then(|b| b.stack.last().copied())
            .unwrap_or(0)
    })
    .unwrap_or(0)
}

fn stack_push(id: u64) {
    let _ = BUF.try_with(|cell| {
        if let Ok(mut b) = cell.try_borrow_mut() {
            b.stack.push(id);
        }
    });
}

fn stack_pop(id: u64) {
    let _ = BUF.try_with(|cell| {
        if let Ok(mut b) = cell.try_borrow_mut() {
            // Guards drop LIFO per thread, but be robust to leaks/forgets.
            if b.stack.last() == Some(&id) {
                b.stack.pop();
            } else if let Some(pos) = b.stack.iter().rposition(|&x| x == id) {
                b.stack.remove(pos);
            }
        }
    });
}

/// RAII guard that records a [`EventKind::Span`] event from construction to
/// drop. Obtain one via [`span`] or [`span_with`].
#[must_use = "a span guard records its duration when dropped"]
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    id: u64,
    parent: u64,
    start_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// Attaches an extra field to the span (no-op when tracing is off).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.active {
            self.fields.push((key, value.into()));
        }
    }

    /// The span's event ID (0 when tracing is disabled). Senders put this
    /// in a frame's trace-ID header field so the receiving process can
    /// parent its work under this span.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_us();
        stack_pop(self.id);
        push_event(Event {
            kind: EventKind::Span,
            name: self.name,
            id: self.id,
            parent: self.parent,
            tid: 0,
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// Opens a span with no fields. See [`span_with`].
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new())
}

/// Opens a span: the returned guard records a [`EventKind::Span`] event
/// covering its own lifetime, parented to the innermost open span on this
/// thread. When tracing is disabled this is a no-op guard.
pub fn span_with(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: false,
            name,
            id: 0,
            parent: 0,
            start_us: 0,
            fields: Vec::new(),
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_parent();
    stack_push(id);
    SpanGuard {
        active: true,
        name,
        id,
        parent,
        start_us: now_us(),
        fields,
    }
}

/// Opens a span parented to an *explicit* remote span ID instead of the
/// innermost open span on this thread.
///
/// This is the receiving half of cross-process span stitching: a frame
/// arrives carrying the sender's span ID in its trace-ID header field, and
/// the work it triggers is recorded under that ID even though the parent
/// span lives in another process. Pass 0 to record a root span.
pub fn span_with_parent(
    name: &'static str,
    remote_parent: u64,
    fields: Vec<(&'static str, FieldValue)>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: false,
            name,
            id: 0,
            parent: 0,
            start_us: 0,
            fields: Vec::new(),
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    stack_push(id);
    SpanGuard {
        active: true,
        name,
        id,
        parent: remote_parent,
        start_us: now_us(),
        fields,
    }
}

/// Raises the span-ID allocator to at least `base`.
///
/// Worker processes call this at startup with a disjoint per-worker base
/// (e.g. `(index + 1) << 40`) so IDs minted on both sides of a socket never
/// collide when the traces are merged. `fetch_max` makes the call monotonic
/// and safe to repeat; a base of 0 is bumped to 1 because ID 0 means "no
/// parent".
pub fn set_span_id_base(base: u64) {
    NEXT_SPAN_ID.fetch_max(base.max(1), Ordering::Relaxed);
}

/// Feeds externally-recorded events (e.g. pulled from a worker process over
/// the wire) into this process's sink, as if they had been recorded here.
/// Events pass through the flight recorder and the capacity cap exactly
/// like local flushes.
pub fn ingest_events(events: Vec<Event>) {
    sink_push(events);
}

/// Bounded leak-once intern table mapping dynamic strings to `&'static str`
/// so wire-decoded event names can populate [`Event::name`].
const INTERN_CAPACITY: usize = 1024;

/// Interns a string, returning a `'static` reference. Each unique name
/// leaks exactly once; once `INTERN_CAPACITY` unique names exist, further
/// new names all map to a shared `"interned.overflow"` sentinel so a
/// hostile peer cannot grow memory without bound through the trace path.
pub fn intern_name(name: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(Vec::new()));
    let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = table.iter().find(|s| **s == name) {
        return hit;
    }
    if table.len() >= INTERN_CAPACITY {
        return "interned.overflow";
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

/// Records a point-in-time event parented to the innermost open span.
pub fn instant(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if !enabled() {
        return;
    }
    push_event(Event {
        kind: EventKind::Instant,
        name,
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: current_parent(),
        tid: 0,
        ts_us: now_us(),
        dur_us: 0,
        fields,
    });
}

/// Records an already-completed span from explicit timestamps (microseconds
/// since the trace epoch, as returned by [`now_us`]). Used where the start
/// of the measured region is observed retroactively — e.g. the nn forward
/// pass, whose extent is the autodiff tape's construction.
pub fn span_closed(
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if !enabled() {
        return;
    }
    push_event(Event {
        kind: EventKind::Span,
        name,
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: current_parent(),
        tid: 0,
        ts_us: start_us,
        dur_us,
        fields,
    });
}

/// Flushes this thread's buffered events into the global sink. Threads
/// flush automatically at exit; the main thread should call this (or
/// [`drain`], which does) before serialising a trace.
pub fn flush_thread() {
    let _ = BUF.try_with(|cell| {
        if let Ok(mut b) = cell.try_borrow_mut() {
            let batch = std::mem::take(&mut b.events);
            drop(b);
            sink_push(batch);
        }
    });
}

/// Flushes the calling thread and removes all events from the global sink.
pub fn drain() -> Vec<Event> {
    flush_thread();
    std::mem::take(&mut *lock_sink())
}

/// Events discarded because the global sink hit [`SINK_CAPACITY`].
pub fn dropped_events() -> u64 {
    sink().dropped.load(Ordering::Relaxed)
}

fn field_json(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(x) => out.push_str(&x.to_string()),
        FieldValue::I64(x) => out.push_str(&x.to_string()),
        FieldValue::F64(x) if x.is_finite() => out.push_str(&x.to_string()),
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        FieldValue::Text(x) => {
            out.push('"');
            escape_into(out, x);
            out.push('"');
        }
    }
}

fn fields_json(out: &mut String, fields: &[(&'static str, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        field_json(out, v);
    }
    out.push('}');
}

fn event_jsonl(out: &mut String, e: &Event) {
    out.push_str("{\"type\":\"");
    out.push_str(match e.kind {
        EventKind::Span => "span",
        EventKind::Instant => "instant",
    });
    out.push_str("\",\"name\":\"");
    escape_into(out, e.name);
    out.push_str("\",\"id\":");
    out.push_str(&e.id.to_string());
    out.push_str(",\"parent\":");
    out.push_str(&e.parent.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&e.tid.to_string());
    out.push_str(",\"ts_us\":");
    out.push_str(&e.ts_us.to_string());
    out.push_str(",\"dur_us\":");
    out.push_str(&e.dur_us.to_string());
    out.push_str(",\"fields\":");
    fields_json(out, &e.fields);
    out.push('}');
}

/// Writes events as JSONL: one self-contained JSON object per line.
pub fn write_jsonl<W: Write>(events: &[Event], w: &mut W) -> io::Result<()> {
    let mut line = String::with_capacity(160);
    for e in events {
        line.clear();
        event_jsonl(&mut line, e);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Writes events as a chrome://tracing (about:tracing / Perfetto) JSON
/// object with complete (`"X"`) and instant (`"i"`) events.
pub fn write_chrome_trace<W: Write>(events: &[Event], w: &mut W) -> io::Result<()> {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_into(&mut out, e.name);
        out.push_str("\",\"cat\":\"stellaris\",\"ph\":\"");
        out.push_str(match e.kind {
            EventKind::Span => "X",
            EventKind::Instant => "i",
        });
        out.push('"');
        if e.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&e.ts_us.to_string());
        if e.kind == EventKind::Span {
            out.push_str(",\"dur\":");
            out.push_str(&e.dur_us.to_string());
        }
        out.push_str(",\"args\":");
        fields_json(&mut out, &e.fields);
        out.push('}');
    }
    out.push_str("]}");
    w.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    // Touches only a local atomic, so it can run beside the global test.
    #[test]
    fn clamp_monotonic_never_steps_backwards() {
        let last = AtomicU64::new(0);
        assert_eq!(clamp_monotonic(&last, 10), 10);
        assert_eq!(clamp_monotonic(&last, 17), 17);
        // A backward clock step is absorbed: the reading holds at the
        // high-water mark, so `end - start` can never underflow.
        assert_eq!(clamp_monotonic(&last, 5), 17);
        assert_eq!(clamp_monotonic(&last, 17), 17);
        assert_eq!(clamp_monotonic(&last, 18), 18);
        // And the real clock wrapper is itself non-decreasing.
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn intern_name_dedups_and_is_stable() {
        let a = intern_name("remote.collect");
        let b = intern_name("remote.collect");
        assert!(std::ptr::eq(a, b), "same name must intern to one pointer");
        let c = intern_name(&format!("remote.{}", "gradient"));
        assert_eq!(c, "remote.gradient");
    }

    // The trace sink and enabled flag are process-global, so everything
    // touching them lives in ONE test (cargo test runs tests concurrently
    // within the process).
    #[test]
    fn end_to_end_trace_flow() {
        assert!(!enabled());
        // Disabled spans are inert.
        {
            let mut g = span("off.root");
            g.field("k", 1u64);
        }
        instant("off.marker", vec![]);
        assert!(drain().is_empty());

        enable();
        let (outer_id, inner_parent);
        {
            let mut outer = span_with("test.outer", vec![("round", 3usize.into())]);
            outer.field("extra", "hi");
            let inner = span("test.inner");
            instant(
                "test.marker",
                vec![("ok", true.into()), ("pi", 3.5f64.into())],
            );
            outer_id = outer.id;
            inner_parent = inner.parent;
        }
        span_closed("test.closed", 10, 5, vec![("neg", (-2i64).into())]);

        // Cross-process stitching: a remote-parented span carries the
        // explicit parent rather than this thread's innermost span, and a
        // worker-style ID base keeps freshly-minted IDs disjoint.
        set_span_id_base(1 << 40);
        let remote_child_id;
        {
            let g = span_with_parent("test.remote_child", outer_id, vec![]);
            remote_child_id = g.id;
        }
        assert!(remote_child_id >= 1 << 40, "base raises the allocator");
        // Ingested events land in the sink as-is, as if recorded locally.
        ingest_events(vec![Event {
            kind: EventKind::Span,
            name: intern_name("test.ingested"),
            id: (1 << 50) + 1,
            parent: outer_id,
            tid: 99,
            ts_us: 1,
            dur_us: 2,
            fields: vec![],
        }]);

        // Worker-thread events flush via TLS drop at thread exit.
        std::thread::spawn(|| {
            let _g = span("test.worker");
        })
        .join()
        .ok();

        let events = drain();
        disable();

        assert_eq!(inner_parent, outer_id, "nesting tracks parent IDs");
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        for want in [
            "test.outer",
            "test.inner",
            "test.marker",
            "test.closed",
            "test.worker",
            "test.remote_child",
            "test.ingested",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        let remote = events
            .iter()
            .find(|e| e.name == "test.remote_child")
            .expect("remote child");
        assert_eq!(remote.parent, outer_id, "explicit remote parent wins");
        let ingested = events
            .iter()
            .find(|e| e.name == "test.ingested")
            .expect("ingested");
        assert_eq!(ingested.parent, outer_id);
        assert_eq!(ingested.tid, 99, "ingested events keep their origin tid");
        let outer = events
            .iter()
            .find(|e| e.name == "test.outer")
            .expect("outer");
        assert_eq!(outer.kind, EventKind::Span);
        assert_eq!(outer.parent, 0);
        assert!(outer
            .fields
            .iter()
            .any(|(k, v)| *k == "round" && *v == FieldValue::U64(3)));
        let marker = events.iter().find(|e| e.name == "test.marker").expect("m");
        assert_eq!(marker.kind, EventKind::Instant);
        assert_eq!(marker.dur_us, 0);
        let worker = events.iter().find(|e| e.name == "test.worker").expect("w");
        assert_ne!(worker.tid, outer.tid, "worker events carry their own tid");

        // Both serialisations are valid JSON.
        let mut jsonl = Vec::new();
        write_jsonl(&events, &mut jsonl).expect("jsonl");
        let text = String::from_utf8(jsonl).expect("utf8");
        assert_eq!(text.lines().count(), events.len());
        for line in text.lines() {
            validate_json(line).expect("each JSONL line parses");
        }
        let mut chrome = Vec::new();
        write_chrome_trace(&events, &mut chrome).expect("chrome");
        let chrome = String::from_utf8(chrome).expect("utf8");
        validate_json(&chrome).expect("chrome trace parses");
        assert!(chrome.starts_with("{\"traceEvents\":["));

        // Sink is empty again after the drain.
        assert!(drain().is_empty());
        assert_eq!(dropped_events(), 0);
    }
}
