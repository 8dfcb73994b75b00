//! Bounded gradient queues: one lane ([`GradientQueue`]) and the sharded
//! plane of lanes ([`ShardedGradientQueue`]).
//!
//! The paper's components communicate through Redis lists; this is the
//! equivalent primitive, bounded with shed-oldest overflow so producers
//! never block. Consumers poll ([`GradientQueue::try_pop`],
//! [`ShardedGradientQueue::try_pop_any`]): no training path queues
//! gradients any more — the asynchronous schedule offers each one on the
//! cycle's thread as it lands — and the benchmark's plane probe drives the
//! lanes from one thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stellaris_telemetry::{Counter, Gauge, Histogram};

/// The gradient stream (workflow Step ②→③): a bounded FIFO that tracks
/// each payload's policy base version so the consumer can reason about the
/// queue's staleness profile before aggregating.
///
/// ```
/// use stellaris_cache::GradientQueue;
/// let q = GradientQueue::bounded(8);
/// q.push("grad:0", 0);
/// q.push("grad:1", 2);
/// assert_eq!(q.staleness_average(3), Some(2.0)); // ((3-0) + (3-2)) / 2
/// assert_eq!(q.try_pop(), Some(("grad:0", 0)));
/// ```
pub struct GradientQueue<T> {
    inner: Mutex<VecDeque<(T, u64)>>,
    /// Depth cap (≥ 1): a push against a full queue sheds the oldest payload.
    cap: usize,
    /// Payloads shed (oldest-first) by pushes against a full queue.
    shed: AtomicU64,
    /// Consumer-published aggregation clock (see [`Self::advance_clock`]);
    /// lets dequeues compute per-gradient staleness without reaching into
    /// the parameter server.
    clock: AtomicU64,
    enqueued: Arc<Counter>,
    dequeued: Arc<Counter>,
    shed_total: Arc<Counter>,
    depth: Arc<Gauge>,
    staleness_hist: Arc<Histogram>,
    /// Per-lane depth gauge and shed counter, present only for queues built
    /// as one lane of a [`ShardedGradientQueue`]; the shared
    /// `stellaris_cache_queue_*` series above keep aggregating across lanes.
    lane_depth: Option<Arc<Gauge>>,
    lane_shed: Option<Arc<Counter>>,
}

impl<T> GradientQueue<T> {
    /// Creates an empty queue that holds at most `cap` payloads
    /// (clamped to ≥ 1). A push against a full queue sheds the *oldest*
    /// payload — the most stale gradient, the one aggregation weights least
    /// — so producers never block and memory stays bounded however many
    /// learners fan in. Sheds are counted ([`Self::shed_count`]) and
    /// exported as `stellaris_cache_queue_shed_total`.
    pub fn bounded(cap: usize) -> Self {
        let reg = stellaris_telemetry::global();
        Self {
            // bound: capacity is enforced in `push` (shed-oldest at `cap`).
            inner: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            shed: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            enqueued: reg.counter("stellaris_cache_queue_enqueued_total"),
            dequeued: reg.counter("stellaris_cache_queue_dequeued_total"),
            shed_total: reg.counter("stellaris_cache_queue_shed_total"),
            depth: reg.gauge("stellaris_cache_queue_depth"),
            staleness_hist: reg.histogram("stellaris_cache_queue_staleness"),
            lane_depth: None,
            lane_shed: None,
        }
    }

    /// Creates one bounded lane of a sharded gradient plane: identical to
    /// [`Self::bounded`] (shed-oldest at `cap`), plus per-lane telemetry —
    /// `stellaris_cache_lane<i>_depth` and `stellaris_cache_lane<i>_shed_total`
    /// (names sanitized at registration) — on top of the shared
    /// `stellaris_cache_queue_*` aggregates.
    pub fn bounded_lane(cap: usize, lane: usize) -> Self {
        let mut q = Self::bounded(cap);
        let reg = stellaris_telemetry::global();
        q.lane_depth = Some(reg.gauge(&format!("stellaris_cache_lane{lane}_depth")));
        q.lane_shed = Some(reg.counter(&format!("stellaris_cache_lane{lane}_shed_total")));
        q
    }

    /// The depth cap.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many payloads have been shed by pushes against a full queue.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Publishes the consumer's aggregation clock. Dequeues histogram each
    /// payload's staleness (`clock - base_version`, saturating) against the
    /// latest published value into `stellaris_cache_queue_staleness`.
    /// Monotonic: stale publishes (a racing older clock) are ignored.
    pub fn advance_clock(&self, clock: u64) {
        self.clock.fetch_max(clock, Ordering::AcqRel);
    }

    /// The latest published aggregation clock.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Enqueues a payload computed against policy version `base_version`.
    /// The enqueue is traced as a `cache.queue_push` span.
    pub fn push(&self, item: T, base_version: u64) {
        let _span = stellaris_telemetry::span("cache.queue_push");
        let (depth, shed) = {
            let mut q = self.inner.lock();
            let shed = q.len() >= self.cap;
            if shed {
                q.pop_front();
            }
            q.push_back((item, base_version));
            (q.len(), shed)
        };
        if shed {
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.shed_total.inc();
            if let Some(lane_shed) = &self.lane_shed {
                lane_shed.inc();
            }
        }
        self.enqueued.inc();
        self.depth.set(depth as f64);
        if let Some(lane_depth) = &self.lane_depth {
            lane_depth.set(depth as f64);
        }
    }

    fn note_dequeue(&self, base_version: u64, depth: usize) {
        self.dequeued.inc();
        self.depth.set(depth as f64);
        if let Some(lane_depth) = &self.lane_depth {
            lane_depth.set(depth as f64);
        }
        let staleness = self.clock().saturating_sub(base_version);
        self.staleness_hist.record(staleness);
    }

    /// Dequeues the oldest payload and its base version, if any.
    pub fn try_pop(&self) -> Option<(T, u64)> {
        let (entry, depth) = {
            let mut q = self.inner.lock();
            let entry = q.pop_front()?;
            (entry, q.len())
        };
        self.note_dequeue(entry.1, depth);
        Some(entry)
    }

    /// Mean staleness of everything queued, measured against the current
    /// policy `clock`; `None` when the queue is empty. Staleness saturates
    /// at zero for payloads based on versions the clock has not reached
    /// (a producer may snapshot between the consumer's update and read).
    pub fn staleness_average(&self, clock: u64) -> Option<f64> {
        let q = self.inner.lock();
        if q.is_empty() {
            return None;
        }
        let sum: u64 = q.iter().map(|(_, base)| clock.saturating_sub(*base)).sum();
        let avg = sum as f64 / q.len() as f64;
        debug_assert!(
            avg >= 0.0 && avg.is_finite(),
            "queue staleness average must be a finite non-negative number, got {avg}"
        );
        Some(avg)
    }

    /// Largest staleness currently queued (None when empty).
    pub fn staleness_max(&self, clock: u64) -> Option<u64> {
        let q = self.inner.lock();
        q.iter().map(|(_, base)| clock.saturating_sub(*base)).max()
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// The sharded gradient plane (DESIGN.md §16): `n_lanes` independent bounded
/// [`GradientQueue`] lanes so thousands of learners fan in without ever
/// touching a shared lock — a producer hashes its key to a lane
/// ([`Self::lane_of`]) and contends only with the ~`1/n_lanes` of producers
/// that share it. Each lane keeps the shed-oldest policy, so the plane's
/// memory is bounded at `n_lanes * per_lane_cap` payloads however many
/// learners push.
///
/// Consumers drain with a rotating scan ([`Self::try_pop_any`]); the
/// rotation cursor is a single relaxed atomic, not a lock, and exists only
/// for fairness across lanes.
///
/// ```
/// use stellaris_cache::ShardedGradientQueue;
/// let q = ShardedGradientQueue::bounded(4, 16);
/// q.push(7, "grad:7", 0); // learner 7 → lane 7 % 4 = 3
/// assert_eq!(q.lane_of(7), 3);
/// assert_eq!(q.try_pop_any(), Some(("grad:7", 0)));
/// ```
pub struct ShardedGradientQueue<T> {
    lanes: Vec<GradientQueue<T>>,
    /// Consumer fairness cursor: where the next rotating scan starts.
    cursor: AtomicU64,
}

impl<T> ShardedGradientQueue<T> {
    /// Creates `n_lanes` lanes (clamped to ≥ 1), each bounded at
    /// `per_lane_cap` payloads with shed-oldest overflow. Every lane is an
    /// intrinsically bounded `GradientQueue::bounded_lane` ctor, so the plane
    /// is bounded by construction.
    pub fn bounded(n_lanes: usize, per_lane_cap: usize) -> Self {
        let lanes = (0..n_lanes.max(1))
            .map(|i| GradientQueue::bounded_lane(per_lane_cap, i))
            .collect();
        Self {
            lanes,
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The lane a producer key hashes to. Pure arithmetic on the key — no
    /// shared state is read, so concurrent producers never serialize here.
    pub fn lane_of(&self, key: u64) -> usize {
        (key % self.lanes.len() as u64) as usize
    }

    /// Direct access to one lane (tests, per-lane draining).
    pub fn lane(&self, i: usize) -> &GradientQueue<T> {
        &self.lanes[i]
    }

    /// Enqueues a payload keyed by producer identity: the key picks the lane,
    /// the push contends only on that lane's mutex.
    pub fn push(&self, key: u64, item: T, base_version: u64) {
        self.lanes[self.lane_of(key)].push(item, base_version);
    }

    /// Non-blocking dequeue: rotating scan over all lanes starting one past
    /// the previous scan's origin, so no lane starves under sustained load.
    pub fn try_pop_any(&self) -> Option<(T, u64)> {
        let n = self.lanes.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        for k in 0..n {
            if let Some(entry) = self.lanes[(start + k) % n].try_pop() {
                return Some(entry);
            }
        }
        None
    }

    /// Publishes the consumer's aggregation clock to every lane (see
    /// [`GradientQueue::advance_clock`]).
    pub fn advance_clock(&self, clock: u64) {
        for lane in &self.lanes {
            lane.advance_clock(clock);
        }
    }

    /// The latest published aggregation clock (lanes share one publisher, so
    /// any lane's view is the plane's view).
    pub fn clock(&self) -> u64 {
        self.lanes[0].clock()
    }

    /// Total payloads queued across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    /// True when every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.is_empty())
    }

    /// Total payloads shed across all lanes.
    pub fn shed_count(&self) -> u64 {
        self.lanes.iter().map(|l| l.shed_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_queue_tracks_base_versions() {
        let q = GradientQueue::bounded(8);
        q.push("a", 0);
        q.push("b", 3);
        q.push("c", 5);
        assert_eq!(q.len(), 3);
        assert_eq!(q.staleness_average(5), Some((5.0 + 2.0) / 3.0)); // stalenesses 5, 2, 0
        assert_eq!(q.staleness_max(5), Some(5));
        assert_eq!(q.try_pop(), Some(("a", 0)));
        assert_eq!(q.staleness_average(5), Some(1.0));
    }

    #[test]
    fn gradient_queue_staleness_saturates_at_zero() {
        let q = GradientQueue::bounded(8);
        q.push((), 9);
        // Clock behind the base version (producer raced an update).
        assert_eq!(q.staleness_average(4), Some(0.0));
    }

    #[test]
    fn gradient_queue_empty_has_no_average() {
        let q = GradientQueue::<u8>::bounded(8);
        assert_eq!(q.staleness_average(10), None);
        assert_eq!(q.staleness_max(10), None);
        assert!(q.is_empty());
    }

    #[test]
    fn gradient_queue_clock_is_monotonic() {
        let q = GradientQueue::<u8>::bounded(8);
        assert_eq!(q.clock(), 0);
        q.advance_clock(5);
        q.advance_clock(3); // stale publish ignored
        assert_eq!(q.clock(), 5);
        q.advance_clock(9);
        assert_eq!(q.clock(), 9);
    }

    #[test]
    fn dequeues_histogram_staleness_against_published_clock() {
        let before = stellaris_telemetry::global()
            .histogram("stellaris_cache_queue_staleness")
            .count();
        let q = GradientQueue::bounded(8);
        q.push("a", 0);
        q.push("b", 4);
        q.advance_clock(4);
        assert_eq!(q.try_pop(), Some(("a", 0))); // staleness 4
        assert_eq!(q.try_pop(), Some(("b", 4))); // staleness 0
                                                 // Other queue tests in this binary record concurrently into the
                                                 // same global histogram, so only a monotonic bound is safe here.
        let h = stellaris_telemetry::global().histogram("stellaris_cache_queue_staleness");
        assert!(h.count() >= before + 2);
    }

    #[test]
    fn bounded_queue_sheds_oldest_on_overflow() {
        let q = GradientQueue::bounded(2);
        assert_eq!(q.capacity(), 2);
        q.push("a", 0);
        q.push("b", 1);
        assert_eq!(q.shed_count(), 0);
        q.push("c", 2); // full: "a" (the stalest payload) is shed
        assert_eq!(q.len(), 2);
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.try_pop(), Some(("b", 1)));
        assert_eq!(q.try_pop(), Some(("c", 2)));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn bounded_queue_clamps_capacity_to_one() {
        let q = GradientQueue::bounded(0);
        assert_eq!(q.capacity(), 1);
        q.push(1u8, 0);
        q.push(2u8, 1);
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.try_pop(), Some((2, 1)));
    }

    #[test]
    fn sharded_routes_by_key_and_preserves_lane_fifo() {
        let q = ShardedGradientQueue::bounded(4, 8);
        assert_eq!(q.n_lanes(), 4);
        for key in 0..8u64 {
            q.push(key, key, key);
        }
        assert_eq!(q.len(), 8);
        // Keys 1 and 5 share lane 1 and stay FIFO within it.
        assert_eq!(q.lane_of(1), q.lane_of(5));
        assert_eq!(q.lane(1).try_pop(), Some((1, 1)));
        assert_eq!(q.lane(1).try_pop(), Some((5, 5)));
    }

    #[test]
    fn sharded_rotating_scan_drains_every_lane() {
        let q = ShardedGradientQueue::bounded(3, 8);
        for key in 0..9u64 {
            q.push(key, key, 0);
        }
        let mut got: Vec<u64> = (0..9).map(|_| q.try_pop_any().unwrap().0).collect();
        assert_eq!(q.try_pop_any(), None);
        got.sort_unstable();
        assert_eq!(got, (0..9u64).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_lanes_shed_independently() {
        let q = ShardedGradientQueue::bounded(2, 2);
        // Lane 0 overflows; lane 1 stays under its cap.
        for i in 0..4u64 {
            q.push(0, i, i);
        }
        q.push(1, 100, 0);
        assert_eq!(q.shed_count(), 2);
        assert_eq!(q.lane(0).shed_count(), 2);
        assert_eq!(q.lane(1).shed_count(), 0);
        assert_eq!(
            q.lane(0).try_pop(),
            Some((2, 2)),
            "oldest payloads were shed"
        );
    }

    #[test]
    fn sharded_clock_broadcast_reaches_every_lane() {
        let q = ShardedGradientQueue::<u8>::bounded(3, 4);
        q.advance_clock(9);
        for i in 0..3 {
            assert_eq!(q.lane(i).clock(), 9);
        }
        assert_eq!(q.clock(), 9);
    }

    #[test]
    fn sharded_single_lane_degenerates_to_gradient_queue() {
        let q = ShardedGradientQueue::bounded(1, 4);
        assert_eq!(q.n_lanes(), 1);
        for key in [0u64, 17, 3] {
            assert_eq!(q.lane_of(key), 0);
        }
        q.push(5, "x", 2);
        assert_eq!(q.try_pop_any(), Some(("x", 2)));
        assert_eq!(q.try_pop_any(), None);
    }

    #[test]
    fn sharded_lane_count_clamps_to_one() {
        let q = ShardedGradientQueue::<u8>::bounded(0, 4);
        assert_eq!(q.n_lanes(), 1);
    }

    #[test]
    fn lane_metrics_registered_with_sanitized_names() {
        let q = ShardedGradientQueue::bounded(2, 1);
        q.push(0, 1u8, 0);
        q.push(0, 2u8, 0); // lane 0 sheds its oldest
        let text = stellaris_telemetry::global().render_prometheus();
        assert!(text.contains("stellaris_cache_lane0_depth"));
        assert!(text.contains("stellaris_cache_lane0_shed_total"));
        stellaris_telemetry::validate_prometheus(&text).expect("lane metric names validate");
    }

    /// Calls `run` with every interleaving of threads that take `steps[t]`
    /// steps each, as the thread that takes each step in turn; returns how
    /// many interleavings there were. Every `push` and `try_pop` is one
    /// critical section of one lane's lock, so running a schedule's steps
    /// one after another is that schedule.
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

    /// Two producers push two payloads each while two consumers poll twice
    /// each: every one of the 8!/(2!)^4 = 2520 schedules delivers each
    /// payload exactly once, each producer's payloads in push order.
    #[test]
    fn every_push_pop_schedule_delivers_each_item_exactly_once() {
        const PER: u64 = 2;
        let schedules = for_each_interleaving(&[2, 2, 2, 2], &mut |order| {
            let q = GradientQueue::bounded(16);
            let mut pc = [0u64; 4];
            let mut popped = Vec::new();
            for &t in order {
                if t < 2 {
                    q.push(t as u64 * PER + pc[t], pc[t]);
                } else if let Some((item, base)) = q.try_pop() {
                    assert_eq!(base, item % PER, "the base version echoes the push");
                    popped.push(item);
                }
                pc[t] += 1;
            }
            popped.extend(std::iter::from_fn(|| q.try_pop().map(|(item, _)| item)));
            for p in 0..2 {
                let mine: Vec<u64> = popped.iter().copied().filter(|i| i / PER == p).collect();
                assert_eq!(mine, [p * PER, p * PER + 1], "{order:?}: producer {p}");
            }
            assert_eq!(popped.len(), 4, "{order:?}: each payload exactly once");
        });
        assert_eq!(schedules, 2520);
    }

    /// A producer pushes bases 0, 3, 7, 10 while an observer reads the
    /// staleness average eight times: in all C(12, 4) = 495 schedules each
    /// read is the mean over exactly the pushes before it.
    #[test]
    fn every_staleness_read_sees_exactly_the_pushes_before_it() {
        const CLOCK: u64 = 10;
        const BASES: [u64; 4] = [0, 3, 7, 10];
        let schedules = for_each_interleaving(&[4, 8], &mut |order| {
            let q = GradientQueue::bounded(16);
            let mut pushed = 0;
            for &t in order {
                if t == 0 {
                    q.push((), BASES[pushed]);
                    pushed += 1;
                    continue;
                }
                let before = &BASES[..pushed];
                let want = (!before.is_empty()).then(|| {
                    before.iter().map(|b| CLOCK - b).sum::<u64>() as f64 / before.len() as f64
                });
                assert_eq!(q.staleness_average(CLOCK), want, "{order:?}");
            }
            assert_eq!(q.staleness_average(CLOCK), Some(5.0), "(10+7+3+0)/4");
            assert_eq!(q.staleness_max(CLOCK), Some(10));
        });
        assert_eq!(schedules, 495);
    }

    /// Two producers push one payload into each of two lanes while two
    /// consumers call `try_pop_any` once each. The scan holds no lock
    /// across lanes, so a call is modelled as its two lane pops, starting
    /// at either lane (the cursor only spreads the starts): 4 start pairs x
    /// 2520 schedules, each delivering every payload exactly once.
    #[test]
    fn every_sharded_scan_schedule_delivers_each_item_exactly_once() {
        const LANES: usize = 2;
        let mut schedules = 0;
        for starts in [[0, 0], [0, 1], [1, 0], [1, 1]] {
            schedules += for_each_interleaving(&[2, 2, 2, 2], &mut |order| {
                let q = ShardedGradientQueue::bounded(LANES, 64);
                let mut pc = [0usize; 4];
                let mut found = [false; 2];
                let mut popped = Vec::new();
                for &t in order {
                    if t < 2 {
                        let lane = pc[t] as u64;
                        q.push(lane, t as u64 * 2 + lane, lane);
                    } else if !found[t - 2] {
                        let lane = (starts[t - 2] + pc[t]) % LANES;
                        if let Some((item, base)) = q.lane(lane).try_pop() {
                            assert_eq!(base, item % 2, "the base version echoes the push");
                            found[t - 2] = true;
                            popped.push(item);
                        }
                    }
                    pc[t] += 1;
                }
                popped.extend(std::iter::from_fn(|| q.try_pop_any().map(|(item, _)| item)));
                popped.sort_unstable();
                assert_eq!(popped, [0, 1, 2, 3], "{starts:?} {order:?}");
                assert_eq!(q.shed_count(), 0, "lanes far under cap never shed");
            });
        }
        assert_eq!(schedules, 4 * 2520);
    }

    /// Two producers push six payloads each, alternating between two lanes
    /// of cap 2: in all C(12, 6) = 924 schedules, after every push each
    /// lane stays within its cap and `queued + shed == pushed`.
    #[test]
    fn every_shedding_schedule_conserves_payload_count() {
        let schedules = for_each_interleaving(&[6, 6], &mut |order| {
            let q = ShardedGradientQueue::bounded(2, 2);
            let mut pc = [0u64; 2];
            for (pushed, &t) in order.iter().enumerate() {
                q.push(pc[t] % 2, t as u64 * 6 + pc[t], pc[t]);
                pc[t] += 1;
                assert_eq!(
                    q.len() as u64 + q.shed_count(),
                    pushed as u64 + 1,
                    "{order:?}: a push lands in a lane or sheds its oldest"
                );
                assert!((0..2).all(|l| q.lane(l).len() <= 2), "{order:?}: lane cap");
            }
            assert_eq!(q.len(), 4, "both lanes end full");
        });
        assert_eq!(schedules, 924);
    }
}
