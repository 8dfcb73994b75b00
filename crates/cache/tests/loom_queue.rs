//! Loom model checks for [`stellaris_cache::GradientQueue`].
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p stellaris-cache --test loom_queue
//! ```
//!
//! Each check runs the closure under `loom::model`, which explores many
//! thread interleavings (stochastically with the vendored shim, exhaustively
//! with upstream loom). The invariants verified here:
//!
//! - every pushed gradient is popped exactly once (no loss, no duplication),
//!   however polling consumers interleave with the producers,
//! - `staleness_average` is always finite, non-negative and bounded by the
//!   clock, no matter how pushes interleave with the observer.
//!
//! The sharded-plane checks ([`ShardedGradientQueue`], DESIGN.md §16) extend
//! the same invariants across lanes: keyed pushes racing a rotating-scan
//! consumer lose nothing, and payload count is conserved through
//! shed-oldest overflow.

#![cfg(loom)]

use loom::sync::Arc;
use loom::thread;

use stellaris_cache::{GradientQueue, ShardedGradientQueue};

#[test]
fn concurrent_push_pop_delivers_each_item_exactly_once() {
    loom::model(|| {
        const PER_PRODUCER: u64 = 4;
        let q = Arc::new(GradientQueue::bounded(16));

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        // Distinct payloads across producers so duplication
                        // is observable.
                        q.push(p * PER_PRODUCER + i, i);
                        thread::yield_now();
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..PER_PRODUCER {
                        if let Some((item, base)) = q.try_pop() {
                            assert!(base < PER_PRODUCER, "base version echoes the push");
                            seen.push(item);
                        }
                        thread::yield_now();
                    }
                    seen
                })
            })
            .collect();

        for h in producers {
            h.join().expect("producer must not panic");
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().expect("consumer must not panic"))
            .collect();
        // What the polling consumers left behind is still queued.
        all.extend(std::iter::from_fn(|| q.try_pop().map(|(item, _)| item)));
        all.sort_unstable();
        assert_eq!(
            all,
            (0..2 * PER_PRODUCER).collect::<Vec<_>>(),
            "each gradient must be delivered exactly once"
        );
    });
}

#[test]
fn staleness_average_stays_bounded_under_concurrent_pushes() {
    loom::model(|| {
        const CLOCK: u64 = 10;
        let q = Arc::new(GradientQueue::bounded(16));

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for base in [0u64, 3, 7, 10] {
                    q.push((), base);
                    thread::yield_now();
                }
            })
        };

        let observer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for _ in 0..8 {
                    if let Some(avg) = q.staleness_average(CLOCK) {
                        assert!(avg.is_finite(), "average must be finite");
                        assert!(avg >= 0.0, "staleness is never negative");
                        assert!(avg <= CLOCK as f64, "bases <= clock bound the average");
                    }
                    thread::yield_now();
                }
            })
        };

        producer.join().expect("producer must not panic");
        observer.join().expect("observer must not panic");

        // Deterministic postcondition once quiescent: (10+7+3+0)/4 = 5.
        assert_eq!(q.staleness_average(CLOCK), Some(5.0));
        assert_eq!(q.staleness_max(CLOCK), Some(10));
    });
}

#[test]
fn sharded_keyed_pushes_race_rotating_consumers_without_loss() {
    loom::model(|| {
        const PER_PRODUCER: u64 = 4;
        let q = Arc::new(ShardedGradientQueue::bounded(2, 64));

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        // Producer identity keys the lane; payloads stay
                        // globally distinct so duplication is observable.
                        q.push(p, p * PER_PRODUCER + i, i);
                        thread::yield_now();
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..PER_PRODUCER {
                        if let Some((item, base)) = q.try_pop_any() {
                            assert!(base < PER_PRODUCER, "base version echoes the push");
                            seen.push(item);
                        }
                        thread::yield_now();
                    }
                    seen
                })
            })
            .collect();

        for h in producers {
            h.join().expect("producer must not panic");
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().expect("consumer must not panic"))
            .collect();
        // What the polling consumers left behind is still queued.
        all.extend(std::iter::from_fn(|| q.try_pop_any().map(|(item, _)| item)));
        all.sort_unstable();
        assert_eq!(
            all,
            (0..2 * PER_PRODUCER).collect::<Vec<_>>(),
            "each gradient must cross the sharded plane exactly once"
        );
        assert_eq!(q.shed_count(), 0, "lanes far under cap never shed");
    });
}

#[test]
fn sharded_shed_oldest_conserves_payload_count() {
    loom::model(|| {
        const PER_PRODUCER: u64 = 6;
        // Tiny lanes so concurrent pushes overflow: every push either
        // deepens a lane or sheds that lane's oldest, never both and
        // never neither.
        let q = Arc::new(ShardedGradientQueue::bounded(2, 2));

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(p, i, i);
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().expect("producer must not panic");
        }

        let queued = q.len() as u64;
        assert_eq!(
            queued + q.shed_count(),
            2 * PER_PRODUCER,
            "every push lands in a lane or increments the shed counter"
        );
        assert!(queued <= 4, "lane caps bound the plane: {queued}");
    });
}
