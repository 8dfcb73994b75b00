//! Clean twin for the A4–A6 fixtures: every shape here is the sanctioned
//! version of a hazard in the seeded files, fed under a `crates/nn/src/`
//! sink path. The analyzer must stay silent with zero suppressions.
//! Never compiled.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Clean {
    by_step: BTreeMap<u64, f32>,
    ratios: HashMap<u64, f32>,
    ready: AtomicBool,
    hits: AtomicU64,
}

impl Clean {
    /// BTreeMap iterates in key order: deterministic accumulation.
    pub fn total(&self) -> f32 {
        let mut s = 0.0;
        for (_k, v) in self.by_step.iter() {
            s += v;
        }
        s
    }

    /// Min/max folds are order-insensitive even over a HashMap.
    pub fn min_ratio(&self) -> f32 {
        self.ratios.values().fold(f32::INFINITY, |m, &r| m.min(r))
    }

    /// Collect-then-sort neutralizes hash-iteration order.
    pub fn ordered(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.ratios.keys().copied().collect();
        v.sort();
        v
    }

    /// Release store / Acquire load: a complete flag protocol.
    pub fn publish(&self) {
        self.ready.store(true, Ordering::Release);
    }

    pub fn check(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Relaxed everywhere: a plain counter needs no ordering.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
