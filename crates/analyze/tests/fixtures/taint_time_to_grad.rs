//! Seeded hazard: wall-clock jitter flowing into gradient scaling (A4).
//!
//! `jitter_scale` reads the clock twice (construction + elapsed); the
//! aggregation loop then bakes the value into every gradient, so a fixed
//! seed no longer reproduces the run. Fed to the analyzer under a
//! `crates/nn/src/` path (determinism sink scope); never compiled.

pub fn jitter_scale() -> f32 {
    let t = std::time::Instant::now();
    t.elapsed().as_secs_f32() * 1e-6
}

pub fn aggregate(grad: &mut [f32]) {
    let s = jitter_scale();
    for g in grad.iter_mut() {
        *g *= 1.0 + s;
    }
}
