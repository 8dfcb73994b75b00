//! A4–A6: determinism and memory-ordering dataflow analyses.
//!
//! These sit on top of the per-function facts ([`crate::model`]) and the
//! fixpoint call-graph summaries ([`crate::callgraph`]):
//!
//! * **A4 (determinism-taint)** — a non-deterministic source (wall clock,
//!   ambient RNG, `HashMap`/`HashSet` iteration order, thread identity)
//!   read inside — or reachable from — a *determinism sink*: code whose
//!   output is a training result (gradient aggregation, staleness schedule,
//!   codec output, parameter updates). Sanitizers: telemetry-only flow
//!   (the telemetry crate is a taint barrier), order-insensitive min/max
//!   reductions, and collect-then-sort; seeded ChaCha8 streams are simply
//!   not sources.
//! * **A5 (atomics-ordering)** — one atomic whose sites mix
//!   `Ordering::Relaxed` with a stronger ordering (half of an
//!   acquire/release protocol synchronizes nothing), and `SeqCst`-everywhere
//!   atomics that participate in no multi-atomic protocol (where
//!   `Release`/`Acquire` provably suffices). Every finding names the paired
//!   site as a witness.
//! * **A6 (float-reduction-order)** — float reductions (`sum`/`product`/
//!   `fold`/`reduce`) over parallel iterators or hash-iteration order in
//!   numeric scopes; accumulation order instability breaks the repo's
//!   bit-exactness guarantees.
//!
//! Like A1–A3, all analyses are flow-insensitive within a function and
//! tuned for a zero-false-positive bar on this repo (DESIGN.md §12).

use std::collections::BTreeMap;

use crate::analyses::Finding;
use crate::callgraph::{CallGraph, Summary};
use crate::model::{AtomicSite, FnInfo};

/// Determinism sinks: code whose outputs are training results — nn, rl,
/// core's Eq. 2–4 modules, and the cache codec (whose bytes feed gradient
/// reconstruction).
const TAINT_SINKS: [&str; 7] = [
    "crates/nn/src/",
    "crates/rl/src/",
    "crates/cache/src/codec.rs",
    "crates/core/src/aggregation.rs",
    "crates/core/src/truncation.rs",
    "crates/core/src/staleness.rs",
    "crates/core/src/parameter.rs",
];

/// Whether functions in `rel` are determinism sinks for A4.
pub fn in_taint_sink_scope(rel: &str) -> bool {
    TAINT_SINKS.iter().any(|p| rel.starts_with(p))
}

/// A6 scope: the A4 sinks plus the whole cache crate (aggregation buffers
/// and eviction scoring are float-reducing too).
pub fn in_reduction_scope(rel: &str) -> bool {
    in_taint_sink_scope(rel) || rel.starts_with("crates/cache/src/")
}

/// A4: unsanitized non-deterministic reads in (or reachable from) sinks.
pub fn determinism_taint(fns: &[FnInfo], sums: &[Summary], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        if !in_taint_sink_scope(&f.file) {
            continue;
        }
        for t in &f.taints {
            if t.sanitized {
                continue;
            }
            out.push(Finding {
                rule: "A4",
                file: f.file.clone(),
                line: t.line,
                message: format!(
                    "`{}` reads {} (`{}`) in a determinism-critical scope; training \
                     results must not depend on it — use a seeded stream, a \
                     BTreeMap/sorted order, or route the value to telemetry only",
                    f.name,
                    t.kind.describe(),
                    t.what
                ),
            });
        }
        for &(callee, ci) in &graph.edges[i] {
            if callee == i {
                continue;
            }
            if let Some(w) = &sums[callee].may_taint {
                let call = &f.calls[ci];
                out.push(Finding {
                    rule: "A4",
                    file: f.file.clone(),
                    line: call.line,
                    message: format!(
                        "`{}` calls `{}`, which may read a non-deterministic source{}",
                        f.name,
                        call.name,
                        w.render()
                    ),
                });
            }
        }
    }
    out
}

/// A5: Relaxed sites paired against stronger orderings on the same atomic,
/// and SeqCst-everywhere atomics outside any multi-atomic protocol.
pub fn atomics_ordering(fns: &[FnInfo]) -> Vec<Finding> {
    let mut by_id: BTreeMap<&str, Vec<(usize, &AtomicSite)>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        for a in &f.atomics {
            by_id.entry(a.atom_id.as_str()).or_default().push((i, a));
        }
    }
    let mut out = Vec::new();
    for (id, sites) in &by_id {
        let strong = sites.iter().find(|(_, a)| a.ordering != "Relaxed");
        let relaxed: Vec<&(usize, &AtomicSite)> = sites
            .iter()
            .filter(|(_, a)| a.ordering == "Relaxed")
            .collect();
        let Some(&(si, sa)) = strong else {
            continue; // Relaxed-everywhere: a plain counter, fine.
        };
        if !relaxed.is_empty() {
            for &&(ri, ra) in &relaxed {
                out.push(Finding {
                    rule: "A5",
                    file: fns[ri].file.clone(),
                    line: ra.line,
                    message: format!(
                        "atomic `{id}` {} uses `Ordering::Relaxed` but pairs with a \
                         `{}` {} at {}:{}; the Relaxed side of an acquire/release \
                         protocol synchronizes nothing — use Release stores with \
                         Acquire loads, or Relaxed everywhere if this is a plain counter",
                        ra.op.label(),
                        sa.ordering,
                        sa.op.label(),
                        fns[si].file,
                        sa.line
                    ),
                });
            }
        } else if sites.len() >= 2 && sites.iter().all(|(_, a)| a.ordering == "SeqCst") {
            // SeqCst buys a single total order across *different* atomics;
            // an atomic whose touching functions touch no other atomic
            // cannot be part of such a protocol.
            let lone = sites
                .iter()
                .all(|&(i, _)| fns[i].atomics.iter().all(|b| b.atom_id.as_str() == *id));
            if lone {
                let (fi, fa) = sites[0];
                out.push(Finding {
                    rule: "A5",
                    file: fns[fi].file.clone(),
                    line: fa.line,
                    message: format!(
                        "atomic `{id}` uses `SeqCst` at all {} sites yet no function \
                         touching it touches another atomic, so the total order is \
                         unobservable; `Release`/`Acquire` (or `Relaxed` for a plain \
                         counter) suffices",
                        sites.len()
                    ),
                });
            }
        }
    }
    out
}

/// A6: order-unstable float reductions in numeric scopes.
pub fn float_reduction(fns: &[FnInfo]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in fns {
        if !in_reduction_scope(&f.file) {
            continue;
        }
        for r in &f.reductions {
            out.push(Finding {
                rule: "A6",
                file: f.file.clone(),
                line: r.line,
                message: format!(
                    "`{}` reduction over {} in `{}`; accumulation order is unstable \
                     and breaks bit-exact reproducibility — reduce sequentially over \
                     a sorted/indexed collection",
                    r.what, r.over, f.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_sources;

    fn run(path: &str, text: &str) -> Vec<Finding> {
        analyze_sources(&[(path.to_string(), text.to_string())]).findings
    }

    #[test]
    fn sink_scopes_match_the_linters_determinism_scopes() {
        assert!(in_taint_sink_scope("crates/nn/src/gemm.rs"));
        assert!(in_taint_sink_scope("crates/core/src/staleness.rs"));
        assert!(!in_taint_sink_scope("crates/core/src/orchestrator.rs"));
        assert!(!in_taint_sink_scope("crates/telemetry/src/trace.rs"));
        assert!(in_reduction_scope("crates/cache/src/store.rs"));
        assert!(!in_reduction_scope("crates/serverless/src/cputime.rs"));
    }

    #[test]
    fn direct_clock_read_in_sink_is_a4() {
        let fs = run(
            "crates/nn/src/layer.rs",
            "pub fn scale() -> f32 { std::time::Instant::now().elapsed().as_secs_f32() }\n",
        );
        assert_eq!(fs.iter().filter(|f| f.rule == "A4").count(), 2, "{fs:?}");
    }

    #[test]
    fn clock_read_outside_sinks_is_silent() {
        let fs = run(
            "crates/serverless/src/pool.rs",
            "pub fn pace() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn taint_flows_through_calls_with_witness() {
        let fs = run(
            "crates/rl/src/agent.rs",
            "fn jitter() -> f32 { std::time::Instant::now().elapsed().as_secs_f32() }\n\
             pub fn update(w: &mut [f32]) { let s = jitter(); for x in w { *x *= s; } }\n",
        );
        let call = fs
            .iter()
            .find(|f| f.message.contains("calls `jitter`"))
            .expect("interprocedural finding");
        assert!(call.message.contains("via") || call.message.contains("agent.rs"));
    }

    #[test]
    fn telemetry_is_a_taint_barrier() {
        let files = vec![
            (
                "crates/telemetry/src/clockutil.rs".to_string(),
                "pub fn stamp() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n"
                    .to_string(),
            ),
            (
                "crates/rl/src/agent2.rs".to_string(),
                "pub fn record(x: f32) -> f32 { let _t = stamp(); x * 2.0 }\n".to_string(),
            ),
        ];
        let fs = analyze_sources(&files).findings;
        assert!(fs.is_empty(), "telemetry reads are not results: {fs:?}");
    }

    #[test]
    fn name_collision_method_edge_does_not_smear_taint_into_sinks() {
        // Two unrelated `apply` methods: a platform-bookkeeping one that
        // reads the clock, and an activation. The sink's `a.apply(x)` must
        // not pick up the platform method's taint via the shared name.
        let files = vec![
            (
                "crates/serverless/src/pool2.rs".to_string(),
                "pub struct Pool;\nimpl Pool {\n    pub fn apply(&self) -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n}\n"
                    .to_string(),
            ),
            (
                "crates/nn/src/act.rs".to_string(),
                "pub struct Act;\nimpl Act {\n    pub fn apply(&self, x: f32) -> f32 { if x > 0.0 { x } else { 0.0 } }\n}\n\
                 pub fn forward(a: &Act, x: f32) -> f32 { a.apply(x) }\n"
                    .to_string(),
            ),
        ];
        let fs = analyze_sources(&files).findings;
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn minmax_fold_over_map_is_sanitized() {
        let fs = run(
            "crates/core/src/truncation.rs",
            "use std::collections::HashMap;\n\
             pub struct T { ratios: HashMap<usize, f32> }\n\
             impl T { pub fn min_ratio(&self) -> f32 {\n\
             self.ratios.values().fold(f32::INFINITY, |m, &r| m.min(r))\n} }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn collect_then_sort_is_sanitized() {
        let fs = run(
            "crates/core/src/staleness.rs",
            "use std::collections::HashMap;\n\
             pub struct S { by_id: HashMap<u64, f32> }\n\
             impl S { pub fn ordered(&self) -> Vec<u64> {\n\
             let mut v: Vec<u64> = self.by_id.keys().copied().collect();\n\
             v.sort();\nv\n} }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn for_loop_over_map_in_sink_is_a4() {
        let fs = run(
            "crates/core/src/aggregation.rs",
            "use std::collections::HashMap;\n\
             pub fn total(parts: &HashMap<u64, f32>) -> f32 {\n\
             let mut s = 0.0;\nfor (_k, v) in parts { s += v; }\ns\n}\n",
        );
        assert!(fs.iter().any(|f| f.rule == "A4"), "{fs:?}");
    }

    #[test]
    fn relaxed_against_release_store_is_a5() {
        let fs = run(
            "crates/cache/src/gate.rs",
            "use std::sync::atomic::{AtomicBool, Ordering};\n\
             pub struct G { ready: AtomicBool }\n\
             impl G {\n\
             pub fn publish(&self) { self.ready.store(true, Ordering::Release); }\n\
             pub fn check(&self) -> bool { self.ready.load(Ordering::Relaxed) }\n\
             }\n",
        );
        let a5: Vec<_> = fs.iter().filter(|f| f.rule == "A5").collect();
        assert_eq!(a5.len(), 1, "{fs:?}");
        assert!(a5[0].message.contains("Release"), "{}", a5[0].message);
        assert!(a5[0].message.contains("gate.rs:4"), "{}", a5[0].message);
    }

    #[test]
    fn consistent_pairs_and_plain_counters_are_silent() {
        let fs = run(
            "crates/cache/src/gate2.rs",
            "use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};\n\
             pub struct G { ready: AtomicBool, hits: AtomicU64 }\n\
             impl G {\n\
             pub fn publish(&self) { self.ready.store(true, Ordering::Release); }\n\
             pub fn check(&self) -> bool { self.ready.load(Ordering::Acquire) }\n\
             pub fn hit(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             pub fn hits(&self) -> u64 { self.hits.load(Ordering::Relaxed) }\n\
             }\n",
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn seqcst_everywhere_without_protocol_is_a5() {
        let fs = run(
            "crates/core/src/flag.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub struct F { n: AtomicU64 }\n\
             impl F {\n\
             pub fn bump(&self) { self.n.fetch_add(1, Ordering::SeqCst); }\n\
             pub fn get(&self) -> u64 { self.n.load(Ordering::SeqCst) }\n\
             }\n",
        );
        assert_eq!(fs.iter().filter(|f| f.rule == "A5").count(), 1, "{fs:?}");
    }

    #[test]
    fn par_iter_sum_in_scope_is_a6() {
        let fs = run(
            "crates/nn/src/reduce.rs",
            "pub fn total(xs: &[f32]) -> f32 { xs.par_iter().map(|x| x * x).sum::<f32>() }\n",
        );
        assert_eq!(fs.iter().filter(|f| f.rule == "A6").count(), 1, "{fs:?}");
    }
}
