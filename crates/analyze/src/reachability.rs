//! A8–A9: panic-reachability and hot-path allocation discipline.
//!
//! The fourth analysis family rides the same call graph as A1–A6 but asks
//! availability questions instead of interleaving questions:
//!
//! * **A8 `panic-reachability`** — a learner function that dies on a panic
//!   mid-invocation forfeits its staleness slot and its cost budget, so
//!   every panic site (`unwrap`/`expect`/`panic!`-family macros, and index
//!   expressions inside wire-decode functions) reachable from a serverless
//!   invocation entry point, the orchestrator round loop, or a
//!   `Codec::decode` surface is reported with a witness chain.
//! * **A9 `hot-alloc`** — a counting-allocator test shows warm
//!   `backward_into` performs one allocation per [`ALLOC_ALLOWLIST`] entry
//!   *dynamically*; A9 proves the same set *statically* by walking from
//!   annotated hot roots to every unconditional fresh allocation.
//!   A stale allowlist entry is itself a finding, so the list can only
//!   shrink with the code.
//!
//! Reachability is a per-root BFS over the call graph, whose edges are all
//! uniquely resolved ([`crate::callgraph`]), so a method-name collision
//! cannot smear panics across unrelated types; A9
//! additionally refuses to descend into the telemetry crate (a barrier:
//! observability allocations are counted by the dynamic test, not the
//! static hot-path budget). Justified A8 sites are consumed at extraction
//! time by `lint:allow(A8)` comments (see [`crate::model`]), so a clean
//! workspace reports zero suppressions.

use std::collections::{BTreeSet, VecDeque};

use crate::analyses::Finding;
use crate::callgraph::{taint_barrier, CallGraph};
use crate::model::FnInfo;

/// The A9 allowlist: `(enclosing fn, allocation kind, why)` triples.
///
/// The entry count is pinned by `crates/nn/tests/arena_allocs.rs`, which
/// counts the allocations of a warm `backward_into` on both Table II models
/// and requires exactly this many per step. An entry that matches no
/// reachable allocation is stale and reported as a finding, so the list can
/// only shrink.
pub const ALLOC_ALLOWLIST: [(&str, &str, &str); 3] = [
    (
        "Graph::backward_impl",
        "vec!",
        "telemetry span fields on the backward span; observability cost counted by arena_allocs",
    ),
    (
        "Tensor::zeros",
        "to_vec",
        "cold-start sink clone; warm steps reuse arena buffers via reuse_as_zeros",
    ),
    (
        "Tensor::zeros",
        "vec!",
        "cold-start sink clone; warm steps reuse arena buffers via reuse_as_zeros",
    ),
];

/// Last path segment of a qualified fn name.
fn short_name(name: &str) -> &str {
    name.rsplit("::").next().unwrap_or(name)
}

/// A8 roots: serverless invocation entry points, the two round loops that
/// drive the dispatcher (in process and over sockets), and wire-decode
/// surfaces, with a human description for findings.
fn a8_roots(fns: &[FnInfo]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        let short = short_name(&f.name);
        if f.name.starts_with("Platform::")
            && matches!(short, "invoke" | "invoke_retry" | "invoke_with" | "attempt")
        {
            out.push((i, "serverless invocation root"));
        } else if f.file.ends_with("/orchestrator.rs") && f.name.ends_with("::train") {
            out.push((i, "orchestrator round-loop root"));
        } else if f.name == "RemoteFleet::run" {
            out.push((i, "fleet round-loop root"));
        } else if matches!(short, "decode" | "decode_seq" | "from_bytes") {
            out.push((i, "wire-decode root"));
        }
    }
    out
}

/// A9 roots: the annotated hot-path entry points whose steady-state step
/// must stay allocation-free (`to_bytes` is deliberately absent — its
/// `with_capacity` is the sanctioned exact reserve the encode path feeds).
fn a9_roots(fns: &[FnInfo]) -> Vec<usize> {
    fns.iter()
        .enumerate()
        .filter(|(_, f)| {
            matches!(
                f.name.as_str(),
                "Graph::backward_into"
                    | "gemm::gemm"
                    | "gemm::gemm_bias_act"
                    | "GradAccumulator::accumulate"
                    | "GradAccumulator::reset"
            ) || short_name(&f.name) == "encode"
        })
        .map(|(i, _)| i)
        .collect()
}

/// BFS from `root` over uniquely resolved call edges, returning each
/// reached function with the callee chain that first discovered it (empty
/// for the root itself). With `barrier`, telemetry-crate callees are not
/// entered.
fn reach(
    fns: &[FnInfo],
    graph: &CallGraph,
    root: usize,
    barrier: bool,
) -> Vec<(usize, Vec<String>)> {
    let mut via: Vec<Option<Vec<String>>> = vec![None; fns.len()];
    via[root] = Some(Vec::new());
    // bound: BFS frontier ≤ |fns|; every function is enqueued at most once.
    let mut queue = VecDeque::new();
    queue.push_back(root);
    let mut order = vec![(root, Vec::new())];
    while let Some(i) = queue.pop_front() {
        for &(j, _) in &graph.edges[i] {
            if via[j].is_some() {
                continue;
            }
            if barrier && taint_barrier(&fns[j].file) {
                continue;
            }
            let mut chain = via[i].clone().unwrap_or_default();
            chain.push(short_name(&fns[j].name).to_string());
            via[j] = Some(chain.clone());
            order.push((j, chain));
            queue.push_back(j);
        }
    }
    order
}

/// A8: panic sites reachable from invocation/round-loop/decode roots.
pub fn panic_reachability(fns: &[FnInfo], graph: &CallGraph) -> Vec<Finding> {
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut out = Vec::new();
    for (root, desc) in a8_roots(fns) {
        for (i, chain) in reach(fns, graph, root, false) {
            for p in &fns[i].panics {
                if !seen.insert((fns[i].file.clone(), p.offset)) {
                    continue;
                }
                let via = if chain.is_empty() {
                    String::new()
                } else {
                    format!(" (via {})", chain.join(" → "))
                };
                out.push(Finding {
                    rule: "A8",
                    file: fns[i].file.clone(),
                    line: p.line,
                    message: format!(
                        "`{}` in `{}` may panic and is reachable from {} `{}`{via}",
                        p.what, fns[i].name, desc, fns[root].name
                    ),
                });
            }
        }
    }
    out
}

/// A9: fresh allocations reachable from hot roots, minus the allowlist;
/// stale allowlist entries are findings too.
pub fn alloc_reachability(fns: &[FnInfo], graph: &CallGraph) -> Vec<Finding> {
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut used = [false; ALLOC_ALLOWLIST.len()];
    let mut out = Vec::new();
    for root in a9_roots(fns) {
        for (i, chain) in reach(fns, graph, root, true) {
            for a in &fns[i].allocs {
                let allowed = ALLOC_ALLOWLIST
                    .iter()
                    .position(|&(fname, kind, _)| fname == fns[i].name && kind == a.what);
                if let Some(k) = allowed {
                    used[k] = true;
                    continue;
                }
                if !seen.insert((fns[i].file.clone(), a.offset)) {
                    continue;
                }
                let via = if chain.is_empty() {
                    String::new()
                } else {
                    format!(" (via {})", chain.join(" → "))
                };
                out.push(Finding {
                    rule: "A9",
                    file: fns[i].file.clone(),
                    line: a.line,
                    message: format!(
                        "fresh allocation `{}` in `{}` is reachable from hot root `{}`{via} and is not in the A9 allowlist",
                        a.what, fns[i].name, fns[root].name
                    ),
                });
            }
        }
    }
    // A stale entry is only meaningful when the named function is in the
    // analyzed set (fixture subsets would otherwise always report three
    // phantom entries); a workspace test separately asserts every entry's
    // function exists in the real tree.
    for (k, &(fname, kind, _)) in ALLOC_ALLOWLIST.iter().enumerate() {
        if used[k] {
            continue;
        }
        let Some(anchor) = fns.iter().find(|f| f.name == fname) else {
            continue;
        };
        out.push(Finding {
            rule: "A9",
            file: anchor.file.clone(),
            line: anchor.line,
            message: format!(
                "stale A9 allowlist entry (`{fname}`, `{kind}`): no reachable allocation matches — remove it"
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build_graph;
    use crate::model::model_file;
    use crate::source::SourceFile;

    fn fns_of(path: &str, text: &str) -> Vec<FnInfo> {
        let src = SourceFile::parse(text);
        model_file(path, &src).fns
    }

    #[test]
    fn panic_reaches_through_the_call_graph_with_a_witness() {
        let fns = fns_of(
            "crates/serverless/src/platform.rs",
            "impl Platform {\n    pub fn invoke(&self) { helper(); }\n}\nfn helper() { inner(); }\nfn inner(x: Option<u32>) { x.unwrap(); }\n",
        );
        let graph = build_graph(&fns);
        let f = panic_reachability(&fns, &graph);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("`.unwrap()`"), "{}", f[0].message);
        assert!(
            f[0].message.contains("via helper → inner"),
            "{}",
            f[0].message
        );
        assert!(
            f[0].message
                .contains("serverless invocation root `Platform::invoke`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn ambiguous_edges_do_not_smear_panics() {
        // Two `apply` methods: resolution fans out, so the edge is not
        // unique and neither body's panic is attributed to the root.
        let fns = fns_of(
            "crates/serverless/src/platform.rs",
            "impl Platform {\n    pub fn invoke(&self, w: &W) { w.apply(); }\n}\nimpl A { fn apply(&self) { panic!(\"a\"); } }\nimpl B { fn apply(&self) { panic!(\"b\"); } }\n",
        );
        let graph = build_graph(&fns);
        let f = panic_reachability(&fns, &graph);
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn hot_alloc_flags_non_allowlisted_and_reports_stale_entries() {
        let fns = fns_of(
            "crates/nn/src/graph.rs",
            "impl Graph {\n    pub fn backward_into(&self) { let v = self.tmp.to_vec(); drop(v); }\n}\n",
        );
        let graph = build_graph(&fns);
        let f = alloc_reachability(&fns, &graph);
        // One reachable non-allowlisted alloc; no stale-entry noise because
        // none of the allowlisted fns exist in this tiny model.
        assert_eq!(f.len(), 1, "{f:#?}");
        assert!(f[0].message.contains("`to_vec`"), "{}", f[0].message);
    }

    #[test]
    fn stale_allowlist_entry_is_flagged_when_its_fn_exists() {
        // `Tensor::zeros` exists but allocates nothing reachable (it is not
        // called from any root), so its two allowlist entries are stale.
        let fns = fns_of(
            "crates/nn/src/tensor.rs",
            "impl Tensor {\n    pub fn zeros(n: usize) -> Tensor { Tensor { n } }\n}\nimpl Graph {\n    pub fn backward_into(&self) { self.step(); }\n    fn step(&self) {}\n}\n",
        );
        let graph = build_graph(&fns);
        let f = alloc_reachability(&fns, &graph);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert!(
            f.iter().all(|x| x
                .message
                .contains("stale A9 allowlist entry (`Tensor::zeros`")),
            "{f:#?}"
        );
    }

    #[test]
    fn telemetry_is_an_alloc_barrier() {
        let files = [
            (
                "crates/nn/src/graph.rs",
                "impl Graph {\n    pub fn backward_into(&self) { emit_span(); }\n}\n",
            ),
            (
                "crates/telemetry/src/lib.rs",
                "pub fn emit_span() { let s = String::new(); drop(s); }\n",
            ),
        ];
        let mut fns = Vec::new();
        for (p, t) in files {
            fns.extend(fns_of(p, t));
        }
        let graph = build_graph(&fns);
        let f = alloc_reachability(&fns, &graph);
        assert!(
            f.is_empty(),
            "telemetry allocs must not be blamed on the hot path: {f:#?}"
        );
    }
}
