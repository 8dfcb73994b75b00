//! Whole-workspace call graph and transitive may-lock / may-block /
//! may-channel summaries.
//!
//! Resolution is name-based (there is no type checker here), tuned for a
//! zero-false-positive bar on this repo. A call gets an edge only when it
//! names exactly one first-party function; a name several types or modules
//! define stays unresolved, so a collision can invent no lock, block,
//! channel op, taint or panic path for any analysis:
//!
//! * `Type::name(..)` / `Self::name(..)` resolves only to a first-party
//!   `impl Type` method of that name — unknown types stay unresolved.
//! * `self.name(..)` resolves like `Self::name(..)` when the caller's type
//!   defines `name`.
//! * `recv.name(..)` resolves to the one first-party method named `name`,
//!   except when `name` is on the std-prelude denylist (`clone`, `len`,
//!   `iter`, …) or the receiver is a live lock guard (or a `.lock()` chain):
//!   a call *through* guarded data dispatches to the guarded value, whose
//!   own locking is already accounted for at the acquisition site.
//! * Bare `name(..)` resolves to the one first-party free function named
//!   `name` (module-qualified paths like `telemetry::span_with(..)` count).
//!
//! Summaries are computed to a fixpoint so recursion terminates, and each
//! fact carries a witness path — the callee chain down to the concrete
//! site — for diagnostics.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::model::{CallSite, FnInfo};

/// Methods that resolve to std/prelude types in practice; calling one never
/// dispatches to first-party code in this workspace.
const METHOD_DENYLIST: [&str; 62] = [
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "into",
    "from",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "borrow",
    "borrow_mut",
    "deref",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "next",
    "len",
    "is_empty",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "iter",
    "iter_mut",
    "into_iter",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "take",
    "replace",
    "get",
    "get_mut",
    "insert",
    "remove",
    "entry",
    "or_default",
    "or_insert_with",
    "contains",
    "contains_key",
    "push_back",
    "pop_front",
    "extend",
    "drain",
    "retain",
    "position",
    "swap_remove",
    "min",
    "max",
    "sum",
    "count",
    "collect",
    "fold",
];

/// A provenance chain for a transitive fact: the callee names walked from
/// the summarized function down to `site`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Witness {
    /// Callee chain, outermost first; empty for a direct fact.
    pub via: Vec<String>,
    /// Concrete site, `file:line — detail`.
    pub site: String,
}

impl Witness {
    /// Renders ` (via a → b; file:line — detail)` or ` (file:line — detail)`.
    pub fn render(&self) -> String {
        if self.via.is_empty() {
            format!(" ({})", self.site)
        } else {
            format!(" (via {}; {})", self.via.join(" → "), self.site)
        }
    }

    pub(crate) fn through(&self, callee: &str) -> Witness {
        let mut via = Vec::with_capacity(self.via.len() + 1);
        via.push(callee.to_string());
        via.extend(self.via.iter().cloned());
        Witness {
            via,
            site: self.site.clone(),
        }
    }
}

/// Transitive behavior summary of one function.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// May acquire some lock (with a witness to one acquisition).
    pub may_lock: Option<Witness>,
    /// May block (condvar wait / join / sleep), directly or transitively.
    pub may_block: Option<Witness>,
    /// May perform a channel send/recv.
    pub may_chan: Option<Witness>,
    /// May read a non-deterministic source (unsanitized), directly or
    /// transitively. Telemetry-crate functions never propagate taint: their
    /// timestamps feed observability, not training results (the A4
    /// telemetry-sink sanitizer, DESIGN.md §12).
    pub may_taint: Option<Witness>,
    /// All lock ids this function may acquire (capped), with witnesses.
    pub acquires: BTreeMap<String, Witness>,
}

/// Functions defined under these path prefixes absorb taint instead of
/// propagating it: their non-deterministic reads are observability-only.
const TAINT_BARRIER_PREFIXES: [&str; 1] = ["crates/telemetry/"];

/// Whether functions in `file` absorb determinism taint (telemetry sink).
pub fn taint_barrier(file: &str) -> bool {
    TAINT_BARRIER_PREFIXES.iter().any(|p| file.starts_with(p))
}

/// Per-summary cap on the transitive acquire set; beyond this the summary
/// stays sound for may-lock but stops growing the id set.
const ACQUIRES_CAP: usize = 32;

/// The resolved call graph: for each function, `(callee_index, call_index)`
/// for every call that names exactly one first-party function.
pub struct CallGraph {
    /// Outgoing resolved edges per function.
    pub edges: Vec<Vec<(usize, usize)>>,
}

/// Index over function names for resolution.
struct Index {
    /// `(impl_type, method)` -> fn index (first definition wins).
    typed: HashMap<(String, String), usize>,
    /// method name -> all fn indices with that unqualified name (methods).
    methods: HashMap<String, Vec<usize>>,
    /// free-fn name -> fn indices (functions without an impl type).
    free: HashMap<String, Vec<usize>>,
}

fn unqualified(name: &str) -> &str {
    name.rsplit("::").next().unwrap_or(name)
}

fn build_index(fns: &[FnInfo]) -> Index {
    let mut typed = HashMap::new();
    let mut methods: HashMap<String, Vec<usize>> = HashMap::new();
    let mut free: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        let short = unqualified(&f.name).to_string();
        match &f.impl_type {
            Some(ty) => {
                typed.entry((ty.clone(), short.clone())).or_insert(i);
                methods.entry(short).or_default().push(i);
            }
            None => free.entry(short).or_default().push(i),
        }
    }
    Index {
        typed,
        methods,
        free,
    }
}

/// Resolves one call site from `caller` to the one first-party function it
/// names, if exactly one matches.
fn resolve(index: &Index, caller: &FnInfo, call: &CallSite) -> Option<usize> {
    if let Some(q) = &call.type_qual {
        let ty = if q == "Self" {
            caller.impl_type.as_deref()?
        } else {
            q.as_str()
        };
        return index
            .typed
            .get(&(ty.to_string(), call.name.clone()))
            .copied();
    }
    if let Some(recv) = &call.receiver {
        if METHOD_DENYLIST.contains(&call.name.as_str()) {
            return None;
        }
        // Method names the extractor already models as direct tokens (lock
        // acquisitions, channel ops, condvar waits, joins). Resolving them
        // again through same-named first-party wrappers would double-count
        // every `parking_lot` call site.
        if matches!(
            call.name.as_str(),
            "lock"
                | "read"
                | "write"
                | "send"
                | "recv"
                | "recv_timeout"
                | "recv_deadline"
                | "try_recv"
                | "wait"
                | "wait_timeout"
                | "wait_until"
                | "wait_while"
                | "wait_for"
                | "join"
        ) {
            return None;
        }
        // Dispatch through guarded data: `guard.pop()` or
        // `x.lock().push(..)` operates on the *contents*; the lock itself
        // is already recorded at the acquisition site.
        let last = recv.rsplit('.').next().unwrap_or(recv);
        if matches!(last, "lock" | "read" | "write") {
            return None;
        }
        let first = recv.split('.').next().unwrap_or(recv);
        if caller.live_guard(first, call.offset).is_some() {
            return None;
        }
        // `self.method(..)` dispatches on the caller's own type: resolve it
        // like `Self::method` when that type defines the method.
        if recv == "self" {
            if let Some(ty) = &caller.impl_type {
                if let Some(&i) = index.typed.get(&(ty.clone(), call.name.clone())) {
                    return Some(i);
                }
            }
        }
        return unique(index.methods.get(&call.name));
    }
    unique(index.free.get(&call.name))
}

/// The only candidate, when there is exactly one.
fn unique(candidates: Option<&Vec<usize>>) -> Option<usize> {
    match candidates.map(Vec::as_slice) {
        Some(&[i]) => Some(i),
        _ => None,
    }
}

/// Builds the resolved call graph over all functions.
pub fn build_graph(fns: &[FnInfo]) -> CallGraph {
    let index = build_index(fns);
    let edges = fns
        .iter()
        .map(|f| {
            f.calls
                .iter()
                .enumerate()
                .filter_map(|(ci, call)| resolve(&index, f, call).map(|callee| (callee, ci)))
                .collect()
        })
        .collect();
    CallGraph { edges }
}

/// Computes transitive summaries to a fixpoint.
pub fn summarize(fns: &[FnInfo], graph: &CallGraph) -> Vec<Summary> {
    let mut sums: Vec<Summary> = fns
        .iter()
        .map(|f| {
            let mut s = Summary::default();
            if let Some(a) = f.acquires.first() {
                let w = Witness {
                    via: Vec::new(),
                    site: format!("{}:{} — acquires `{}`", f.file, a.line, a.lock_id),
                };
                s.may_lock = Some(w);
            }
            for a in &f.acquires {
                if s.acquires.len() >= ACQUIRES_CAP {
                    break;
                }
                s.acquires
                    .entry(a.lock_id.clone())
                    .or_insert_with(|| Witness {
                        via: Vec::new(),
                        site: format!("{}:{}", f.file, a.line),
                    });
            }
            if let Some(b) = f.blocks.first() {
                s.may_block = Some(Witness {
                    via: Vec::new(),
                    site: format!("{}:{} — blocking `{}`", f.file, b.line, b.what),
                });
            }
            if let Some(c) = f.chans.first() {
                let op = if c.send { "send" } else { "recv" };
                s.may_chan = Some(Witness {
                    via: Vec::new(),
                    site: format!("{}:{} — channel {op}", f.file, c.line),
                });
            }
            if !taint_barrier(&f.file) {
                if let Some(t) = f.taints.iter().find(|t| !t.sanitized) {
                    s.may_taint = Some(Witness {
                        via: Vec::new(),
                        site: format!("{}:{} — {} `{}`", f.file, t.line, t.kind.describe(), t.what),
                    });
                }
            }
            s
        })
        .collect();

    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            for &(callee, _) in &graph.edges[i] {
                if callee == i {
                    continue;
                }
                let (lock, block, chan, taint, acq) = {
                    let cs = &sums[callee];
                    (
                        cs.may_lock.clone(),
                        cs.may_block.clone(),
                        cs.may_chan.clone(),
                        cs.may_taint.clone(),
                        cs.acquires.clone(),
                    )
                };
                let name = unqualified(&fns[callee].name).to_string();
                let s = &mut sums[i];
                if s.may_lock.is_none() {
                    if let Some(w) = &lock {
                        s.may_lock = Some(w.through(&name));
                        changed = true;
                    }
                }
                if s.may_block.is_none() {
                    if let Some(w) = &block {
                        s.may_block = Some(w.through(&name));
                        changed = true;
                    }
                }
                if s.may_chan.is_none() {
                    if let Some(w) = &chan {
                        s.may_chan = Some(w.through(&name));
                        changed = true;
                    }
                }
                // Taint stops at telemetry-crate callers: whatever they do
                // with a tainted value is observability, not a result.
                if s.may_taint.is_none() && !taint_barrier(&fns[i].file) {
                    if let Some(w) = &taint {
                        s.may_taint = Some(w.through(&name));
                        changed = true;
                    }
                }
                for (id, w) in &acq {
                    if s.acquires.len() >= ACQUIRES_CAP {
                        break;
                    }
                    if !s.acquires.contains_key(id) {
                        s.acquires.insert(id.clone(), w.through(&name));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return sums;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::model_file;
    use crate::source::SourceFile;

    fn fns_of(text: &str) -> Vec<FnInfo> {
        let src = SourceFile::parse(text);
        model_file("crates/x/src/graph.rs", &src).fns
    }

    #[test]
    fn free_call_edges_resolve() {
        let fns = fns_of("fn leaf(m: &M) { m.state.lock(); }\nfn root(m: &M) { leaf(m); }\n");
        let g = build_graph(&fns);
        let root = fns.iter().position(|f| f.name.ends_with("root")).unwrap();
        let leaf = fns.iter().position(|f| f.name.ends_with("leaf")).unwrap();
        assert_eq!(g.edges[root], vec![(leaf, 0)]);
        let sums = summarize(&fns, &g);
        assert!(sums[root].may_lock.is_some(), "transitive may-lock");
        assert!(sums[root].acquires.contains_key("graph::m.state"));
        let w = &sums[root].acquires["graph::m.state"];
        assert_eq!(w.via, ["leaf"]);
    }

    #[test]
    fn denylisted_and_guard_receiver_calls_do_not_resolve() {
        let fns = fns_of(
            "struct Q; impl Q {\n    fn pop(&self) { self.cv.wait(&mut x); }\n}\n\
             fn user(q: &M) {\n    let g = q.lock();\n    g.pop();\n    h.clone();\n}\n",
        );
        let g = build_graph(&fns);
        let user = fns.iter().position(|f| f.name.ends_with("user")).unwrap();
        assert!(g.edges[user].is_empty(), "guard receiver + denylist skip");
    }

    #[test]
    fn typed_calls_resolve_only_to_matching_impl() {
        let fns = fns_of(
            "struct A; impl A { fn go(x: &M) { x.lock(); } }\n\
             struct B; impl B { fn go(_x: &M) {} }\n\
             fn call_a(x: &M) { A::go(x); }\n\
             fn call_unknown(x: &M) { External::go(x); }\n",
        );
        let g = build_graph(&fns);
        let sums = summarize(&fns, &g);
        let ca = fns.iter().position(|f| f.name.ends_with("call_a")).unwrap();
        let cu = fns
            .iter()
            .position(|f| f.name.ends_with("call_unknown"))
            .unwrap();
        assert!(sums[ca].may_lock.is_some());
        assert!(g.edges[cu].is_empty(), "unknown type stays unresolved");
    }

    #[test]
    fn self_method_calls_resolve_to_own_type() {
        let fns = fns_of(
            "struct A; impl A {\n    fn work(&self, x: &M) { x.lock(); }\n    fn run(&self, x: &M) { self.work(x); }\n}\n\
             struct B; impl B {\n    fn work(&self) {}\n}\n",
        );
        let g = build_graph(&fns);
        let run = fns.iter().position(|f| f.name.ends_with("run")).unwrap();
        let a_work = fns
            .iter()
            .position(|f| f.impl_type.as_deref() == Some("A") && f.name.ends_with("work"))
            .unwrap();
        assert_eq!(
            g.edges[run],
            vec![(a_work, 0)],
            "self call binds to own impl"
        );
    }

    #[test]
    fn ambiguous_method_names_resolve_to_nothing() {
        // Two types define `tick`; one reads the clock and locks. A call
        // through an unknown receiver may be either, so it gets no edge and
        // carries neither fact.
        let fns = fns_of(
            "struct A; impl A {\n    fn tick(&self) -> u64 { self.m.lock(); std::time::Instant::now().elapsed().as_nanos() as u64 }\n}\n\
             struct B; impl B {\n    fn tick(&self) -> u64 { 0 }\n}\n\
             fn probe(x: &X) -> u64 { x.tick() }\n",
        );
        let g = build_graph(&fns);
        let sums = summarize(&fns, &g);
        let probe = fns.iter().position(|f| f.name.ends_with("probe")).unwrap();
        assert!(g.edges[probe].is_empty(), "a name collision is no edge");
        assert!(sums[probe].may_taint.is_none());
        assert!(sums[probe].may_lock.is_none());
    }

    #[test]
    fn recursion_reaches_a_fixpoint() {
        let fns = fns_of("fn a(x: &M) { b(x); }\nfn b(x: &M) { a(x); x.ch.send(1); }\n");
        let g = build_graph(&fns);
        let sums = summarize(&fns, &g);
        let ai = fns.iter().position(|f| f.name.ends_with("::a")).unwrap();
        assert!(sums[ai].may_chan.is_some());
    }

    #[test]
    fn witness_chains_compose() {
        let fns = fns_of(
            "fn c(x: &M) { std::thread::sleep(d); }\nfn b(x: &M) { c(x); }\nfn a(x: &M) { b(x); }\n",
        );
        let g = build_graph(&fns);
        let sums = summarize(&fns, &g);
        let ai = fns.iter().position(|f| f.name.ends_with("::a")).unwrap();
        let w = sums[ai].may_block.as_ref().unwrap();
        assert_eq!(w.via, ["b", "c"]);
        assert!(w.site.contains("sleep"), "{}", w.site);
    }
}
