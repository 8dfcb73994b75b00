//! The three whole-workspace analyses.
//!
//! * **A1 (lock-order)** — build a directed graph over lock ids: an edge
//!   `A -> B` means some function acquires `B` (directly, or transitively
//!   through calls) while a guard on `A` is live. A cycle in that graph is a
//!   potential deadlock; the finding carries the full acquisition path.
//! * **A2 (held-guard)** — a guard live across a blocking operation, a
//!   channel op in a *later* statement (same-statement hazards stay with
//!   L3), or a call into a function that may lock / block / touch a
//!   channel. Condvar waits that release the guard they are passed are
//!   exempt for that guard but still block every other live guard.
//! * **A3 (channel-topology)** — a sender whose receiver half is provably
//!   orphaned (dropped or never used), and first-party queue bindings that
//!   are pushed to but never popped anywhere in the workspace.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, Summary};
use crate::model::{FileModel, FnInfo, GuardRange};
use crate::source::{rule_name, SourceFile};

/// One analyzer finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id from [`KNOWN_RULES`](crate::source::KNOWN_RULES), e.g. `A1`.
    pub rule: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What was found.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} ({}): {}",
            self.file,
            self.line,
            self.rule,
            rule_name(self.rule),
            self.message
        )
    }
}

/// Events of one guard's live range that A2 reports.
fn guard_events(
    f: &FnInfo,
    g: &GuardRange,
    sums: &[Summary],
    graph: &CallGraph,
    fn_index: usize,
    out: &mut Vec<Finding>,
) {
    let gname = g
        .binding
        .clone()
        .unwrap_or_else(|| "<temporary>".to_string());
    let in_range = |off: usize| off > g.acquire_offset && off < g.end;
    // For temporaries the guard is live for the *whole* enclosing statement:
    // `outer(.., &m.lock().snapshot())` holds the guard while `outer` runs,
    // even though `outer` appears textually before the acquisition.
    let exec_range = |off: usize| {
        if g.binding.is_some() {
            in_range(off)
        } else {
            off >= g.span.0 && off < g.end && off != g.acquire_offset
        }
    };
    let later_stmt = |off: usize| off >= g.span.1; // outside the acquiring span

    // Direct blocking ops. A wait that releases *this* guard is the condvar
    // protocol working as intended; anything else blocks while holding it.
    for b in &f.blocks {
        if !exec_range(b.offset) {
            continue;
        }
        if b.releases.as_deref() == g.binding.as_deref() && g.binding.is_some() {
            continue;
        }
        out.push(Finding {
            rule: "A2",
            file: f.file.clone(),
            line: b.line,
            message: format!(
                "guard `{gname}` on `{}` (acquired line {}) is live across blocking `{}`; \
                 drop the guard first",
                g.lock_id, g.line, b.what
            ),
        });
    }

    // Direct channel ops in later statements (same-span is L3's report).
    for c in &f.chans {
        if !in_range(c.offset) || !later_stmt(c.offset) {
            continue;
        }
        let op = if c.send { "send" } else { "recv" };
        out.push(Finding {
            rule: "A2",
            file: f.file.clone(),
            line: c.line,
            message: format!(
                "guard `{gname}` on `{}` (acquired line {}) is live across channel {op} on \
                 `{}`; drop the guard first",
                g.lock_id, g.line, c.receiver
            ),
        });
    }

    // Calls into functions that may lock / block / touch a channel.
    for &(callee, ci) in &graph.edges[fn_index] {
        let call = &f.calls[ci];
        if !exec_range(call.offset) {
            continue;
        }
        let cs = &sums[callee];
        let hazard = [
            ("lock", cs.may_lock.as_ref()),
            ("block", cs.may_block.as_ref()),
            ("perform channel I/O", cs.may_chan.as_ref()),
        ]
        .into_iter()
        .find_map(|(verb, w)| w.map(|w| (verb, w.clone())));
        let Some((verb, w)) = hazard else { continue };
        let deeper = w.through(&call.name);
        out.push(Finding {
            rule: "A2",
            file: f.file.clone(),
            line: call.line,
            message: format!(
                "guard `{gname}` on `{}` (acquired line {}) is live across call to `{}`, \
                 which may {verb}{}",
                g.lock_id,
                g.line,
                call.name,
                deeper.render()
            ),
        });
    }
}

/// A2: held-guard dataflow.
pub fn held_guard(fns: &[FnInfo], sums: &[Summary], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        for g in &f.guards {
            guard_events(f, g, sums, graph, i, &mut out);
        }
    }
    out
}

/// One lock-order edge with provenance.
#[derive(Clone, Debug)]
struct EdgeProv {
    file: String,
    line: usize,
    fn_name: String,
    detail: String,
}

/// A1: lock-order graph + cycle detection.
pub fn lock_order(fns: &[FnInfo], sums: &[Summary], graph: &CallGraph) -> Vec<Finding> {
    // edges[(a, b)] = provenance of one witness "holds a, acquires b".
    let mut edges: BTreeMap<(String, String), EdgeProv> = BTreeMap::new();
    let mut out = Vec::new();
    for (i, f) in fns.iter().enumerate() {
        for g in &f.guards {
            let in_range = |off: usize| off > g.acquire_offset && off < g.end;
            let exec_range = |off: usize| {
                if g.binding.is_some() {
                    in_range(off)
                } else {
                    off >= g.span.0 && off < g.end && off != g.acquire_offset
                }
            };
            for a in &f.acquires {
                if !in_range(a.offset) {
                    continue;
                }
                if a.lock_id == g.lock_id {
                    out.push(Finding {
                        rule: "A1",
                        file: f.file.clone(),
                        line: a.line,
                        message: format!(
                            "lock `{}` re-acquired at line {} while the guard from line {} is \
                             still live in `{}`; this self-deadlocks under a non-reentrant mutex",
                            g.lock_id, a.line, g.line, f.name
                        ),
                    });
                    continue;
                }
                edges
                    .entry((g.lock_id.clone(), a.lock_id.clone()))
                    .or_insert_with(|| EdgeProv {
                        file: f.file.clone(),
                        line: a.line,
                        fn_name: f.name.clone(),
                        detail: "direct nesting".to_string(),
                    });
            }
            for &(callee, ci) in &graph.edges[i] {
                let call = &f.calls[ci];
                if !exec_range(call.offset) {
                    continue;
                }
                for (id, w) in &sums[callee].acquires {
                    if *id == g.lock_id {
                        out.push(Finding {
                            rule: "A1",
                            file: f.file.clone(),
                            line: call.line,
                            message: format!(
                                "lock `{}` re-acquired through call to `{}`{} while the guard \
                                 from line {} is still live in `{}`; this self-deadlocks under \
                                 a non-reentrant mutex",
                                g.lock_id,
                                call.name,
                                w.through(&call.name).render(),
                                g.line,
                                f.name
                            ),
                        });
                        continue;
                    }
                    edges
                        .entry((g.lock_id.clone(), id.clone()))
                        .or_insert_with(|| EdgeProv {
                            file: f.file.clone(),
                            line: call.line,
                            fn_name: f.name.clone(),
                            detail: format!(
                                "through `{}`{}",
                                call.name,
                                w.through(&call.name).render()
                            ),
                        });
                }
            }
        }
    }

    // Cycle detection over the id graph (iterative DFS, colored).
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
        adj.entry(b.as_str()).or_default();
    }
    let mut color: BTreeMap<&str, u8> = adj.keys().map(|&k| (k, 0u8)).collect();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        if color[start] != 0 {
            continue;
        }
        // Stack of (node, next-child-index); `path` mirrors the stack.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        if let Some(c) = color.get_mut(start) {
            *c = 1;
        }
        while let Some(&(node, next)) = stack.last() {
            let children = &adj[node];
            if next < children.len() {
                if let Some(top) = stack.last_mut() {
                    top.1 += 1;
                }
                let child = children[next];
                match color[child] {
                    0 => {
                        if let Some(c) = color.get_mut(child) {
                            *c = 1;
                        }
                        stack.push((child, 0));
                        path.push(child);
                    }
                    1 => {
                        // Back edge: the cycle is the path from `child` on.
                        let from = path.iter().position(|&n| n == child).unwrap_or(0);
                        let cycle: Vec<&str> = path[from..].to_vec();
                        let key = {
                            let mut sorted: Vec<&str> = cycle.clone();
                            sorted.sort_unstable();
                            sorted.join(" ")
                        };
                        if reported.insert(key) {
                            out.push(render_cycle(&cycle, &edges));
                        }
                    }
                    _ => {}
                }
            } else {
                if let Some(c) = color.get_mut(node) {
                    *c = 2;
                }
                stack.pop();
                path.pop();
            }
        }
    }
    out
}

fn render_cycle(cycle: &[&str], edges: &BTreeMap<(String, String), EdgeProv>) -> Finding {
    let mut legs = Vec::new();
    let mut anchor: Option<(String, usize)> = None;
    for k in 0..cycle.len() {
        let a = cycle[k];
        let b = cycle[(k + 1) % cycle.len()];
        if let Some(p) = edges.get(&(a.to_string(), b.to_string())) {
            if anchor.is_none() {
                anchor = Some((p.file.clone(), p.line));
            }
            legs.push(format!(
                "`{a}` -> `{b}` in `{}` at {}:{} ({})",
                p.fn_name, p.file, p.line, p.detail
            ));
        }
    }
    let (file, line) = anchor.unwrap_or_else(|| ("<workspace>".to_string(), 0));
    Finding {
        rule: "A1",
        file,
        line,
        message: format!("lock-order cycle — potential deadlock: {}", legs.join("; ")),
    }
}

/// A3: channel topology.
pub fn channel_topology(models: &[(FileModel, SourceFile)], all_fns: &[FnInfo]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (model, src) in models {
        for f in &model.fns {
            // Orphaned sender: a `(tx, rx)` pair whose rx is used only by
            // its declaration (and possibly an explicit `drop(rx)`), while
            // tx still sends.
            for pair in &f.pairs {
                let rx_dropped = f.drops.iter().any(|(n, _)| n == &pair.rx);
                let rx_uses = f.ident_uses(&src.masked, &pair.rx);
                let tx_sends = f
                    .chans
                    .iter()
                    .any(|c| c.send && last_seg(&c.receiver) == pair.tx);
                let budget = 1 + usize::from(rx_dropped);
                if tx_sends && rx_uses <= budget {
                    out.push(Finding {
                        rule: "A3",
                        file: f.file.clone(),
                        line: pair.line,
                        message: format!(
                            "sender `{}` has no reachable receiver: `{}` is {} before any \
                             recv, so every send fails or queues forever",
                            pair.tx,
                            pair.rx,
                            if rx_dropped { "dropped" } else { "never read" }
                        ),
                    });
                }
            }
            // Unbounded growth: a first-party queue binding that is pushed
            // to but never popped anywhere, and never escapes the declaring
            // function (conservative: any alias/move disables the check).
            for q in &f.queues {
                let produce = all_fns.iter().any(|g| {
                    g.calls.iter().any(|c| {
                        c.name == "push" && receiver_matches(c.receiver.as_deref(), &q.name)
                    })
                });
                if !produce {
                    continue;
                }
                let consume = all_fns.iter().any(|g| {
                    g.calls.iter().any(|c| {
                        matches!(
                            c.name.as_str(),
                            "pop" | "pop_timeout" | "try_pop" | "drain_ready" | "drain"
                        ) && receiver_matches(c.receiver.as_deref(), &q.name)
                    })
                });
                if consume {
                    continue;
                }
                // Uses beyond the declaration and the push sites mean the
                // queue escapes (cloned into a worker, stored in a struct);
                // assume a consumer exists somewhere we cannot see.
                let uses = f.ident_uses(&src.masked, &q.name);
                let decl_uses = occurrences_in_span(&src.masked, q.span, &q.name);
                let push_uses = f
                    .calls
                    .iter()
                    .filter(|c| {
                        c.name == "push" && receiver_matches(c.receiver.as_deref(), &q.name)
                    })
                    .count();
                if uses > decl_uses + push_uses {
                    continue;
                }
                out.push(Finding {
                    rule: "A3",
                    file: f.file.clone(),
                    line: q.line,
                    message: format!(
                        "queue `{}` is pushed to but never popped anywhere in the workspace; \
                         it grows without bound",
                        q.name
                    ),
                });
            }
        }
    }
    out
}

fn last_seg(recv: &str) -> &str {
    recv.rsplit('.').next().unwrap_or(recv)
}

fn receiver_matches(recv: Option<&str>, name: &str) -> bool {
    recv.map(|r| last_seg(r) == name).unwrap_or(false)
}

fn occurrences_in_span(masked: &str, span: (usize, usize), ident: &str) -> usize {
    let hay = &masked[span.0..span.1];
    crate::source::find_token(hay, ident)
        .into_iter()
        .filter(|&at| crate::source::boundary_ok(hay, at, ident))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{build_graph, summarize};
    use crate::model::model_file;

    fn analyze(text: &str) -> Vec<Finding> {
        let src = SourceFile::parse(text);
        let model = model_file("crates/x/src/t.rs", &src);
        let fns = model.fns.clone();
        let graph = build_graph(&fns);
        let sums = summarize(&fns, &graph);
        let mut out = lock_order(&fns, &sums, &graph);
        out.extend(held_guard(&fns, &sums, &graph));
        out.extend(channel_topology(&[(model, src)], &fns));
        out
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    #[test]
    fn ab_ba_nesting_is_a_cycle() {
        let d = analyze(
            "fn fwd(p: &P) { let ga = p.a.lock(); let gb = p.b.lock(); }\n\
             fn bwd(p: &P) { let gb = p.b.lock(); let ga = p.a.lock(); }\n",
        );
        assert!(rules(&d).contains(&"A1"), "{d:?}");
        let cycle = d.iter().find(|f| f.message.contains("cycle")).unwrap();
        assert!(cycle.message.contains("t::p.a"), "{}", cycle.message);
        assert!(cycle.message.contains("t::p.b"), "{}", cycle.message);
    }

    #[test]
    fn consistent_order_is_not_a_cycle() {
        let d = analyze(
            "fn one(p: &P) { let ga = p.a.lock(); let gb = p.b.lock(); }\n\
             fn two(p: &P) { let ga = p.a.lock(); let gb = p.b.lock(); }\n",
        );
        assert!(
            d.iter().all(|f| !f.message.contains("cycle")),
            "consistent order must not report: {d:?}"
        );
    }

    #[test]
    fn self_reacquisition_is_reported() {
        let d = analyze("fn f(p: &P) { let g = p.a.lock(); let h = p.a.lock(); }\n");
        assert!(
            d.iter()
                .any(|f| f.rule == "A1" && f.message.contains("re-acquired")),
            "{d:?}"
        );
    }

    #[test]
    fn guard_across_blocking_call_is_flagged() {
        let d = analyze("fn f(p: &P) { let g = p.a.lock(); std::thread::sleep(ms); }\n");
        assert!(
            d.iter()
                .any(|f| f.rule == "A2" && f.message.contains("sleep")),
            "{d:?}"
        );
    }

    #[test]
    fn guard_across_channel_recv_through_call_is_flagged() {
        let d = analyze(
            "fn pull(rx: &Receiver<u64>) -> u64 { rx.recv().unwrap_or(0) }\n\
             fn f(p: &P, rx: &Receiver<u64>) { let g = p.a.lock(); let v = pull(rx); }\n",
        );
        assert!(
            d.iter()
                .any(|f| f.rule == "A2" && f.message.contains("pull")),
            "{d:?}"
        );
    }

    #[test]
    fn condvar_wait_on_own_guard_is_exempt() {
        let d =
            analyze("fn f(&self) { let mut q = self.m.lock(); loop { self.c.wait(&mut q); } }\n");
        assert!(d.iter().all(|f| f.rule != "A2"), "{d:?}");
    }

    #[test]
    fn condvar_wait_blocks_other_guards() {
        let d = analyze(
            "fn f(&self) { let o = self.other.lock(); let mut q = self.m.lock(); self.c.wait(&mut q); }\n",
        );
        assert!(
            d.iter()
                .any(|f| f.rule == "A2" && f.message.contains("`o`")),
            "{d:?}"
        );
    }

    #[test]
    fn dropped_guard_ends_liveness() {
        let d = analyze(
            "fn f(p: &P) { let g = p.a.lock(); drop(g); std::thread::sleep(ms); let h = p.b.lock(); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn orphaned_sender_is_flagged_and_live_pair_is_not() {
        let d = analyze(
            "fn bad() { let (tx, rx) = channel(); drop(rx); tx.send(1u64).ok(); }\n\
             fn good() { let (tx, rx) = channel(); tx.send(1u64).ok(); rx.recv().ok(); }\n",
        );
        let a3: Vec<&Finding> = d.iter().filter(|f| f.rule == "A3").collect();
        assert_eq!(a3.len(), 1, "{d:?}");
        assert!(a3[0].message.contains("`tx`"));
    }

    #[test]
    fn unconsumed_queue_is_flagged() {
        let d = analyze("fn f() { let q = BlockingQueue::new(); q.push(1u64); q.push(2u64); }\n");
        assert!(
            d.iter()
                .any(|f| f.rule == "A3" && f.message.contains("never popped")),
            "{d:?}"
        );
    }

    #[test]
    fn consumed_or_escaping_queue_is_silent() {
        let d = analyze(
            "fn f() { let q = BlockingQueue::new(); q.push(1u64); q.pop(); }\n\
             fn g() { let q2 = BlockingQueue::new(); q2.push(1u64); hand_off(q2); }\n",
        );
        assert!(d.iter().all(|f| f.rule != "A3"), "{d:?}");
    }
}
