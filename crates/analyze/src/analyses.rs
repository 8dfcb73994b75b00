//! The three whole-workspace analyses.
//!
//! * **A1 (lock-order)** — build a directed graph over lock ids: an edge
//!   `A -> B` means some function acquires `B` (directly, or transitively
//!   through calls) while a guard on `A` is live. A cycle in that graph is a
//!   potential deadlock; the finding carries the full acquisition path.
//! * **A2 (held-guard)** — a guard live across a blocking operation, a
//!   channel op, or a call into a function that may lock / block / touch a
//!   channel; an unbound temporary guard is held for its whole statement,
//!   including across a second acquisition in it. Condvar waits that
//!   release the guard they are passed are exempt for that guard but still
//!   block every other live guard.
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
    let mut report = |line: usize, what: String| {
        out.push(Finding {
            rule: "A2",
            file: f.file.clone(),
            line,
            message: format!(
                "guard `{gname}` on `{}` (acquired line {}) is live across {what}",
                g.lock_id, g.line
            ),
        });
    };

    // Direct blocking ops. A wait that releases *this* guard is the condvar
    // protocol working as intended; anything else blocks while holding it.
    for b in &f.blocks {
        if !g.held_at(b.offset) {
            continue;
        }
        if b.releases.as_deref() == g.binding.as_deref() && g.binding.is_some() {
            continue;
        }
        report(
            b.line,
            format!("blocking `{}`; drop the guard first", b.what),
        );
    }

    for c in &f.chans {
        if !g.held_at(c.offset) {
            continue;
        }
        let op = if c.send { "send" } else { "recv" };
        report(
            c.line,
            format!("channel {op} on `{}`; drop the guard first", c.receiver),
        );
    }

    // A second lock taken while a temporary is held (nesting under a named
    // guard is A1's lock-order question, and re-taking the same lock A1's
    // self-deadlock). Two temporaries of one statement hold each other: the
    // pair is reported once, from the guard taken first.
    if g.binding.is_none() {
        for a in &f.acquires {
            let reported_from_first = a.offset < g.acquire_offset
                && f.guards
                    .iter()
                    .any(|o| o.acquire_offset == a.offset && o.binding.is_none());
            if !g.held_at(a.offset) || a.lock_id == g.lock_id || reported_from_first {
                continue;
            }
            report(
                a.line,
                format!(
                    "acquisition of `{}`; split the statement or drop the guard first",
                    a.lock_id
                ),
            );
        }
    }

    // Calls into functions that may lock / block / touch a channel.
    for &(callee, ci) in &graph.edges[fn_index] {
        let call = &f.calls[ci];
        if !g.held_at(call.offset) {
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
        report(
            call.line,
            format!(
                "call to `{}`, which may {verb}{}",
                call.name,
                w.through(&call.name).render()
            ),
        );
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
            for a in &f.acquires {
                if a.offset <= g.acquire_offset || a.offset >= g.end {
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
                if !g.held_at(call.offset) {
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

    /// A2 and malformed-allow findings of the whole pipeline on one file,
    /// `lint:allow` suppression included.
    fn a2_at(text: &str) -> Vec<Finding> {
        let mut d =
            crate::analyze_sources(&[("crates/x/src/t.rs".to_string(), text.to_string())]).findings;
        d.retain(|f| f.rule == "A2" || f.rule == "allow");
        d
    }

    const DOUBLE_LOCK: &str = "fn f() { a.lock().merge(b.lock()); }";

    #[test]
    fn second_lock_in_a_temporary_guards_statement_is_a2() {
        let d = a2_at(DOUBLE_LOCK);
        assert_eq!(rules(&d), ["A2"], "{d:?}");
        assert_eq!(d.len(), 1, "the pair is one finding: {d:?}");
        assert!(d[0].message.contains("acquisition of `t::b`"), "{d:?}");
        // Re-taking the same lock is A1's self-deadlock, not A2's.
        let d = analyze("fn f() { v.lock().fold(v.lock()); }");
        assert_eq!(rules(&d), ["A1"], "{d:?}");
    }

    #[test]
    fn channel_ops_under_a_temporary_guard_are_a2_wherever_they_sit() {
        // The send comes first in the text but runs while the guard lives.
        for text in [
            "fn f() { tx.send(state.lock().snapshot()); }",
            "fn f() { state.lock().queue.recv(); }",
        ] {
            let d = a2_at(text);
            assert_eq!(rules(&d), ["A2"], "{text}: {d:?}");
            assert!(d[0].message.contains("channel"), "{d:?}");
        }
    }

    #[test]
    fn sequential_locks_and_separate_match_arms_are_not_a2() {
        for text in [
            "fn f() { let a = m1.lock(); drop(a); let b = m2.lock(); }",
            "fn f() { match x { A => a.lock().v(), B => b.lock().w(), } }",
        ] {
            let d = a2_at(text);
            assert!(d.is_empty(), "{text}: {d:?}");
        }
    }

    #[test]
    fn justified_allow_on_the_same_or_previous_line_suppresses() {
        let d = a2_at(
            "fn f() { a.lock().merge(b.lock()); } // lint:allow(A2): both guards are the same shard",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = a2_at(
            "// lint:allow(A2): the send is on an unbounded channel\nfn f() { tx.send(state.lock().snapshot()); }",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = a2_at(
            "fn f() { a.lock().merge(b.lock()); } // lint:allow(held-guard): checked two lines above",
        );
        assert!(d.is_empty(), "rule names work too: {d:?}");
    }

    #[test]
    fn unjustified_or_misaimed_allows_do_not_suppress() {
        let d = a2_at("fn f() { a.lock().merge(b.lock()); } // lint:allow(A2)");
        assert!(
            d.iter()
                .any(|f| f.message.contains("requires a justification")),
            "{d:?}"
        );
        assert!(d.iter().any(|f| f.rule == "A2"), "{d:?}");
        let d = a2_at("fn f() { a.lock().merge(b.lock()); } // lint:allow(A1): not the right rule");
        assert_eq!(rules(&d), ["A2"], "{d:?}");
    }

    #[test]
    fn retired_rules_in_allows_are_malformed() {
        // Their hazards are A2's, the counting-allocator test's, clippy's
        // and rustc's now.
        for rule in ["L3", "L6", "A7", "L1", "L9", "A10"] {
            let d = a2_at(&format!("fn f() {{}} // lint:allow({rule}): nope"));
            assert!(
                d.iter()
                    .any(|f| f.rule == "allow" && f.message.contains("unknown lint rule")),
                "{rule}: {d:?}"
            );
        }
    }

    #[test]
    fn findings_point_at_the_acquiring_line() {
        let d = a2_at("fn a() {}\nfn b() {\n    x.lock().merge(y.lock());\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].to_string()
                .starts_with("crates/x/src/t.rs:3: A2 (held-guard)"),
            "{}",
            d[0]
        );
    }

    /// An identifier-shaped string from a constrained alphabet.
    fn ident_from(seed: &str) -> String {
        let cleaned: String = seed
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
            .take(12)
            .collect();
        format!("v{cleaned}")
    }

    // Masking and the allow escape hatch must behave the same across
    // arbitrary identifier names, literal contents and justifications.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn send_under_any_temporary_guard_is_a2(name in ".{0,12}") {
            let guarded = ident_from(&name);
            let d = a2_at(&format!("fn f() {{ tx.send({guarded}.lock().snapshot()); }}"));
            proptest::prop_assert_eq!(d.len(), 1, "{:?}", &d);
            proptest::prop_assert_eq!(d[0].rule, "A2");
        }

        #[test]
        fn double_lock_is_a2_regardless_of_names(a in ".{0,10}", b in ".{0,10}") {
            let (ma, mb) = (ident_from(&a), ident_from(&b));
            let d = a2_at(&format!("fn f() {{ {ma}_a.lock().fold({mb}_b.lock()); }}"));
            proptest::prop_assert_eq!(d.len(), 1, "{:?}", &d);
            proptest::prop_assert_eq!(d[0].rule, "A2");
        }

        #[test]
        fn guard_hazards_in_literals_and_comments_never_fire(payload in ".{0,40}") {
            let escaped = payload.replace(['\\', '"'], "");
            let line = payload.replace('\n', " ").replace("lint:allow", "lint allow");
            for text in [
                format!("fn f() -> String {{ format!(\"{escaped} a.lock().merge(b.lock()) tx.send(m.lock())\") }}"),
                format!("// {line} a.lock().merge(b.lock())\nfn f() {{}}\n"),
            ] {
                let d = crate::analyze_sources(&[("crates/x/src/t.rs".to_string(), text)]).findings;
                proptest::prop_assert!(d.is_empty(), "{:?}", d);
            }
        }

        #[test]
        fn any_nonempty_justification_suppresses(reason in ".{1,40}") {
            let reason = reason.trim().to_string();
            if reason.is_empty() || reason.contains(')') {
                return Ok(());
            }
            let d = a2_at(&format!("fn f() {{ a.lock().merge(b.lock()); }} // lint:allow(A2): {reason}"));
            proptest::prop_assert!(d.is_empty(), "justified allow must suppress: {:?}", d);
        }

        #[test]
        fn unjustified_allow_never_suppresses(pad in 0usize..8) {
            let spaces = " ".repeat(pad);
            let d = a2_at(&format!("fn f() {{ a.lock().merge(b.lock()); }} // lint:allow(A2){spaces}"));
            proptest::prop_assert!(d.iter().any(|f| f.rule == "A2"), "{:?}", d);
            proptest::prop_assert!(
                d.iter().any(|f| f.message.contains("requires a justification")),
                "{:?}",
                d
            );
        }

        #[test]
        fn test_code_is_exempt(name in ".{0,12}") {
            let guarded = ident_from(&name);
            let text = format!(
                "#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        tx.send({guarded}.lock().snapshot());\n        a.lock().merge(b.lock());\n    }}\n}}\n"
            );
            let d = crate::analyze_sources(&[("crates/x/src/t.rs".to_string(), text)]).findings;
            proptest::prop_assert!(d.is_empty(), "{:?}", d);
        }
    }
}
