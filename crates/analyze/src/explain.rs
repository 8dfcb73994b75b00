//! `--explain <RULE>`: rationale, example, sanitizer/escape list, and the
//! defect or fixture that shows the rule earns its place, for every rule in
//! the shared registry ([`crate::source::KNOWN_RULES`]).
//!
//! Keeping the table here (not in help text) means a rule cannot be added
//! to the registry without an explanation: [`explain`] is exhaustiveness-
//! checked against `KNOWN_RULES` by a unit test.

use crate::source::{canonical_rule, rule_name, KNOWN_RULES};

/// One rule's documentation.
struct Entry {
    id: &'static str,
    rationale: &'static str,
    example: &'static str,
    escapes: &'static str,
    /// A defect the rule caught on this tree, or the fixture that mirrors
    /// real code.
    caught: &'static str,
}

const ENTRIES: [Entry; 8] = [
    Entry {
        id: "A1",
        rationale: "Two code paths acquiring the same locks in opposite orders can \
                    deadlock under concurrency. The analyzer builds the transitive \
                    acquisition-order graph and reports each cycle once, with the \
                    full path as a witness.",
        example: "fn a() { let g = x.lock(); y.lock(); }\n\
                  fn b() { let g = y.lock(); x.lock(); }  // A1 cycle x -> y -> x",
        escapes: "Fix a global acquisition order; `lint:allow(A1): <why>` when an \
                  external invariant (e.g. shard index order) prevents the cycle.",
        caught: "The orchestrator's snapshot/finalize took the cache and platform \
                 locks while holding the server lock; the fix returns a \
                 `ServerFinal` instead (CHANGES.md, the analyzer's first entry). \
                 Fixture: `tests/fixtures/ab_ba.rs`, a cycle with one leg behind a call.",
    },
    Entry {
        id: "A2",
        rationale: "A guard held across a blocking operation (condvar wait, join, \
                    sleep, channel op, or a call that may block/lock) stalls every \
                    other thread contending for that lock. An unbound temporary \
                    guard is held for its whole statement, so a channel op or a \
                    second acquisition anywhere in that statement is held too.",
        example: "let g = self.state.lock();\nself.rx.recv();  // A2: g held across recv\n\
                  self.tx.send(self.state.lock().snapshot());  // A2: held across send",
        escapes: "Drop the guard first (`drop(g)` or a scope); condvar waits that \
                  release the waited guard are exempt; `lint:allow(A2): <why>`.",
        caught: "`SspThrottle::begin` emitted telemetry, which locks, under its \
                 in-flight lock (CHANGES.md, the analyzer's first entry). \
                 Fixture: `tests/fixtures/guard_across_recv.rs`.",
    },
    Entry {
        id: "A3",
        rationale: "A sender whose receiver is provably dropped unused, or a queue \
                    pushed to but never popped anywhere in the workspace, is dead \
                    plumbing that silently loses data.",
        example: "let (tx, rx) = channel();\ndrop(rx);\ntx.send(x);  // A3 orphan",
        escapes: "Consume the receiver or delete the channel; \
                  `lint:allow(A3): <why>` for intentionally fire-and-forget sends.",
        caught: "No defect recorded. Fixture: `tests/fixtures/orphan_sender.rs`, a \
                 progress channel whose receiver is dropped and a queue nobody pops.",
    },
    Entry {
        id: "A4",
        rationale: "Non-deterministic sources — wall clocks (`Instant::now`, \
                    `SystemTime`, `.elapsed()`), ambient RNG (`thread_rng`, \
                    `from_entropy`, `rand::random`), `HashMap`/`HashSet` iteration \
                    order, thread identity — must not flow into determinism sinks \
                    (gradient aggregation, staleness schedule, codec output, \
                    parameter updates). One leaked read invalidates same-seed \
                    reproducibility, so ablation deltas can no longer be attributed \
                    to the controller under test. Flow is tracked interprocedurally \
                    through the call graph with per-callee witnesses.",
        example: "// in crates/core/src/staleness.rs\n\
                  let age = self.started.elapsed();  // A4: schedule depends on wall clock",
        escapes: "Sanitizers: seeded `ChaCha8Rng` streams are not sources; the \
                  telemetry crate is a taint barrier (observability-only); \
                  order-insensitive min/max folds over maps are exempt; \
                  collect-then-sort neutralizes iteration order. Otherwise \
                  `lint:allow(A4): <why>`.",
        caught: "No defect recorded. Fixture: `tests/fixtures/taint_time_to_grad.rs`, \
                 a clock read that scales every aggregated gradient.",
    },
    Entry {
        id: "A5",
        rationale: "One atomic whose sites mix `Ordering::Relaxed` with a stronger \
                    ordering is half a protocol: a Relaxed load against a Release \
                    store synchronizes nothing, so flag-protected data races. \
                    Conversely, `SeqCst` on an atomic that participates in no \
                    multi-atomic protocol pays a full fence for an unobservable \
                    total order. Every finding names the paired site.",
        example: "self.ready.store(true, Ordering::Release);  // writer\n\
                  self.ready.load(Ordering::Relaxed)          // A5: reader sees stale data",
        escapes: "Use Release stores with Acquire loads for flags; Relaxed \
                  everywhere for pure counters; `lint:allow(A5): <why>` when an \
                  external fence provides the ordering.",
        caught: "`trace::ENABLED` paired a `SeqCst` store with a `Relaxed` load; it is \
                 Release/Acquire now, pinned by \
                 `crates/telemetry/tests/ordering_regression.rs` (CHANGES.md).",
    },
    Entry {
        id: "A6",
        rationale: "Float addition is not associative: reducing over a parallel \
                    iterator or hash-iteration order makes the accumulation order \
                    run-dependent, which breaks the repo's bit-exactness guarantees \
                    (gradient aggregation, kernel differential tests).",
        example: "parts.values().sum::<f32>()  // A6: order changes the bits",
        escapes: "Reduce sequentially over a sorted/indexed collection (BTreeMap, \
                  Vec by index); min/max-only folds are order-insensitive and \
                  exempt; `lint:allow(A6): <why>`.",
        caught: "No defect recorded. Fixture: `tests/fixtures/hashmap_reduce.rs`, a \
                 float sum over `HashMap` values.",
    },
    Entry {
        id: "A8",
        rationale: "A panic that unwinds out of a learner function kills its whole \
                    serverless invocation: the slot is billed, the gradient is lost, \
                    and the staleness bound absorbs a retry. A8 walks the call graph \
                    from the invocation entry points (`Platform::invoke` family), \
                    the orchestrator round loop (`train`), and the wire-decode \
                    surfaces (`decode`/`decode_seq`/`from_bytes` — attacker-adjacent \
                    once real sockets land) to every `unwrap`/`expect`/`panic!`-family \
                    site, plus index expressions inside decode fns, and reports each \
                    with a witness chain. `assert!` preconditions and release-mode \
                    arithmetic are out of scope (see DESIGN.md §14); only uniquely \
                    resolved call edges propagate, so name collisions cannot smear.",
        example: "fn decode(buf: &[u8]) -> Msg {\n\
                  let head = &buf[..4];  // A8: short frame panics mid-invocation",
        escapes: "Return a typed error (`CodecError`, `RemoteError`) and degrade; \
                  justify truly-unreachable sites with `lint:allow(A8): <why>` on \
                  the same or one of the three preceding lines (consumed at \
                  extraction, so the workspace stays at zero suppressions).",
        caught: "The orchestrator panicked on a missing or corrupt policy frame; \
                 `read_snapshot` now degrades the wave instead (CHANGES.md, the \
                 A8/A9 entry).",
    },
    Entry {
        id: "A9",
        rationale: "The hot path (backward pass, packed GEMM, gradient accumulate, \
                    exact-reserve encode) must not mint fresh allocations per step. \
                    A9 proves this statically by walking from the annotated hot \
                    roots to every unconditional fresh allocation (`vec!`, \
                    `collect`, `to_vec`, `Box::new`, `format!`, ..). Everything \
                    reachable must be in the explicit allowlist. A counting-allocator \
                    test (`crates/nn/tests/arena_allocs.rs`) pins warm \
                    `backward_into` to exactly one allocation per entry; a stale \
                    entry is itself a finding, so the list only shrinks. \
                    Capacity-reusing calls (`resize`, `reserve`, `extend`) are left \
                    to that test; the telemetry crate is a barrier.",
        example: "fn backward_into(&self) {\n\
                  let tmp = self.nodes.to_vec();  // A9: fresh alloc on the hot path",
        escapes: "Reuse a caller-owned or arena buffer (`backward_into`, \
                  `reuse_as_zeros`, `GradAccumulator::reset`); genuinely amortized \
                  sites go in `ALLOC_ALLOWLIST` with a written reason — there is no \
                  comment-level escape, the allowlist is the single budget.",
        caught: "`SampleBatch::encode` collected a temporary `Vec` of dones on the hot \
                 path; it writes them straight to the wire now (CHANGES.md, the \
                 A8/A9 entry).",
    },
];

/// Renders the explanation for `rule` (id or name, case-insensitive), or
/// `None` if the rule is unknown.
pub fn explain(rule: &str) -> Option<String> {
    let id = canonical_rule(rule)?;
    let entry = ENTRIES.iter().find(|e| e.id == id)?;
    let name = rule_name(id);
    let flow = |text: &str| text.split_whitespace().collect::<Vec<_>>().join(" ");
    Some(format!(
        "{id} ({name})\n\nWhy:\n  {}\n\nExample:\n  {}\n\nSanitizers / escapes:\n  {}\n\nCaught:\n  {}\n",
        flow(entry.rationale),
        entry.example.replace('\n', "\n  "),
        flow(entry.escapes),
        flow(entry.caught),
    ))
}

/// Renders every rule's explanation, separated by rules.
pub fn explain_all() -> String {
    let mut out = String::new();
    for (id, _) in KNOWN_RULES {
        if !out.is_empty() {
            out.push_str("\n----------------------------------------\n\n");
        }
        out.push_str(&explain(id).expect("every registered rule has an entry"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_rule_has_a_complete_explanation() {
        for (id, name) in KNOWN_RULES {
            let text = explain(id).unwrap_or_else(|| panic!("no explanation for {id}"));
            assert!(text.starts_with(&format!("{id} ({name})")), "{text}");
            for section in ["Why:", "Example:", "Sanitizers / escapes:", "Caught:"] {
                assert!(text.contains(section), "{id} missing {section}");
            }
        }
        assert_eq!(ENTRIES.len(), KNOWN_RULES.len(), "tables must stay in sync");
    }

    #[test]
    fn explain_accepts_names_and_mixed_case() {
        assert!(explain("determinism-taint").is_some());
        assert!(explain("a5").is_some());
        assert!(explain("Z9").is_none());
    }

    #[test]
    fn explain_all_covers_all_rules() {
        let all = explain_all();
        for (id, name) in KNOWN_RULES {
            assert!(all.contains(&format!("{id} ({name})")));
        }
    }
}
