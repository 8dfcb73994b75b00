//! Seeded-hazard fixtures: the analyzer must flag every hazard class
//! (A1–A3 concurrency, A4–A6 dataflow, A8–A9 reachability) and stay silent
//! on the clean twin of each shape.
//!
//! Fixture sources live under `tests/fixtures/` and are fed to the analyzer
//! with synthetic in-scope paths; they are never compiled.

use stellaris_analyze::{analyze_sources, Analysis};

const AB_BA: &str = include_str!("fixtures/ab_ba.rs");
const GUARD_ACROSS_RECV: &str = include_str!("fixtures/guard_across_recv.rs");
const ORPHAN_SENDER: &str = include_str!("fixtures/orphan_sender.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const PERMIT_GUARD: &str = include_str!("fixtures/permit_guard.rs");
const TAINT_TIME_TO_GRAD: &str = include_str!("fixtures/taint_time_to_grad.rs");
const RELAXED_FLAG_PAIR: &str = include_str!("fixtures/relaxed_flag_pair.rs");
const HASHMAP_REDUCE: &str = include_str!("fixtures/hashmap_reduce.rs");
const CLEAN_DATAFLOW: &str = include_str!("fixtures/clean_dataflow.rs");
const PANIC_IN_INVOKE: &str = include_str!("fixtures/panic_in_invoke.rs");
const PANIC_IN_FLEET: &str = include_str!("fixtures/panic_in_fleet.rs");
const ALLOC_IN_HOT: &str = include_str!("fixtures/alloc_in_hot.rs");
const CLEAN_PANICFREE: &str = include_str!("fixtures/clean_panicfree.rs");

fn run_one(path: &str, text: &str) -> Analysis {
    analyze_sources(&[(path.to_string(), text.to_string())])
}

fn rules(a: &Analysis) -> Vec<&'static str> {
    let mut r: Vec<&'static str> = a.findings.iter().map(|f| f.rule).collect();
    r.sort_unstable();
    r.dedup();
    r
}

#[test]
fn ab_ba_cycle_is_flagged_through_the_call_graph() {
    let a = run_one("crates/fx/src/ab_ba.rs", AB_BA);
    assert!(rules(&a).contains(&"A1"), "{:#?}", a.findings);
    let cycle = a
        .findings
        .iter()
        .find(|f| f.rule == "A1")
        .expect("A1 present");
    assert!(
        cycle.message.contains("Pair::self.a") && cycle.message.contains("Pair::self.b"),
        "cycle names both locks: {}",
        cycle.message
    );
    // The BA leg only exists through `take_a`; the provenance must say so.
    assert!(
        cycle.message.contains("take_a"),
        "interprocedural leg: {}",
        cycle.message
    );
}

#[test]
fn guard_across_recv_is_flagged_one_hop_away() {
    let a = run_one("crates/fx/src/guard_across_recv.rs", GUARD_ACROSS_RECV);
    assert!(rules(&a).contains(&"A2"), "{:#?}", a.findings);
    let f = a
        .findings
        .iter()
        .find(|f| f.rule == "A2")
        .expect("A2 present");
    assert!(
        f.message.contains("state") && f.message.contains("wait_for_item"),
        "{}",
        f.message
    );
}

#[test]
fn orphan_sender_and_unbounded_queue_are_flagged() {
    let a = run_one("crates/fx/src/orphan_sender.rs", ORPHAN_SENDER);
    let a3: Vec<_> = a.findings.iter().filter(|f| f.rule == "A3").collect();
    assert!(
        a3.iter()
            .any(|f| f.message.contains("no reachable receiver")),
        "{:#?}",
        a.findings
    );
    assert!(
        a3.iter().any(|f| f.message.contains("never popped")),
        "{:#?}",
        a.findings
    );
}

#[test]
fn raii_permit_guard_pattern_is_clean() {
    // The `Platform::invoke` shape: a semaphore permit and a container
    // lease are RAII guards deliberately held across blocking work so they
    // release on panic. Counting permits block nobody holding a different
    // permit, so A2 (lock-guard across blocking call) must stay silent —
    // with zero suppressions. The condvar wait inside `acquire` holds only
    // its own mutex guard, which A2 exempts.
    let a = run_one("crates/fx/src/permit_guard.rs", PERMIT_GUARD);
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
    assert_eq!(
        a.suppressed, 0,
        "pattern must be clean without suppressions"
    );
}

#[test]
fn clock_taint_reaches_gradient_aggregation() {
    // Two direct clock reads in `jitter_scale`, plus one interprocedural
    // finding at the `aggregate` call site — exactly three A4, nothing else.
    let a = run_one("crates/nn/src/taint_time_to_grad.rs", TAINT_TIME_TO_GRAD);
    assert_eq!(rules(&a), ["A4"], "{:#?}", a.findings);
    assert_eq!(a.findings.len(), 3, "{:#?}", a.findings);
    let direct: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.message.contains("reads wall-clock time"))
        .collect();
    assert_eq!(direct.len(), 2, "{:#?}", a.findings);
    let call = a
        .findings
        .iter()
        .find(|f| f.message.contains("calls `jitter_scale`"))
        .expect("interprocedural finding");
    assert!(
        call.message.contains("Instant::now"),
        "witness names the source: {}",
        call.message
    );
}

#[test]
fn mismatched_and_overstrong_orderings_are_flagged() {
    // `ready`: Release store vs Relaxed load — half a protocol. `slots`:
    // SeqCst everywhere with no multi-atomic protocol. Exactly two A5.
    let a = run_one("crates/cache/src/relaxed_flag_pair.rs", RELAXED_FLAG_PAIR);
    assert_eq!(rules(&a), ["A5"], "{:#?}", a.findings);
    assert_eq!(a.findings.len(), 2, "{:#?}", a.findings);
    let half = a
        .findings
        .iter()
        .find(|f| f.message.contains("`Ordering::Relaxed`"))
        .expect("Relaxed half-protocol finding");
    assert!(
        half.message.contains("Gate::self.ready")
            && half.message.contains("Release")
            && half.message.contains("relaxed_flag_pair.rs:17"),
        "names the paired store site: {}",
        half.message
    );
    let strong = a
        .findings
        .iter()
        .find(|f| f.message.contains("unobservable"))
        .expect("SeqCst-everywhere finding");
    assert!(
        strong.message.contains("Gate::self.slots"),
        "{}",
        strong.message
    );
}

#[test]
fn hash_order_reduction_is_flagged_and_minmax_fold_is_not() {
    let a = run_one("crates/cache/src/hashmap_reduce.rs", HASHMAP_REDUCE);
    assert_eq!(rules(&a), ["A6"], "{:#?}", a.findings);
    assert_eq!(
        a.findings.len(),
        1,
        "`largest` must stay silent: {:#?}",
        a.findings
    );
    let f = &a.findings[0];
    assert!(
        f.message.contains("HashMap/HashSet iteration") && f.message.contains("total"),
        "{}",
        f.message
    );
}

#[test]
fn clean_dataflow_twin_is_silent_in_sink_scope() {
    // Sanctioned versions of every A4–A6 hazard (BTreeMap order, min/max
    // folds, collect-then-sort, Release/Acquire, Relaxed counter) under the
    // strictest sink path.
    let a = run_one("crates/nn/src/clean_dataflow.rs", CLEAN_DATAFLOW);
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
    assert_eq!(a.suppressed, 0, "clean without suppressions");
}

#[test]
fn clean_fixture_is_silent() {
    let a = run_one("crates/fx/src/clean.rs", CLEAN);
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
    assert_eq!(a.suppressed, 0);
}

#[test]
fn panics_reachable_from_invoke_and_decode_roots_are_flagged() {
    // Exactly three A8: the unwrap one hop from `Platform::invoke`, the
    // expect two hops away, and the raw index inside the decode root.
    let a = run_one("crates/fx/src/panic_in_invoke.rs", PANIC_IN_INVOKE);
    assert_eq!(rules(&a), ["A8"], "{:#?}", a.findings);
    assert_eq!(a.findings.len(), 3, "{:#?}", a.findings);
    let unwrap = a
        .findings
        .iter()
        .find(|f| f.message.contains("`.unwrap()`"))
        .expect("unwrap finding");
    assert!(
        unwrap
            .message
            .contains("serverless invocation root `Platform::invoke`")
            && unwrap.message.contains("via parse_header"),
        "witness names root and chain: {}",
        unwrap.message
    );
    let expect = a
        .findings
        .iter()
        .find(|f| f.message.contains("`.expect`"))
        .expect("expect finding");
    assert!(
        expect.message.contains("`panic_in_invoke::finish`")
            && expect.message.contains("via finish"),
        "{}",
        expect.message
    );
    let index = a
        .findings
        .iter()
        .find(|f| f.message.contains("`index []`"))
        .expect("index finding");
    assert!(
        index.message.contains("wire-decode root `Frame::decode`"),
        "{}",
        index.message
    );
}

#[test]
fn panics_reachable_from_the_fleet_round_loop_are_flagged() {
    // The socket venue's round loop is a root like `train`: the unwrap one
    // hop from `RemoteFleet::run` is reported with its chain.
    let a = run_one("crates/fx/src/panic_in_fleet.rs", PANIC_IN_FLEET);
    assert_eq!(rules(&a), ["A8"], "{:#?}", a.findings);
    let unwrap = a
        .findings
        .iter()
        .find(|f| f.message.contains("`.unwrap()`"))
        .expect("unwrap finding");
    assert!(
        unwrap
            .message
            .contains("fleet round-loop root `RemoteFleet::run`")
            && unwrap.message.contains("via deal"),
        "witness names root and chain: {}",
        unwrap.message
    );
}

#[test]
fn hot_path_allocation_is_flagged_with_its_chain() {
    // Exactly one A9: the `collect` hidden behind `scale`; the scalar
    // helper on the same path contributes nothing.
    let a = run_one("crates/nn/src/alloc_in_hot.rs", ALLOC_IN_HOT);
    assert_eq!(rules(&a), ["A9"], "{:#?}", a.findings);
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    let f = &a.findings[0];
    assert!(
        f.message.contains("`collect` in `alloc_in_hot::scale`")
            && f.message.contains("hot root `GradAccumulator::accumulate`")
            && f.message.contains("via scale")
            && f.message.contains("not in the A9 allowlist"),
        "{}",
        f.message
    );
}

#[test]
fn clean_panicfree_twin_is_silent() {
    // Total parsing, checked decode, in-place accumulate: nothing for
    // A8–A9, with zero suppressions.
    let a = run_one("crates/fx/src/clean_panicfree.rs", CLEAN_PANICFREE);
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
    assert_eq!(a.suppressed, 0, "clean without suppressions");
}

#[test]
fn all_fixtures_together_yield_all_eight_analyses() {
    let files = vec![
        ("crates/fx/src/ab_ba.rs".to_string(), AB_BA.to_string()),
        (
            "crates/fx/src/guard_across_recv.rs".to_string(),
            GUARD_ACROSS_RECV.to_string(),
        ),
        (
            "crates/fx/src/orphan_sender.rs".to_string(),
            ORPHAN_SENDER.to_string(),
        ),
        ("crates/fx/src/clean.rs".to_string(), CLEAN.to_string()),
        (
            "crates/nn/src/taint_time_to_grad.rs".to_string(),
            TAINT_TIME_TO_GRAD.to_string(),
        ),
        (
            "crates/cache/src/relaxed_flag_pair.rs".to_string(),
            RELAXED_FLAG_PAIR.to_string(),
        ),
        (
            "crates/cache/src/hashmap_reduce.rs".to_string(),
            HASHMAP_REDUCE.to_string(),
        ),
        (
            "crates/nn/src/clean_dataflow.rs".to_string(),
            CLEAN_DATAFLOW.to_string(),
        ),
        (
            "crates/fx/src/panic_in_invoke.rs".to_string(),
            PANIC_IN_INVOKE.to_string(),
        ),
        (
            "crates/nn/src/alloc_in_hot.rs".to_string(),
            ALLOC_IN_HOT.to_string(),
        ),
        (
            "crates/fx/src/clean_panicfree.rs".to_string(),
            CLEAN_PANICFREE.to_string(),
        ),
    ];
    let a = analyze_sources(&files);
    let r = rules(&a);
    assert_eq!(r, ["A1", "A2", "A3", "A4", "A5", "A6", "A8", "A9"], "{r:?}");
    // The clean files contribute nothing even with the whole set in view.
    assert!(
        a.findings.iter().all(|f| !f.file.ends_with("clean.rs")
            && !f.file.ends_with("clean_dataflow.rs")
            && !f.file.ends_with("clean_panicfree.rs")),
        "{:#?}",
        a.findings
    );
}

#[test]
fn fixture_paths_out_of_scope_would_be_skipped_by_the_driver() {
    // The driver never feeds tests/ trees to the analyzer; this guards the
    // scope function against regressions that would make the seeded
    // fixtures (which live under tests/) trip the workspace gate.
    assert!(!stellaris_analyze::in_analysis_scope(
        "crates/analyze/tests/fixtures/ab_ba.rs"
    ));
}
