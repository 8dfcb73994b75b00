//! L3 and L6: the per-file rules.
//!
//! | id | name                  | guards                                          |
//! |----|-----------------------|-------------------------------------------------|
//! | L3 | lock-discipline       | no guard held across send/recv or a second lock |
//! | L6 | grad-alloc-discipline | no `.clone()` inside backward closures          |
//!
//! Unlike the call-graph analyses, each rule looks at one file at a time:
//! L3 at every in-scope file, L6 at the graph tape only. The checks here
//! report every hit; `lint:allow` suppression happens once, for every rule,
//! in [`crate::analyze_sources`]. Panic-freedom, lossy casts, print
//! discipline and swallowed `Result`s are clippy lints (DESIGN.md §9).

use crate::analyses::Finding;
use crate::in_analysis_scope;
use crate::source::{find_token, statement_spans, SourceFile};

/// The one file whose backward closures L6 checks: the allocation-free
/// backward pass lives (and must stay) in the graph tape; everywhere else
/// `.clone()` is ordinary Rust.
const GRAPH_TAPE: &str = "crates/nn/src/graph.rs";

/// Runs the per-file rules over one file. Findings are unsuppressed; files
/// outside [`in_analysis_scope`] get none.
pub fn check(file: &str, src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !in_analysis_scope(file) {
        return out;
    }
    // Lock discipline holds everywhere in first-party sources, including
    // the CLI and this analyzer itself.
    check_lock_discipline(file, src, &mut out);
    if file == GRAPH_TAPE {
        check_grad_alloc_discipline(file, src, &mut out);
    }
    out
}

fn finding(rule: &'static str, file: &str, line: usize, message: &str) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line,
        message: message.to_string(),
    }
}

/// L6: `.clone()` inside a boxed backward closure (`Box::new(move |...| …)`)
/// allocates a fresh tensor per gradient contribution — exactly the churn the
/// recycled gradient arena removed. Contributions must go through `GradSink`
/// (`sink.with`/`sink.add`), or carry a justified `lint:allow(L6)`.
fn check_grad_alloc_discipline(file: &str, src: &SourceFile, out: &mut Vec<Finding>) {
    for at in find_token(&src.masked, "Box::new(") {
        if src.in_test(at) {
            continue;
        }
        // Walk the balanced parens to find the closure body's extent.
        let open = at + "Box::new".len();
        let mut depth = 0usize;
        let mut end = src.masked.len();
        for (i, b) in src.masked.bytes().enumerate().skip(open) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        let region = &src.masked[open..end];
        if !region.contains("move |") {
            continue;
        }
        for hit in find_token(region, ".clone()") {
            out.push(finding(
                "L6",
                file,
                src.line_of(open + hit),
                "`.clone()` inside a backward closure; accumulate into the gradient \
                 arena via GradSink or justify",
            ));
        }
    }
}

const LOCK_TOKENS: [&str; 3] = [".lock()", ".read()", ".write()"];
const CHANNEL_TOKENS: [&str; 3] = [".send(", ".recv()", ".recv_timeout("];

fn check_lock_discipline(file: &str, src: &SourceFile, out: &mut Vec<Finding>) {
    for (start, end) in statement_spans(&src.masked) {
        let span = &src.masked[start..end];
        let mut locks: Vec<usize> = Vec::new();
        let mut chans: Vec<usize> = Vec::new();
        for token in LOCK_TOKENS {
            locks.extend(find_token(span, token).into_iter().map(|at| start + at));
        }
        for token in CHANNEL_TOKENS {
            chans.extend(find_token(span, token).into_iter().map(|at| start + at));
        }
        locks.retain(|&at| !src.in_test(at));
        chans.retain(|&at| !src.in_test(at));
        if locks.is_empty() {
            continue;
        }
        locks.sort_unstable();
        if let Some(&second) = locks.get(1) {
            out.push(finding(
                "L3",
                file,
                src.line_of(second),
                "second lock acquired while a guard from the same expression is \
                 still live; split the statement or justify",
            ));
        }
        if let Some(&first) = chans.iter().min() {
            out.push(finding(
                "L3",
                file,
                src.line_of(first),
                "channel send/recv in the same expression as a live lock guard; \
                 drop the guard first or justify",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_sources;
    use proptest::prelude::*;

    /// The per-file and malformed-allow findings `analyze_sources` reports
    /// for one file. (A call-graph rule may also fire on a snippet:
    /// `v.lock().fold(v.lock())` is an A1 too.)
    fn lint_at(file: &str, text: &str) -> Vec<Finding> {
        let mut findings = analyze_sources(&[(file.to_string(), text.to_string())]).findings;
        findings.retain(|f| !f.rule.starts_with('A'));
        findings
    }

    /// Both rules apply at the graph tape.
    fn lint_all(text: &str) -> Vec<Finding> {
        lint_at(GRAPH_TAPE, text)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    const DOUBLE_LOCK: &str = "fn f() { a.lock().merge(b.lock()); }";
    const CLONE_IN_CLOSURE: &str = "fn op(g: &Graph) {\n    g.push(\n        out,\n        Box::new(move |grad: &Tensor, sink: &mut GradSink| {\n            let t = grad.clone();\n            sink.add(a, t);\n        }),\n    );\n}";

    #[test]
    fn l3_runs_on_every_in_scope_file_and_no_other() {
        for rel in [
            "crates/envs/src/mujoco.rs",
            "crates/analyze/src/model.rs",
            "crates/bench/src/bin/fig6_ppo.rs",
            "src/main.rs",
        ] {
            assert_eq!(rules_of(&lint_at(rel, DOUBLE_LOCK)), ["L3"], "{rel}");
        }
        for rel in [
            "vendor/rand/src/lib.rs",
            "tests/train_e2e.rs",
            "crates/bench/benches/aggregation.rs",
            "examples/custom_env.rs",
            "target/debug/build/foo.rs",
        ] {
            assert!(
                lint_at(rel, DOUBLE_LOCK).is_empty(),
                "{rel} must be unscoped"
            );
        }
    }

    #[test]
    fn l6_is_scoped_to_the_graph_tape() {
        assert_eq!(rules_of(&lint_all(CLONE_IN_CLOSURE)), ["L6"]);
        assert!(lint_at("crates/nn/src/tensor.rs", CLONE_IN_CLOSURE).is_empty());
        assert!(lint_at("crates/rl/src/learner.rs", CLONE_IN_CLOSURE).is_empty());
    }

    #[test]
    fn l3_flags_double_lock_in_one_expression() {
        let d = lint_all(DOUBLE_LOCK);
        assert_eq!(rules_of(&d), ["L3"]);
    }

    #[test]
    fn l3_flags_send_under_guard() {
        let d = lint_all("fn f() { tx.send(state.lock().snapshot()); }");
        assert_eq!(rules_of(&d), ["L3"]);
    }

    #[test]
    fn l3_accepts_sequential_locks() {
        let d = lint_all("fn f() { let a = m1.lock(); drop(a); let b = m2.lock(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l3_accepts_locks_in_separate_match_arms() {
        let d = lint_all("fn f() { match x { A => a.lock().v(), B => b.lock().w(), } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l6_flags_clone_in_backward_closure() {
        let d = lint_all(CLONE_IN_CLOSURE);
        assert_eq!(rules_of(&d), ["L6"], "{d:?}");
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn l6_ignores_clone_outside_closures_and_non_move_boxes() {
        // Clones on the forward path (outside `Box::new(move |..)`) are the
        // tape's business, not L6's; a boxed non-closure is out of scope too.
        let src = "fn op(g: &Graph) {\n    let v = value.clone();\n    let b = Box::new(v.clone());\n    g.push(out, Box::new(move |grad, sink| sink.add(a, grad)));\n}";
        let d = lint_all(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l6_allows_with_justification_and_test_code() {
        let src = "fn op(g: &Graph) {\n    g.push(out, Box::new(move |grad, sink| {\n        // lint:allow(L6): reshape must materialise the source shape once\n        let t = grad.clone();\n        sink.add(a, t);\n    }));\n}";
        assert!(lint_all(src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let b = Box::new(move |g| g.clone()); }\n}";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses_same_line() {
        let d = lint_all(
            "fn f() { a.lock().merge(b.lock()); } // lint:allow(L3): both guards are the same shard",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_with_justification_suppresses_next_line() {
        let src = "// lint:allow(L3): the send is on an unbounded channel\nfn f() { tx.send(state.lock().snapshot()); }";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_an_error() {
        let d = lint_all("fn f() { a.lock().merge(b.lock()); } // lint:allow(L3)");
        assert!(
            d.iter()
                .any(|d| d.message.contains("requires a justification")),
            "{d:?}"
        );
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let d =
            lint_all("fn f() { a.lock().merge(b.lock()); } // lint:allow(L6): not the right rule");
        assert_eq!(rules_of(&d), ["L3"]);
    }

    #[test]
    fn allow_accepts_rule_names() {
        let d = lint_all(
            "fn f() { a.lock().merge(b.lock()); } // lint:allow(lock-discipline): checked two lines above",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        // Retired rules are unknown too: their checks are clippy's now.
        for rule in ["L9", "L1", "A10"] {
            let d = lint_all(&format!("fn f() {{}} // lint:allow({rule}): nope"));
            assert!(
                d.iter().any(|d| d.message.contains("unknown lint rule")),
                "{rule}: {d:?}"
            );
        }
    }

    #[test]
    fn analyzer_rule_allows_are_not_unknown_here() {
        // `lint:allow(A2)` is a known rule: it parses without an error and
        // suppresses nothing of L3's.
        let d = lint_all(
            "fn f() { a.lock().merge(b.lock()); } // lint:allow(A2): guard is released by wait()",
        );
        assert_eq!(rules_of(&d), ["L3"], "{d:?}");
    }

    #[test]
    fn diagnostics_point_at_lines() {
        let src = "fn a() {}\nfn b() { x.lock().merge(y.lock()); }\n";
        let d = lint_all(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        let shown = d[0].to_string();
        assert!(shown.starts_with("crates/nn/src/graph.rs:2: L3"), "{shown}");
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

    // The masking lexer and the allow escape hatch must behave identically
    // across arbitrary identifier names, literal contents, and
    // justification strings.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn send_under_any_guard_is_flagged(name in ".{0,12}") {
            let guarded = ident_from(&name);
            let src = format!("fn f() {{ tx.send({guarded}.lock().snapshot()); }}");
            let diags = lint_all(&src);
            prop_assert_eq!(diags.len(), 1);
            prop_assert_eq!(diags[0].rule, "L3");
        }

        #[test]
        fn tokens_inside_string_literals_never_fire(payload in ".{0,40}") {
            // Whatever the literal contains — including `.lock()`, `.send(`,
            // a boxed closure's `.clone()` — masking must hide it from every rule.
            let escaped = payload.replace(['\\', '"'], "");
            let src = format!(
                "fn f() -> String {{ format!(\"{escaped} a.lock().merge(b.lock()) tx.send(m.lock()) Box::new(move |g| g.clone())\") }}"
            );
            let diags = lint_all(&src);
            prop_assert!(diags.is_empty(), "{:?}", diags);
        }

        #[test]
        fn tokens_inside_comments_never_fire(payload in ".{0,40}") {
            let line = payload.replace('\n', " ").replace("lint:allow", "lint allow");
            let src = format!("// {line} a.lock().merge(b.lock()) Box::new(move |g| g.clone())\nfn f() {{}}\n");
            let diags = lint_all(&src);
            prop_assert!(diags.is_empty(), "{:?}", diags);
        }

        #[test]
        fn any_nonempty_justification_suppresses(reason in ".{1,40}") {
            let reason = reason.trim().to_string();
            if reason.is_empty() || reason.contains(')') {
                return Ok(());
            }
            let src = format!("fn f() {{ a.lock().merge(b.lock()); }} // lint:allow(L3): {reason}");
            let diags = lint_all(&src);
            prop_assert!(diags.is_empty(), "justified allow must suppress: {:?}", diags);
        }

        #[test]
        fn unjustified_allow_never_suppresses(pad in 0usize..8) {
            let spaces = " ".repeat(pad);
            let src = format!("fn f() {{ a.lock().merge(b.lock()); }} // lint:allow(L3){spaces}");
            let diags = lint_all(&src);
            // Both the violation and the malformed-allow error must surface.
            prop_assert!(diags.iter().any(|d| d.message.contains("second lock")), "{:?}", diags);
            prop_assert!(
                diags.iter().any(|d| d.message.contains("requires a justification")),
                "{:?}",
                diags
            );
        }

        #[test]
        fn test_code_is_exempt_for_all_rules(name in ".{0,12}") {
            let guarded = ident_from(&name);
            let src = format!(
                "#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        tx.send({guarded}.lock().snapshot());\n        a.lock().merge(b.lock());\n        let k = Box::new(move |g| g.clone());\n    }}\n}}\n"
            );
            let diags = lint_all(&src);
            prop_assert!(diags.is_empty(), "{:?}", diags);
        }

        #[test]
        fn clone_count_matches_occurrences(n in 1usize..6) {
            let body: String = (0..n).map(|i| format!("let t{i} = grad.clone(); ")).collect();
            let src = format!("fn op(g: &Graph) {{ g.push(out, Box::new(move |grad, sink| {{ {body} }})); }}");
            let diags = lint_all(&src);
            prop_assert_eq!(diags.len(), n);
            prop_assert!(diags.iter().all(|d| d.rule == "L6"));
        }

        #[test]
        fn double_lock_flagged_regardless_of_names(a in ".{0,10}", b in ".{0,10}") {
            let (ma, mb) = (ident_from(&a), ident_from(&b));
            let src = format!("fn f() {{ {ma}.lock().fold({mb}.lock()); }}");
            let diags = lint_all(&src);
            prop_assert_eq!(diags.len(), 1, "{:?}", &diags);
            prop_assert_eq!(diags[0].rule, "L3");
        }
    }
}
