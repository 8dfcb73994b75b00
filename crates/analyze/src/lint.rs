//! L1–L6: the per-file rules.
//!
//! | id | name                  | guards                                             |
//! |----|-----------------------|----------------------------------------------------|
//! | L1 | panic-freedom         | no `unwrap()`/`expect()`/`panic!` in library code  |
//! | L2 | determinism           | no ambient RNG or wall-clock in deterministic code |
//! | L3 | lock-discipline       | no guard held across send/recv or a second lock    |
//! | L4 | lossy-cast            | no `as f32`/`as f64` in gradient/staleness math    |
//! | L5 | print-discipline      | no `println!`-family macros in library code        |
//! | L6 | grad-alloc-discipline | no `.clone()` inside backward closures             |
//!
//! Unlike the call-graph analyses, each rule looks at one file at a time and
//! is scoped per path by [`rules_for`]. The checks here report every hit;
//! `lint:allow` suppression happens once, for all seventeen rules, in
//! [`crate::analyze_sources`].

use crate::analyses::Finding;
use crate::in_analysis_scope;
use crate::source::{boundary_ok, find_token, statement_spans, SourceFile};

/// Library crates that must be panic-free (L1) outside tests.
const L1_CRATES: [&str; 7] = [
    "crates/cache/src/",
    "crates/core/src/",
    "crates/nn/src/",
    "crates/rl/src/",
    "crates/serverless/src/",
    "crates/simcluster/src/",
    "crates/telemetry/src/",
];

/// Deterministic code: math must not read ambient RNGs or clocks (L2).
const L2_SCOPES: [&str; 6] = [
    "crates/nn/src/",
    "crates/rl/src/",
    "crates/core/src/aggregation.rs",
    "crates/core/src/truncation.rs",
    "crates/core/src/staleness.rs",
    "crates/core/src/parameter.rs",
];

/// Gradient/staleness math where `as` float casts need justification (L4).
const L4_MODULES: [&str; 7] = [
    "crates/core/src/staleness.rs",
    "crates/core/src/truncation.rs",
    "crates/core/src/parameter.rs",
    "crates/nn/src/optim.rs",
    "crates/rl/src/gae.rs",
    "crates/rl/src/vtrace.rs",
    "crates/rl/src/ppo.rs",
];

/// Which L-rules run on a given file.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleSet {
    /// Run L1 (panic-freedom).
    pub l1: bool,
    /// Run L2 (determinism).
    pub l2: bool,
    /// Run L3 (lock-discipline).
    pub l3: bool,
    /// Run L4 (lossy-cast).
    pub l4: bool,
    /// Run L5 (print-discipline).
    pub l5: bool,
    /// Run L6 (grad-alloc-discipline).
    pub l6: bool,
}

impl RuleSet {
    /// All six rules.
    pub fn all() -> Self {
        Self {
            l1: true,
            l2: true,
            l3: true,
            l4: true,
            l5: true,
            l6: true,
        }
    }

    /// True when at least one rule is enabled.
    pub fn any(self) -> bool {
        self.l1 || self.l2 || self.l3 || self.l4 || self.l5 || self.l6
    }
}

/// Decides which L-rules apply to a repo-relative path (forward slashes).
/// Files outside [`in_analysis_scope`] get none.
pub fn rules_for(rel: &str) -> RuleSet {
    if !in_analysis_scope(rel) {
        return RuleSet::default();
    }
    // Binary entry points (CLI, figure harnesses, the analyzer) own their
    // stdout/stderr; library code must route output through telemetry.
    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/main.rs") || rel == "src/main.rs";
    RuleSet {
        l1: L1_CRATES.iter().any(|p| rel.starts_with(p)),
        l2: L2_SCOPES.iter().any(|p| rel.starts_with(p)),
        // Lock discipline holds everywhere in first-party sources,
        // including the CLI and this analyzer itself.
        l3: true,
        l4: L4_MODULES.contains(&rel),
        l5: !is_bin,
        // The allocation-free backward pass lives (and must stay) in the
        // graph tape; everywhere else `.clone()` is ordinary Rust.
        l6: rel == "crates/nn/src/graph.rs",
    }
}

/// Runs the enabled rules over one file. Findings are unsuppressed.
pub fn check(file: &str, src: &SourceFile, rules: RuleSet) -> Vec<Finding> {
    let mut out = Vec::new();
    if rules.l1 {
        check_tokens(
            file,
            src,
            "L1",
            &[
                (
                    ".unwrap()",
                    "`.unwrap()` in library code; return a Result or justify",
                ),
                (
                    ".expect(",
                    "`.expect(..)` in library code; return a Result or justify",
                ),
                (
                    "panic!",
                    "`panic!` in library code; return an error or justify",
                ),
            ],
            &mut out,
        );
    }
    if rules.l2 {
        check_tokens(
            file,
            src,
            "L2",
            &[
                (
                    "thread_rng",
                    "ambient `thread_rng()`; use a config-seeded ChaCha8Rng",
                ),
                (
                    "from_entropy",
                    "entropy-seeded RNG; use a config-seeded ChaCha8Rng",
                ),
                (
                    "rand::random",
                    "ambient `rand::random`; use a config-seeded ChaCha8Rng",
                ),
                (
                    "SystemTime::now()",
                    "wall-clock read in deterministic code; inject a clock",
                ),
                (
                    "Instant::now()",
                    "monotonic-clock read in deterministic code; inject a clock",
                ),
            ],
            &mut out,
        );
    }
    if rules.l3 {
        check_lock_discipline(file, src, &mut out);
    }
    if rules.l4 {
        check_tokens(
            file,
            src,
            "L4",
            &[
                (
                    "as f32",
                    "lossy `as f32` cast in numeric-critical code; justify exactness",
                ),
                (
                    "as f64",
                    "lossy `as f64` cast in numeric-critical code; justify exactness",
                ),
            ],
            &mut out,
        );
    }
    if rules.l5 {
        check_tokens(
            file,
            src,
            "L5",
            &[
                (
                    "println!",
                    "`println!` in library code; emit a telemetry event or use `progress!`",
                ),
                (
                    "eprintln!",
                    "`eprintln!` in library code; emit a telemetry event or use `progress!`",
                ),
                (
                    "print!",
                    "`print!` in library code; emit a telemetry event or use `progress!`",
                ),
                (
                    "eprint!",
                    "`eprint!` in library code; emit a telemetry event or use `progress!`",
                ),
                (
                    "dbg!",
                    "`dbg!` left in library code; remove it or trace via telemetry",
                ),
            ],
            &mut out,
        );
    }
    if rules.l6 {
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

fn check_tokens(
    file: &str,
    src: &SourceFile,
    rule: &'static str,
    tokens: &[(&str, &str)],
    out: &mut Vec<Finding>,
) {
    for &(token, message) in tokens {
        for at in find_token(&src.masked, token) {
            if boundary_ok(&src.masked, at, token) && !src.in_test(at) {
                out.push(finding(rule, file, src.line_of(at), message));
            }
        }
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
    use crate::{analyze_scoped, Analysis};
    use proptest::prelude::*;

    /// The L-rule findings `analyze_sources` reports for one file, with the
    /// rules chosen by `rules` instead of by path. (A call-graph rule may
    /// also fire on a snippet: `v.lock().fold(v.lock())` is an A1 too.)
    fn lint_text(file: &str, text: &str, rules: RuleSet) -> Vec<Finding> {
        let Analysis { mut findings, .. } =
            analyze_scoped(&[(file.to_string(), text.to_string())], |_| rules);
        findings.retain(|f| f.rule.starts_with('L'));
        findings
    }

    fn lint_all(text: &str) -> Vec<Finding> {
        lint_text("test.rs", text, RuleSet::all())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn scoping_matches_policy() {
        let r = rules_for("crates/core/src/aggregation.rs");
        assert!(r.l1 && r.l2 && r.l3 && !r.l4 && r.l5);
        let r = rules_for("crates/core/src/staleness.rs");
        assert!(r.l1 && r.l2 && r.l3 && r.l4);
        let r = rules_for("crates/envs/src/mujoco.rs");
        assert!(!r.l1 && !r.l2 && r.l3, "envs: lock discipline only");
        let r = rules_for("src/main.rs");
        assert!(!r.l1 && r.l3 && !r.l5, "CLI may panic and print");
        let r = rules_for("crates/telemetry/src/trace.rs");
        assert!(r.l1 && r.l5, "telemetry is panic-free, print-free library");
    }

    #[test]
    fn l6_is_scoped_to_the_graph_tape() {
        assert!(rules_for("crates/nn/src/graph.rs").l6);
        assert!(!rules_for("crates/nn/src/tensor.rs").l6);
        assert!(!rules_for("crates/rl/src/learner.rs").l6);
    }

    #[test]
    fn bins_are_exempt_from_print_discipline() {
        assert!(!rules_for("crates/bench/src/bin/fig6_ppo.rs").l5);
        assert!(!rules_for("crates/analyze/src/main.rs").l5);
        assert!(rules_for("crates/bench/src/lib.rs").l5);
        // `domain.rs` must not be mistaken for `main.rs`.
        assert!(rules_for("crates/core/src/domain.rs").l5);
    }

    #[test]
    fn out_of_scope_paths_get_no_rules() {
        for rel in [
            "vendor/rand/src/lib.rs",
            "tests/train_e2e.rs",
            "crates/bench/benches/aggregation.rs",
            "examples/custom_env.rs",
            "crates/cache/src/notes.md",
            "target/debug/build/foo.rs",
        ] {
            assert!(!rules_for(rel).any(), "{rel} must be unscoped");
        }
        assert!(rules_for("crates/cache/src/queue.rs").any());
    }

    #[test]
    fn analyze_crate_is_in_l3_scope_but_not_l1() {
        let r = rules_for("crates/analyze/src/model.rs");
        assert!(!r.l1 && r.l3 && r.l5);
    }

    #[test]
    fn ruleset_all_enables_everything() {
        let r = RuleSet::all();
        assert!(r.l1 && r.l2 && r.l3 && r.l4 && r.l5 && r.l6 && r.any());
        assert!(!RuleSet::default().any());
    }

    #[test]
    fn l1_flags_unwrap_expect_panic() {
        let d = lint_all("fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"z\"); }");
        assert_eq!(rules_of(&d), ["L1", "L1", "L1"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn l1_ignores_unwrap_or_family() {
        let d =
            lint_all("fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); x.unwrap_or_default(); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l1_ignores_test_code_and_comments_and_strings() {
        let src = r#"
// a comment mentioning panic! and x.unwrap()
fn f() { let s = "panic!"; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); panic!("fine in tests"); }
}
"#;
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn l2_flags_ambient_nondeterminism() {
        let d =
            lint_all("fn f() { let r = rand::thread_rng(); let t = std::time::Instant::now(); }");
        assert_eq!(rules_of(&d), ["L2", "L2"]);
    }

    #[test]
    fn l2_allows_seeded_and_injected() {
        let d = lint_all(
            "fn f(clock: &dyn Clock) { let r = ChaCha8Rng::seed_from_u64(7); let t = clock.now(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l3_flags_double_lock_in_one_expression() {
        let d = lint_all("fn f() { a.lock().merge(b.lock()); }");
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
    fn l4_flags_float_casts() {
        let d = lint_all("fn f(n: u64) -> f32 { n as f32 + (n as f64) as f32 }");
        assert_eq!(rules_of(&d), ["L4", "L4", "L4"]);
    }

    #[test]
    fn l5_flags_print_macros() {
        let d = lint_all("fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(z); }");
        assert_eq!(rules_of(&d), ["L5", "L5", "L5"]);
    }

    #[test]
    fn l5_does_not_cross_match_print_families() {
        // `println!` must not also fire the `print!` token, nor `eprintln!`
        // the `println!` token.
        let d = lint_all("fn f() { println!(\"x\"); }");
        assert_eq!(d.len(), 1, "{d:?}");
        let d = lint_all("fn f() { eprintln!(\"x\"); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn l5_allows_with_justification_and_test_code() {
        let d = lint_all(
            "fn f() {\n    // lint:allow(L5): stdout is this binary's data channel\n    println!(\"csv\");\n}",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = lint_all(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"dbg\"); }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn l6_flags_clone_in_backward_closure() {
        let src = "fn op(g: &Graph) {\n    g.push(\n        out,\n        Box::new(move |grad: &Tensor, sink: &mut GradSink| {\n            let t = grad.clone();\n            sink.add(a, t);\n        }),\n    );\n}";
        let d = lint_all(src);
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
        let d =
            lint_all("fn f() { x.unwrap(); } // lint:allow(L1): invariant: x was just inserted");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_with_justification_suppresses_next_line() {
        let src = "// lint:allow(L4): delta is bounded by cfg.rounds << 2^24\nfn f(n: u64) -> f32 { n as f32 }";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_an_error() {
        let d = lint_all("fn f() { x.unwrap(); } // lint:allow(L1)");
        assert!(
            d.iter()
                .any(|d| d.message.contains("requires a justification")),
            "{d:?}"
        );
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let d = lint_all("fn f() { x.unwrap(); } // lint:allow(L2): not the right rule");
        assert_eq!(rules_of(&d), ["L1"]);
    }

    #[test]
    fn allow_accepts_rule_names() {
        let d = lint_all(
            "fn f() { x.unwrap(); } // lint:allow(panic-freedom): checked two lines above",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let d = lint_all("fn f() {} // lint:allow(L9): nope");
        assert!(d.iter().any(|d| d.message.contains("unknown lint rule")));
    }

    #[test]
    fn analyzer_rule_allows_are_not_unknown_here() {
        // `lint:allow(A2)` is a known rule: it parses without an error and
        // suppresses nothing of L1's.
        let d = lint_all("fn f() { x.unwrap(); } // lint:allow(A2): guard is released by wait()");
        assert_eq!(rules_of(&d), ["L1"], "{d:?}");
    }

    #[test]
    fn rule_set_gates_rules() {
        let only_l1 = RuleSet {
            l1: true,
            ..RuleSet::default()
        };
        let d = lint_text(
            "t.rs",
            "fn f(n: u64) -> f32 { thread_rng(); n as f32 }",
            only_l1,
        );
        assert!(d.is_empty(), "L2/L4 disabled: {d:?}");
    }

    #[test]
    fn diagnostics_point_at_lines() {
        let src = "fn a() {}\nfn b() { x.unwrap(); }\n";
        let d = lint_all(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        let shown = d[0].to_string();
        assert!(shown.starts_with("test.rs:2: L1"), "{shown}");
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
        fn unwrap_on_any_receiver_is_flagged(name in ".{0,12}") {
            let receiver = ident_from(&name);
            let src = format!("fn f() {{ {receiver}.unwrap(); }}");
            let diags = lint_text("x.rs", &src, RuleSet::all());
            prop_assert_eq!(diags.len(), 1);
            prop_assert_eq!(diags[0].rule, "L1");
        }

        #[test]
        fn tokens_inside_string_literals_never_fire(payload in ".{0,40}") {
            // Whatever the literal contains — including `.unwrap()`, `panic!`,
            // `thread_rng` — masking must hide it from every rule.
            let escaped = payload.replace(['\\', '"'], "");
            let src = format!(
                "fn f() -> String {{ format!(\"{escaped}.unwrap() panic! thread_rng as f32\") }}"
            );
            let diags = lint_text("x.rs", &src, RuleSet::all());
            prop_assert!(diags.is_empty(), "{:?}", diags);
        }

        #[test]
        fn tokens_inside_comments_never_fire(payload in ".{0,40}") {
            let line = payload.replace('\n', " ").replace("lint:allow", "lint allow");
            let src = format!("// {line} .unwrap() panic! Instant::now() as f64\nfn f() {{}}\n");
            let diags = lint_text("x.rs", &src, RuleSet::all());
            prop_assert!(diags.is_empty(), "{:?}", diags);
        }

        #[test]
        fn any_nonempty_justification_suppresses(reason in ".{1,40}") {
            let reason = reason.trim().to_string();
            if reason.is_empty() || reason.contains(')') {
                return Ok(());
            }
            let src = format!("fn f() {{ x.unwrap(); }} // lint:allow(L1): {reason}");
            let diags = lint_text("x.rs", &src, RuleSet::all());
            prop_assert!(diags.is_empty(), "justified allow must suppress: {:?}", diags);
        }

        #[test]
        fn unjustified_allow_never_suppresses(pad in 0usize..8) {
            let spaces = " ".repeat(pad);
            let src = format!("fn f() {{ x.unwrap(); }} // lint:allow(L1){spaces}");
            let diags = lint_text("x.rs", &src, RuleSet::all());
            // Both the violation and the malformed-allow error must surface.
            prop_assert!(diags.iter().any(|d| d.message.contains("unwrap")), "{:?}", diags);
            prop_assert!(
                diags.iter().any(|d| d.message.contains("requires a justification")),
                "{:?}",
                diags
            );
        }

        #[test]
        fn test_code_is_exempt_for_all_rules(name in ".{0,12}") {
            let receiver = ident_from(&name);
            let src = format!(
                "#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        {receiver}.unwrap();\n        panic!(\"x\");\n        let _ = rand::thread_rng();\n        let _ = 3u64 as f32;\n        a.lock().merge(b.lock());\n    }}\n}}\n"
            );
            let diags = lint_text("x.rs", &src, RuleSet::all());
            prop_assert!(diags.is_empty(), "{:?}", diags);
        }

        #[test]
        fn cast_count_matches_occurrences(n in 1usize..6) {
            let body: String = (0..n).map(|i| format!("let _{i} = {i}u64 as f32; ")).collect();
            let src = format!("fn f() {{ {body} }}");
            let diags = lint_text("x.rs", &src, RuleSet::all());
            prop_assert_eq!(diags.len(), n);
            prop_assert!(diags.iter().all(|d| d.rule == "L4"));
        }

        #[test]
        fn double_lock_flagged_regardless_of_names(a in ".{0,10}", b in ".{0,10}") {
            let (ma, mb) = (ident_from(&a), ident_from(&b));
            let src = format!("fn f() {{ {ma}.lock().fold({mb}.lock()); }}");
            let diags = lint_text("x.rs", &src, RuleSet::all());
            prop_assert_eq!(diags.len(), 1, "{:?}", &diags);
            prop_assert_eq!(diags[0].rule, "L3");
        }
    }
}
