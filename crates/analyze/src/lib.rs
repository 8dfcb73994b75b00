//! `stellaris-analyze`: the Stellaris workspace's one static analyzer.
//!
//! The crate builds a lightweight source model — a lossless token stream
//! ([`token`]), masked source with comment/test tracking ([`source`]), and
//! per-function concurrency facts ([`model`]) — and checks eight
//! whole-workspace rules over it, the ones no off-the-shelf checker does.
//! Panic-freedom, lossy casts, print discipline, swallowed `Result`s and
//! `// SAFETY:` comments on every unsafe operation are clippy and rustc
//! lints, set in the crate roots and the workspace lint tables; allocation
//! in a backward closure is counted by `crates/nn/tests/arena_allocs.rs`
//! (DESIGN.md §9).
//!
//! The analyses ([`analyses`], [`dataflow`], [`reachability`]) run over a
//! call graph with interprocedural lock/block/channel summaries
//! ([`callgraph`]):
//!
//! * **A1 `lock-order`** — lock acquisition-order graph; cycles (including
//!   through calls) are potential deadlocks.
//! * **A2 `held-guard`** — a mutex/rwlock guard held across a blocking call,
//!   channel op, or another acquisition reached through a call chain; an
//!   unbound temporary guard is held for its whole statement.
//! * **A3 `channel-topology`** — senders whose receiver is dropped unused,
//!   and unbounded queues that are pushed to but never popped.
//! * **A4 `determinism-taint`** — non-deterministic sources (wall clock,
//!   ambient RNG, hash-iteration order, thread identity) flowing into
//!   training-result sinks, interprocedurally, with a sanitizer set.
//! * **A5 `atomics-ordering`** — `Relaxed` on one side of an
//!   acquire/release protocol, and unobservable `SeqCst`.
//! * **A6 `float-reduction-order`** — order-unstable float reductions in
//!   numeric scopes.
//! * **A8 `panic-reachability`** — panic sites (`unwrap`/`expect`/
//!   `panic!`-family, decode indexing) reachable from serverless
//!   invocation entry points, the orchestrator round loop, or wire-decode
//!   surfaces, with witness chains.
//! * **A9 `hot-alloc`** — unconditional fresh allocations reachable from
//!   the annotated hot roots, checked against an explicit allowlist whose
//!   length a counting-allocator test pins.
//!
//! A finding is suppressed only by a justified
//! `// lint:allow(<rule>): <why>` comment at its site (registry in
//! [`source::KNOWN_RULES`]). Output formats live in [`report`].

pub mod analyses;
pub mod callgraph;
pub mod dataflow;
pub mod explain;
pub mod model;
pub mod reachability;
pub mod report;
pub mod source;
pub mod token;

pub use analyses::{channel_topology, held_guard, lock_order, Finding};
pub use callgraph::{build_graph, summarize, CallGraph, Summary};
pub use dataflow::{atomics_ordering, determinism_taint, float_reduction};
pub use model::{model_file, FileModel, FnInfo};
pub use reachability::{alloc_reachability, panic_reachability, ALLOC_ALLOWLIST};
pub use report::{render, Format};
pub use source::{
    canonical_rule, parse_allows, rule_name, Allows, SourceFile, KNOWN_RULES, MALFORMED_ALLOW,
};

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Result of analyzing a set of sources.
#[derive(Debug)]
pub struct Analysis {
    /// Unsuppressed findings, sorted by `(file, line, rule, message)`.
    pub findings: Vec<Finding>,
    /// Count of findings silenced by `lint:allow(..)` comments.
    pub suppressed: usize,
    /// Number of files analyzed.
    pub files: usize,
    /// Number of functions modeled.
    pub fns: usize,
}

/// Whether a repo-relative path (forward slashes) is in analysis scope.
///
/// First-party `src/` trees only; vendored crates, build output, and
/// test/bench/example trees are excluded. The analyses apply uniformly to
/// every in-scope file (bins included — a deadlock in `main.rs` is still a
/// deadlock).
pub fn in_analysis_scope(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    let excluded = rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/");
    if excluded {
        return false;
    }
    rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
}

/// Analyzes in-memory sources given as `(repo-relative path, text)` pairs.
///
/// The call graph spans all files at once, so cross-file lock orders and
/// guard-across-call hazards are visible. `lint:allow` suppressions are
/// honored here for every rule, and a malformed allow comment is itself a
/// [`MALFORMED_ALLOW`] finding that no allow can silence.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut models: Vec<(FileModel, SourceFile)> = Vec::with_capacity(files.len());
    for (path, text) in files {
        let src = SourceFile::parse(text);
        let model = model_file(path, &src);
        models.push((model, src));
    }
    let all_fns: Vec<FnInfo> = models.iter().flat_map(|(m, _)| m.fns.clone()).collect();
    let graph = build_graph(&all_fns);
    let sums = summarize(&all_fns, &graph);

    let mut findings = lock_order(&all_fns, &sums, &graph);
    findings.extend(held_guard(&all_fns, &sums, &graph));
    findings.extend(channel_topology(&models, &all_fns));
    findings.extend(determinism_taint(&all_fns, &sums, &graph));
    findings.extend(atomics_ordering(&all_fns));
    findings.extend(float_reduction(&all_fns));
    findings.extend(panic_reachability(&all_fns, &graph));
    findings.extend(alloc_reachability(&all_fns, &graph));

    let allows: HashMap<&str, Allows> = models
        .iter()
        .map(|(m, s)| (m.path.as_str(), parse_allows(s)))
        .collect();
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for f in findings {
        let silenced = allows
            .get(f.file.as_str())
            .is_some_and(|a| a.suppressed(f.rule, f.line));
        if silenced {
            suppressed += 1;
        } else {
            kept.push(f);
        }
    }
    for (file, a) in &allows {
        kept.extend(a.errors.iter().map(|(line, message)| Finding {
            rule: MALFORMED_ALLOW.0,
            file: file.to_string(),
            line: *line,
            message: message.clone(),
        }));
    }
    kept.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    // A call-graph analysis can reach one site along several paths.
    kept.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
    });

    Analysis {
        findings: kept,
        suppressed,
        files: models.len(),
        fns: all_fns.len(),
    }
}

/// Analyzes every in-scope source file under `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::new();
    for rel in rels {
        if !in_analysis_scope(&rel) {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, text));
    }
    Ok(analyze_sources(&files))
}

/// Recursively lists `.rs` files under `dir` as repo-relative paths with
/// forward slashes, skipping `target/`, `vendor/`, and `.git/`.
pub fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "vendor" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_covers_first_party_sources_only() {
        assert!(in_analysis_scope("crates/core/src/orchestrator.rs"));
        assert!(in_analysis_scope("src/main.rs"));
        assert!(in_analysis_scope("crates/bench/src/bin/fig6_ppo.rs"));
        for rel in [
            "vendor/rand/src/lib.rs",
            "tests/train_e2e.rs",
            "crates/bench/benches/aggregation.rs",
            "crates/cache/tests/queue.rs",
            "examples/custom_env.rs",
            "crates/cache/src/notes.md",
            "target/debug/build/foo.rs",
        ] {
            assert!(!in_analysis_scope(rel), "{rel} must be out of scope");
        }
    }

    #[test]
    fn analyze_sources_spans_files_and_sorts() {
        let files = vec![
            (
                "crates/x/src/a.rs".to_string(),
                "impl P { pub fn fwd(&self) { let ga = self.a.lock(); self.bwd_helper(); } }\n"
                    .to_string(),
            ),
            (
                "crates/x/src/b.rs".to_string(),
                "impl P { pub fn bwd_helper(&self) { let gb = self.b.lock(); let ga = self.a.lock(); } }\n"
                    .to_string(),
            ),
        ];
        let analysis = analyze_sources(&files);
        assert_eq!(analysis.files, 2);
        assert!(analysis.fns >= 2);
        // a.rs holds `a` across a call that locks `b` then `a`: A1 cycle and
        // A2 held-guard hazard both fire.
        assert!(
            analysis.findings.iter().any(|f| f.rule == "A1"),
            "{:?}",
            analysis.findings
        );
        assert!(
            analysis.findings.iter().any(|f| f.rule == "A2"),
            "{:?}",
            analysis.findings
        );
        let mut sorted = analysis
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line))
            .collect::<Vec<_>>();
        let original = sorted.clone();
        sorted.sort();
        assert_eq!(original, sorted, "findings must come back sorted");
    }

    #[test]
    fn lint_allow_suppresses_analyzer_findings() {
        let noisy = "pub fn fwd(p: &P) { let ga = p.a.lock(); let gb = p.b.lock(); }\n\
                     pub fn bwd(p: &P) { let gb = p.b.lock(); let ga = p.a.lock(); }\n";
        let clean = analyze_sources(&[(
            "crates/x/src/a.rs".to_string(),
            format!("// lint:allow(A1): intentional in this test model\n{noisy}"),
        )]);
        // The allow sits on the line above the first `fn` line, which anchors
        // the A1 report.
        assert!(
            clean.findings.iter().all(|f| f.rule != "A1"),
            "{:?}",
            clean.findings
        );
        assert!(clean.suppressed >= 1);
        let dirty = analyze_sources(&[("crates/x/src/a.rs".to_string(), noisy.to_string())]);
        assert!(dirty.findings.iter().any(|f| f.rule == "A1"));
    }

    #[test]
    fn malformed_allows_are_findings() {
        // An allow with no reason, and ones naming a retired rule or no rule
        // at all, each surface as a malformed-allow finding at their line,
        // and an allow cannot silence them.
        let text = "pub fn f() -> u64 {\n    // lint:allow(L1)\n    // lint:allow(L1): meant for the line below\n    // lint:allow(L9): no such rule\n    7\n}\n";
        let analysis = analyze_sources(&[("crates/x/src/a.rs".to_string(), text.to_string())]);
        let got: Vec<(&str, usize, bool)> = analysis
            .findings
            .iter()
            .map(|f| (f.rule, f.line, f.message.contains("lint:allow")))
            .collect();
        assert_eq!(
            got,
            [("allow", 2, true), ("allow", 3, true), ("allow", 4, true)],
            "{:?}",
            analysis.findings
        );
    }
}
