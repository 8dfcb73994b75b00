//! The gate this crate exists for: the Stellaris workspace carries zero
//! unsuppressed findings under all seventeen rules, and a seeded violation
//! is caught with a `file:line` finding. CI runs the binary; these tests
//! keep `cargo test` equivalent to the CI job.

use stellaris_analyze::{analyze_sources, analyze_workspace, find_workspace_root, Finding};

fn root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    find_workspace_root(&cwd).expect("workspace root above test cwd")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let analysis = analyze_workspace(&root()).expect("workspace read");
    assert!(
        analysis.findings.is_empty(),
        "unsuppressed concurrency findings:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually saw the workspace, not an empty dir.
    assert!(
        analysis.files > 50,
        "only {} files analyzed",
        analysis.files
    );
    assert!(analysis.fns > 400, "only {} fns modeled", analysis.fns);
}

/// Every in-scope workspace source as `(repo-relative path, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    let root = root();
    let mut rels = Vec::new();
    stellaris_analyze::collect_rs_files(&root, &root, &mut rels).expect("walk");
    rels.sort();
    rels.into_iter()
        .filter(|rel| stellaris_analyze::in_analysis_scope(rel))
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel)).expect("read");
            (rel, text)
        })
        .collect()
}

/// Analyzes the workspace with `line` appended to the file at `rel`, and
/// returns the findings plus the appended line's number.
fn analyze_with_appended(rel: &str, line: &str) -> (Vec<Finding>, usize) {
    let mut files = workspace_sources();
    let (_, text) = files
        .iter_mut()
        .find(|(path, _)| path == rel)
        .expect("seeded file is in scope");
    text.push_str(line);
    let seeded_line = text.lines().count();
    (analyze_sources(&files).findings, seeded_line)
}

#[test]
fn a9_allowlist_names_live_fns() {
    // Rename protection: the analyzer only reports an allowlist entry as
    // stale when its function is in the analyzed set (so fixture subsets
    // stay quiet); this test closes the gap by requiring every entry to
    // name a live workspace function that still performs that allocation.
    // The entry count is pinned by `crates/nn/tests/arena_allocs.rs`.
    use stellaris_analyze::ALLOC_ALLOWLIST;
    let mut fns = Vec::new();
    for (rel, text) in workspace_sources() {
        let src = stellaris_analyze::SourceFile::parse(&text);
        fns.extend(stellaris_analyze::model_file(&rel, &src).fns);
    }
    for (fname, kind, why) in ALLOC_ALLOWLIST {
        let f = fns
            .iter()
            .find(|f| f.name == fname)
            .unwrap_or_else(|| panic!("allowlist names `{fname}` ({why}) but no such fn exists"));
        assert!(
            f.allocs.iter().any(|a| a.what == kind),
            "allowlist sanctions `{kind}` in `{fname}` but the fn no longer allocates that way"
        );
    }
}

#[test]
fn seeded_hazard_on_top_of_workspace_is_caught() {
    // Make sure a real regression in first-party code would fail the gate:
    // re-analyze the workspace plus one seeded AB/BA file.
    let mut files = workspace_sources();
    files.push((
        "crates/core/src/seeded_hazard.rs".to_string(),
        include_str!("fixtures/ab_ba.rs").to_string(),
    ));
    let analysis = analyze_sources(&files);
    assert!(
        analysis
            .findings
            .iter()
            .any(|f| f.rule == "A1" && f.file == "crates/core/src/seeded_hazard.rs"),
        "seeded cycle must surface: {:#?}",
        analysis.findings
    );
}

#[test]
fn seeded_violation_in_core_module_is_caught() {
    // An unwrap added to core::aggregation must produce exactly one finding,
    // L1, with the right file and line.
    let rel = "crates/core/src/aggregation.rs";
    let (findings, seeded_line) = analyze_with_appended(
        rel,
        "\npub fn seeded() { let _ = std::env::var(\"X\").unwrap(); }\n",
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "L1");
    assert_eq!(findings[0].file, rel);
    assert_eq!(findings[0].line, seeded_line);
    assert!(findings[0].to_string().contains("aggregation.rs"));
}

#[test]
fn seeded_nondeterminism_in_deterministic_crate_is_caught() {
    let (findings, _) = analyze_with_appended(
        "crates/nn/src/optim.rs",
        "\npub fn jitter() -> u64 { rand::thread_rng().next_u64() }\n",
    );
    assert!(
        findings.iter().any(|f| f.rule == "L2"),
        "thread_rng must trip L2: {findings:#?}"
    );
}
