//! The gate this crate exists for: the Stellaris workspace carries zero
//! unsuppressed findings under all eight rules, and a seeded hazard is
//! caught in the file it was planted in. CI runs the binary; these tests
//! keep `cargo test` equivalent to the CI job.

use stellaris_analyze::{analyze_sources, analyze_workspace, find_workspace_root};

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
