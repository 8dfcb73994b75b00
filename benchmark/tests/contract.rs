//! The benchmark's contract with `BENCHMARK.json` and the root manifest:
//! the checked-in file equals what the tables generate, the names a run
//! emits are exactly the names it declares, and this standalone workspace
//! compiles the product the way the root does.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_stellaris-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_owned()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The quoted string that follows each occurrence of `before`.
fn strings_after<'a>(text: &'a str, before: &str) -> Vec<&'a str> {
    text.match_indices(before)
        .map(|(i, _)| {
            let rest = &text[i + before.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// The entries of one top-level array of `BENCHMARK.json`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\": [")).expect(key);
    let rest = &json[start..];
    &rest[..rest.find("\n  ]").expect("array end")]
}

#[test]
fn checked_in_benchmark_json_is_what_the_tables_generate() {
    let out = Command::new(BIN).arg("--describe").output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        read(&repo_root().join("BENCHMARK.json")),
        "regenerate with: stellaris-benchmark --describe > BENCHMARK.json"
    );
}

fn release_profile(manifest: &str) -> BTreeSet<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap().replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_equals_the_roots() {
    let ours = release_profile(&read(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"),
    ));
    let roots = release_profile(&read(&repo_root().join("Cargo.toml")));
    assert!(ours.contains("codegen-units=1") && ours.contains("lto=\"thin\""));
    assert_eq!(ours, roots, "a standalone workspace does not inherit it");
}

/// The product binary the remote workload spawns, if someone built it.
fn worker_bin() -> Option<PathBuf> {
    let root = repo_root();
    // A relative CARGO_TARGET_DIR is relative to where `run.sh` ran: the root.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    Some(root.join(target).join("release/stellaris")).filter(|p| p.is_file())
}

#[test]
fn tiny_runs_emit_exactly_the_declared_names() {
    let json = read(&repo_root().join("BENCHMARK.json"));
    let workloads = strings_after(section(&json, "workloads"), "{\"name\": \"");
    assert_eq!(workloads.len(), 5);
    let declared = |key: &str| -> BTreeSet<String> {
        strings_after(section(&json, key), "{\"name\": \"")
            .into_iter()
            .map(str::to_owned)
            .collect()
    };
    let Some(worker) = worker_bin() else {
        eprintln!("skipped: no release `stellaris` binary found (benchmark/run.sh builds one)");
        return;
    };
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tiny-out");
    for workload in workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(BIN)
                .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace, "--tiny", "--worker-bin"])
                .arg(&worker)
                .arg("--out")
                .arg(&out_dir)
                .current_dir(repo_root())
                .output()
                .unwrap();
            assert!(out.status.success(), "{workload} trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
            let emitted: BTreeSet<String> = metrics
                .split("\": {\"value\": ")
                .filter_map(|part| part.rsplit('"').next())
                .filter(|name| !name.contains('}'))
                .map(str::to_owned)
                .collect();
            assert_eq!(emitted, declared(key), "{workload} trace {trace}");
            for name in &emitted {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name:?}"
                );
            }
        }
    }
}
